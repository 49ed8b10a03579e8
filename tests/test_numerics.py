import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from derangetropy.errors import (
    DomainError,
    InvalidGrid,
    NoSignChange,
    NonConvergence,
    NonFiniteSample,
)
from derangetropy import Exponential, Normal, Semicircle, Uniform, derangetropy_profile, numerics
from derangetropy.numerics import (
    _adaptive_simpson,
    _trapezoid,
    _unit_density,
    central_difference,
    find_root,
    integrate,
)
from derangetropy.verify import find_equilibria

# the quadrature rule under test and its oracle, called as rule(f, a, b, abs_tol)
ROUTES, ROUTE_IDS = [integrate, _adaptive_simpson], ["gauss_legendre", "simpson"]

# target of the sin(pi z) z^z (1-z)^(1-z) integral over [0,1]
PI_E_OVER_24 = math.pi * math.e / 24.0


# float64 unit roundoff
U = 2.0**-53


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k roundings in a row."""
    return k * U / (1.0 - k * U)


def bumpy(z):
    # smooth positive integrand with both endpoint factors of interest
    zz = np.asarray(z, dtype=float)
    p = np.where(zz > 0.0, zz, 1.0)
    q = np.where(zz < 1.0, 1.0 - zz, 1.0)
    return np.sin(np.pi * zz) * np.power(p, zz) * np.power(q, 1.0 - zz)


class TestIntegrate:
    def test_constant(self):
        assert abs(integrate(lambda x: np.ones_like(x), 0.0, 1.0) - 1.0) < 1e-12

    def test_linear(self):
        assert abs(integrate(lambda x: 2.0 * x, 0.0, 1.0) - 1.0) < 1e-12

    def test_cubic_over_shifted_interval(self):
        val = integrate(lambda x: x ** 3, -1.0, 2.0)
        assert abs(val - 15.0 / 4.0) < 1e-10

    def test_orientation_and_degenerate(self):
        f = lambda x: x ** 2
        assert integrate(f, 2.0, 2.0) == 0.0
        assert abs(integrate(f, 1.0, 0.0) + integrate(f, 0.0, 1.0)) < 1e-14

    @pytest.mark.parametrize("rule", ROUTES, ids=ROUTE_IDS)
    def test_endpoint_power_integrand(self, rule):
        val = rule(bumpy, 0.0, 1.0, numerics.ABS_TOL)
        assert abs(val - PI_E_OVER_24) < 1e-8

    def test_default_method_hits_requested_tolerance(self):
        val = integrate(bumpy, 0.0, 1.0, 1e-12)
        assert abs(val - PI_E_OVER_24) < 1e-10

    def test_inverse_sqrt_singularity(self):
        # integrable endpoint blowup; interior-node panels must grade into it
        val = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert abs(val - 2.0) < 1e-9

    def test_inverse_sqrt_exhausts_simpson(self):
        # the simpson route samples (nudged) endpoints, so the cached huge
        # value near 0 keeps its leftmost panel from ever being accepted
        with pytest.raises(NonConvergence):
            _adaptive_simpson(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, numerics.ABS_TOL)

    @pytest.mark.parametrize("rule", ROUTES, ids=ROUTE_IDS)
    def test_budget_exhaustion(self, rule, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_SPLITS", 4)
        with pytest.raises(NonConvergence, match="after 4 "):
            rule(lambda x: np.sin(200.0 / (np.asarray(x) + 0.01)), 0.0, 1.0, 1e-14)

    @pytest.mark.parametrize("rule", ROUTES, ids=ROUTE_IDS)
    def test_non_finite_sample(self, rule):
        def f(x):
            arr = np.asarray(x, dtype=float)
            return np.where(arr > 0.5, np.nan, 1.0)

        with pytest.raises(NonFiniteSample):
            rule(f, 0.0, 1.0, numerics.ABS_TOL)

    def test_nonfinite_endpoints_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, math.inf)

    def test_overflowing_panel(self):
        # every sample is finite but the weighted sums overflow; both panel values are inf, and
        # their difference nan would end the loop as if the estimate met the tolerance
        with pytest.raises(NonFiniteSample, match=r"panel \[0\.0, 10\.0\]"):
            integrate(lambda x: np.full_like(x, 1e308), 0.0, 10.0)

    def test_scalar_only_integrand(self):
        # integrands that choke on arrays fall back to a scalar loop
        def f(x):
            if isinstance(x, np.ndarray):
                raise TypeError("scalar only")
            return x * x

        assert abs(integrate(f, 0.0, 1.0) - 1.0 / 3.0) < 1e-12

    def test_one_integrand_call_per_refinement_step(self):
        from scipy.integrate import quad

        from derangetropy.verify import appendix_integrand

        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return appendix_integrand(x)

        val = integrate(counted, 0.0, 1.0, 1e-12)
        # the root panel takes 12 + 24 nodes, each later call both halves of a split
        assert sizes[0] == 36 and len(sizes) > 1
        assert all(n == 72 for n in sizes[1:])
        assert abs(val - quad(appendix_integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)[0]) < 1e-12

    def test_calls_are_one_plus_splits(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_SPLITS", 7)
        calls = []

        def counted(x):
            calls.append(x)
            return np.sin(200.0 / (x + 0.01))

        with pytest.raises(NonConvergence, match="after 7 panel splits"):
            integrate(counted, 0.0, 1.0, 1e-14)
        assert len(calls) == 1 + 7

    @given(
        alpha=st.floats(-10, 10, allow_nan=False),
        beta=st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity_on_affine(self, alpha, beta):
        val = integrate(lambda x: alpha * x + beta, 0.0, 2.0)
        assert abs(val - (2.0 * alpha + 2.0 * beta)) < 1e-9 * (1.0 + abs(alpha) + abs(beta))


class TestAbsTol:
    def test_default(self):
        assert numerics.ABS_TOL == 1e-10
        assert inspect.signature(integrate).parameters["abs_tol"].default is numerics.ABS_TOL

    # checked before the endpoints, so an empty interval does not hide a bad tolerance
    @pytest.mark.parametrize("abs_tol", [0.0, -1e-3, math.nan, math.inf])
    def test_validation(self, abs_tol):
        with pytest.raises(DomainError, match="abs_tol"):
            integrate(lambda x: x, 0.0, 0.0, abs_tol)


class TestSimpsonOracle:
    """integrate against _adaptive_simpson, a rule that shares no nodes, weights or
    error estimate with it, on the integrands of the appendix and normalization checks."""

    # each rule's own error estimate is held to 1e-10, so two correct answers lie
    # within 2e-10 of each other; the gaps seen are at most 2.6e-11 (Normal)
    GAP = 2e-10

    def test_appendix_integrand(self):
        from derangetropy.verify import appendix_integrand

        value = integrate(appendix_integrand, 0.0, 1.0, 1e-10)
        assert abs(value - _adaptive_simpson(appendix_integrand, 0.0, 1.0, 1e-10)) < self.GAP

    # Arcsin is left out: its rho has an inverse square root at both ends, and
    # Simpson samples (nudged) endpoints, so it cannot split its edge panel
    @pytest.mark.parametrize(
        "d",
        [Uniform(0.0, 1.0), Normal(0.0, 1.0), Exponential(1.0), Semicircle(-1.0, 1.0)],
        ids=lambda d: type(d).__name__,
    )
    def test_normalization_integrands(self, d):
        lo, hi = d.truncated_support(1e-9)

        def rho(xs):
            return derangetropy_profile(d, xs)[2]

        value = integrate(rho, lo, hi, 1e-10)
        assert abs(value - _adaptive_simpson(rho, lo, hi, 1e-10)) < self.GAP


def _kernel_samples(xs):
    scale = 24.0 / (math.pi * math.e)
    return scale * np.sin(np.pi * xs) * np.power(np.where(xs > 0, xs, 1.0), xs) * np.power(
        np.where(xs < 1, 1.0 - xs, 1.0), 1.0 - xs
    )


class TestUnitDensity:
    """The sampled-density rule: trapezoid mass, then the running trapezoid cdf."""

    def test_flat_density(self):
        density, cdf, mass = _unit_density(np.array([2.0, 2.0, 2.0]), np.array([0.0, 0.5, 1.0]))
        assert mass == 2.0
        assert density.tolist() == [1.0, 1.0, 1.0]
        assert cdf.tolist() == [0.0, 0.5, 1.0]

    def test_triangle(self):
        _, cdf, mass = _unit_density(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 2.0]))
        assert mass == 1.0
        assert cdf.tolist() == [0.0, 0.5, 1.0]

    def test_kernel_shaped_grid(self):
        # trapezoid defect on 1001 uniform points is (h^2/12)*|g'(1)-g'(0)|
        # with slopes +-24/e, about 1.47e-6; pin the bound, not exactness
        xs = np.linspace(0.0, 1.0, 1001)
        ys = _kernel_samples(xs)
        _, _, mass = _unit_density(ys.copy(), xs)
        assert abs(mass - 1.0) < 1.6e-6
        assert abs(mass - float(np.trapezoid(ys, xs))) < 1e-14

    def test_kernel_defect_shrinks_with_refinement(self):
        def defect(n):
            xs = np.linspace(0.0, 1.0, n)
            return abs(_unit_density(_kernel_samples(xs), xs)[2] - 1.0)

        assert defect(2001) < 4e-7 < defect(1001)

    def test_cdf_error_is_second_order(self):
        # density 3x^2 on [0, 1] has cdf x^3; a density whose trapezoid error
        # is proportional to its cdf (sin, exp) would hide it in the division
        def error(n):
            xs = np.linspace(0.0, 1.0, n)
            _, cdf, _ = _unit_density(3.0 * xs * xs, xs)
            return float(np.max(np.abs(cdf - xs**3)))

        assert 3.9 < error(1001) / error(2001) < 4.1

    def test_matches_scipy_on_nonuniform_grid(self):
        from scipy.integrate import cumulative_trapezoid

        rng = np.random.default_rng(7)
        xs = np.cumsum(rng.uniform(1e-3, 1.0, 5001))
        ys = rng.uniform(0.0, 3.0, 5001)
        oracle = cumulative_trapezoid(ys, xs, initial=0.0)
        density, cdf, mass = _unit_density(ys.copy(), xs)
        assert cdf[0] == 0.0 and cdf[-1] == 1.0
        np.testing.assert_allclose(mass, oracle[-1], rtol=1e-14)
        np.testing.assert_allclose(density, ys / oracle[-1], rtol=1e-14)
        np.testing.assert_allclose(cdf, oracle / oracle[-1], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("lo, hi", [(0, 9), (3, 7), (4, 5), (0, 3), (6, 9)])
    def test_support_range_matches_whole_grid(self, lo, hi):
        rng = np.random.default_rng(lo * 10 + hi)
        xs = np.cumsum(rng.uniform(0.1, 1.0, 9))
        ys = np.zeros(9)
        ys[lo:hi] = rng.uniform(0.5, 2.0, hi - lo)
        whole = _unit_density(ys.copy(), xs)
        part = _unit_density(ys.copy(), xs, lo, hi)
        # the two add the same 8 nonnegative terms in different orders, each mass within gamma_7
        # of the exact one, so within gamma_15 of each other; each density is the same values
        # over its mass (one rounding each, gamma_18); each cdf is a running sum (gamma_7) of
        # steps taking two roundings from the density (gamma_22), over its last sum (gamma_74)
        assert abs(part[2] - whole[2]) <= _gamma(15) * whole[2]
        assert np.all(np.abs(part[0] - whole[0]) <= _gamma(18) * whole[0])
        assert np.all(np.abs(part[1] - whole[1]) <= _gamma(74) * whole[1])
        assert part[1][-1] == 1.0

    @pytest.mark.parametrize("ys", [[0.0, 0.0, 0.0], [1.0, math.inf, 1.0], [1.0, math.nan, 1.0]])
    def test_mass_must_be_positive_and_finite(self, ys):
        with pytest.raises(InvalidGrid):
            _unit_density(np.array(ys), np.array([0.0, 0.5, 1.0]))

    def test_mass_past_the_float_range(self):
        # every block sum is finite, about 3.3e307, but eight of them overflow: math.fsum raises
        # OverflowError there, and the rule must still report the mass as InvalidGrid
        n = 8 * numerics._BLOCK + 1
        with pytest.raises(InvalidGrid, match="^sampled density has mass inf$"):
            _unit_density(np.full(n, 1e303), np.arange(n, dtype=float))

    @given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_and_matches_trapezoid(self, ys):
        xs = np.arange(len(ys), dtype=float)
        ys = np.asarray(ys)
        # the rule rejects a mass that is 0, as [0, 5e-324] has after rounding
        assume(np.trapezoid(ys, xs) > 0.0)
        # and a mass below one smallest normal number per node, as [5e-324, 5e-324] has
        if np.trapezoid(ys, xs) < len(ys) * np.finfo(float).tiny:
            with pytest.raises(InvalidGrid, match="too small to scale to unit mass"):
                _unit_density(ys.copy(), xs)
            return
        _, cdf, mass = _unit_density(ys.copy(), xs)
        assert np.all(np.diff(cdf) >= 0.0)
        assert abs(mass - float(np.trapezoid(ys, xs))) < 1e-9 * (1.0 + mass)


def _np_sum_roundings(m):
    """The most roundings that one of m float64 terms meets in np.sum.

    np.sum is numpy's partial pairwise summation: it halves the array, at most
    ceil(log2 m) times on the way to any term, until a piece holds at most 128 terms,
    and adds a piece in eight running sums of at most 16 terms, three additions to
    join them and at most seven for a tail; one more adds it all to the first term.
    """
    return math.ceil(math.log2(max(m, 1))) + 26


class TestTrapezoid:
    """The one trapezoid rule against math.fsum over all of its terms, with the
    integrand given as an array and as a block function, and against np.trapezoid
    on a grid of one block."""

    @pytest.mark.parametrize("block", [128, None], ids=["block-128", "block-default"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_np_trapezoid_bitwise(self, seed, block, monkeypatch):
        # one block is one np.sum of the terms that np.trapezoid sums halved, and halving
        # is exact, so the two agree to the bit whatever order np.sum adds in: a tabulated
        # density of at most _BLOCK + 1 nodes keeps the normalization np.trapezoid gave it
        if block:
            monkeypatch.setattr(numerics, "_BLOCK", block)
        b = numerics._BLOCK
        rng = np.random.default_rng(seed)
        for n in [2, 3, b, b + 1] + rng.integers(2, b + 2, 2).tolist():
            xs = np.cumsum(rng.uniform(1e-3, 1.0, n))
            ys = rng.standard_normal(n) * np.exp(4.0 * rng.standard_normal(n))
            want = repr(float(np.trapezoid(ys, xs)))
            assert repr(_trapezoid(ys, xs)) == want, n
            assert repr(_trapezoid(lambda s, e: ys[s:e].copy(), xs)) == want, n

    @pytest.mark.parametrize("block", [128, None], ids=["block-128", "block-default"])
    @pytest.mark.parametrize("seed", range(4))
    def test_within_bound_of_fsum(self, seed, block, monkeypatch):
        if block:
            monkeypatch.setattr(numerics, "_BLOCK", block)
        b = numerics._BLOCK
        rng = np.random.default_rng(seed)
        # from one term to 40 blocks of terms, whole and partial, and a million-node grid
        sizes = [2, 3, b + 1, b + 2, 3 * b + 6] + rng.integers(2, 40 * b + 2, 2).tolist()
        sizes += [1_000_001] if seed == 0 else []
        # each block sum is within gamma_k of its terms' absolute sum, k the roundings np.sum makes
        # in one block; fsum adds the block sums with one rounding, and the oracle's own fsum takes
        # one more: gamma_(k+2) of the absolute sum, a bound that does not grow with the grid.
        # np.sum over the whole grid would give each term log2(n / b) more roundings: 6 more at the
        # default block and 13 more at 128 nodes a block on the million-node grid.
        k = _np_sum_roundings(b) + 2
        for n in sizes:
            xs = np.cumsum(rng.uniform(1e-3, 1.0, n))
            ys = rng.standard_normal(n) * np.exp(4.0 * rng.standard_normal(n))
            scratch = np.full(min(n, b + 1), np.nan)
            asked = []

            def block_ys(s, e):
                asked.append((s, e))
                scratch[: e - s] = ys[s:e]
                return scratch[: e - s]

            # the whole grid, then ys nonzero only on nodes [lo, hi), so only the terms [a, z) that touch
            # them are formed; the block function is asked only for their nodes, a block at a time
            for lo, hi in [(0, n), sorted(rng.integers(0, n + 1, 2).tolist())]:
                ys[:lo] = 0.0
                ys[hi:] = 0.0
                a, z = max(lo - 1, 0), min(hi, n - 1)
                # the rule's terms, with its operations: (y[i] + y[i + 1]) * (x[i + 1] - x[i])
                terms = (ys[1:] + ys[:-1]) * np.diff(xs)
                exact = math.fsum(terms) / 2.0
                bound = _gamma(k) * math.fsum(np.abs(terms)) / 2.0
                asked.clear()
                for value in (_trapezoid(ys, xs), _trapezoid(ys, xs, a, z), _trapezoid(block_ys, xs, a, z)):
                    assert abs(value - exact) <= bound, (n, lo, hi)
                assert all(a <= s < e <= z + 1 and e - s <= b + 1 for s, e in asked), (n, lo, hi)

    @pytest.mark.parametrize("block", [128, None], ids=["block-128", "block-default"])
    def test_block_sums_added_exactly(self, block, monkeypatch):
        # integer terms of block-wise scales 2**e: every partial sum within a block is an integer
        # times its scale below 2**53 of it, so np.sum is exact in any order, and then the rule
        # is fsum over all of its terms to the last bit, where a plain sum of the block sums
        # loses the small blocks next to the large ones
        if block:
            monkeypatch.setattr(numerics, "_BLOCK", block)
        b = numerics._BLOCK
        rng = np.random.default_rng(17)
        n = 1_000_001
        ys = rng.integers(-(2**20), 2**20, n).astype(float)
        # node s of each block start is 0, so each of a block's terms y[i] + y[i + 1] has that block's scale
        ys[::b] = 0.0
        scales = np.exp2(rng.integers(-200, 200, -(-n // b)).astype(float))
        ys *= np.repeat(scales, b)[:n]
        xs = np.arange(n, dtype=float)
        assert _trapezoid(ys, xs) == math.fsum(ys[1:] + ys[:-1]) / 2.0


class TestFindRoot:
    def test_linear(self):
        assert abs(find_root(lambda x: x - 0.5, 0.0, 1.0) - 0.5) < 1e-10

    def test_cosine(self):
        assert abs(find_root(lambda x: math.cos(math.pi * x), 0.0, 1.0) - 0.5) < 1e-10

    def test_energy_derivative_of_flat_density(self):
        from derangetropy.distributions import Uniform
        from derangetropy.functional import total_energy_derivative

        d = Uniform(0.0, 1.0)
        root = find_root(lambda x: total_energy_derivative(d, x), 0.25, 0.75)
        assert abs(root - 0.5) < 1e-10

    def test_endpoint_zero_short_circuits(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root(lambda x: x * x + 1.0, 0.0, 1.0)

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 1.0, 0.0)

    def test_nonfinite_at_bracket(self):
        with pytest.raises(NonFiniteSample):
            find_root(lambda x: math.nan, 0.0, 1.0)

    def test_result_is_a_python_float(self):
        # both take a minimal step of tol1, so a numpy scalar in tol1 would make the result numpy.float64
        assert type(Semicircle(-1.0, 1.0).quantile(1e-9)) is float
        assert type(find_equilibria(Exponential(1e8))[0].x) is float

    def test_steep_root(self):
        root = find_root(lambda x: math.tanh(50.0 * (x - 0.3217)), 0.0, 1.0, tol=1e-14)
        assert abs(root - 0.3217) < 1e-12


class TestCentralDifference:
    def test_first_order_square(self):
        val = central_difference(lambda x: x * x, 1.0, 1e-6)
        assert abs(val - 2.0) < 1e-9

    def test_first_order_cubic(self):
        val = central_difference(lambda x: x ** 3, 2.0, 1e-6)
        assert abs(val - 12.0) < 1e-7

    @pytest.mark.parametrize("h", [0.0, -1e-5])
    def test_validation(self, h):
        with pytest.raises(DomainError):
            central_difference(lambda x: x, 0.0, h)

    def test_non_finite(self):
        with pytest.raises(NonFiniteSample):
            central_difference(lambda x: math.inf, 0.0, 1e-5)

    def test_array_matches_scalar_loop(self):
        xs = np.linspace(-2.0, 3.0, 41)
        got = central_difference(np.sin, xs, 1e-4)
        assert got.shape == xs.shape
        assert got.tolist() == [central_difference(np.sin, float(x), 1e-4) for x in xs]

    def test_array_with_one_non_finite_sample(self):
        xs = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NonFiniteSample, match="x=0.7"):
            central_difference(lambda x: np.where(np.abs(x - 0.7) < 1e-3, np.inf, x), xs, 1e-4)
