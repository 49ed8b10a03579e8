import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derangetropy.distributions import (
    Arcsin,
    Exponential,
    Normal,
    Semicircle,
    Uniform,
)
from derangetropy.errors import DomainError
from derangetropy.functional import (
    ENERGY_CONSTANT,
    SCALE,
    bernoulli_entropy,
    derangetropy,
    derangetropy_derivative,
    derangetropy_entropy_form,
    derangetropy_gamma_form,
    derangetropy_kernel,
    derangetropy_profile,
    energy_decomposition,
    total_energy_derivative,
)

ZOO = [
    Uniform(0.0, 1.0),
    Normal(0.0, 1.0),
    Exponential(1.0),
    Semicircle(-1.0, 1.0),
    Arcsin(0.0, 1.0),
]

SYMMETRIC = [Uniform(0.0, 1.0), Normal(0.0, 1.0), Semicircle(-1.0, 1.0), Arcsin(0.0, 1.0)]

# value of the transformed flat density at its center: 12/(pi*e)
RHO_FLAT_CENTER = 1.4051959565836603


def _ids(d):
    return type(d).__name__


class TestScale:
    def test_constant_values(self):
        assert SCALE == pytest.approx(24.0 / (math.pi * math.e), abs=1e-15)
        assert ENERGY_CONSTANT == pytest.approx(math.log(SCALE), abs=1e-15)
        assert ENERGY_CONSTANT == pytest.approx(1.0333239444985456, abs=1e-15)


class TestBernoulliEntropy:
    def test_values(self):
        assert bernoulli_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
        assert bernoulli_entropy(0.25) == pytest.approx(0.5623351446188083, abs=1e-15)
        assert bernoulli_entropy(0.0) == 0.0
        assert bernoulli_entropy(1.0) == 0.0

    @pytest.mark.parametrize("p", [0, 1, 0.0, 1.0, -0.0])
    def test_ends_are_positive_zero(self, p):
        h = bernoulli_entropy(p)
        assert type(h) is float and h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_array_input(self):
        out = bernoulli_entropy(np.array([0.0, 0.5, 1.0]))
        assert out == pytest.approx([0.0, math.log(2.0), 0.0], abs=1e-15)

    @given(st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, p):
        assert abs(bernoulli_entropy(p) - bernoulli_entropy(1.0 - p)) < 1e-14

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            bernoulli_entropy(p)


class TestKernel:
    def test_exact_zeros(self):
        assert derangetropy_kernel(0.0) == 0.0
        assert derangetropy_kernel(1.0) == 0.0

    def test_center(self):
        # sin(pi/2) * (1/2)^(1/2) * (1/2)^(1/2) = 1/2, scaled by 24/(pi e)
        assert derangetropy_kernel(0.5) == pytest.approx(0.5 * SCALE, rel=1e-15)
        assert derangetropy_kernel(0.5) == pytest.approx(RHO_FLAT_CENTER, abs=1e-15)

    def test_array_and_symmetry(self):
        ps = np.linspace(0.0, 1.0, 21)
        out = derangetropy_kernel(ps)
        assert out.shape == ps.shape
        assert np.allclose(out, out[::-1], atol=1e-14)
        assert np.all(out >= 0.0)

    @pytest.mark.parametrize("p", [-0.01, 1.01, math.nan, math.inf, -math.inf, -1e-12, 1.0 + 1e-12])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            derangetropy_kernel(p)

    def test_domain_in_array(self):
        with pytest.raises(DomainError):
            derangetropy_kernel(np.array([0.5, math.nan, 0.25]))

    def test_out_gets_the_same_bits(self):
        ps = np.concatenate([[0.0, -0.0, 1.0, 5e-324, 0.5], np.random.default_rng(3).uniform(0.0, 1.0, 1000)])
        out = np.full(ps.size + 2, np.nan)
        assert derangetropy_kernel(ps, out=out[1:-1]).base is out
        assert out[1:-1].tobytes() == derangetropy_kernel(ps).tobytes()
        assert np.isnan(out[0]) and np.isnan(out[-1])

    def test_scalar_in_float_out(self):
        assert type(derangetropy_kernel(0.3)) is float
        assert type(derangetropy_kernel(np.float64(0.0))) is float

    def test_matches_mpmath_at_50_digits(self):
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = 50
        scale = mp.mpf(24) / (mp.pi * mp.e)
        rng = np.random.default_rng(20240923)
        ps = np.concatenate([[1e-300, 1e-17, 1e-9, 0.25, 0.5, 0.75, 0.999], rng.uniform(0.0, 0.999, 2000)])
        # the upper tail, where sin(pi*F) loses F's last bits unless it is taken at 1 - F, which is exact there
        upper = np.concatenate([1.0 - 2.0 ** -np.arange(1.0, 54.0), 1.0 - 10.0 ** -np.arange(1.0, 16.0)])
        for grid in (ps, upper):
            worst = 0.0
            for p, g in zip(grid.tolist(), derangetropy_kernel(grid).tolist()):
                F = mp.mpf(p)
                ref = scale * mp.sin(mp.pi * F) * F**F * (1 - F) ** (1 - F)
                worst = max(worst, float(abs((mp.mpf(g) - ref) / ref)))
            # 5.1e-16 and 4.9e-16 seen: 1e-15 is a sixth of the 16 u of TestMaskFreeKernel's bound, plus a margin
            assert worst <= 1e-15

    def test_symmetric_to_the_bit_on_exact_complements(self):
        # s = 1 - (1 - s) holds for 2**-k, k <= 53, and for most uniform draws: the kernel then takes
        # the same r = min(F, 1 - F) and adds F log F and (1 - F) log(1 - F) in either order
        s = np.concatenate([2.0 ** -np.arange(1.0, 54.0), np.random.default_rng(11).uniform(0.0, 1.0, 10_000)])
        s = s[1.0 - (1.0 - s) == s]
        assert s.size > 9_000
        assert derangetropy_kernel(s).tobytes() == derangetropy_kernel(1.0 - s).tobytes()


def _masked_kernel(F):
    """The kernel as tests/test_recursion.py::_whole_grid_step spells it: logs
    masked to 0 where their argument is 0, and np.sin at the reflected argument."""
    q = 1.0 - F
    log_psi = np.log(F, out=np.zeros_like(F), where=F > 0.0)
    log_psi *= F
    log_psi += q * np.log(q, out=np.zeros_like(q), where=q > 0.0)
    density = SCALE * np.sin(np.pi * np.minimum(F, q))
    density *= np.exp(log_psi)
    return density


# float64 unit roundoff, and the least subnormal: a rounding below the normal range is off by half of it at most
U = 2.0**-53
LEAST_SUBNORMAL = 5e-324


def assert_kernel_near_masked(got, F):
    """got, the kernel at F, against _masked_kernel(F).

    Both take the same exp(-H_B) bits (the same logs and products, in the same
    order). The kernel's sine is 2t/(1 + t*t) with t = tan(fl(fl(pi/2) r)): the
    argument is off by 2 roundings, which tan's condition number 2x/sin(2x) <= pi/2
    on [0, pi/4] turns into pi u; tan is within 1 ulp (2 u; numpy's float64 accuracy
    tables), and (1 - t*t)/(1 + t*t) <= 1 passes t's error to the sine. The square,
    the sum, the product with exp(-H_B), the quotient and the product with 2 SCALE
    round 5 times: pi u + 2 u + 5 u. The oracle's np.sin(fl(pi) r) has 2 roundings in
    its argument under condition x cot x <= 1, 1 ulp in sin, and 2 products: 6 u.
    So the two are within 16.2 u of each other, gamma_17. Below the normal range each
    rounding may instead be off by 2**-1075, carried on by at most 2 SCALE: 3 such in
    the kernel (argument, product, quotient) and its last product, 2 SCALE*3 + 1, and
    the oracle's argument, product and last product, SCALE + 2: (7 SCALE + 3) 2**-1075.
    """
    want = _masked_kernel(np.atleast_1d(np.asarray(F, dtype=float)))
    got = np.atleast_1d(got)
    bound = 17 * U / (1 - 17 * U) * np.abs(want) + (3.5 * SCALE + 1.5) * LEAST_SUBNORMAL
    assert np.all(np.abs(got - want) <= bound)
    # the zeros are exact, and keep their sign
    assert np.signbit(got[want == 0.0]).tolist() == np.signbit(want[want == 0.0]).tolist()
    assert np.all(got[want == 0.0] == 0.0)


class TestMaskFreeKernel:
    """The kernel's plain logs give the masked formula's -H_B bits, and its half-angle sine is np.sin's to a bound."""

    ENDS = [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]

    @pytest.mark.parametrize("F", ENDS)
    def test_scalar_form(self, F):
        got = derangetropy_kernel(F)
        assert type(got) is float
        assert_kernel_near_masked(got, F)

    def test_out_form_at_the_ends(self):
        F = np.array(self.ENDS)
        out = np.full(F.size, np.nan)
        assert derangetropy_kernel(F, out=out) is out
        assert_kernel_near_masked(out, F)
        # the signed zeros survive: +0.0 at F = 0 and F = 1, -0.0 at F = -0.0
        assert np.signbit(out[:2]).tolist() == [False, True] and out[-1] == 0.0 and not np.signbit(out[-1])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_out_form_on_a_sorted_block(self, seed):
        # a recursion block: a sorted cdf stretch with its edge nodes at exactly 0 and 1
        F = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, 1 << 14))
        F[:3], F[-3:] = 0.0, 1.0
        out = np.full(F.size, np.nan)
        derangetropy_kernel(F, out=out)
        assert_kernel_near_masked(out, F)
        assert out.tobytes() == derangetropy_kernel(F).tobytes()


class TestPointEvaluation:
    def test_flat_density_center(self):
        val = derangetropy(Uniform(0.0, 1.0), 0.5)
        assert val.f == 1.0
        assert val.F == pytest.approx(0.5, abs=1e-15)
        assert val.rho == pytest.approx(RHO_FLAT_CENTER, abs=1e-15)

    def test_gaussian_center(self):
        val = derangetropy(Normal(0.0, 1.0), 0.0)
        assert val.rho == pytest.approx(RHO_FLAT_CENTER / math.sqrt(2.0 * math.pi), rel=1e-12)

    def test_zero_at_support_edges(self):
        d = Uniform(0.0, 1.0)
        assert derangetropy(d, 0.0).rho == 0.0
        assert derangetropy(d, 1.0).rho == 0.0
        assert derangetropy(d, -3.0).rho == 0.0

    def test_zero_beats_infinite_density(self):
        # arcsin density is +inf at the edge but the kernel zero wins
        val = derangetropy(Arcsin(0.0, 1.0), 0.0)
        assert val.rho == 0.0

    def test_profile_matches_pointwise(self):
        d = Semicircle(-1.0, 1.0)
        xs = np.linspace(-0.9, 0.9, 7)
        f, F, rho = derangetropy_profile(d, xs)
        for i, x in enumerate(xs):
            v = derangetropy(d, float(x))
            assert rho[i] == pytest.approx(v.rho, rel=1e-14)
            assert f[i] == pytest.approx(v.f, rel=1e-14)
            assert F[i] == pytest.approx(v.F, rel=1e-14)


class TestEquivalentForms:
    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_three_routes_agree(self, d):
        # 100 quantile-ladder points keep every family on its own scale
        ps = np.arange(1, 101) / 101.0
        for p in ps:
            x = d.quantile(float(p))
            base = derangetropy(d, x).rho
            gamma = derangetropy_gamma_form(d, x)
            ent = derangetropy_entropy_form(d, x)
            assert abs(gamma - base) <= 1e-9 * (1.0 + base)
            assert abs(ent - base) <= 1e-12 * (1.0 + base)

    def test_entropy_form_zero_at_edges(self):
        d = Uniform(0.0, 1.0)
        assert derangetropy_entropy_form(d, 0.0) == 0.0
        assert derangetropy_entropy_form(d, 1.0) == 0.0

    def test_gamma_form_rejects_edges(self):
        # reflection via math.lgamma needs 0 < F < 1
        d = Uniform(0.0, 1.0)
        with pytest.raises(DomainError):
            derangetropy_gamma_form(d, 0.0)
        with pytest.raises(DomainError):
            derangetropy_gamma_form(d, 1.0)


class TestDerivative:
    @pytest.mark.parametrize("d", SYMMETRIC, ids=_ids)
    def test_zero_slope_at_median(self, d):
        m = d.median()
        assert abs(derangetropy_derivative(d, m)) < 1e-12

    def test_flat_density_quarter_point(self):
        d = Uniform(0.0, 1.0)
        got = derangetropy_derivative(d, 0.25)
        h = 1e-6
        fd = (derangetropy(d, 0.25 + h).rho - derangetropy(d, 0.25 - h).rho) / (2.0 * h)
        assert abs(got - fd) < 1e-6 * (1.0 + abs(fd))

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_matches_finite_difference(self, d):
        rng = np.random.default_rng(77)
        iqr = d.quantile(0.75) - d.quantile(0.25)
        h = 1e-6 * iqr
        ps = rng.uniform(0.05, 0.95, size=10)
        for p in ps:
            x = d.quantile(float(p))
            fd = (derangetropy(d, x + h).rho - derangetropy(d, x - h).rho) / (2.0 * h)
            got = derangetropy_derivative(d, x)
            assert abs(got - fd) <= 1e-5 * (1.0 + abs(fd))

    def test_rejects_edges(self):
        d = Uniform(0.0, 1.0)
        for x in (0.0, 1.0):
            with pytest.raises(DomainError):
                derangetropy_derivative(d, x)

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_array_matches_scalar_calls(self, d):
        xs = np.array([d.quantile(p) for p in np.linspace(0.02, 0.98, 50)])
        for fn in (derangetropy_derivative, total_energy_derivative):
            got = fn(d, xs)
            assert got.shape == xs.shape
            want = [fn(d, float(x)) for x in xs]
            assert all(type(w) is float for w in want)
            assert got.tolist() == want

    @pytest.mark.parametrize("fn", [derangetropy_derivative, total_energy_derivative])
    def test_array_with_one_edge_point_rejected(self, fn):
        d = Uniform(0.0, 1.0)
        for edge in (0.0, 1.0):
            with pytest.raises(DomainError):
                fn(d, np.array([0.25, 0.5, edge, 0.75]))

    def test_total_energy_derivative_is_log_slope(self):
        d = Normal(0.0, 1.0)
        for x in (-1.0, -0.2, 0.4, 1.3):
            rho = derangetropy(d, x).rho
            assert total_energy_derivative(d, x) == pytest.approx(
                -derangetropy_derivative(d, x) / rho, rel=1e-12
            )


class TestEnergyDecomposition:
    def test_flat_density_center(self):
        e = energy_decomposition(Uniform(0.0, 1.0), 0.5)
        assert e.e_oscillatory == pytest.approx(0.0, abs=1e-15)
        assert e.e_structural == pytest.approx(math.log(2.0), abs=1e-15)
        assert e.e_total == pytest.approx(-0.34017676393860025, abs=1e-12)
        assert e.constant_c == pytest.approx(math.log(SCALE), abs=1e-15)

    def test_identity_residual_vanishes(self):
        # e_total = s*(constant) + e_osc + e_struct with s = -1
        for d in ZOO:
            for p in (0.12, 0.37, 0.5, 0.81):
                x = d.quantile(p)
                e = energy_decomposition(d, x)
                assert abs(e.identity_residual()) < 1e-12

    def test_wrong_sign_breaks_identity(self):
        e = energy_decomposition(Uniform(0.0, 1.0), 0.3)
        assert abs(e.e_total - (e.e_oscillatory + e.e_structural + e.constant_c)) > 1.0

    def test_symmetry_for_flat_density(self):
        d = Uniform(0.0, 1.0)
        e_lo = energy_decomposition(d, 0.25)
        e_hi = energy_decomposition(d, 0.75)
        assert e_lo.e_oscillatory == pytest.approx(e_hi.e_oscillatory, abs=1e-13)
        assert e_lo.e_total == pytest.approx(e_hi.e_total, abs=1e-13)

    def test_oscillatory_diverges_toward_edge(self):
        d = Uniform(0.0, 1.0)
        xs = [0.04, 0.02, 0.01, 0.005, 0.0025]
        vals = [energy_decomposition(d, x).e_oscillatory for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 2.0

    def test_total_is_neg_log_rho(self):
        d = Exponential(1.0)
        for x in (0.1, 0.5, 1.5):
            e = energy_decomposition(d, x)
            rho = derangetropy(d, x).rho
            assert e.e_total == pytest.approx(-math.log(rho), rel=1e-13)

    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_total_is_neg_log_profile_rho_bitwise(self, d):
        xs = np.linspace(*d.truncated_support(1e-6), 501)
        _, _, rho = derangetropy_profile(d, xs)
        assert np.array_equal(energy_decomposition(d, xs).e_total, -np.log(rho))

    def test_total_where_rho_underflows(self):
        # K*f underflows to 0 at x = 1e-10, or to a subnormal along the grid, while its log stays representable
        d = Exponential(1e-300)
        e = energy_decomposition(d, 1e-10)
        assert e.e_total == pytest.approx(1402.39885289602, rel=1e-13) and e.identity_residual() == 0.0
        xs = np.linspace(*d.truncated_support(1e-16), 101)
        e = energy_decomposition(d, xs)
        _, _, rho = derangetropy_profile(d, xs)
        low = rho < np.finfo(float).tiny
        assert low.any() and not low.all() and np.isfinite(e.e_total).all()
        assert np.array_equal(e.e_total[~low], -np.log(rho[~low]))
        assert np.array_equal(e.e_total[low], e.e_oscillatory[low] + e.e_structural[low] - e.constant_c)

    def test_normal_lower_tail(self):
        # F is 0.5 * erfc(-x / sqrt 2): positive down to -37.5 sigma, where 0.5 * (1 + erf) was 0 below -8.374 sigma
        e = energy_decomposition(Normal(0.0, 1.0), np.array([-9.0, -20.0, -37.5]))
        assert np.isfinite(e.e_total).all() and np.all(np.abs(e.identity_residual()) < 1e-13 * e.e_total)

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.5])
    def test_rejects_zero_density_points(self, x):
        with pytest.raises(DomainError):
            energy_decomposition(Uniform(0.0, 1.0), x)


class TestMedianSymmetryTransfer:
    @pytest.mark.parametrize("d", SYMMETRIC, ids=_ids)
    def test_reflection_invariance(self, d):
        # symmetric f about its median makes rho symmetric about it too
        m = d.median()
        lo, hi = d.truncated_support(1e-4)
        half = 0.98 * min(m - lo, hi - m)
        for t in np.linspace(0.0, half, 19):
            a = derangetropy(d, m - t).rho
            b = derangetropy(d, m + t).rho
            assert abs(a - b) < 1e-10 * (1.0 + abs(a))
