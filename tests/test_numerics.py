import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derangetropy.errors import (
    DomainError,
    GridMismatch,
    NegativeDensity,
    NoSignChange,
    NonConvergence,
    NonFiniteSample,
    NonMonotoneGrid,
)
from derangetropy.numerics import (
    QuadratureSpec,
    central_difference,
    cumulative_integral,
    find_root,
    integrate,
    ln_gamma,
)

SIMPSON = QuadratureSpec(method="adaptive_simpson")

# target of the sin(pi z) z^z (1-z)^(1-z) integral over [0,1]
PI_E_OVER_24 = math.pi * math.e / 24.0


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

    @pytest.mark.parametrize("spec", [None, SIMPSON])
    def test_endpoint_power_integrand(self, spec):
        val = integrate(bumpy, 0.0, 1.0, spec)
        assert abs(val - PI_E_OVER_24) < 1e-8

    def test_default_method_hits_requested_tolerance(self):
        spec = QuadratureSpec(abs_tol=1e-12)
        val = integrate(bumpy, 0.0, 1.0, spec)
        assert abs(val - PI_E_OVER_24) < 1e-10

    def test_inverse_sqrt_singularity(self):
        # integrable endpoint blowup; interior-node panels must grade into it
        val = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
        assert abs(val - 2.0) < 1e-9

    def test_inverse_sqrt_exhausts_simpson(self):
        # the simpson route samples (nudged) endpoints, so the cached huge
        # value near 0 keeps its leftmost panel from ever being accepted
        with pytest.raises(NonConvergence):
            integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, SIMPSON)

    @pytest.mark.parametrize(
        "spec",
        [
            QuadratureSpec(abs_tol=1e-14, max_subdivisions=4),
            QuadratureSpec(method="adaptive_simpson", abs_tol=1e-14, max_subdivisions=4),
        ],
    )
    def test_budget_exhaustion(self, spec):
        with pytest.raises(NonConvergence):
            integrate(lambda x: np.sin(200.0 / (np.asarray(x) + 0.01)), 0.0, 1.0, spec)

    @pytest.mark.parametrize("spec", [None, SIMPSON])
    def test_non_finite_sample(self, spec):
        def f(x):
            arr = np.asarray(x, dtype=float)
            return np.where(arr > 0.5, np.nan, 1.0)

        with pytest.raises(NonFiniteSample):
            integrate(f, 0.0, 1.0, spec)

    def test_nonfinite_endpoints_rejected(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, math.inf)

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

        val = integrate(counted, 0.0, 1.0, QuadratureSpec(abs_tol=1e-12))
        # the root panel takes 12 + 24 nodes, each later call both halves of a split
        assert sizes[0] == 36 and len(sizes) > 1
        assert all(n == 72 for n in sizes[1:])
        assert abs(val - quad(appendix_integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)[0]) < 1e-12

    def test_calls_are_one_plus_splits(self):
        calls = []

        def counted(x):
            calls.append(x)
            return np.sin(200.0 / (x + 0.01))

        with pytest.raises(NonConvergence, match="after 7 panel splits"):
            integrate(counted, 0.0, 1.0, QuadratureSpec(abs_tol=1e-14, max_subdivisions=7))
        assert len(calls) == 1 + 7

    @given(
        alpha=st.floats(-10, 10, allow_nan=False),
        beta=st.floats(-10, 10, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity_on_affine(self, alpha, beta):
        val = integrate(lambda x: alpha * x + beta, 0.0, 2.0)
        assert abs(val - (2.0 * alpha + 2.0 * beta)) < 1e-9 * (1.0 + abs(alpha) + abs(beta))


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.method == "gauss_legendre_composite"
        assert spec.abs_tol == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "trapezoid"},
            {"abs_tol": 0.0},
            {"abs_tol": -1e-3},
            {"abs_tol": math.nan},
            {"max_subdivisions": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


class TestCumulativeIntegral:
    def test_flat_density(self):
        out = cumulative_integral([0.0, 0.5, 1.0], [1.0, 1.0, 1.0])
        assert np.allclose(out, [0.0, 0.5, 1.0], atol=1e-15)

    def test_triangle(self):
        out = cumulative_integral([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        assert np.allclose(out, [0.0, 0.5, 1.0], atol=1e-15)

    def test_kernel_shaped_grid(self):
        # trapezoid defect on 1001 uniform points is (h^2/12)*|g'(1)-g'(0)|
        # with slopes +-24/e, about 1.47e-6; pin the bound, not exactness
        xs = np.linspace(0.0, 1.0, 1001)
        scale = 24.0 / (math.pi * math.e)
        ys = scale * np.sin(np.pi * xs) * np.power(
            np.where(xs > 0, xs, 1.0), xs
        ) * np.power(np.where(xs < 1, 1.0 - xs, 1.0), 1.0 - xs)
        out = cumulative_integral(xs, ys)
        assert abs(float(out[-1]) - 1.0) < 1.6e-6
        assert abs(float(out[-1]) - float(np.trapezoid(ys, xs))) < 1e-14

    def test_kernel_defect_shrinks_with_refinement(self):
        scale = 24.0 / (math.pi * math.e)

        def defect(n):
            xs = np.linspace(0.0, 1.0, n)
            ys = scale * np.sin(np.pi * xs) * np.power(
                np.where(xs > 0, xs, 1.0), xs
            ) * np.power(np.where(xs < 1, 1.0 - xs, 1.0), 1.0 - xs)
            return abs(float(cumulative_integral(xs, ys)[-1]) - 1.0)

        assert defect(2001) < 4e-7 < defect(1001)

    def test_matches_scipy_on_nonuniform_grid(self):
        from scipy.integrate import cumulative_trapezoid

        rng = np.random.default_rng(7)
        xs = np.cumsum(rng.uniform(1e-3, 1.0, 5001))
        ys = rng.uniform(0.0, 3.0, 5001)
        out = cumulative_integral(xs, ys)
        assert out[0] == 0.0
        np.testing.assert_allclose(out, cumulative_trapezoid(ys, xs, initial=0.0), rtol=1e-14, atol=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(GridMismatch):
            cumulative_integral([0.0, 1.0], [1.0, 1.0, 1.0])

    def test_too_short(self):
        with pytest.raises(GridMismatch):
            cumulative_integral([0.0], [1.0])

    def test_non_monotone(self):
        with pytest.raises(NonMonotoneGrid):
            cumulative_integral([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])

    def test_negative_density(self):
        with pytest.raises(NegativeDensity):
            cumulative_integral([0.0, 0.5, 1.0], [1.0, -0.2, 1.0])

    def test_tiny_negative_clamped(self):
        out = cumulative_integral([0.0, 0.5, 1.0], [1.0, -1e-14, 1.0])
        assert np.all(np.diff(out) >= 0.0)

    def test_non_finite(self):
        with pytest.raises(NonFiniteSample):
            cumulative_integral([0.0, 0.5, 1.0], [1.0, math.nan, 1.0])

    @given(
        st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=2, max_size=40)
    )
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing_and_matches_trapezoid(self, ys):
        xs = np.arange(len(ys), dtype=float)
        ys = np.asarray(ys)
        out = cumulative_integral(xs, ys)
        assert np.all(np.diff(out) >= -1e-12)
        assert abs(float(out[-1]) - float(np.trapezoid(ys, xs))) < 1e-9 * (1.0 + float(out[-1]))


class TestLnGamma:
    def test_anchor_values(self):
        assert abs(ln_gamma(1.0)) < 1e-14
        assert abs(ln_gamma(2.0)) < 1e-14
        assert abs(ln_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13
        assert abs(ln_gamma(5.0) - math.log(24.0)) < 1e-13

    def test_against_reference(self):
        zs = np.concatenate([
            np.geomspace(1e-6, 0.4, 25),
            np.linspace(0.5, 20.0, 40),
            np.geomspace(30.0, 1e4, 15),
        ])
        for z in zs:
            ref = math.lgamma(z)
            assert abs(ln_gamma(float(z)) - ref) <= 1e-12 * max(1.0, abs(ref))

    @given(st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=80, deadline=None)
    def test_reflection(self, z):
        lhs = ln_gamma(z) + ln_gamma(1.0 - z)
        rhs = math.log(math.pi / math.sin(math.pi * z))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.5, 3.7, 10.0, 100.0])
    def test_recurrence(self, z):
        assert abs(ln_gamma(z + 1.0) - ln_gamma(z) - math.log(z)) < 1e-12 * max(
            1.0, abs(ln_gamma(z))
        )

    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5, math.nan])
    def test_domain(self, z):
        with pytest.raises(DomainError):
            ln_gamma(z)


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

    def test_steep_root(self):
        root = find_root(lambda x: math.tanh(50.0 * (x - 0.3217)), 0.0, 1.0, tol=1e-14)
        assert abs(root - 0.3217) < 1e-12


class TestCentralDifference:
    def test_first_order_square(self):
        val = central_difference(lambda x: x * x, 1.0, 1e-6, order=1)
        assert abs(val - 2.0) < 1e-9

    def test_first_order_cubic(self):
        val = central_difference(lambda x: x ** 3, 2.0, 1e-6, order=1)
        assert abs(val - 12.0) < 1e-7

    def test_second_order_sine(self):
        val = central_difference(math.sin, 0.7, 1e-4, order=2)
        assert abs(val + math.sin(0.7)) < 1e-6

    @pytest.mark.parametrize("h,order", [(0.0, 1), (-1e-5, 1), (1e-5, 3), (1e-5, 0)])
    def test_validation(self, h, order):
        with pytest.raises(DomainError):
            central_difference(lambda x: x, 0.0, h, order=order)

    def test_non_finite(self):
        with pytest.raises(NonFiniteSample):
            central_difference(lambda x: math.inf, 0.0, 1e-5, order=1)

    @pytest.mark.parametrize("order", [1, 2])
    def test_array_matches_scalar_loop(self, order):
        xs = np.linspace(-2.0, 3.0, 41)
        got = central_difference(np.sin, xs, 1e-4, order=order)
        assert got.shape == xs.shape
        assert got.tolist() == [central_difference(np.sin, float(x), 1e-4, order=order) for x in xs]

    @pytest.mark.parametrize("order", [1, 2])
    def test_array_with_one_non_finite_sample(self, order):
        xs = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NonFiniteSample, match="x=0.7"):
            central_difference(lambda x: np.where(np.abs(x - 0.7) < 1e-3, np.inf, x), xs, 1e-4, order=order)
