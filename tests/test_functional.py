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
        got = derangetropy_kernel(ps)
        worst = 0.0
        for p, g in zip(ps.tolist(), got.tolist()):
            F = mp.mpf(p)
            ref = scale * mp.sin(mp.pi * F) * F**F * (1 - F) ** (1 - F)
            worst = max(worst, float(abs((mp.mpf(g) - ref) / ref)))
        assert worst <= 1e-13


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
        # reflection via ln_gamma needs 0 < F < 1
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
                assert abs(e.identity_residual(-1.0)) < 1e-12

    def test_wrong_sign_breaks_identity(self):
        e = energy_decomposition(Uniform(0.0, 1.0), 0.3)
        assert abs(e.identity_residual(1.0)) > 1.0

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
