import json
import math

import numpy as np
import pytest

from derangetropy.distributions import (
    Arcsin,
    Exponential,
    Normal,
    Semicircle,
    Uniform,
)
from derangetropy.errors import DomainError, SymmetryProbeFailed
from derangetropy.functional import derangetropy_derivative
from derangetropy.verify import (
    APPENDIX_CONSTANT,
    UNIFORM_EQUILIBRIUM_CURVATURE,
    VerificationReport,
    appendix_integrand,
    find_equilibria,
    run_suite,
    verify_appendix_constant,
    verify_mode_at_median,
    verify_normalization,
    verify_ode_uniform,
)

ZOO = [
    Uniform(0.0, 1.0),
    Normal(0.0, 1.0),
    Exponential(1.0),
    Semicircle(-1.0, 1.0),
    Arcsin(0.0, 1.0),
]


def _ids(d):
    return type(d).__name__


class TestAppendixConstant:
    def test_constant_value(self):
        assert APPENDIX_CONSTANT == pytest.approx(math.pi * math.e / 24.0, abs=1e-16)
        assert APPENDIX_CONSTANT == pytest.approx(0.35582225927806527, abs=1e-16)

    def test_integrand_midpoint(self):
        # sin(pi/2) * (1/2)^(1/2) * (1/2)^(1/2) = 1/2, to a rounding or two
        assert appendix_integrand(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_integrand_edges(self):
        # the kernel zeroes both edges exactly; z=1 keeps the looser bound
        assert appendix_integrand(0.0) == 0.0
        assert appendix_integrand(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_default_pass(self):
        rep = verify_appendix_constant()
        assert rep.passed
        assert rep.residual < 1e-8

    def test_tighter_quadrature(self):
        rep = verify_appendix_constant(abs_tol=1e-12)
        assert rep.passed
        assert rep.residual < 1e-10


class TestNormalization:
    @pytest.mark.parametrize("d", ZOO, ids=_ids)
    def test_zoo_passes(self, d):
        rep = verify_normalization(d)
        assert rep.passed
        assert rep.residual < 1e-6

    def test_flat_density_is_tight(self):
        rep = verify_normalization(Uniform(0.0, 1.0))
        assert rep.residual < 1e-8

    def test_report_records_window(self):
        rep = verify_normalization(Normal(0.0, 1.0), tail_eps=1e-6)
        assert rep.details["lo"] == pytest.approx(-4.75342430882277, abs=1e-9)
        assert rep.details["hi"] == pytest.approx(4.75342430882277, abs=1e-9)


class TestModeAtMedian:
    @pytest.mark.parametrize(
        "d", [Uniform(0.0, 1.0), Normal(0.0, 1.0), Semicircle(-1.0, 1.0)], ids=_ids
    )
    def test_symmetric_members(self, d):
        rep = verify_mode_at_median(d)
        assert rep.passed
        # argmax lands within one grid step of the median
        assert rep.residual <= rep.tolerance

    def test_asymmetric_member_fails_probe(self):
        # the transformed exponential peaks away from its median, which the
        # symmetry probe reports rather than silently passing
        with pytest.raises(SymmetryProbeFailed):
            verify_mode_at_median(Exponential(1.0))

    def test_grid_size_control(self):
        rep = verify_mode_at_median(Uniform(0.0, 1.0), n_points=2_000)
        assert rep.passed


class TestOdeUniform:
    def test_default_pass(self):
        rep = verify_ode_uniform()
        assert rep.passed
        assert rep.residual < 1e-4

    def test_residual_shrinks_with_step(self):
        loose = verify_ode_uniform(fd_step=1e-4)
        tight = verify_ode_uniform(fd_step=1e-5)
        assert tight.residual < loose.residual

    def test_pointwise_residual_near_center(self):
        rep = verify_ode_uniform()
        assert abs(rep.details["pointwise_residual_near_center"]) < 1e-6

    def test_rejects_grid_outside_unit_interval(self):
        with pytest.raises(DomainError):
            verify_ode_uniform(grid_f=np.linspace(-0.2, 0.8, 50))

    def test_rejects_bad_step(self):
        with pytest.raises(DomainError):
            verify_ode_uniform(fd_step=0.0)

    def test_rejects_empty_grid(self):
        with pytest.raises(DomainError, match="^ODE grid is empty$"):
            verify_ode_uniform(grid_f=[])

    def test_rejects_nan_in_grid(self):
        with pytest.raises(DomainError, match=r"^ODE grid must stay inside \[0\.01, 0\.99\]$"):
            verify_ode_uniform(grid_f=[0.2, math.nan, 0.8])


class TestEquilibria:
    def test_flat_density_single_interior_minimum(self):
        eqs = find_equilibria(Uniform(0.0, 1.0))
        assert len(eqs) == 1
        eq = eqs[0]
        assert eq.x == pytest.approx(0.5, abs=1e-8)
        assert eq.classification == "minimum"
        assert eq.energy_second_derivative == pytest.approx(
            UNIFORM_EQUILIBRIUM_CURVATURE, abs=1e-4
        )

    def test_curvature_constant(self):
        assert UNIFORM_EQUILIBRIUM_CURVATURE == pytest.approx(math.pi ** 2 - 4.0, abs=1e-15)

    def test_gaussian_center(self):
        eqs = find_equilibria(Normal(0.0, 1.0))
        xs = [eq.x for eq in eqs]
        assert any(abs(x) < 1e-8 for x in xs)

    def test_exponential_interior_point(self):
        eqs = find_equilibria(Exponential(1.0))
        assert len(eqs) >= 1
        inner = min(eqs, key=lambda e: abs(e.x - 0.36))
        assert 0.35 < inner.x < 0.37
        # self-consistency: the refined root really kills the slope
        assert abs(derangetropy_derivative(Exponential(1.0), inner.x)) < 1e-8
        assert inner.classification == "minimum"

    def test_arcsin_center_is_maximum(self):
        eqs = find_equilibria(Arcsin(0.0, 1.0))
        center = min(eqs, key=lambda e: abs(e.x - 0.5))
        assert center.x == pytest.approx(0.5, abs=1e-8)
        assert center.classification == "maximum"

    # the scan's neighbouring slopes are about 1/b each, so their product underflows
    # to 0 once b passes about 1e154; the bracket test compares signs instead
    @pytest.mark.parametrize("b", [1e150, 1e160, 1e200, 1e300])
    def test_wide_uniform_median(self, b):
        eqs = find_equilibria(Uniform(0.0, b))
        assert len(eqs) == 1
        assert eqs[0].x == pytest.approx(b / 2.0, rel=1e-12)

    def test_wide_normal_center(self):
        # sigma**2 overflowed for sigma above about 1.34e154
        eqs = find_equilibria(Normal(0.0, 1e160))
        assert len(eqs) == 1
        assert abs(eqs[0].x) <= 1e-12 * 1e160

    # E_total'' scales as 1/s**2 and the scan width as s, so their product, and the class, do not
    # depend on the unit of x; an absolute deadband classed every family degenerate from s = 1e4 up
    @pytest.mark.parametrize(
        "family",
        [
            lambda s: Uniform(0.0, s),
            lambda s: Normal(0.0, s),
            lambda s: Exponential(1.0 / s),
            lambda s: Semicircle(-s, s),
            lambda s: Arcsin(0.0, s),
        ],
        ids=["Uniform", "Normal", "Exponential", "Semicircle", "Arcsin"],
    )
    def test_classes_do_not_depend_on_scale(self, family):
        want = [eq.classification for eq in find_equilibria(family(1.0))]
        assert "degenerate" not in want
        for s in (1e-12, 1e-6, 1e-3, 1e3, 1e4, 1e6, 1e12):
            assert [eq.classification for eq in find_equilibria(family(s))] == want, s

    def test_bracket_count_validated(self):
        with pytest.raises(DomainError):
            find_equilibria(Uniform(0.0, 1.0), n_brackets=1)


class TestReports:
    def test_build_sets_passed(self):
        good = VerificationReport.build("t", residual=1e-9, tolerance=1e-6)
        bad = VerificationReport.build("t", residual=1e-3, tolerance=1e-6)
        assert good.passed and not bad.passed

    def test_to_dict_round_trips_through_json(self):
        rep = verify_appendix_constant()
        blob = json.dumps(rep.to_dict())
        back = json.loads(blob)
        assert back["check_name"] == rep.check_name
        assert back["passed"] is True
        assert back["residual"] == rep.residual

    def test_details_preserved(self):
        rep = VerificationReport.build("t", residual=0.0, tolerance=1.0, extra=42)
        assert rep.details["extra"] == 42


class TestRunSuite:
    def test_all_pass(self):
        reports = run_suite("all")
        assert len(reports) >= 10
        assert all(r.passed for r in reports)

    def test_single_suite(self):
        reports = run_suite("appendix")
        assert len(reports) == 1
        assert reports[0].check_name.startswith("appendix")

    @pytest.mark.parametrize("name", ["normalization", "mode", "ode", "equilibrium"])
    def test_named_suites(self, name):
        reports = run_suite(name)
        assert reports
        assert all(r.passed for r in reports)

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("everything")

    def test_spec_threaded_through(self):
        reports = run_suite("appendix", abs_tol=1e-12)
        assert reports[0].residual < 1e-10
        assert reports[0].details["abs_tol"] == 1e-12
