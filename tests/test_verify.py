import json
import math
import re

import numpy as np
import pytest

from derangetropy import verify
from derangetropy.distributions import (
    Arcsin,
    Exponential,
    Normal,
    Semicircle,
    Tabulated,
    Uniform,
)
from derangetropy.errors import DomainError, InvalidGrid, NonFiniteSample, SymmetryProbeFailed
from derangetropy.functional import derangetropy_derivative, derangetropy_profile, energy_decomposition
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

    def test_grid_too_coarse(self):
        with pytest.raises(DomainError, match="^n_points must be at least 101, got 100$"):
            verify_mode_at_median(Uniform(0.0, 1.0), n_points=100)


class TestOdeUniform:
    def test_default_pass(self):
        rep = verify_ode_uniform()
        assert rep.passed
        assert rep.residual < 1e-4

    def test_residual_shrinks_with_step(self, monkeypatch):
        monkeypatch.setattr(verify, "_ODE_FD_STEP", 1e-4)
        loose = verify_ode_uniform()
        monkeypatch.setattr(verify, "_ODE_FD_STEP", 1e-5)
        tight = verify_ode_uniform()
        assert tight.residual < loose.residual
        assert (loose.details["fd_step"], tight.details["fd_step"]) == (1e-4, 1e-5)

    def test_pointwise_residual_near_center(self):
        rep = verify_ode_uniform()
        assert abs(rep.details["pointwise_residual_near_center"]) < 1e-6

    def test_one_derivative_call(self, monkeypatch):
        # rho' at F and at F -+ step come from one call on a (3, n) array
        calls = []

        def counted(d, x):
            calls.append(np.shape(x))
            return derangetropy_derivative(d, x)

        monkeypatch.setattr(verify, "derangetropy_derivative", counted)
        assert verify_ode_uniform().passed
        assert calls == [(3, verify._ODE_GRID_F.size)]


# X -> sX + b for each zoo family, as a function of (b, s); the exponential has no location
AFFINE = {
    "Uniform": lambda b, s: Uniform(b, b + s),
    "Normal": lambda b, s: Normal(b, s),
    "Exponential": lambda b, s: Exponential(1.0 / s),
    "Semicircle": lambda b, s: Semicircle(b - s, b + s),
    "Arcsin": lambda b, s: Arcsin(b, b + s),
}

# unit roundoff of float64
U = 2.0**-53


def _affine_maps(name, scales=(1e-12, 1e-3, 1e3, 1e12)):
    """(b, s) of each map the metamorphic tests apply: every scale, with shifts 0 and 0.37 s."""
    shifts = (0.0,) if name == "Exponential" else (0.0, 0.37)
    return [(shift * s, s) for s in scales for shift in shifts]


def _dz(b, s, z):
    """How far apart, in units of s, two runs read the point z of the unit family and b + s z.

    The mapped point, the family's rounded ends or rate and its standardization take at most 8
    roundings, each of a number below |b| + s (1 + |z|).
    """
    return 8.0 * U * (abs(b) / s + 1.0 + np.abs(z))


class TestAffineEquivariance:
    """rho_(sX+b)(s x + b) = rho_X(x)/s, so at mapped points the energies shift by log s or not at all,
    and the normalization integral is the same.

    Bound, per point z of the unit family: the two runs read z apart by dz (see _dz), and each
    evaluation of F carries at most 8 u absolute error and of f at most 8 u relative error, so
    dF = f dz + 16 u and df/f = |f'/f| dz + 16 u. rho = K(F) f then moves by
    |K'/K| dF + df/f + 8 u relative, with K'/K = pi cot(pi F) + log(F/(1 - F)). This is the
    conditioning of F and f themselves, not of rho: near Arcsin's ends both are steep while
    rho is smooth, so rho' would understate how far the computed rho can move.
    """

    P = np.array([1e-6, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-6])

    @pytest.mark.parametrize("name", AFFINE)
    def test_profile_and_energies(self, name):
        d1 = AFFINE[name](0.0, 1.0)
        z = np.array([d1.quantile(p) for p in self.P])
        f, F, rho = derangetropy_profile(d1, z)
        e = energy_decomposition(d1, z)
        cot = np.pi / np.tan(np.pi * F)
        for b, s in _affine_maps(name):
            dF = f * _dz(b, s, z) + 16.0 * U
            df = np.abs(d1.pdf_derivative(z) / f) * _dz(b, s, z) + 16.0 * U
            rel = np.abs(cot + np.log(F) - np.log1p(-F)) * dF + df + 8.0 * U
            d = AFFINE[name](b, s)
            _, _, got = derangetropy_profile(d, b + s * z)
            assert np.all(np.abs(got * s - rho) <= rel * rho), (b, s)
            moved = energy_decomposition(d, b + s * z)
            # -log rho moves by rel, and adding log s rounds once more at each end
            total = rel + 2.0 * U * (np.abs(e.e_total) + abs(math.log(s)))
            assert np.all(np.abs(moved.e_total - math.log(s) - e.e_total) <= total), (b, s)
            # -log sin(pi F) moves by |pi cot(pi F)| dF, plus the rounding of sin and log
            osc = np.abs(cot) * dF + 2.0 * U * (1.0 + np.abs(e.e_oscillatory))
            assert np.all(np.abs(moved.e_oscillatory - e.e_oscillatory) <= osc), (b, s)

    @pytest.mark.parametrize("name", AFFINE)
    def test_normalization(self, name):
        d1 = AFFINE[name](0.0, 1.0)
        want = verify_normalization(d1)
        ends = np.array([want.details["lo"], want.details["hi"]])
        _, _, rho_ends = derangetropy_profile(d1, ends)
        for b, s in _affine_maps(name):
            got = verify_normalization(AFFINE[name](b, s))
            # each integral is within its abs_tol of the exact one, and the mapped windows
            # differ by the rounding of their ends, which holds rho_ends * dz of mass
            bound = 2.0 * got.details["abs_tol"] + float(np.sum(rho_ends * _dz(b, s, ends)))
            assert abs(got.details["value"] - want.details["value"]) <= bound, (b, s)


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
    # depend on the unit of x; an absolute deadband classed every family degenerate from s = 1e4 up.
    # Each root is refined to 1e-12 of the scan width, so (x - b)/s does not depend on it either;
    # Exponential(1e12) scans a width of 9.2e-12, where a tolerance with an absolute floor would show.
    @pytest.mark.parametrize("name", AFFINE)
    def test_classes_do_not_depend_on_scale(self, name):
        unit = find_equilibria(AFFINE[name](0.0, 1.0))
        assert "degenerate" not in [eq.classification for eq in unit]
        lo, hi = AFFINE[name](0.0, 1.0).truncated_support(verify._SCAN_EPS)
        for b, s in _affine_maps(name, (1e-12, 1e-6, 1e-3, 1e3, 1e4, 1e6, 1e12)):
            got = find_equilibria(AFFINE[name](b, s))
            assert [eq.classification for eq in got] == [eq.classification for eq in unit], (b, s)
            for eq, want in zip(got, unit):
                z = abs(want.x)
                # either root is within its requested 1e-12 of the width plus the refiner's floor
                # 4 eps |x| of a sign change of E', and the two E' differ by the rounding of z
                bound = 2.0 * (1e-12 * (hi - lo) + 8.0 * U * (abs(b) / s + z)) + _dz(b, s, z)
                assert abs((eq.x - b) / s - want.x) <= bound, (b, s)


# the widths of Arcsin and Semicircle from the smallest that _SquaredWidth accepts to 1e150
EDGE_WIDTHS = (1.5e-154, 1e-150, 1e-120, 1e-110, 1e103, 1e104, 1e150)


# windows about 1e-306 wide, or narrower: E' passes the float range at the scan's outer nodes
PAST_THE_FLOAT_RANGE = [
    ("Uniform", 1e-306),
    ("Uniform", 1.7e-308),
    ("Exponential", 1e-306),
    ("Exponential", 1e-307),
    ("Normal", 1e-308),
]


def _scan(d):
    """The nodes of find_equilibria's scan of d."""
    return verify._grid(d, verify._N_BRACKETS + 1, verify._SCAN_EPS)


class TestZeroAtScanNodes:
    """E' that is exactly 0 at scan nodes: such a node ends brackets whose refinement returns it unsampled."""

    @pytest.mark.parametrize("d", [Uniform(0.0, 1.0), Normal(0.0, 1.0)], ids=_ids)
    # the node at the median, one other interior node, two adjacent ones, either end, and two far apart
    @pytest.mark.parametrize("nodes", [(32,), (10,), (20, 21), (0,), (64,), (5, 50)], ids=str)
    def test_each_node_is_one_root(self, monkeypatch, d, nodes):
        unpatched = find_equilibria(d)
        zeros = _scan(d)[list(nodes)]
        energy_prime = verify.total_energy_derivative

        def vanishing(d, x):
            x = np.asarray(x, dtype=float)
            return np.where(np.isin(x, zeros), 0.0, energy_prime(d, x))

        monkeypatch.setattr(verify, "total_energy_derivative", vanishing)
        got = find_equilibria(d)
        # E' rises across the whole scan, so every root is a minimum, as is the median's without the patch
        assert [eq.x for eq in got] == sorted(set(zeros.tolist()) | {eq.x for eq in unpatched})
        assert [eq.classification for eq in got] == ["minimum"] * len(got)

    def test_non_finite_beside_a_root(self, monkeypatch):
        d = Uniform(0.0, 1.0)
        root = float(_scan(d)[20])

        def energy_prime(d, x):
            # 0 at the node, and nan within 1e-3 of it: no other node is as near, but both points the class samples are
            return np.where((x != root) & (np.abs(x - root) < 1e-3), np.nan, x - root)

        monkeypatch.setattr(verify, "total_energy_derivative", energy_prime)
        with pytest.raises(NonFiniteSample, match="^E' is not finite within .* of x=" + re.escape(repr(root))):
            find_equilibria(d)

    def test_flat_root_is_degenerate(self, monkeypatch):
        # E' = (x - 0.3)**3 has E'' = 0 at its root, between nodes
        monkeypatch.setattr(verify, "total_energy_derivative", lambda d, x: (np.asarray(x) - 0.3) ** 3)
        (eq,) = find_equilibria(Uniform(0.0, 1.0))
        assert eq.x == pytest.approx(0.3, abs=1e-4)
        assert eq.classification == "degenerate"

    def test_reports_without_equilibria(self, monkeypatch):
        monkeypatch.setattr(verify, "find_equilibria", lambda d: [])
        reports = verify._equilibrium_reports()
        assert [r.check_name.partition(":")[0] for r in reports] == ["equilibrium_location"] * 4 + [
            "equilibrium_self_consistency"
        ]
        for r in reports:
            assert r.residual == math.inf and not r.passed
            assert r.details == {"count": 0}


class TestNarrowWindows:
    """Families whose f' or f overflows or underflows at the scan's points although f'/f is representable.

    E'' may overflow as well, to +-inf, for a narrow window, and underflows to 0 for a window
    wider than about 1e162, so the class is read from the E' samples without it. Arcsin's f' has
    ((x - a)(b - x))**1.5 below the line, which underflows or overflows for widths below about
    1e-104 or above about 1e103; its score is a difference of two quotients instead.
    """

    @pytest.mark.parametrize(
        "name,s",
        [("Exponential", 1e-200), ("Normal", 1e-160)]
        + [("Arcsin", w) for w in EDGE_WIDTHS]
        # Semicircle(b - s, b + s) has width 2 s
        + [("Semicircle", w / 2.0) for w in EDGE_WIDTHS]
        # Uniform(0, b), Normal(0, b/10) and Exponential(1/b), whose E'' underflows to 0
        + [(name, b) for b in (1e165, 1e200, 1e300) for name in ("Uniform", "Exponential")]
        + [("Normal", b / 10.0) for b in (1e165, 1e200, 1e300)]
        + PAST_THE_FLOAT_RANGE,
    )
    def test_equilibrium_at_scaled_place(self, name, s):
        import warnings

        (want,) = find_equilibria(AFFINE[name](0.0, 1.0))
        lo, hi = AFFINE[name](0.0, 1.0).truncated_support(verify._SCAN_EPS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = find_equilibria(AFFINE[name](0.0, s))
        assert [eq.classification for eq in got] == [want.classification]
        # the bound of TestEquilibria::test_classes_do_not_depend_on_scale at b = 0
        bound = 2.0 * (1e-12 * (hi - lo) + 8.0 * U * abs(want.x)) + _dz(0.0, s, abs(want.x))
        assert abs(got[0].x / s - want.x) <= bound

    @pytest.mark.parametrize("name,s", PAST_THE_FLOAT_RANGE)
    def test_curvature_past_the_float_range(self, name, s):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (eq,) = find_equilibria(AFFINE[name](0.0, s))
        # E'' scales as 1/width**2, which is past the float range here; the class is read without it
        assert eq.classification == "minimum"
        assert eq.energy_second_derivative == math.inf


class TestShiftedWindows:
    """Windows far from 0, where the float spacing is a visible share of the window, or coarser."""

    # far from 0, x +- 1e-4 of the width round to other floats; E'' divides by the spacing they have
    @pytest.mark.parametrize("b", [1e6, 1e10, 1e12])
    @pytest.mark.parametrize(
        "family", [lambda b: Uniform(b, b + 1.0), lambda b: Normal(b, 1.0)], ids=["Uniform", "Normal"]
    )
    def test_curvature_across_shifts(self, family, b):
        (want,) = find_equilibria(family(0.0))
        (got,) = find_equilibria(family(b))
        assert got.classification == "minimum"
        assert got.energy_second_derivative == pytest.approx(want.energy_second_derivative, rel=1e-6)

    def test_curvature_past_the_spacing(self):
        # 1e-4 of the width either side of 1e13 rounds to 1e13 itself
        with pytest.raises(InvalidGrid, match="round to one float"):
            find_equilibria(Normal(1e13, 1.0))

    # from 2**41 (2.2e12) a + 1e-4 rounds to a, so the scan window's ends are the support's, where F is 0
    # and 1 (DomainError before); at 1e15 the 65 scan nodes cannot be told apart either
    @pytest.mark.parametrize("b", [2e12, 3e12, 1e15])
    def test_window_on_the_support_ends(self, b):
        with pytest.raises(InvalidGrid, match="^(scan window .* rounds onto the support's ends .*|grid must be .*)$"):
            find_equilibria(Uniform(b, b + 1.0))

    # the float spacing at 1e16 is 2: the scan and the mode grid would repeat nodes
    @pytest.mark.parametrize("d", [Normal(1e16, 1.0), Uniform(1e16, 1e16 + 8.0)], ids=_ids)
    @pytest.mark.parametrize("check", [find_equilibria, verify_mode_at_median], ids=lambda f: f.__name__)
    def test_unresolvable_window(self, check, d):
        with pytest.raises(InvalidGrid, match="^grid must be finite and strictly increasing$"):
            check(d)


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

    def test_to_dict_is_asdict(self):
        from dataclasses import asdict

        for rep in run_suite("all"):
            got = rep.to_dict()
            assert got == asdict(rep) and got["details"] is not rep.details

    def test_energy_derivative_calls_per_suite(self, monkeypatch):
        # per family one scan call, the refining steps and one curvature call per root
        calls = []
        energy_prime = verify.total_energy_derivative

        def counted(d, x):
            calls.append(d)
            return energy_prime(d, x)

        monkeypatch.setattr(verify, "total_energy_derivative", counted)
        verify._equilibrium_reports()
        assert len(calls) <= 23

    def test_integrand_calls_per_suite(self, monkeypatch):
        # one call per refinement round of each of the six integrals; one per panel split made 70
        from derangetropy import numerics

        sizes = []
        sample = numerics._sample
        monkeypatch.setattr(numerics, "_sample", lambda f, xs: sizes.append(xs.size) or sample(f, xs))
        run_suite("all")
        assert 6 <= len(sizes) <= 21

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

    def test_all_runs_every_suite_in_order(self):
        names = [r.check_name for r in run_suite("all")]
        assert names == [r.check_name for suite in verify.SUITES[1:] for r in run_suite(suite)]
        assert verify.SUITES == ("all", "appendix", "normalization", "mode", "ode", "equilibrium")

    def test_tabulated_label(self):
        # a Tabulated has no dataclass fields, so its label is its class name alone
        rep = verify_normalization(Tabulated(np.linspace(0.0, 1.0, 9), np.ones(9)))
        assert rep.check_name == "normalization:tabulated"
        assert rep.passed

    def test_spec_threaded_through(self):
        reports = run_suite("appendix", abs_tol=1e-12)
        assert reports[0].residual < 1e-10
        assert reports[0].details["abs_tol"] == 1e-12
