"""Numerical verification of the quantitative claims.

Each check produces a VerificationReport whose `residual` is an absolute
defect measured against an independent oracle (quadrature, finite
differences, root finding), never against the code path being verified.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Arcsin, Distribution, Exponential, Normal, Semicircle, Uniform, _grid
from .errors import DomainError, InvalidGrid, NonFiniteSample, SymmetryProbeFailed
from .functional import (
    SCALE,
    derangetropy_derivative,
    derangetropy_kernel,
    derangetropy_profile,
    total_energy_derivative,
)
from .numerics import ABS_TOL, _refine, integrate

# target value of the appendix integral, pi*e/24 in double precision
APPENDIX_CONSTANT = math.pi * math.e / 24.0

# curvature of the total energy at the uniform equilibrium, pi^2 - 4
UNIFORM_EQUILIBRIUM_CURVATURE = math.pi ** 2 - 4.0

# classifications with |second derivative| * width**2 below this are reported as degenerate
_CURVATURE_DEADBAND = 1e-6

# find_equilibria scans [quantile(eps), quantile(1 - eps)] with this eps, in this many brackets
_SCAN_EPS = 1e-4
_N_BRACKETS = 64

# verify_ode_uniform's points of F and the step of its central difference
_ODE_GRID_F = np.linspace(0.01, 0.99, 199)
_ODE_FD_STEP = 1e-5


@dataclass(frozen=True)
class VerificationReport:
    check_name: str
    residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    @classmethod
    def build(cls, check_name: str, residual: float, tolerance: float, **details) -> "VerificationReport":
        residual = float(residual)
        return cls(
            check_name=check_name,
            residual=residual,
            tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
            details=details,
        )

    def to_dict(self) -> dict:
        # details holds floats, ints and strings, so a shallow copy is a full one
        return {
            "check_name": self.check_name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": dict(self.details),
        }


@dataclass(frozen=True)
class Equilibrium:
    x: float
    energy_second_derivative: float
    classification: str


def _label(d: Distribution) -> str:
    name = type(d).__name__.lower()
    params = getattr(d, "__dataclass_fields__", None)
    if params:
        inner = ",".join(repr(getattr(d, k)) for k in params)
        return f"{name}({inner})"
    return name


def appendix_integrand(z):
    """sin(pi*z) * z^z * (1-z)^(1-z), whose [0,1] integral is pi*e/24: the library kernel over SCALE."""
    return derangetropy_kernel(z) / SCALE


def verify_appendix_constant(abs_tol: float = ABS_TOL, tolerance: float = 1e-8) -> VerificationReport:
    value = integrate(appendix_integrand, 0.0, 1.0, abs_tol)
    return VerificationReport.build(
        "appendix_constant",
        residual=abs(value - APPENDIX_CONSTANT),
        tolerance=tolerance,
        value=value,
        target=APPENDIX_CONSTANT,
        method="gauss_legendre_composite",
        abs_tol=abs_tol,
    )


def verify_normalization(
    d: Distribution,
    abs_tol: float = ABS_TOL,
    tail_eps: float = 1e-9,
    tolerance: float = 1e-6,
) -> VerificationReport:
    """Quadrature check that rho integrates to 1 over the (truncated) support."""
    lo, hi = d.truncated_support(tail_eps)

    def integrand(xs):
        _, _, rho = derangetropy_profile(d, xs)
        return rho

    value = integrate(integrand, lo, hi, abs_tol)
    return VerificationReport.build(
        f"normalization:{_label(d)}",
        residual=abs(value - 1.0),
        tolerance=tolerance,
        value=value,
        lo=lo,
        hi=hi,
        tail_eps=tail_eps,
        abs_tol=abs_tol,
    )


def verify_mode_at_median(d: Distribution, n_points: int = 10_000) -> VerificationReport:
    """Grid argmax of rho against the median, for symmetric unimodal input.

    The grid is discretize's over [quantile(1e-9), quantile(1 - 1e-9)], InvalidGrid where
    float spacing cannot resolve it. The symmetry probe runs first: cdf(m-t) + cdf(m+t) must
    equal 1 to 1e-8 for a spread of offsets t, otherwise the check refuses the input with
    SymmetryProbeFailed instead of reporting a meaningless residual.
    """
    if n_points < 101:
        raise DomainError(f"n_points must be at least 101, got {n_points!r}")
    m = d.median()
    xs = _grid(d, n_points, 1e-9)
    half = min(m - float(xs[0]), float(xs[-1]) - m)
    offsets = np.linspace(0.05, 0.95, 13) * half
    probe = np.abs(np.asarray(d.cdf(m - offsets)) + np.asarray(d.cdf(m + offsets)) - 1.0)
    worst = float(np.max(probe))
    if worst > 1e-8:
        raise SymmetryProbeFailed(
            f"{_label(d)}: cdf(m-t)+cdf(m+t) deviates from 1 by {worst:.3e}"
        )
    _, _, rho = derangetropy_profile(d, xs)
    arg = float(xs[int(np.argmax(rho))])
    step = float(xs[1] - xs[0])
    return VerificationReport.build(
        f"mode_at_median:{_label(d)}",
        residual=abs(arg - m),
        tolerance=step,
        argmax=arg,
        median=m,
        n_points=n_points,
        grid_step=step,
        symmetry_defect=worst,
    )


def verify_ode_uniform() -> VerificationReport:
    """Residual of the second-order ODE satisfied by rho in the uniform case.

    With L(F) = atanh(1-2F), the claim is

        rho'' + 4 L(F) rho' + (pi^2 - 1/(F(1-F)) + 4 L(F)^2) rho = 0

    on _ODE_GRID_F, 199 points of F in [0.01, 0.99]. rho' is analytic, rho''
    comes from central differences of rho' with step _ODE_FD_STEP, and the
    max-abs residual is normalized by max|rho|. The initial slope
    d(rho)/dF at F=0 is checked against 24/e through a forward difference;
    the reported residual is the worse of the two defects so `passed`
    covers both.
    """
    grid_f = _ODE_GRID_F
    # on uniform(0,1), f = 1 and F = x: rho as a function of F is the kernel itself
    flat = Uniform(0.0, 1.0)
    rho = derangetropy_kernel(grid_f)
    below, rho_prime, above = derangetropy_derivative(flat, grid_f + _ODE_FD_STEP * np.array([[-1.0], [0.0], [1.0]]))
    rho_second = (above - below) / (2.0 * _ODE_FD_STEP)
    L = np.arctanh(1.0 - 2.0 * grid_f)
    coeff = math.pi ** 2 - 1.0 / (grid_f * (1.0 - grid_f)) + 4.0 * L ** 2
    residual_field = rho_second + 4.0 * L * rho_prime + coeff * rho
    norm_residual = float(np.max(np.abs(residual_field)) / np.max(np.abs(rho)))

    slope_h = 1e-8
    slope = (derangetropy_kernel(slope_h) - 0.0) / slope_h
    slope_target = 24.0 / math.e
    slope_defect = abs(slope - slope_target)

    center_idx = int(np.argmin(np.abs(grid_f - 0.5)))
    return VerificationReport.build(
        "ode_uniform",
        residual=max(norm_residual, slope_defect),
        tolerance=1e-4,
        ode_residual=norm_residual,
        initial_slope=slope,
        initial_slope_target=slope_target,
        initial_slope_defect=slope_defect,
        pointwise_residual_near_center=float(abs(residual_field[center_idx])),
        n_points=int(grid_f.size),
        fd_step=_ODE_FD_STEP,
    )


def find_equilibria(d: Distribution) -> list[Equilibrium]:
    """Interior zeros of dE_total/dx, classified by local curvature.

    The derivative of the total energy is evaluated analytically as
    -rho'/rho; the scan covers [quantile(_SCAN_EPS), quantile(1-_SCAN_EPS)]
    with _N_BRACKETS intervals. Each bracket whose end values do not share a
    sign is refined to 1e-12 of the scan width by Chandrupatla's method from
    the scan's own values at its ends, which returns an end where E' is 0
    unsampled; the merge keeps one of the two brackets' roots at such a node.
    A root is classified by E_total'' times width**2, formed from one call's
    two samples of E' 1e-4 of the width either side, so that neither the class
    nor the root's place in the window depends on the width in either direction.
    """
    xs = _grid(d, _N_BRACKETS + 1, _SCAN_EPS)
    (lo, hi), (x0, x1) = d.support(), xs[[0, -1]].tolist()
    if not (lo < x0 and x1 < hi):  # as for Uniform(2e12, 2e12 + 1), whose a + 1e-4 rounds to a, where F = 0
        raise InvalidGrid(f"scan window [{x0!r}, {x1!r}] rounds onto the support's ends ({lo!r}, {hi!r})")
    width = x1 - x0
    root_tol = 1e-12 * width
    fd_step = 1e-4 * width

    energy_prime = functools.partial(total_energy_derivative, d)
    vals = total_energy_derivative(d, xs)
    roots = [
        _refine(energy_prime, *xs[i : i + 2].tolist(), *vals[i : i + 2].tolist(), root_tol)
        for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)
    ]

    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 100.0 * root_tol:
            merged.append(r)

    out = []
    for r in merged:
        below, above = total_energy_derivative(d, np.array([r - fd_step, r + fd_step])).tolist()
        step = (r + fd_step) - (r - fd_step)
        if not step > 0.0:
            raise InvalidGrid(f"x={r!r} +- {fd_step!r} round to one float, too close to resolve E''")
        if not (math.isfinite(below) and math.isfinite(above)):
            raise NonFiniteSample(f"E' is not finite within {fd_step!r} of x={r!r}")
        # E'' over the spacing sampled (not 2 * fd_step far from 0) scales as 1/width**2, past the float range for
        # Exponential(1e200) and Uniform(0, 1e200); the class E'' * width**2 is (above - below) * (width / step) * width
        second = (above - below) / step
        shape = (above - below) * (width / step) * width
        if shape > _CURVATURE_DEADBAND:
            kind = "minimum"
        elif shape < -_CURVATURE_DEADBAND:
            kind = "maximum"
        else:
            kind = "degenerate"
        out.append(Equilibrium(x=r, energy_second_derivative=second, classification=kind))
    return out


def _equilibrium_reports() -> list[VerificationReport]:
    reports = []

    # symmetric members: the single interior equilibrium sits at the median
    nearest = {}
    for d in (Uniform(0.0, 1.0), Normal(0.0, 1.0), Semicircle(-1.0, 1.0), Arcsin(0.0, 1.0)):
        eqs, med = find_equilibria(d), d.median()
        e = nearest[d] = min(eqs, key=lambda q: abs(q.x - med), default=None)
        if e is not None:
            residual = abs(e.x - med)
            details = {
                "x": e.x,
                "median": med,
                "classification": e.classification,
                "energy_second_derivative": e.energy_second_derivative,
                "count": len(eqs),
            }
        else:
            residual = math.inf
            details = {"count": 0}
        name = f"equilibrium_location:{_label(d)}"
        reports.append(VerificationReport.build(name, residual=residual, tolerance=1e-8, **details))

    # curvature at the uniform equilibrium has a closed form, pi^2 - 4
    e = nearest[Uniform(0.0, 1.0)]
    if e is not None:
        reports.append(
            VerificationReport.build(
                "equilibrium_curvature:uniform(0.0,1.0)",
                residual=abs(e.energy_second_derivative - UNIFORM_EQUILIBRIUM_CURVATURE),
                tolerance=1e-4,
                measured=e.energy_second_derivative,
                target=UNIFORM_EQUILIBRIUM_CURVATURE,
                classification=e.classification,
            )
        )

    # asymmetric member: self-consistency, rho' vanishes where E' does
    expo = Exponential(1.0)
    eqs = find_equilibria(expo)
    reports.append(
        VerificationReport.build(
            "equilibrium_self_consistency:exponential(1.0)",
            residual=abs(derangetropy_derivative(expo, eqs[0].x)) if eqs else math.inf,
            tolerance=1e-8,
            **({"x": eqs[0].x, "classification": eqs[0].classification} if eqs else {}),
            count=len(eqs),
        )
    )
    return reports


# each suite's reports for the quadrature tolerance tol, in the order `all` runs them
_SUITES = {
    "appendix": lambda tol: [verify_appendix_constant(tol)],
    "normalization": lambda tol: [
        verify_normalization(d, tol)
        for d in (Uniform(0.0, 1.0), Normal(0.0, 1.0), Exponential(1.0), Semicircle(-1.0, 1.0), Arcsin(0.0, 1.0))
    ],
    "mode": lambda _: [verify_mode_at_median(d) for d in (Uniform(0.0, 1.0), Normal(0.0, 1.0), Semicircle(-1.0, 1.0))],
    "ode": lambda _: [verify_ode_uniform()],
    "equilibrium": lambda _: _equilibrium_reports(),
}

# names run_suite accepts
SUITES = ("all", *_SUITES)


def run_suite(suite: str, abs_tol: float = ABS_TOL) -> list[VerificationReport]:
    """Run one named verification suite (or `all`) and return its reports."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    return [r for name, reports in _SUITES.items() if suite in ("all", name) for r in reports(abs_tol)]
