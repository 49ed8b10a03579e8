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

from .distributions import (
    Arcsin,
    Distribution,
    Exponential,
    Normal,
    Semicircle,
    Uniform,
)
from .errors import DomainError, SymmetryProbeFailed
from .functional import (
    SCALE,
    derangetropy_derivative,
    derangetropy_kernel,
    derangetropy_profile,
    total_energy_derivative,
)
from .numerics import QuadratureSpec, central_difference, find_root, integrate

# target value of the appendix integral, pi*e/24 in double precision
APPENDIX_CONSTANT = math.pi * math.e / 24.0

# curvature of the total energy at the uniform equilibrium, pi^2 - 4
UNIFORM_EQUILIBRIUM_CURVATURE = math.pi ** 2 - 4.0

# names run_suite accepts
SUITES = ("all", "normalization", "appendix", "mode", "ode", "equilibrium")

# classifications with |second derivative| below this are reported as degenerate
_CURVATURE_DEADBAND = 1e-6


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


def verify_appendix_constant(spec: QuadratureSpec | None = None, tolerance: float = 1e-8) -> VerificationReport:
    if spec is None:
        spec = QuadratureSpec()
    value = integrate(appendix_integrand, 0.0, 1.0, spec)
    return VerificationReport.build(
        "appendix_constant",
        residual=abs(value - APPENDIX_CONSTANT),
        tolerance=tolerance,
        value=value,
        target=APPENDIX_CONSTANT,
        method=spec.method,
        abs_tol=spec.abs_tol,
    )


def verify_normalization(
    d: Distribution,
    spec: QuadratureSpec | None = None,
    tail_eps: float = 1e-9,
    tolerance: float = 1e-6,
) -> VerificationReport:
    """Quadrature check that rho integrates to 1 over the (truncated) support."""
    if spec is None:
        spec = QuadratureSpec()
    lo, hi = d.truncated_support(tail_eps)

    def integrand(xs):
        _, _, rho = derangetropy_profile(d, xs)
        return rho

    value = integrate(integrand, lo, hi, spec)
    return VerificationReport.build(
        f"normalization:{_label(d)}",
        residual=abs(value - 1.0),
        tolerance=tolerance,
        value=value,
        lo=lo,
        hi=hi,
        tail_eps=tail_eps,
        abs_tol=spec.abs_tol,
    )


def verify_mode_at_median(
    d: Distribution,
    n_points: int = 10_000,
    tail_eps: float = 1e-9,
) -> VerificationReport:
    """Grid argmax of rho against the median, for symmetric unimodal input.

    The symmetry probe runs first: cdf(m-t) + cdf(m+t) must equal 1 to 1e-8
    for a spread of offsets t, otherwise the check refuses the input with
    SymmetryProbeFailed instead of reporting a meaningless residual.
    """
    if n_points < 101:
        raise DomainError(f"n_points must be at least 101, got {n_points!r}")
    m = d.median()
    lo, hi = d.truncated_support(tail_eps)
    half = min(m - lo, hi - m)
    offsets = np.linspace(0.05, 0.95, 13) * half
    probe = np.abs(np.asarray(d.cdf(m - offsets)) + np.asarray(d.cdf(m + offsets)) - 1.0)
    worst = float(np.max(probe))
    if worst > 1e-8:
        raise SymmetryProbeFailed(
            f"{_label(d)}: cdf(m-t)+cdf(m+t) deviates from 1 by {worst:.3e}"
        )
    xs = np.linspace(lo, hi, n_points)
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


def verify_ode_uniform(
    grid_f=None,
    fd_step: float = 1e-5,
    tolerance: float = 1e-4,
) -> VerificationReport:
    """Residual of the second-order ODE satisfied by rho in the uniform case.

    With L(F) = atanh(1-2F), the claim is

        rho'' + 4 L(F) rho' + (pi^2 - 1/(F(1-F)) + 4 L(F)^2) rho = 0

    rho' is analytic, rho'' comes from central differences of rho', and the
    max-abs residual is normalized by max|rho|. The initial slope
    d(rho)/dF at F=0 is checked against 24/e through a forward difference;
    the reported residual is the worse of the two defects so `passed`
    covers both.
    """
    if grid_f is None:
        grid_f = np.linspace(0.01, 0.99, 199)
    grid_f = np.asarray(grid_f, dtype=float)
    if np.any(grid_f < 0.01) or np.any(grid_f > 0.99):
        raise DomainError("ODE grid must stay inside [0.01, 0.99]")
    if not (0.0 < fd_step < 1e-2):
        raise DomainError(f"fd_step must be a small positive number, got {fd_step!r}")

    # on uniform(0,1), f = 1 and F = x: rho as a function of F is the kernel itself
    flat = Uniform(0.0, 1.0)
    rho = derangetropy_kernel(grid_f)
    rho_prime = derangetropy_derivative(flat, grid_f)
    rho_second = central_difference(lambda F: derangetropy_derivative(flat, F), grid_f, fd_step, order=1)
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
        tolerance=tolerance,
        ode_residual=norm_residual,
        initial_slope=slope,
        initial_slope_target=slope_target,
        initial_slope_defect=slope_defect,
        pointwise_residual_near_center=float(abs(residual_field[center_idx])),
        n_points=int(grid_f.size),
        fd_step=fd_step,
    )


def find_equilibria(
    d: Distribution,
    n_brackets: int = 64,
    scan_eps: float = 1e-4,
    root_tol: float | None = None,
    fd_step: float | None = None,
) -> list[Equilibrium]:
    """Interior zeros of dE_total/dx, classified by local curvature.

    The derivative of the total energy is evaluated analytically as
    -rho'/rho; the scan covers [quantile(scan_eps), quantile(1-scan_eps)]
    with n_brackets intervals, each sign change refined by find_root and
    classified by a finite-difference second derivative of E_total.
    """
    if n_brackets < 2:
        raise DomainError(f"n_brackets must be at least 2, got {n_brackets!r}")
    lo, hi = d.truncated_support(scan_eps)
    width = hi - lo
    if root_tol is None:
        root_tol = 1e-12 * max(width, 1.0)
    if fd_step is None:
        fd_step = 1e-4 * width

    energy_prime = functools.partial(total_energy_derivative, d)
    xs = np.linspace(lo, hi, n_brackets + 1)
    vals = total_energy_derivative(d, xs)
    roots = xs[vals == 0.0].tolist()
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        roots.append(find_root(energy_prime, float(xs[i]), float(xs[i + 1]), tol=root_tol))

    merged: list[float] = []
    for r in sorted(roots):
        if not merged or r - merged[-1] > 100.0 * root_tol:
            merged.append(r)

    out = []
    for r in merged:
        second = central_difference(energy_prime, r, fd_step, order=1)
        if second > _CURVATURE_DEADBAND:
            kind = "minimum"
        elif second < -_CURVATURE_DEADBAND:
            kind = "maximum"
        else:
            kind = "degenerate"
        out.append(Equilibrium(x=r, energy_second_derivative=second, classification=kind))
    return out


def _zoo():
    return [
        Uniform(0.0, 1.0),
        Normal(0.0, 1.0),
        Exponential(1.0),
        Semicircle(-1.0, 1.0),
        Arcsin(0.0, 1.0),
    ]


def _equilibrium_reports(spec: QuadratureSpec | None = None) -> list[VerificationReport]:
    reports = []

    # symmetric members: the single interior equilibrium sits at the median
    symmetric = (Uniform(0.0, 1.0), Normal(0.0, 1.0), Semicircle(-1.0, 1.0), Arcsin(0.0, 1.0))
    found = {d: find_equilibria(d) for d in symmetric}
    for d, eqs in found.items():
        med = d.median()
        if eqs:
            nearest = min(eqs, key=lambda e: abs(e.x - med))
            residual = abs(nearest.x - med)
            details = {
                "x": nearest.x,
                "median": med,
                "classification": nearest.classification,
                "energy_second_derivative": nearest.energy_second_derivative,
                "count": len(eqs),
            }
        else:
            residual = math.inf
            details = {"count": 0}
        reports.append(
            VerificationReport.build(
                f"equilibrium_location:{_label(d)}",
                residual=residual,
                tolerance=1e-8,
                **details,
            )
        )

    # curvature at the uniform equilibrium has a closed form, pi^2 - 4
    eqs = found[Uniform(0.0, 1.0)]
    if eqs:
        e = min(eqs, key=lambda q: abs(q.x - 0.5))
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


def run_suite(suite: str, spec: QuadratureSpec | None = None) -> list[VerificationReport]:
    """Run one named verification suite (or `all`) and return its reports."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    reports: list[VerificationReport] = []
    if suite in ("all", "appendix"):
        reports.append(verify_appendix_constant(spec))
    if suite in ("all", "normalization"):
        for d in _zoo():
            reports.append(verify_normalization(d, spec))
    if suite in ("all", "mode"):
        for d in (Uniform(0.0, 1.0), Normal(0.0, 1.0), Semicircle(-1.0, 1.0)):
            reports.append(verify_mode_at_median(d))
    if suite in ("all", "ode"):
        reports.append(verify_ode_uniform())
    if suite in ("all", "equilibrium"):
        reports.extend(_equilibrium_reports(spec))
    return reports
