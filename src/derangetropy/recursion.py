"""Grid-based self-application of the derangetropy operator.

The iteration starts from a density sampled on a fixed uniform grid and
repeatedly multiplies by the kernel evaluated at the current cdf, then
renormalizes. Mass drifts only through trapezoid error, and the
pre-renormalization mass of every step is kept as a health metric. A level
handed to apply_derangetropy is fully validated, except the levels that
iterate's own steps build, which are valid by construction (see iterate).
Every step finds its cdf interior, where 0 < F < 1, by one block scan from
each end, and evaluates the kernel only there and one node past it;
elsewhere the kernel is zero. The checks, the kernel, the mass and the
moments stream the grid in cache-sized blocks, so the only grid-sized
arrays a step makes are the new density and cdf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, _linear_cdf_quantile
from .errors import DomainError, GridMismatch, InvalidGrid, NonFiniteSample
from .functional import derangetropy_kernel
from .numerics import _BLOCK, _blocks, _find, _trapezoid, _unit_density

# slack on the unit-mass and cdf-range checks; renormalization makes the
# stored arrays exact to rounding, so this only has to absorb float noise
_MASS_TOL = 1e-8


@dataclass
class GridFunction:
    """A density with its cdf on a shared strictly increasing grid.

    level counts how many times the operator has been applied (0 for a
    freshly discretized distribution). prenorm_mass is the trapezoid mass
    the density had before its renormalization, worth watching because it
    measures quadrature drift, not a property of the operator itself.
    """

    xs: np.ndarray
    density: np.ndarray
    cdf: np.ndarray
    level: int
    prenorm_mass: float = 1.0

    def validate(self) -> None:
        """Check every invariant of the level, a block at a time: no array the size of the grid."""
        xs, density, cdf = self.xs, self.density, self.cdf
        if xs.ndim != 1 or xs.shape != density.shape or xs.shape != cdf.shape:
            raise InvalidGrid("xs, density, cdf must be matching 1-d arrays")
        if xs.size < 2:
            raise InvalidGrid("grid needs at least two nodes")
        # a NaN makes its block's least spacing NaN, which fails the comparison; an infinity
        # inside the grid makes a spacing NaN or -inf, so only the ends need their own check
        spacings_positive = all(np.diff(xs[s : e + 1]).min() > 0.0 for s, e in _blocks(0, xs.size - 1))
        if not (spacings_positive and math.isfinite(xs[0]) and math.isfinite(xs[-1])):
            raise InvalidGrid("grid must be finite and strictly increasing")
        # min and max carry any NaN or infinity
        bounds = (float(density.min()), float(density.max()), float(cdf.min()), float(cdf.max()))
        if not all(map(math.isfinite, bounds)):
            raise InvalidGrid("density or cdf contains non-finite values")
        if bounds[0] < -_MASS_TOL:
            raise InvalidGrid("density has negative values")
        if any((np.diff(cdf[s : e + 1]) < -_MASS_TOL).any() for s, e in _blocks(0, cdf.size - 1)):
            raise InvalidGrid("cdf must be nondecreasing")
        if abs(float(cdf[0])) > _MASS_TOL or abs(float(cdf[-1]) - 1.0) > _MASS_TOL:
            raise InvalidGrid("cdf must run from 0 to 1")
        mass = _trapezoid(density, xs)
        if abs(mass - 1.0) > _MASS_TOL:
            raise InvalidGrid(f"density mass {mass!r} is not 1 within {_MASS_TOL}")
        if self.level < 0:
            raise InvalidGrid("level must be nonnegative")

    def cdf_at(self, t: float) -> float:
        return float(np.interp(t, self.xs, self.cdf))

    def quantile(self, p: float) -> float:
        """Inverse of the piecewise-linear cdf; flat stretches resolve leftward."""
        return _linear_cdf_quantile(self.xs, self.cdf, p)

    def median(self) -> float:
        return self.quantile(0.5)


@dataclass(frozen=True)
class ConvergenceMetrics:
    level: int
    median: float
    variance: float
    iqr: float
    central_mass: float


def discretize(d: Distribution, n_points: int, tail_eps: float) -> GridFunction:
    """Sample a distribution on a uniform grid over its central quantile range.

    The sampled density is renormalized to unit trapezoid mass, so the grid
    function is a proper density in its own right even when tails were cut
    or the family has integrable endpoint singularities.
    """
    if n_points < 101:
        raise DomainError(f"n_points must be at least 101, got {n_points!r}")
    if not 0.0 < tail_eps < 0.1:
        raise DomainError(f"tail_eps must lie in (0, 0.1), got {tail_eps!r}")
    lo, hi = d.truncated_support(tail_eps)
    xs = np.linspace(lo, hi, n_points)
    # a copy, since _unit_density scales it in place
    density = np.array(d.pdf(xs), dtype=float)
    # comparisons with NaN are False, so this also rejects NaN
    if not (density.min() >= 0.0 and density.max() < np.inf):
        raise InvalidGrid("pdf is not finite and nonnegative on the truncated grid")
    density, cdf, mass = _unit_density(density, xs)
    return GridFunction(xs=xs, density=density, cdf=cdf, level=0, prenorm_mass=mass)


def apply_derangetropy(g: GridFunction, *, _trusted: bool = False) -> GridFunction:
    """One application of the operator: reweight by the kernel on the cdf interior, renormalize.

    g is validated in full, and the new density is clamped to at least +0.0, so
    the level returned has no sign bit whatever g held. iterate passes _trusted
    for the levels its own steps built (see iterate), which skip validate and
    the clamp; the interior is found the same way on both paths.
    """
    F, n = g.cdf, g.cdf.size
    if not _trusted:
        g.validate()
    # the cdf interior and one node past it on each side; outside [lo, hi) the kernel is zero
    lo = max(_find(F, lambda block: block > 0.0) - 1, 0)
    hi = min(n + 1 - _find(F[::-1], lambda block: block < 1.0), n)
    density, clipped = np.zeros(n), np.empty(min(n, _BLOCK))
    for s, e in _blocks(lo, hi):
        derangetropy_kernel(np.clip(F[s:e], 0.0, 1.0, out=clipped[: e - s]), out=density[s:e])
        density[s:e] *= g.density[s:e]
        if not _trusted:
            # -0.0 and the negative entries that validate tolerates become +0.0
            np.maximum(density[s:e], 0.0, out=density[s:e])
    density, cdf, prenorm = _unit_density(density, g.xs, lo, hi)
    return GridFunction(xs=g.xs, density=density, cdf=cdf, level=g.level + 1, prenorm_mass=prenorm)


def iterate(g0: GridFunction, n: int) -> list[GridFunction]:
    """Levels 0..n of the recursion, starting from g0.

    g0 is validated by the first step, whose density is clamped to at least
    +0.0. Each later level is built by the step before it, with no other code
    in between, and meets every check of validate by construction: its density
    is the kernel (at least +0.0) times a density with no sign bit, divided by
    a mass that _unit_density accepts only if the quotient is finite with unit
    mass to rounding, and its cdf is a running sum of nonnegative steps divided
    by its total, so it is nondecreasing from exactly 0 to exactly 1. So every
    later step is trusted: it skips validate and the clamp.
    """
    if n < 1:
        raise DomainError(f"n must be at least 1, got {n!r}")
    levels = [g0]
    for k in range(n):
        levels.append(apply_derangetropy(levels[-1], _trusted=k > 0))
    return levels


def convergence_metrics(g: GridFunction, delta: float, center: float | None = None) -> ConvergenceMetrics:
    """Concentration diagnostics for one level.

    central_mass is the mass within [center - delta, center + delta]; pass
    the level-0 median as center to track a whole iteration against a fixed
    reference point (defaults to the grid's own median).
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise DomainError(f"delta must be positive, got {delta!r}")
    if center is not None and not math.isfinite(center):
        raise DomainError(f"center must be finite, got {center!r}")
    med = g.median()
    center = med if center is None else center
    # moment terms on the density's support only; the others are +0.0
    xs, density, n = g.xs, g.density, g.xs.size
    a = max(_find(density, lambda block: block != 0.0) - 1, 0)
    b = min(n - _find(density[::-1], lambda block: block != 0.0), n - 1)
    y = np.empty(min(n, _BLOCK + 1))

    def centered(s, e):
        d = np.subtract(xs[s:e], mean, out=y[: e - s])
        return np.multiply(np.square(d, out=d), density[s:e], out=d)

    with np.errstate(over="ignore", invalid="ignore"):
        mean = _trapezoid(lambda s, e: np.multiply(xs[s:e], density[s:e], out=y[: e - s]), xs, a, b)
        variance = _trapezoid(centered, xs, a, b)
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise NonFiniteSample(f"level {g.level} has mean {mean!r} and variance {variance!r}")
    iqr = g.quantile(0.75) - g.quantile(0.25)
    central = g.cdf_at(center + delta) - g.cdf_at(center - delta)
    return ConvergenceMetrics(
        level=g.level,
        median=med,
        variance=max(variance, 0.0),
        iqr=max(iqr, 0.0),
        central_mass=min(max(central, 0.0), 1.0),
    )


def l2_distance(g1: GridFunction, g2: GridFunction) -> float:
    """L2 norm of the density difference over the overlap of the two grids.

    Grids need not match; both densities are linearly interpolated onto a
    common uniform grid first. Disjoint supports are an error rather than a
    large number.
    """
    lo = max(float(g1.xs[0]), float(g2.xs[0]))
    hi = min(float(g1.xs[-1]), float(g2.xs[-1]))
    if not lo < hi:
        raise GridMismatch(
            f"grids [{g1.xs[0]!r}, {g1.xs[-1]!r}] and [{g2.xs[0]!r}, {g2.xs[-1]!r}] do not overlap"
        )
    n = max(g1.xs.size, g2.xs.size)
    xs = np.linspace(lo, hi, n)
    d1 = np.interp(xs, g1.xs, g1.density)
    d2 = np.interp(xs, g2.xs, g2.density)
    return math.sqrt(_trapezoid((d1 - d2) ** 2, xs))
