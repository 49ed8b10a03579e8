"""Quadrature, root refinement, and sampled densities.

Everything downstream (normalization checks, energy profiles, the recursion)
runs through this module, so the routines here are deliberately conservative:
adaptive refinement with explicit budgets, hard errors on non-finite samples,
and no silent fallbacks. `integrate` has one rule, refined in rounds that each
cut every panel above its share of the tolerance into _FAN_OUT pieces and call
the integrand once; its budget, _MAX_SPLITS, counts the panels cut. The
tests check it against adaptive Simpson, an independent rule kept in the
tests, which shares that budget. `_refine` refines each root of
`find_equilibria`'s scan by Chandrupatla's method, from the scan's own values
at the bracket ends, so those are never sampled again.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidGrid, NonConvergence, NonFiniteSample

# Panel orders for the composite Gauss-Legendre rule. The low-order value is
# only used for the error estimate; the returned value always comes from the
# doubled rule.
_GL_LOW = 12
_GL_HIGH = 24

# the bound `integrate` asks of its estimated absolute error unless told otherwise
ABS_TOL = 1e-10

# equal pieces `integrate` cuts a panel into
_FAN_OUT = 8

# panel splits an adaptive rule may make before it gives up with NonConvergence; it
# bounds a round of `integrate` to 36 * _FAN_OUT * _MAX_SPLITS (1.2M) sample points
_MAX_SPLITS = 1 << 12


@functools.cache
def _rule() -> tuple[np.ndarray, np.ndarray]:
    """The 12 + 24 nodes of both rules on [-1, 1], and the (36, 2) matrix that weighs them into each rule's sum."""
    # on first use, not at import: np.polynomial and leggauss would add about 4 ms to the import
    (x_lo, w_lo), (x_hi, w_hi) = (np.polynomial.legendre.leggauss(n) for n in (_GL_LOW, _GL_HIGH))
    weights = np.zeros((_GL_LOW + _GL_HIGH, 2))
    weights[:_GL_LOW, 0] = w_lo
    weights[_GL_LOW:, 1] = w_hi
    return np.concatenate([x_lo, x_hi]), weights


def _sample(f: Callable, xs: np.ndarray) -> np.ndarray:
    """Evaluate f on an array, falling back to a scalar loop, and insist on
    finite results."""
    try:
        ys = np.asarray(f(xs), dtype=float)
        if ys.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        ys = np.array([float(f(float(x))) for x in xs])
    if not np.all(np.isfinite(ys)):
        bad = xs[~np.isfinite(ys)][0]
        raise NonFiniteSample(f"integrand returned a non-finite value near x={bad!r}")
    return ys


def integrate(f: Callable, a: float, b: float, abs_tol: float = ABS_TOL) -> float:
    """Adaptive quadrature of f over [a, b] to an estimated absolute error of abs_tol.

    The rule is a composite Gauss-Legendre one: each panel's 24-node value
    comes with a 12-node error estimate, and refinement goes in rounds until
    the estimates add up to abs_tol. A round cuts every panel whose estimate
    is above its even share, abs_tol / (number of panels), into _FAN_OUT
    equal pieces, and samples f once, on the 12 + 24 nodes of every new piece.
    So f is called 1 + rounds times: on 36 points for [a, b], then on
    36 * _FAN_OUT points per panel cut. _MAX_SPLITS bounds the panels cut; a
    round that would pass it cuts only its worst panels. Because the nodes
    are strictly interior, integrable endpoint singularities (inverse square
    roots, x^x terms) are handled by geometric panel grading rather than by
    special-casing. The tests check it against adaptive Simpson, an
    independent rule of their own, and against mpmath's tanh-sinh rule.
    """
    if not (abs_tol > 0.0 and math.isfinite(abs_tol)):
        raise DomainError("abs_tol must be a positive finite number")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, abs_tol)
    nodes, weights = _rule()

    def panels(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Rows (lo, hi, value, error estimate), one per panel, from one call of f."""
        half = 0.5 * (hi - lo)
        ys = _sample(f, ((lo + half)[:, None] + half[:, None] * nodes).ravel())
        # an overflowing panel is refused below: its error estimate would be inf - inf = nan
        with np.errstate(over="ignore", invalid="ignore"):
            sums = ys.reshape(lo.size, nodes.size) @ weights * half[:, None]
            err = np.abs(sums[:, 1] - sums[:, 0])
        finite = np.isfinite(sums).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteSample(f"integral over panel [{float(lo[i])!r}, {float(hi[i])!r}] is not finite")
        return np.stack([lo, hi, sums[:, 1], err], axis=1)

    rows = panels(np.array([a], dtype=float), np.array([b], dtype=float))
    steps = np.arange(_FAN_OUT + 1) / _FAN_OUT
    splits = 0
    while True:
        err = rows[:, 3]
        total_err = float(err.sum())
        if total_err <= abs_tol:
            return math.fsum(rows[:, 2].tolist())
        if splits >= _MAX_SPLITS:
            raise NonConvergence(
                f"gauss_legendre_composite: error {total_err:.3e} > {abs_tol:.3e} "
                f"after {splits} panel splits"
            )
        # a sum above abs_tol has a term above its mean; should rounding hide it, the worst panel is cut
        cut = err > abs_tol / err.size
        if not cut.any():
            cut = err == err.max()
        # a round that would pass the budget cuts only the worst panels it has room for
        if np.count_nonzero(cut) > _MAX_SPLITS - splits:
            cut[np.argsort(-err, kind="stable")[_MAX_SPLITS - splits :]] = False
        parents = rows[cut]
        edges = parents[:, :1] + (parents[:, 1:2] - parents[:, :1]) * steps
        # the pieces tile the panel: lo + (hi - lo) could round past hi
        edges[:, -1] = parents[:, 1]
        lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        if not (lo < hi).all():
            p_lo, p_hi = parents[int(np.argmin(lo < hi)) // _FAN_OUT, :2].tolist()
            raise NonConvergence(f"gauss_legendre_composite: panel [{p_lo!r}, {p_hi!r}] cannot be split further")
        rows = np.concatenate([rows[~cut], panels(lo, hi)])
        splits += len(parents)


# nodes per block of a streamed pass over a grid: a few float64 blocks of scratch stay in L2
_BLOCK = 1 << 14

# the smallest normal float64; below it a product rounds to a fixed step, not relatively
_TINY = float(np.finfo(float).tiny)


def _blocks(lo: int, hi: int):
    """(start, stop) of the consecutive blocks of at most _BLOCK indices that cover [lo, hi)."""
    return ((s, min(s + _BLOCK, hi)) for s in range(lo, hi, _BLOCK))


def _find(a: np.ndarray, test: Callable) -> int:
    """Index of the first element of a where the array predicate test holds, -1 if none, block by block."""
    for s, e in _blocks(0, a.size):
        hit = test(a[s:e])
        if hit.any():
            return s + int(np.argmax(hit))
    return -1


def _increasing(xs: np.ndarray) -> bool:
    """The package's one grid test: finite ends and strictly increasing neighbours, compared, never subtracted."""
    # a NaN fails its comparison and an infinity inside fails its neighbour's, so only the ends need their own check
    ends = math.isfinite(xs[0]) and math.isfinite(xs[-1])
    return ends and all((xs[s + 1 : e + 1] > xs[s:e]).all() for s, e in _blocks(0, xs.size - 1))


def _trapezoid(ys: np.ndarray | Callable, xs: np.ndarray, lo: int = 0, hi: int | None = None, out=None):
    """The package's one trapezoid rule over the grid xs, summing only the terms [lo, hi).

    ys is the integrand as an array, or as a function ys(s, e) that returns it on nodes [s, e), as one
    row or as rows of several integrands, whose integrals come back as a tuple. Each term is (y[i] +
    y[i + 1]) * (0.5 * dx), but a block with a sum that is not finite, as where neighbours of 9e307 add
    past the float maximum, is formed again as (0.5 * y[i] + 0.5 * y[i + 1]) * dx: any two finite
    neighbours give a finite term, unless the term itself is past the float maximum. Given out, of the
    grid's size, term i of one integrand is left in out[i + 1]. The terms are formed a block at a time,
    each block is summed by np.sum and the block sums are added exactly by math.fsum, so the rounding
    error is one block sum's plus one rounding, however long the grid (Higham, SISC 14, 1993).
    """
    n = xs.size - 1
    spacings, sums = np.empty(min(n, _BLOCK)), []
    # a term past the float range shows in the total, whose finiteness every caller checks
    with np.errstate(over="ignore", invalid="ignore"):
        for s, e in _blocks(lo, n if hi is None else hi):
            y = ys(s, e + 1) if callable(ys) else ys[s : e + 1]
            t = np.add(y[..., 1:], y[..., :-1], out=None if out is None else out[s + 1 : e + 1])
            dx = np.subtract(xs[s + 1 : e + 1], xs[s:e], out=spacings[: e - s])
            t *= np.multiply(0.5, dx, out=dx)
            sums.append(t.sum(axis=-1))
            if not np.isfinite(sums[-1]).all():
                h, dx = 0.5 * y, xs[s + 1 : e + 1] - xs[s:e]
                sums[-1] = np.multiply(h[..., 1:] + h[..., :-1], dx, out=t).sum(axis=-1)
    totals = []
    for row in np.atleast_2d(np.array(sums).T).tolist():
        try:
            totals.append(math.fsum(row))
        except (OverflowError, ValueError):
            # fsum refuses inf - inf and partial sums past the float range, where the plain sum is nan or inf
            totals.append(sum(row))
    return totals[0] if len(totals) == 1 else tuple(totals)


def _unit_density(ys: np.ndarray, xs: np.ndarray, lo: int = 0, hi: int | None = None):
    """Scale sampled density values ys on the grid xs, in place, to unit trapezoid mass.

    Returns (density, cdf, mass): density is ys over its mass, and cdf the running sum of the
    trapezoid terms, which _trapezoid leaves in it, over its last value. ys must be nonnegative
    on an increasing grid, so cdf runs exactly from 0 to 1. InvalidGrid unless the mass is positive
    and finite, at least n smallest normal numbers for n nodes, and ys scaled by it is finite: then
    density has unit trapezoid mass to rounding, finite as _trapezoid forms it. Below that floor,
    terms rounded as subnormals could leave it off by more. If ys is +0.0 outside nodes [lo, hi),
    only those are scaled and summed; cdf is the one new grid-sized array.
    """
    n = ys.size
    # the terms [a, b) are those that touch nodes [lo, hi): the others are +0.0
    # and add nothing, and nodes a and b, if outside, stay +0.0 when scaled
    a, b = max(lo - 1, 0), n - 1 if hi is None else min(hi, n - 1)
    cdf = np.empty(n)
    cdf[: a + 1], cdf[b + 1 :] = 0.0, 1.0
    mass = _trapezoid(ys, xs, a, b, out=cdf)  # cdf[k + 1] takes term k
    if not (mass > 0.0 and math.isfinite(mass)):
        raise InvalidGrid(f"sampled density has mass {mass!r}")
    if mass < n * _TINY:
        raise InvalidGrid(f"sampled density has mass {mass!r}, too small to scale to unit mass")
    try:
        # the overflow flag checks these passes at no cost of its own
        with np.errstate(over="raise"):
            ys[a : b + 1] /= mass
            np.cumsum(cdf[a + 1 : b + 1], out=cdf[a + 1 : b + 1])
    except FloatingPointError:
        raise InvalidGrid(f"sampled density of mass {mass!r} overflows when scaled to unit mass") from None
    cdf[a + 1 : b + 1] /= cdf[b]
    return ys, cdf, mass


def _refine(f: Callable[[float], float], a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """A sign change of f in [a, b] to within tol + 4 eps |x|, by Chandrupatla's method.

    fa and fb are f(a) and f(b), which the caller holds, of opposite signs or
    one of them 0. Each step interpolates an inverse quadratic through the last
    three points where Chandrupatla's test allows it and bisects otherwise, and
    moves at least the tolerance's share of the bracket (Adv. Eng. Software 28,
    1997; scipy's elementwise find_root). Returns the bracket end with the
    smaller |f| once the bracket is narrower than the tolerance or that f is 0.
    """
    # x3 = x1 fails the interpolation test, so the first step bisects
    x1, f1, x2, f2, x3, f3 = a, fa, b, fb, a, fa
    eps = math.ulp(1.0)
    while True:
        xm, fm = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        # the step, as a fraction of the bracket, that the tolerance allows at least
        tl = (2.0 * eps * abs(xm) + 0.5 * tol) / abs(x2 - x1)
        if tl > 0.5 or fm == 0.0:
            return xm
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        t = 0.5
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2)
        xt = x1 + min(1.0 - tl, max(tl, t)) * (x2 - x1)
        ft = float(f(xt))
        if not math.isfinite(ft):
            raise NonFiniteSample(f"f returned a non-finite value at x={xt!r}")
        if (ft > 0.0) == (f1 > 0.0):
            x3, f3, x1, f1 = x1, f1, xt, ft
        else:
            x3, f3, x2, f2, x1, f1 = x2, f2, x1, f1, xt, ft

