"""Quadrature, root finding, finite differences, and sampled densities.

Everything downstream (normalization checks, energy profiles, the recursion)
runs through this module, so the routines here are deliberately conservative:
adaptive refinement with explicit budgets, hard errors on non-finite samples,
and no silent fallbacks. `integrate` has one rule; `_adaptive_simpson` is the
tests' independent oracle for it, and nothing in the package calls it.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from typing import Callable

import numpy as np

from .errors import DomainError, InvalidGrid, NoSignChange, NonConvergence, NonFiniteSample

# Panel orders for the composite Gauss-Legendre rule. The low-order value is
# only used for the error estimate; the returned value always comes from the
# doubled rule.
_GL_LOW = 12
_GL_HIGH = 24

# the bound `integrate` asks of its estimated absolute error unless told otherwise
ABS_TOL = 1e-10

# panel splits an adaptive rule may make before it gives up with NonConvergence
_MAX_SPLITS = 1 << 20


@functools.cache
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    # on first use, not at import: np.polynomial and leggauss would add about 4 ms to the import
    return np.polynomial.legendre.leggauss(n)


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


def _sample_one(f: Callable, x: float) -> float:
    y = float(f(x))
    if not math.isfinite(y):
        raise NonFiniteSample(f"integrand returned a non-finite value at x={x!r}")
    return y


def integrate(f: Callable, a: float, b: float, abs_tol: float = ABS_TOL) -> float:
    """Adaptive quadrature of f over [a, b] to an estimated absolute error of abs_tol.

    The rule is a composite Gauss-Legendre one: each panel's 24-node value
    comes with a 12-node error estimate, and the panel whose estimate is worst
    is split in two until the estimates add up to abs_tol. Because the nodes
    are strictly interior, integrable endpoint singularities (inverse square
    roots, x^x terms) are handled by geometric panel grading rather than by
    special-casing. f is sampled once per step: on the 12 + 24 nodes of [a, b]
    (36 points), then once per split on the nodes of both halves (72 points),
    so it is called 1 + splits times. The tests check it against
    `_adaptive_simpson`, an independent rule.
    """
    if not (abs_tol > 0.0 and math.isfinite(abs_tol)):
        raise DomainError("abs_tol must be a positive finite number")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, abs_tol)
    xs_lo, ws_lo = _gl_nodes(_GL_LOW)
    xs_hi, ws_hi = _gl_nodes(_GL_HIGH)
    nodes = np.concatenate([xs_lo, xs_hi])

    def panels(*bounds: tuple[float, float]) -> list[tuple[float, float]]:
        halves = [0.5 * (hi - lo) for lo, hi in bounds]
        xs = np.concatenate([0.5 * (lo + hi) + half * nodes for (lo, hi), half in zip(bounds, halves)])
        out = []
        for y, half in zip(_sample(f, xs).reshape(len(bounds), nodes.size), halves):
            v_lo = half * float(np.dot(ws_lo, y[:_GL_LOW]))
            v_hi = half * float(np.dot(ws_hi, y[_GL_LOW:]))
            out.append((v_hi, abs(v_hi - v_lo)))
        return out

    ((value, err),) = panels((a, b))
    # heap entries: (-error, sequence, lo, hi, value); the sequence number
    # breaks ties deterministically.
    heap = [(-err, 0, a, b, value)]
    seq = 1
    total_err = err
    splits = 0
    while total_err > abs_tol:
        if splits >= _MAX_SPLITS:
            raise NonConvergence(
                f"gauss_legendre_composite: error {total_err:.3e} > {abs_tol:.3e} "
                f"after {splits} panel splits"
            )
        neg_err, _, lo, hi, _val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            raise NonConvergence(
                f"gauss_legendre_composite: panel [{lo!r}, {hi!r}] cannot be split further"
            )
        total_err += neg_err
        (v_l, e_l), (v_r, e_r) = panels((lo, mid), (mid, hi))
        heapq.heappush(heap, (-e_l, seq, lo, mid, v_l))
        heapq.heappush(heap, (-e_r, seq + 1, mid, hi, v_r))
        seq += 2
        total_err += e_l + e_r
        splits += 1
    return math.fsum(entry[4] for entry in heap)


def _adaptive_simpson(f: Callable, a: float, b: float, abs_tol: float) -> float:
    """Adaptive Simpson over a < b: the tests' oracle for `integrate`, sharing only its split budget."""
    # The top-level endpoint samples are nudged inward so integrands with
    # removable endpoint trouble (0^0 conventions, 1/sqrt factors already
    # multiplied away) do not trip the finiteness check.
    nudge = (b - a) * 1e-12
    fa = _sample_one(f, a + nudge)
    fb = _sample_one(f, b - nudge)
    mid = 0.5 * (a + b)
    fmid = _sample_one(f, mid)
    whole = (b - a) * (fa + 4.0 * fmid + fb) / 6.0

    stack = [(a, fa, b, fb, mid, fmid, whole, abs_tol)]
    pieces = []
    splits = 0
    while stack:
        a0, fa0, b0, fb0, m0, fm0, whole0, tol0 = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm = _sample_one(f, lm)
        frm = _sample_one(f, rm)
        left = (m0 - a0) * (fa0 + 4.0 * flm + fm0) / 6.0
        right = (b0 - m0) * (fm0 + 4.0 * frm + fb0) / 6.0
        delta = left + right - whole0
        if abs(delta) <= 15.0 * tol0:
            pieces.append(left + right + delta / 15.0)
            continue
        if splits >= _MAX_SPLITS:
            raise NonConvergence(
                f"adaptive_simpson: interval [{a0!r}, {b0!r}] still above tolerance "
                f"after {splits} subdivisions"
            )
        if not (a0 < lm < m0 and m0 < rm < b0):
            raise NonConvergence(
                f"adaptive_simpson: interval [{a0!r}, {b0!r}] cannot be split further"
            )
        splits += 1
        stack.append((a0, fa0, m0, fm0, lm, flm, left, 0.5 * tol0))
        stack.append((m0, fm0, b0, fb0, rm, frm, right, 0.5 * tol0))
    return math.fsum(pieces)


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


def _trapezoid(ys: np.ndarray | Callable, xs: np.ndarray, lo: int = 0, hi: int | None = None) -> float:
    """The package's one trapezoid rule over the grid xs, summing only the terms [lo, hi).

    ys is the integrand as an array, or as a function ys(s, e) that returns it
    on nodes [s, e). The terms are formed a block at a time, spacings included,
    each block is summed by np.sum and the block sums are added exactly by
    math.fsum, so the rounding error is that of one block's sum plus one final
    rounding, however long the grid (Higham, SIAM J. Sci. Comput. 14, 1993).
    """
    n = xs.size - 1
    terms, spacings = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
    sums = []
    # an overflow shows in the total, whose finiteness every caller checks
    with np.errstate(over="ignore"):
        for s, e in _blocks(lo, n if hi is None else hi):
            y = ys(s, e + 1) if callable(ys) else ys[s : e + 1]
            t = np.add(y[1:], y[:-1], out=terms[: e - s])
            t *= np.subtract(xs[s + 1 : e + 1], xs[s:e], out=spacings[: e - s])
            sums.append(float(t.sum()))
    try:
        return math.fsum(sums) / 2.0
    except (OverflowError, ValueError):
        # fsum refuses inf - inf and partial sums past the float range, where the plain sum is nan or inf
        return sum(sums) / 2.0


def _unit_density(
    ys: np.ndarray, xs: np.ndarray, lo: int = 0, hi: int | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Scale sampled density values ys on the grid xs, in place, to unit trapezoid mass.

    Returns (density, cdf, mass): density is ys divided by its mass, and cdf is
    its running trapezoid integral divided by its last value and clipped to
    [0, 1], so it runs exactly from 0 to 1. InvalidGrid unless the mass is
    positive and finite, at least n smallest normal numbers for n nodes, and
    the scaled density's running integral is finite. So density is finite with
    unit trapezoid mass to rounding: below that floor, terms rounded as
    subnormals could leave it off by more. If ys is +0.0 outside nodes [lo, hi),
    only those are scaled and summed. Every pass goes a block at a time, so the
    cdf is the one new array the size of ys.
    """
    n = ys.size
    # the steps [a, b) are those that touch nodes [lo, hi): the others are +0.0
    # and add nothing, and nodes a and b, if outside, stay +0.0 when scaled
    a, b = max(lo - 1, 0), n - 1 if hi is None else min(hi, n - 1)
    mass = _trapezoid(ys, xs, a, b)
    if not (mass > 0.0 and math.isfinite(mass)):
        raise InvalidGrid(f"sampled density has mass {mass!r}")
    if mass < n * _TINY:
        raise InvalidGrid(f"sampled density has mass {mass!r}, too small to scale to unit mass")
    cdf = np.empty(n)
    cdf[: a + 1] = 0.0
    cdf[b + 1 :] = 1.0
    spacings = np.empty(min(n, _BLOCK))
    # an overflow shows in the total, which is checked next
    with np.errstate(over="ignore", invalid="ignore"):
        ys[a] /= mass
        # cdf[k + 1] sums steps a..k in sequence: each block's cumsum starts from
        # the last sum of the block before it
        for s, e in _blocks(a, b):
            ys[s + 1 : e + 1] /= mass
            steps = np.add(ys[s + 1 : e + 1], ys[s:e], out=cdf[s + 1 : e + 1])
            dx = np.subtract(xs[s + 1 : e + 1], xs[s:e], out=spacings[: e - s])
            steps *= np.multiply(0.5, dx, out=dx)
            if s > a:
                steps[0] += cdf[s]
            np.cumsum(steps, out=steps)
    total = cdf[b]
    if not math.isfinite(total):
        raise InvalidGrid(f"sampled density of mass {mass!r} overflows when scaled to unit mass")
    for s, e in _blocks(a + 1, b + 1):
        np.clip(np.divide(cdf[s:e], total, out=cdf[s:e]), 0.0, 1.0, out=cdf[s:e])
    return ys, cdf, mass


def find_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Brent's method on a bracketing interval.

    Requires f(lo) and f(hi) to have opposite signs (or one of them to be an
    exact zero); raises NoSignChange otherwise. Convergence is guaranteed:
    the bracket shrinks at least as fast as bisection. The result is within
    tol (plus a machine-precision floor) of a sign change of f.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not lo < hi:
        raise DomainError(f"invalid bracket [{lo!r}, {hi!r}]")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError("tol must be positive and finite")
    fa = float(f(lo))
    fb = float(f(hi))
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise NonFiniteSample("f is not finite at the bracket endpoints")
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(f"f({lo!r})={fa!r} and f({hi!r})={fb!r} have the same sign")

    a, b, c = lo, hi, lo
    fc = fa
    d = e = b - a
    eps = sys.float_info.epsilon
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * eps * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                # secant step
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0.0 else -tol1
        fb = float(f(b))
        if not math.isfinite(fb):
            raise NonFiniteSample(f"f returned a non-finite value at x={b!r}")
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def central_difference(f: Callable, x, h: float):
    """Symmetric first-derivative difference (f(x + h) - f(x - h)) / 2h.

    x may be a point or an array of points: f is called once on x + h and
    once on x - h, so it must accept whatever x is. Both samples are checked
    to be finite before the difference is taken. A scalar x gives a float.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise DomainError("step h must be positive and finite")
    x = np.asarray(x, dtype=float)
    samples = [np.asarray(f(x + h), dtype=float), np.asarray(f(x - h), dtype=float)]
    for v in samples:
        bad = np.broadcast_to(~np.isfinite(v), x.shape)
        if bad.any():
            raise NonFiniteSample(f"non-finite sample in central difference at x={x.item(int(np.argmax(bad)))!r}")
    result = (samples[0] - samples[1]) / (2.0 * h)
    return float(result) if x.ndim == 0 else result
