"""Quadrature, special functions, and finite differences.

Everything downstream (normalization checks, energy profiles, the recursion)
runs through this module, so the routines here are deliberately conservative:
adaptive refinement with explicit budgets, hard errors on non-finite samples,
and no silent fallbacks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    GridMismatch,
    NegativeDensity,
    NoSignChange,
    NonConvergence,
    NonFiniteSample,
    NonMonotoneGrid,
)

_METHODS = ("gauss_legendre_composite", "adaptive_simpson")

# Panel orders for the composite Gauss-Legendre rule. The low-order value is
# only used for the error estimate; the returned value always comes from the
# doubled rule.
_GL_LOW = 12
_GL_HIGH = 24

# Negative density values smaller than this (relative to the peak) are treated
# as rounding noise and clamped to zero; anything larger is an error.
_NEG_TOL = 1e-10


@dataclass(frozen=True)
class QuadratureSpec:
    """Method selection plus convergence budget for `integrate`.

    abs_tol is the target bound on the estimated absolute error of the whole
    integral. max_subdivisions caps how many panel splits the adaptive driver
    may perform before giving up with NonConvergence.
    """

    method: str = "gauss_legendre_composite"
    abs_tol: float = 1e-10
    max_subdivisions: int = 1 << 20

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise DomainError(f"unknown quadrature method {self.method!r}")
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise DomainError("abs_tol must be a positive finite number")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


_gl_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _gl_cache:
        _gl_cache[n] = np.polynomial.legendre.leggauss(n)
    return _gl_cache[n]


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


def integrate(f: Callable, a: float, b: float, spec: QuadratureSpec | None = None) -> float:
    """Adaptive quadrature of f over [a, b].

    The default method is a composite Gauss-Legendre rule whose panels are
    split greedily where the error estimate is worst; because the nodes are
    strictly interior, integrable endpoint singularities (inverse square
    roots, x^x terms) are handled by geometric panel grading rather than by
    special-casing. `adaptive_simpson` is kept as an independent second route
    for cross-checks.
    """
    if spec is None:
        spec = QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, spec)
    if spec.method == "gauss_legendre_composite":
        return _gauss_legendre_composite(f, a, b, spec)
    return _adaptive_simpson(f, a, b, spec)


def _gauss_legendre_composite(f: Callable, a: float, b: float, spec: QuadratureSpec) -> float:
    """Greedy panel splitting with a 12-node error estimate beside each 24-node value.

    f is sampled once per step: once on the 12 + 24 nodes of [a, b] (36
    points), then once per split on the nodes of both halves (72 points), so
    it is called 1 + splits times.
    """
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
    while total_err > spec.abs_tol:
        if splits >= spec.max_subdivisions:
            raise NonConvergence(
                f"gauss_legendre_composite: error {total_err:.3e} > {spec.abs_tol:.3e} "
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


def _adaptive_simpson(f: Callable, a: float, b: float, spec: QuadratureSpec) -> float:
    # The top-level endpoint samples are nudged inward so integrands with
    # removable endpoint trouble (0^0 conventions, 1/sqrt factors already
    # multiplied away) do not trip the finiteness check.
    nudge = (b - a) * 1e-12
    fa = _sample_one(f, a + nudge)
    fb = _sample_one(f, b - nudge)
    mid = 0.5 * (a + b)
    fmid = _sample_one(f, mid)
    whole = (b - a) * (fa + 4.0 * fmid + fb) / 6.0

    stack = [(a, fa, b, fb, mid, fmid, whole, spec.abs_tol)]
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
        if splits >= spec.max_subdivisions:
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


def cumulative_integral(xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
    """Running trapezoid integral of a sampled non-negative function.

    Returns an array of the same length as xs starting at 0. Tiny negative
    ys (rounding noise) are clamped to zero; genuinely negative values raise
    NegativeDensity.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or ys.shape != xs.shape:
        raise GridMismatch(f"expected matching 1-d arrays, got {xs.shape} and {ys.shape}")
    if xs.size < 2:
        raise GridMismatch("need at least two grid points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise NonFiniteSample("grid or values contain non-finite entries")
    dx = np.diff(xs)
    if np.any(dx <= 0.0):
        raise NonMonotoneGrid("grid abscissae must be strictly increasing")
    floor = -_NEG_TOL * max(1.0, float(np.max(np.abs(ys))))
    if float(np.min(ys)) < floor:
        raise NegativeDensity(f"density has negative values down to {float(np.min(ys))!r}")
    return _cumulative_trapezoid(np.maximum(ys, 0.0), dx)


def _trapezoid(ys: np.ndarray, dx: np.ndarray) -> float:
    """Bit-identical to np.trapezoid(ys, xs) given dx = np.diff(xs), which callers share."""
    terms = ys[1:] + ys[:-1]
    terms *= dx
    return float(terms.sum()) / 2.0


def _cumulative_trapezoid(ys: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of ys over spacings dx, starting at 0; no checks."""
    out = np.zeros(ys.size)
    steps = np.add(ys[1:], ys[:-1], out=out[1:])
    steps *= 0.5 * dx
    np.cumsum(steps, out=steps)
    return out


# Lanczos approximation, g = 7, 9 coefficients. With the 0 < z < 0.5 branch
# handled by the recurrence ln_gamma(z) = ln_gamma(z+1) - log z, the relative
# error against reference values stays below about 5e-15 over (0, 1e4].
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def ln_gamma(z: float) -> float:
    """Natural log of the Gamma function for real z > 0."""
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError(f"ln_gamma requires z > 0, got {z!r}")
    if z < 0.5:
        # recurrence instead of reflection: keeps the reflection identity
        # usable as an independent test
        return ln_gamma(z + 1.0) - math.log(z)
    w = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (w + k)
    t = w + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (w + 0.5) * math.log(t) - t + math.log(acc)


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
    eps = np.finfo(float).eps
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


def central_difference(f: Callable, x, h: float, order: int = 1):
    """Symmetric finite difference of order 1 or 2 with step h.

    x may be a point or an array of points: f is called once per offset, on
    x + h, x - h and (order 2) x itself, so it must accept whatever x is. Every
    sample is checked to be finite before any difference is taken. A scalar x
    gives a float.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise DomainError("step h must be positive and finite")
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order!r}")
    x = np.asarray(x, dtype=float)
    samples = [np.asarray(f(x + h), dtype=float), np.asarray(f(x - h), dtype=float)]
    if order == 2:
        samples.append(np.asarray(f(x), dtype=float))
    for v in samples:
        bad = np.broadcast_to(~np.isfinite(v), x.shape)
        if bad.any():
            raise NonFiniteSample(f"non-finite sample in central difference at x={x.item(int(np.argmax(bad)))!r}")
    if order == 1:
        result = (samples[0] - samples[1]) / (2.0 * h)
    else:
        result = (samples[0] - 2.0 * samples[2] + samples[1]) / (h * h)
    return float(result) if x.ndim == 0 else result
