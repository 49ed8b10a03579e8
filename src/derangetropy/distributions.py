"""Analytic distribution zoo plus tabulated-density ingestion.

Every family exposes pdf, cdf, score (f'/f), pdf_derivative, quantile, median
and support, and writes only support, quantile and the array-only hooks _pdf,
_cdf and _score: the base class takes pdf_derivative as score times pdf, runs
every hook through _on_array (as functional does), and rejects derivative and
score points outside the open support, infinite ends included. quantile and
median are scalar. Normal's quantile is Wichura's AS241 through
`statistics.NormalDist`, Semicircle's solves Kepler's equation by Newton
steps, and the rest are closed forms.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InvalidGrid, NegativeDensity, NonFiniteSample, NonMonotoneGrid, ParseError
from .numerics import _increasing, _unit_density


def _erfc(z: np.ndarray) -> np.ndarray:
    """math.erfc per element, bit for bit, without np.vectorize's per-call overhead."""
    return np.fromiter(map(math.erfc, z.ravel().tolist()), float, count=z.size).reshape(z.shape)


def _t_minus_sin_series(t):
    """t - sin t for 0 <= t <= 1, where it cancels, on a float or an array: t**3 (1/3! - t**2 (1/5! - ...)) to 1/19!."""
    t2, acc = t * t, 0.0
    for n in range(19, 1, -2):
        acc = 1.0 / math.factorial(n) - t2 * acc
    return t * t2 * acc


def _on_array(hook, x):
    """hook on x as a float array: the one entry of every public pointwise function. Under the package's one
    overflow rule, a value or a term past the float range is inf of its sign, with no warning. A float back for
    a scalar x, and a float for each entry of a tuple."""
    arr = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        val = hook(arr)
    if arr.ndim:
        return val
    return tuple(map(float, val)) if isinstance(val, tuple) else float(val)


def _linear_cdf_quantile(xs: np.ndarray, cdf: np.ndarray, p) -> float:
    """Inverse of the piecewise-linear cdf through (xs, cdf); flat stretches resolve leftward."""
    p = Distribution._check_p(p)
    idx = int(np.searchsorted(cdf, p, side="left"))
    idx = min(max(idx, 1), cdf.size - 1)
    rise = cdf[idx] - cdf[idx - 1]
    t = 0.0 if rise <= 0.0 else (p - cdf[idx - 1]) / rise
    # a cdf that does not start at 0 or end at 1 would put t outside [0, 1]
    t = min(max(t, 0.0), 1.0)
    return float(xs[idx - 1] + t * (xs[idx] - xs[idx - 1]))


class Distribution(ABC):
    """Common interface consumed by the functional, recursion, and verify layers."""

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """Closure of {x : f(x) > 0}; endpoints may be infinite."""

    @abstractmethod
    def _pdf(self, x: np.ndarray) -> np.ndarray:
        """Density on a float array; 0 outside the support."""

    @abstractmethod
    def _cdf(self, x: np.ndarray) -> np.ndarray:
        """Distribution function on a float array, clamped to [0, 1]."""

    @abstractmethod
    def _score(self, x: np.ndarray) -> np.ndarray:
        """f'/f on a float array whose points all lie strictly inside the support."""

    @abstractmethod
    def quantile(self, p: float) -> float:
        """Inverse cdf for 0 < p < 1."""

    def pdf(self, x):
        """Density at x (scalar or array); 0 outside the support."""
        return _on_array(self._pdf, x)

    def cdf(self, x):
        """Distribution function at x (scalar or array), clamped to [0, 1]."""
        return _on_array(self._cdf, x)

    def _pdf_derivative(self, x: np.ndarray) -> np.ndarray:
        """f' on a float array strictly inside the support; overridden where f may be 0 there."""
        # past the float range, as for Arcsin(0, 1) at 1e-300, inf of the product's sign is f' rounded
        return self._score(x) * self._pdf(x)

    def pdf_derivative(self, x):
        """f'(x) strictly inside the support; DomainError at or beyond the boundary, infinite ends included."""
        return self._inside(self._pdf_derivative, x)

    def score(self, x):
        """f'(x)/f(x), the slope of log f, under the same conditions as pdf_derivative."""
        return self._inside(self._score, x)

    def _inside(self, hook, x):
        """hook through _on_array, once every point of x is known to lie strictly inside the support."""
        arr = np.asarray(x, dtype=float)
        lo, hi = self.support()
        # written so that NaN fails it too
        if not np.all((lo < arr) & (arr < hi)):
            raise DomainError(f"derivative needs points strictly inside ({lo!r}, {hi!r})")
        return _on_array(hook, arr)

    def median(self) -> float:
        return self.quantile(0.5)

    def truncated_support(self, tail_eps: float) -> tuple[float, float]:
        """Finite working interval [quantile(eps), quantile(1 - eps)]; DomainError if its width overflows."""
        if not 0.0 < tail_eps < 0.5:
            raise DomainError(f"tail_eps must lie in (0, 0.5), got {tail_eps!r}")
        lo, hi = self._window(tail_eps)
        if not math.isfinite(hi - lo):
            raise DomainError(f"working interval [{lo!r}, {hi!r}] is not finite")
        return lo, hi

    def _window(self, eps: float) -> tuple[float, float]:
        # overridden where the upper end has an exact form, since 1 - eps rounds
        return self.quantile(eps), self.quantile(1.0 - eps)

    @staticmethod
    def _check_p(p: float) -> float:
        p = float(p)
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile needs 0 < p < 1, got {p!r}")
        return p


def _grid(d: Distribution, n_points: int, tail_eps: float) -> np.ndarray:
    """n_points equally spaced over d's working window; InvalidGrid where float spacing cannot resolve it."""
    xs = np.linspace(*d.truncated_support(tail_eps), n_points)
    if not _increasing(xs):
        raise InvalidGrid("grid must be finite and strictly increasing")
    return xs


class _Symmetric(Distribution):
    """A family symmetric about its median, whose window reflects its lower end about it."""

    def _window(self, eps):
        lo, c = float(self.quantile(eps)), float(self.median())
        return lo, c + (c - lo)


class _Interval(_Symmetric):
    """A family on (a, b), symmetric about its midpoint."""

    def support(self):
        return (self.a, self.b)

    def median(self):
        return 0.5 * (self.a + self.b)


class _SquaredWidth(_Interval):
    """A family on (a, b) whose pdf divides by (b - a)**2 or by a product of that size."""

    def __post_init__(self):
        a, b, name = self.a, self.b, type(self).__name__.lower()
        if not (a < b and np.finfo(float).tiny <= (b - a) * (b - a) < math.inf):
            raise DomainError(f"{name} needs a < b with (b - a)**2 a normal float, got ({a!r}, {b!r})")


@dataclass(frozen=True)
class Uniform(_Interval):
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        # a finite b - a needs finite ends, and an infinite one would pass the peak check as 1/inf = 0
        if not (self.a < self.b and math.isfinite(self.b - self.a)):
            raise DomainError(f"uniform needs finite a < b and width b - a, got ({self.a!r}, {self.b!r})")
        if not math.isfinite(1.0 / (self.b - self.a)):
            raise DomainError(f"uniform peak density 1/(b - a) overflows for ({self.a!r}, {self.b!r})")

    def _pdf(self, x):
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def _score(self, x):
        return np.zeros_like(x)

    def quantile(self, p):
        p = self._check_p(p)
        return self.a + p * (self.b - self.a)


@dataclass(frozen=True)
class Normal(_Symmetric):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"normal needs finite mu and sigma > 0, got ({self.mu!r}, {self.sigma!r})")
        if not math.isfinite(1.0 / (self.sigma * math.sqrt(2.0 * math.pi))):
            raise DomainError(f"normal peak density 1/(sigma*sqrt(2*pi)) overflows for sigma={self.sigma!r}")

    def support(self):
        return (-math.inf, math.inf)

    def _pdf(self, x):
        # in place on one temporary, a numpy scalar for a 0-d x; -0.5 * (z * z) is -0.5 * z * z to the bit
        z = x - self.mu
        z /= self.sigma
        z *= z
        z *= -0.5
        z = np.exp(z, out=z) if z.ndim else np.exp(z)
        z /= self.sigma * math.sqrt(2.0 * math.pi)
        return z

    def _cdf(self, x):
        # erfc of the reflected argument keeps the lower tail's relative precision, where 1 + erf cancels
        return 0.5 * _erfc((self.mu - x) / (self.sigma * math.sqrt(2.0)))

    def _score(self, x):
        # for sigma near 1e-308 the score passes the float range; inf keeps its sign, all a scan needs
        return -((x - self.mu) / self.sigma) / self.sigma

    def quantile(self, p):
        import statistics  # here, not at module level: it adds ~3 ms to `import derangetropy`
        return statistics.NormalDist(self.mu, self.sigma).inv_cdf(self._check_p(p))

    def median(self):
        return self.mu


@dataclass(frozen=True)
class Exponential(Distribution):
    lam: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError(f"exponential needs rate > 0, got {self.lam!r}")

    def support(self):
        return (0.0, math.inf)

    def _pdf(self, x):
        # exp argument clamped at 0 from above so x < 0 cannot overflow
        return np.where(x >= 0.0, self.lam * np.exp(-self.lam * np.maximum(x, 0.0)), 0.0)

    def _cdf(self, x):
        return np.where(x > 0.0, -np.expm1(-self.lam * np.maximum(x, 0.0)), 0.0)

    def _score(self, x):
        return np.full_like(x, -self.lam)

    def quantile(self, p):
        p = self._check_p(p)
        return -math.log1p(-p) / self.lam

    def _window(self, eps):
        return self.quantile(eps), -math.log(eps) / self.lam


@dataclass(frozen=True)
class Semicircle(_SquaredWidth):
    """Wigner semicircle rescaled to the interval (a, b)."""

    a: float = -1.0
    b: float = 1.0

    def _pdf(self, x):
        prod = (x - self.a) * (self.b - x)
        coef = 8.0 / (math.pi * (self.b - self.a) ** 2)
        return coef * np.sqrt(np.maximum(prod, 0.0))

    def _cdf(self, x):
        # in the angle t, 0 at the nearer end and pi at the center, the mass from that end to x is (t - sin t)/(2 pi)
        near, far = x - self.a, self.b - x
        t = np.minimum(4.0 * np.arcsin(np.sqrt(np.clip(np.minimum(near, far) / (self.b - self.a), 0.0, 0.5))), math.pi)
        gap = np.asarray(t - np.sin(t))  # for a 0-d x numpy gives a scalar, which takes no item assignment
        small = t < 1.0
        gap[small] = _t_minus_sin_series(t[small])
        return np.where(near <= far, gap, 2.0 * math.pi - gap) / (2.0 * math.pi)

    def _score(self, x):
        return 0.5 / (x - self.a) - 0.5 / (self.b - x)

    def quantile(self, p):
        p = self._check_p(p)
        m = 2.0 * math.pi * min(p, 1.0 - p)
        # Kepler's equation: t - sin t is convex, below t**3/6, so Newton overshoots once and is within 2 ulp in 4 steps
        t = min((6.0 * m) ** (1.0 / 3.0), math.pi)
        for _ in range(5):
            gap = _t_minus_sin_series(t) if t < 1.0 else t - math.sin(t)
            t -= (gap - m) / (2.0 * math.sin(0.5 * t) ** 2)
        near = (self.b - self.a) * math.sin(0.25 * t) ** 2
        return self.a + near if p <= 0.5 else self.b - near


@dataclass(frozen=True)
class Arcsin(_SquaredWidth):
    """Arcsine law on (a, b); density diverges at both endpoints."""

    a: float = 0.0
    b: float = 1.0

    def _pdf(self, x):
        prod = (x - self.a) * (self.b - x)
        with np.errstate(divide="ignore"):
            val = np.where(prod > 0.0, 1.0 / (math.pi * np.sqrt(np.maximum(prod, 0.0))), 0.0)
        # density is +inf at the endpoints themselves
        on_edge = (x == self.a) | (x == self.b)
        return np.where(on_edge, np.inf, val)

    def _cdf(self, x):
        u = np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)
        return (2.0 / math.pi) * np.arcsin(np.sqrt(u))

    def _score(self, x):
        return 0.5 / (self.b - x) - 0.5 / (x - self.a)

    def quantile(self, p):
        p = self._check_p(p)
        return self.a + (self.b - self.a) * math.sin(0.5 * math.pi * p) ** 2


class Tabulated(Distribution):
    """Density given by samples on a grid, linearly interpolated.

    The sampled values are renormalized by the rule every sampled density in
    the package follows (numerics._unit_density): unit trapezoid mass over
    the grid, a cdf running exactly from 0 to 1, and InvalidGrid unless the
    mass is positive and finite and scaling by it stays finite. The applied
    factor is kept as `normalization`.
    """

    def __init__(self, xs, fs):
        xs = np.asarray(xs, dtype=float)
        fs = np.asarray(fs, dtype=float)
        if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 2:
            raise ParseError("tabulated density needs matching 1-d x and f arrays")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
            raise NonFiniteSample("tabulated grid or density contains non-finite entries")
        if not _increasing(xs):
            raise NonMonotoneGrid("tabulated grid must be strictly increasing")
        if float(np.min(fs)) < -1e-10 * max(1.0, float(np.max(np.abs(fs)))):
            raise NegativeDensity(f"tabulated density has negative entries down to {float(np.min(fs))!r}")
        self.fs, self._cdf_nodes, mass = _unit_density(np.maximum(fs, 0.0), xs)
        self.xs = xs
        self.normalization = 1.0 / mass

    def support(self):
        return (float(self.xs[0]), float(self.xs[-1]))

    def _pdf(self, x):
        return np.interp(x, self.xs, self.fs, left=0.0, right=0.0)

    def _cdf(self, x):
        return np.interp(x, self.xs, self._cdf_nodes, left=0.0, right=1.0)

    def _pdf_derivative(self, x):
        # slope of the linear interpolant on the segment containing x
        idx = np.clip(np.searchsorted(self.xs, x, side="right") - 1, 0, self.xs.size - 2)
        return (self.fs[idx + 1] - self.fs[idx]) / (self.xs[idx + 1] - self.xs[idx])

    def _score(self, x):
        f = self._pdf(x)
        if not np.all(f > 0.0):
            raise DomainError(f"score needs f > 0, got f = 0 at x={x.item(int(np.argmin(f > 0.0)))!r}")
        return self._pdf_derivative(x) / f

    def quantile(self, p):
        return _linear_cdf_quantile(self.xs, self._cdf_nodes, p)


def load_tabulated(path: str) -> Tabulated:
    """Read a two-column CSV (header containing `x` and `f`) into a Tabulated.

    Extra columns are ignored, so output of the `eval` subcommand re-ingests
    directly, and a leading UTF-8 byte-order mark is skipped. Raises ParseError on
    unreadable, non-UTF-8 or malformed text, NonFiniteSample on NaN or infinite
    cells, NonMonotoneGrid on unsorted grids, NegativeDensity on negative densities.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path!r} is empty")
    header = [cell.strip().lower() for cell in rows[0]]
    try:
        x_col = header.index("x")
        f_col = header.index("f")
    except ValueError:
        raise ParseError(f"{path!r} header must name columns `x` and `f`, got {rows[0]!r}") from None
    xs, fs = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            xs.append(float(row[x_col]))
            fs.append(float(row[f_col]))
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path!r} line {lineno}: {exc}") from None
    if len(xs) < 8:
        raise ParseError(f"{path!r} has {len(xs)} data rows; need at least 8")
    return Tabulated(xs, fs)


_FAMILIES = {cls.__name__.lower(): cls for cls in (Uniform, Normal, Exponential, Semicircle, Arcsin)}


def from_spec(text: str) -> Distribution:
    """Build a distribution from a `name:p1,p2` spec string.

    `tabulated:<path>` loads a CSV via load_tabulated; everything else maps
    onto the analytic zoo with an exact parameter count.
    """
    name, sep, rest = text.partition(":")
    name = name.strip().lower()
    if name == "tabulated":
        if not sep or not rest.strip():
            raise ParseError("tabulated spec needs a file path, e.g. tabulated:density.csv")
        return load_tabulated(rest.strip())
    if name not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES) + ["tabulated"])
        raise ParseError(f"unknown distribution {name!r}; known: {known}")
    ctor = _FAMILIES[name]
    arity = len(fields(ctor))
    if not sep or not rest.strip():
        raise ParseError(f"{name} spec needs {arity} comma-separated parameters")
    try:
        params = [float(tok) for tok in rest.split(",")]
    except ValueError:
        raise ParseError(f"could not parse parameters in {text!r}") from None
    if len(params) != arity:
        raise ParseError(f"{name} takes {arity} parameters, got {len(params)}")
    return ctor(*params)
