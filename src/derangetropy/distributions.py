"""Analytic distribution zoo plus tabulated-density ingestion.

Every family exposes pdf, cdf, pdf_derivative, quantile, median and support,
and writes only support, quantile and the array-only hooks _pdf, _cdf and
_pdf_derivative: the base class converts x to a float array once, gives a float
back for a scalar x, and rejects derivative points outside the open support,
infinite ends included. quantile and median are scalar. Normal's quantile is
Wichura's AS241 through `statistics.NormalDist`; Semicircle's alone needs root
finding; the rest are closed forms.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NegativeDensity, NonFiniteSample, NonMonotoneGrid, ParseError
from .numerics import _unit_density, find_root


def _erf(z: np.ndarray) -> np.ndarray:
    """math.erf per element, bit for bit, without np.vectorize's per-call overhead."""
    return np.fromiter(map(math.erf, z.ravel().tolist()), float, count=z.size).reshape(z.shape)


def _on_array(hook, x):
    """hook on x as a float array; a float back for a scalar x."""
    arr = np.asarray(x, dtype=float)
    val = hook(arr)
    return float(val) if arr.ndim == 0 else val


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
    def _pdf_derivative(self, x: np.ndarray) -> np.ndarray:
        """f' on a float array whose points all lie strictly inside the support."""

    @abstractmethod
    def quantile(self, p: float) -> float:
        """Inverse cdf for 0 < p < 1."""

    def pdf(self, x):
        """Density at x (scalar or array); 0 outside the support."""
        return _on_array(self._pdf, x)

    def cdf(self, x):
        """Distribution function at x (scalar or array), clamped to [0, 1]."""
        return _on_array(self._cdf, x)

    def pdf_derivative(self, x):
        """f'(x) strictly inside the support; DomainError at or beyond the boundary, infinite ends included."""
        arr = np.asarray(x, dtype=float)
        lo, hi = self.support()
        # written so that NaN fails it too
        if not np.all((lo < arr) & (arr < hi)):
            raise DomainError(f"derivative needs points strictly inside ({lo!r}, {hi!r})")
        return _on_array(self._pdf_derivative, arr)

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

    def _pdf_derivative(self, x):
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
        z = (x - self.mu) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def _cdf(self, x):
        z = (x - self.mu) / (self.sigma * math.sqrt(2.0))
        return 0.5 * (1.0 + _erf(z))

    def _pdf_derivative(self, x):
        return -((x - self.mu) / self.sigma) / self.sigma * self._pdf(x)

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

    def _pdf_derivative(self, x):
        return -self.lam * (self.lam * np.exp(-self.lam * x))

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

    def _radius_center(self):
        return 0.5 * (self.b - self.a), 0.5 * (self.a + self.b)

    def _pdf(self, x):
        prod = (x - self.a) * (self.b - x)
        coef = 8.0 / (math.pi * (self.b - self.a) ** 2)
        return coef * np.sqrt(np.maximum(prod, 0.0))

    def _cdf(self, x):
        r, c = self._radius_center()
        u = np.clip((x - c) / r, -1.0, 1.0)
        # (1 - u)(1 + u), not 1 - u*u, which cancels near the edges
        val = 0.5 + (u * np.sqrt((1.0 - u) * (1.0 + u)) + np.arcsin(u)) / math.pi
        return np.clip(val, 0.0, 1.0)

    def _pdf_derivative(self, x):
        coef = 8.0 / (math.pi * (self.b - self.a) ** 2)
        root = np.sqrt((x - self.a) * (self.b - x))
        return coef * (self.a + self.b - 2.0 * x) / (2.0 * root)

    def quantile(self, p):
        target = math.pi * (self._check_p(p) - 0.5)
        # cdf(c + r*u) = p in the unit variable u; 2e-13 in u is 1e-13 of the width
        u = find_root(lambda u: u * math.sqrt((1.0 - u) * (1.0 + u)) + math.asin(u) - target, -1.0, 1.0, tol=2e-13)
        r, c = self._radius_center()
        return c + r * u


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

    def _pdf_derivative(self, x):
        prod = (x - self.a) * (self.b - x)
        # prod * sqrt(prod), not sqrt(prod) ** 3: numpy rounds pow on arrays and
        # on scalars differently, and an array must give what its points give
        return -(self.a + self.b - 2.0 * x) / (2.0 * math.pi * (prod * np.sqrt(prod)))

    def quantile(self, p):
        p = self._check_p(p)
        return self.a + (self.b - self.a) * math.sin(0.5 * math.pi * p) ** 2


class Tabulated(Distribution):
    """Density given by samples on a grid, linearly interpolated.

    The sampled values are renormalized by the rule every sampled density in
    the package follows (numerics._unit_density): unit trapezoid mass over
    the grid, a cdf running exactly from 0 to 1, and InvalidGrid if the mass
    is not positive and finite. The applied factor is kept as `normalization`.
    """

    def __init__(self, xs, fs):
        xs = np.asarray(xs, dtype=float)
        fs = np.asarray(fs, dtype=float)
        if xs.ndim != 1 or xs.shape != fs.shape or xs.size < 2:
            raise ParseError("tabulated density needs matching 1-d x and f arrays")
        if np.any(np.diff(xs) <= 0.0):
            raise NonMonotoneGrid("tabulated grid must be strictly increasing")
        if float(np.min(fs)) < -1e-10 * max(1.0, float(np.max(np.abs(fs)))):
            raise NegativeDensity(f"tabulated density has negative entries down to {float(np.min(fs))!r}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
            raise NonFiniteSample("tabulated grid or density contains non-finite entries")
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

    def quantile(self, p):
        return _linear_cdf_quantile(self.xs, self._cdf_nodes, p)


def load_tabulated(path: str) -> Tabulated:
    """Read a two-column CSV (header containing `x` and `f`) into a Tabulated.

    Extra columns are ignored, so output of the `eval` subcommand re-ingests
    directly, and a leading UTF-8 byte-order mark is skipped. Raises ParseError on
    unreadable, non-UTF-8 or malformed text, NonMonotoneGrid on unsorted grids,
    NegativeDensity on negative density values.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
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
    if not all(math.isfinite(v) for v in xs) or not all(math.isfinite(v) for v in fs):
        raise ParseError(f"{path!r} contains non-finite values")
    return Tabulated(xs, fs)


_FAMILIES = {
    "uniform": (Uniform, 2),
    "normal": (Normal, 2),
    "exponential": (Exponential, 1),
    "semicircle": (Semicircle, 2),
    "arcsin": (Arcsin, 2),
}


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
    ctor, arity = _FAMILIES[name]
    if not sep or not rest.strip():
        raise ParseError(f"{name} spec needs {arity} comma-separated parameters")
    try:
        params = [float(tok) for tok in rest.split(",")]
    except ValueError:
        raise ParseError(f"could not parse parameters in {text!r}") from None
    if len(params) != arity:
        raise ParseError(f"{name} takes {arity} parameters, got {len(params)}")
    return ctor(*params)
