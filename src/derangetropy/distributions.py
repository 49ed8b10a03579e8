"""Analytic distribution zoo plus tabulated-density ingestion.

Every family exposes the same small interface: pdf, cdf, pdf_derivative,
quantile, median, support. pdf and cdf accept scalars or numpy arrays;
quantile and median are scalar. Closed forms are used wherever they exist,
with root finding only as a fallback for quantiles without one.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NegativeDensity, NonMonotoneGrid, ParseError
from .numerics import cumulative_integral, find_root

_erf = np.vectorize(math.erf, otypes=[float])


def _prep(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _ret(arr: np.ndarray, scalar: bool):
    return float(arr) if scalar else arr


def _check_interior(x, lo: float, hi: float) -> None:
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= lo) or np.any(arr >= hi):
        raise DomainError(
            f"derivative needs points strictly inside ({lo!r}, {hi!r})"
        )


class Distribution(ABC):
    """Common interface consumed by the functional, recursion, and verify layers."""

    @abstractmethod
    def support(self) -> tuple[float, float]:
        """Closure of {x : f(x) > 0}; endpoints may be infinite."""

    @abstractmethod
    def pdf(self, x):
        """Density at x (scalar or array); 0 outside the support."""

    @abstractmethod
    def cdf(self, x):
        """Distribution function at x (scalar or array), clamped to [0, 1]."""

    @abstractmethod
    def pdf_derivative(self, x):
        """f'(x) strictly inside the support; DomainError at or beyond the boundary."""

    @abstractmethod
    def quantile(self, p: float) -> float:
        """Inverse cdf for 0 < p < 1."""

    def median(self) -> float:
        return self.quantile(0.5)

    def truncated_support(self, tail_eps: float) -> tuple[float, float]:
        """Finite working interval [quantile(eps), quantile(1 - eps)]."""
        if not 0.0 < tail_eps < 0.5:
            raise DomainError(f"tail_eps must lie in (0, 0.5), got {tail_eps!r}")
        return self.quantile(tail_eps), self.quantile(1.0 - tail_eps)

    @staticmethod
    def _check_p(p: float) -> float:
        p = float(p)
        if not 0.0 < p < 1.0:
            raise DomainError(f"quantile needs 0 < p < 1, got {p!r}")
        return p


@dataclass(frozen=True)
class Uniform(Distribution):
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise DomainError(f"uniform needs finite a < b, got ({self.a!r}, {self.b!r})")

    def support(self):
        return (self.a, self.b)

    def pdf(self, x):
        arr, scalar = _prep(x)
        inside = (arr >= self.a) & (arr <= self.b)
        return _ret(np.where(inside, 1.0 / (self.b - self.a), 0.0), scalar)

    def cdf(self, x):
        arr, scalar = _prep(x)
        return _ret(np.clip((arr - self.a) / (self.b - self.a), 0.0, 1.0), scalar)

    def pdf_derivative(self, x):
        arr, scalar = _prep(x)
        _check_interior(arr, self.a, self.b)
        return _ret(np.zeros_like(arr), scalar)

    def quantile(self, p):
        p = self._check_p(p)
        return self.a + p * (self.b - self.a)

    def median(self):
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and self.sigma > 0.0):
            raise DomainError(f"normal needs finite mu and sigma > 0, got ({self.mu!r}, {self.sigma!r})")

    def support(self):
        return (-math.inf, math.inf)

    def pdf(self, x):
        arr, scalar = _prep(x)
        z = (arr - self.mu) / self.sigma
        val = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))
        return _ret(val, scalar)

    def cdf(self, x):
        arr, scalar = _prep(x)
        z = (arr - self.mu) / (self.sigma * math.sqrt(2.0))
        return _ret(0.5 * (1.0 + _erf(z)), scalar)

    def pdf_derivative(self, x):
        arr, scalar = _prep(x)
        return _ret(-(arr - self.mu) / (self.sigma ** 2) * self.pdf(arr), scalar)

    def quantile(self, p):
        p = self._check_p(p)
        # cdf saturates to exactly 0/1 well inside this bracket, so a sign
        # change is guaranteed for any p in (0,1)
        half_width = 60.0 * self.sigma
        return find_root(
            lambda x: self.cdf(x) - p,
            self.mu - half_width,
            self.mu + half_width,
            tol=1e-13 * self.sigma,
        )

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

    def pdf(self, x):
        arr, scalar = _prep(x)
        # exp argument clamped at 0 from above so x < 0 cannot overflow
        val = np.where(arr >= 0.0, self.lam * np.exp(-self.lam * np.maximum(arr, 0.0)), 0.0)
        return _ret(val, scalar)

    def cdf(self, x):
        arr, scalar = _prep(x)
        val = np.where(arr > 0.0, -np.expm1(-self.lam * np.maximum(arr, 0.0)), 0.0)
        return _ret(val, scalar)

    def pdf_derivative(self, x):
        arr, scalar = _prep(x)
        if np.any(arr <= 0.0):
            raise DomainError("derivative needs x > 0 for the exponential family")
        return _ret(-self.lam ** 2 * np.exp(-self.lam * arr), scalar)

    def quantile(self, p):
        p = self._check_p(p)
        return -math.log1p(-p) / self.lam

    def median(self):
        return math.log(2.0) / self.lam


@dataclass(frozen=True)
class Semicircle(Distribution):
    """Wigner semicircle rescaled to the interval (a, b)."""

    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise DomainError(f"semicircle needs finite a < b, got ({self.a!r}, {self.b!r})")

    def support(self):
        return (self.a, self.b)

    def _radius_center(self):
        return 0.5 * (self.b - self.a), 0.5 * (self.a + self.b)

    def pdf(self, x):
        arr, scalar = _prep(x)
        prod = (arr - self.a) * (self.b - arr)
        coef = 8.0 / (math.pi * (self.b - self.a) ** 2)
        return _ret(coef * np.sqrt(np.maximum(prod, 0.0)), scalar)

    def cdf(self, x):
        arr, scalar = _prep(x)
        r, c = self._radius_center()
        u = np.clip((arr - c) / r, -1.0, 1.0)
        val = 0.5 + (u * np.sqrt(1.0 - u * u) + np.arcsin(u)) / math.pi
        return _ret(np.clip(val, 0.0, 1.0), scalar)

    def pdf_derivative(self, x):
        arr, scalar = _prep(x)
        _check_interior(arr, self.a, self.b)
        coef = 8.0 / (math.pi * (self.b - self.a) ** 2)
        root = np.sqrt((arr - self.a) * (self.b - arr))
        return _ret(coef * (self.a + self.b - 2.0 * arr) / (2.0 * root), scalar)

    def quantile(self, p):
        p = self._check_p(p)
        return find_root(
            lambda x: self.cdf(x) - p,
            self.a,
            self.b,
            tol=1e-13 * (self.b - self.a),
        )

    def median(self):
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class Arcsin(Distribution):
    """Arcsine law on (a, b); density diverges at both endpoints."""

    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise DomainError(f"arcsin needs finite a < b, got ({self.a!r}, {self.b!r})")

    def support(self):
        return (self.a, self.b)

    def pdf(self, x):
        arr, scalar = _prep(x)
        prod = (arr - self.a) * (self.b - arr)
        with np.errstate(divide="ignore"):
            val = np.where(prod > 0.0, 1.0 / (math.pi * np.sqrt(np.maximum(prod, 0.0))), 0.0)
        # density is +inf at the endpoints themselves
        on_edge = (arr == self.a) | (arr == self.b)
        val = np.where(on_edge, np.inf, val)
        return _ret(val, scalar)

    def cdf(self, x):
        arr, scalar = _prep(x)
        u = np.clip((arr - self.a) / (self.b - self.a), 0.0, 1.0)
        return _ret((2.0 / math.pi) * np.arcsin(np.sqrt(u)), scalar)

    def pdf_derivative(self, x):
        arr, scalar = _prep(x)
        _check_interior(arr, self.a, self.b)
        prod = (arr - self.a) * (self.b - arr)
        # prod * sqrt(prod), not sqrt(prod) ** 3: numpy rounds pow on arrays and
        # on scalars differently, and an array must give what its points give
        return _ret(-(self.a + self.b - 2.0 * arr) / (2.0 * math.pi * (prod * np.sqrt(prod))), scalar)

    def quantile(self, p):
        p = self._check_p(p)
        return self.a + (self.b - self.a) * math.sin(0.5 * math.pi * p) ** 2

    def median(self):
        return 0.5 * (self.a + self.b)


class Tabulated(Distribution):
    """Density given by samples on a grid, linearly interpolated.

    The sampled values are renormalized so the trapezoid integral over the
    grid is exactly 1; the applied factor is kept as `normalization`.
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
        fs = np.maximum(fs, 0.0)
        raw_cdf = cumulative_integral(xs, fs)
        mass = float(raw_cdf[-1])
        if not (mass > 0.0 and math.isfinite(mass)):
            raise NegativeDensity("tabulated density has no positive mass")
        self.xs = xs
        self.fs = fs / mass
        self.normalization = 1.0 / mass
        self._cdf_nodes = raw_cdf / mass

    def support(self):
        return (float(self.xs[0]), float(self.xs[-1]))

    def pdf(self, x):
        arr, scalar = _prep(x)
        val = np.interp(arr, self.xs, self.fs, left=0.0, right=0.0)
        return _ret(val, scalar)

    def cdf(self, x):
        arr, scalar = _prep(x)
        val = np.interp(arr, self.xs, self._cdf_nodes, left=0.0, right=1.0)
        return _ret(val, scalar)

    def pdf_derivative(self, x):
        arr, scalar = _prep(x)
        lo, hi = self.support()
        _check_interior(arr, lo, hi)
        # slope of the linear interpolant on the segment containing x
        idx = np.clip(np.searchsorted(self.xs, arr, side="right") - 1, 0, self.xs.size - 2)
        slope = (self.fs[idx + 1] - self.fs[idx]) / (self.xs[idx + 1] - self.xs[idx])
        return _ret(np.asarray(slope, dtype=float), scalar)

    def quantile(self, p):
        p = self._check_p(p)
        cn = self._cdf_nodes
        idx = int(np.searchsorted(cn, p, side="left"))
        idx = min(max(idx, 1), cn.size - 1)
        rise = cn[idx] - cn[idx - 1]
        t = 0.0 if rise <= 0.0 else (p - cn[idx - 1]) / rise
        return float(self.xs[idx - 1] + t * (self.xs[idx] - self.xs[idx - 1]))


def load_tabulated(path: str) -> Tabulated:
    """Read a two-column CSV (header containing `x` and `f`) into a Tabulated.

    Extra columns are ignored, so output of the `eval` subcommand re-ingests
    directly. Raises ParseError on malformed text, NonMonotoneGrid on
    unsorted grids, NegativeDensity on negative density values.
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
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
