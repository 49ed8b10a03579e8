"""Output checks against oracles independent of the package under test.

scipy and mpmath serve as the oracles; neither is a dependency of the
package itself. Each check raises CheckFailed with the first defect found.
"""

from __future__ import annotations

import bisect
import json
import math

import mpmath
import numpy as np
from scipy import integrate, special

EVAL_HEADER = "x,f,F,rho"
ENERGY_KEYS = ["x", "e_oscillatory", "e_structural", "e_total"]
N_REPORTS = 16

# (24/(pi*e)) and its log, from mpmath rather than from the package
_SCALE = float(mpmath.mpf(24) / (mpmath.pi * mpmath.e))
_LOG_SCALE = float(mpmath.log(mpmath.mpf(24) / (mpmath.pi * mpmath.e)))

# the seed code reaches 8e-11 relative on rho at tail_eps = 1e-6
RHO_REL_TOL = 1e-9
# trapezoid mass of rho on a 200,001-point grid cut at the 1e-6 quantiles
MASS_TOL = 1e-6
# e_total against e_oscillatory + e_structural - log(24/(pi e)), per row,
# relative to the size of the terms
IDENTITY_REL_TOL = 1e-12
# energies at sampled rows against an evaluation from the generated table
ENERGY_ABS_TOL = 1e-7
# unit mass of every recursion level; renormalization makes it exact to rounding
LEVEL_MASS_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output disagrees with the oracle."""


def _grid_is_uniform(x: np.ndarray, lo: float, hi: float, what: str) -> None:
    span = hi - lo
    if abs(x[0] - lo) > 1e-9 * span or abs(x[-1] - hi) > 1e-9 * span:
        raise CheckFailed(f"{what}: grid ends [{x[0]!r}, {x[-1]!r}] differ from [{lo!r}, {hi!r}]")
    step = span / (x.size - 1)
    if float(np.max(np.abs(np.diff(x) - step))) > 1e-6 * step:
        raise CheckFailed(f"{what}: grid is not uniform with step {step!r}")


def _mp_rho(x: float, mu: float, sigma: float) -> mpmath.mpf:
    with mpmath.workdps(40):
        F = mpmath.ncdf(x, mu, sigma)
        S = mpmath.ncdf(-x, -mu, sigma)
        f = mpmath.npdf(x, mu, sigma)
        return 24 / (mpmath.pi * mpmath.e) * mpmath.sin(mpmath.pi * F) * F ** F * S ** S * f


def check_eval_csv(text: str, mu: float, sigma: float, n_points: int, tail_eps: float, sample_rows) -> None:
    """`eval` CSV for Normal(mu, sigma): header, rows, grid, rho on every row, mass."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckFailed("eval: output does not end with a newline")
    if lines[0] != EVAL_HEADER:
        raise CheckFailed(f"eval: header {lines[0]!r} is not {EVAL_HEADER!r}")
    body = lines[1:-1]
    if len(body) != n_points:
        raise CheckFailed(f"eval: {len(body)} rows, expected {n_points}")
    bad = next((i for i, row in enumerate(body) if row.count(",") != 3), None)
    if bad is not None:
        raise CheckFailed(f"eval: row {bad} does not have 4 fields")
    try:
        table = np.array(",".join(body).split(","), dtype=float).reshape(n_points, 4)
    except ValueError as exc:
        raise CheckFailed(f"eval: malformed row: {exc}") from None
    x, f, F, rho = table.T

    z_cut = float(special.ndtri(tail_eps))
    _grid_is_uniform(x, mu + sigma * z_cut, mu - sigma * z_cut, "eval")

    z = (x - mu) / sigma
    f_ref = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    F_ref, S_ref = special.ndtr(z), special.ndtr(-z)
    rho_ref = (
        _SCALE
        * np.sin(np.pi * np.minimum(F_ref, S_ref))
        * np.exp(special.xlogy(F_ref, F_ref) + special.xlogy(S_ref, S_ref))
        * f_ref
    )
    if float(np.max(np.abs(F - F_ref))) > 1e-13:
        raise CheckFailed("eval: column F disagrees with scipy ndtr")
    if float(np.max(np.abs(f - f_ref) / f_ref)) > 1e-12:
        raise CheckFailed("eval: column f disagrees with the normal density")
    rel = np.abs(rho - rho_ref) / rho_ref
    worst = int(np.argmax(rel))
    if not rel[worst] <= RHO_REL_TOL:
        raise CheckFailed(f"eval: rho at row {worst} is off by {rel[worst]!r} relative (scipy)")
    for i in sample_rows:
        ref = _mp_rho(float(x[i]), mu, sigma)
        err = float(abs((rho[i] - ref) / ref))
        if not err <= RHO_REL_TOL:
            raise CheckFailed(f"eval: rho at row {i} is off by {err!r} relative (mpmath)")
    mass = float(integrate.trapezoid(rho, x))
    if not abs(mass - 1.0) <= MASS_TOL:
        raise CheckFailed(f"eval: trapezoid mass of rho is {mass!r}")


class TabulatedOracle:
    """The linearly interpolated density of a generated table, evaluated apart
    from the package: scipy's cumulative trapezoid and plain Python interpolation."""

    def __init__(self, xs: np.ndarray, fs: np.ndarray) -> None:
        cum = integrate.cumulative_trapezoid(fs, xs, initial=0.0)
        self.xs = xs.tolist()
        self.f = (fs / cum[-1]).tolist()
        self.F = (cum / cum[-1]).tolist()

    def quantile(self, p: float) -> float:
        j = bisect.bisect_left(self.F, p)
        t = (p - self.F[j - 1]) / (self.F[j] - self.F[j - 1])
        return self.xs[j - 1] + t * (self.xs[j] - self.xs[j - 1])

    def energies(self, x: float) -> tuple[float, float]:
        """(e_oscillatory, e_structural) at x."""
        j = min(max(bisect.bisect_right(self.xs, x) - 1, 0), len(self.xs) - 2)
        t = (x - self.xs[j]) / (self.xs[j + 1] - self.xs[j])
        f = self.f[j] + t * (self.f[j + 1] - self.f[j])
        F = self.F[j] + t * (self.F[j + 1] - self.F[j])
        h_b = -(F * math.log(F) + (1.0 - F) * math.log1p(-F))
        return -math.log(math.sin(math.pi * F)), h_b - math.log(f)


def check_energy_json(text: str, oracle: TabulatedOracle, n_points: int, tail_eps: float, sample_rows) -> None:
    """`energy --format json`: rows and keys, the split identity on every row,
    and the energies at sampled rows against the generated table."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"energy: output is not JSON: {exc}") from None
    if not isinstance(rows, list) or len(rows) != n_points:
        raise CheckFailed(f"energy: expected a list of {n_points} rows")
    if any(not isinstance(r, dict) or list(r) != ENERGY_KEYS for r in rows):
        raise CheckFailed(f"energy: every row must have exactly the keys {ENERGY_KEYS}")
    x, e_osc, e_struct, e_total = np.array([[r[k] for k in ENERGY_KEYS] for r in rows], dtype=float).T

    _grid_is_uniform(x, oracle.quantile(tail_eps), oracle.quantile(1.0 - tail_eps), "energy")

    resid = np.abs(e_total - (e_osc + e_struct - _LOG_SCALE))
    scale = np.abs(e_osc) + np.abs(e_struct) + abs(_LOG_SCALE)
    worst = int(np.argmax(resid / scale))
    if not resid[worst] <= IDENTITY_REL_TOL * scale[worst]:
        raise CheckFailed(f"energy: row {worst} breaks e_total = e_osc + e_struct - c by {resid[worst]!r}")
    for i in sample_rows:
        ref_osc, ref_struct = oracle.energies(float(x[i]))
        if not (abs(e_osc[i] - ref_osc) <= ENERGY_ABS_TOL and abs(e_struct[i] - ref_struct) <= ENERGY_ABS_TOL):
            raise CheckFailed(
                f"energy: row {i} has ({e_osc[i]!r}, {e_struct[i]!r}), oracle ({ref_osc!r}, {ref_struct!r})"
            )


def check_recursion(levels, metrics, mu: float, n_levels: int) -> None:
    """Levels 0..n_levels of the recursion on a Normal(mu, .) grid: count, unit
    mass, strictly decreasing variance, median within one grid step of mu."""
    if len(levels) != n_levels + 1 or len(metrics) != n_levels + 1:
        raise CheckFailed(f"recurse: {len(levels)} levels and {len(metrics)} metrics, expected {n_levels + 1}")
    xs = np.asarray(levels[0].xs)
    step = float(xs[1] - xs[0])
    prev_var = math.inf
    for k, (g, m) in enumerate(zip(levels, metrics)):
        if g.level != k or m.level != k:
            raise CheckFailed(f"recurse: level {k} is labelled {g.level} / {m.level}")
        if g.density.shape != xs.shape or g.cdf.shape != xs.shape or not np.array_equal(g.xs, xs):
            raise CheckFailed(f"recurse: level {k} is not on the level-0 grid")
        mass = float(integrate.trapezoid(g.density, xs))
        if not abs(mass - 1.0) <= LEVEL_MASS_TOL:
            raise CheckFailed(f"recurse: level {k} has mass {mass!r}")
        mean = float(integrate.trapezoid(xs * g.density, xs))
        var = float(integrate.trapezoid((xs - mean) ** 2 * g.density, xs))
        if not abs(m.variance - var) <= 1e-9 * var:
            raise CheckFailed(f"recurse: level {k} reports variance {m.variance!r}, oracle {var!r}")
        if not var < prev_var:
            raise CheckFailed(f"recurse: variance does not decrease at level {k}")
        prev_var = var
        if not abs(m.median - mu) <= step:
            raise CheckFailed(f"recurse: level {k} median {m.median!r} is more than a grid step from {mu!r}")


def check_reports(text: str) -> None:
    """`verify --suite all` JSON: all 16 reports present and passing within their tolerance."""
    try:
        reports = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"verify: output is not JSON: {exc}") from None
    if not isinstance(reports, list) or len(reports) != N_REPORTS:
        raise CheckFailed(f"verify: expected a list of {N_REPORTS} reports")
    for r in reports:
        if not (r["passed"] is True and r["residual"] <= r["tolerance"]):
            raise CheckFailed(f"verify: {r['check_name']} failed with residual {r['residual']!r} > {r['tolerance']!r}")
