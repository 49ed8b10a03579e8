"""The derangetropy functional, its equivalent forms, derivative, and energies.

For a density f with distribution function F, the functional evaluated here is

    rho(x) = (24/(pi*e)) * sin(pi*F(x)) * F(x)^F(x) * (1-F(x))^(1-F(x)) * f(x)

with the 0^0 = 1 convention, so rho vanishes wherever F is exactly 0 or 1.
Two algebraically equivalent forms are provided alongside: one replacing the
power term by exp(-H_B(F)) with H_B the entropy of a Bernoulli(p) coin, and
one replacing sin(pi*F) through the reflection identity
sin(pi*z) = pi / (Gamma(z) * Gamma(1-z)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import DomainError
from .numerics import _TINY

# leading constant of the functional and its log, double precision
SCALE = 24.0 / (math.pi * math.e)
ENERGY_CONSTANT = math.log(SCALE)


@dataclass(frozen=True)
class DerangetropyValue:
    x: float
    f: float
    F: float
    rho: float


@dataclass(frozen=True)
class EnergyBreakdown:
    """Pointwise split of -log rho into an oscillatory and a structural part.

    The exact algebraic relation, whose defect identity_residual returns, is

        e_total = e_oscillatory + e_structural - constant_c

    with constant_c = log(24/(pi*e)) > 0.
    """

    e_oscillatory: float
    e_structural: float
    e_total: float
    constant_c: float

    def identity_residual(self) -> float:
        return self.e_total - (self.e_oscillatory + self.e_structural - self.constant_c)


def _neg_entropy(F: np.ndarray, q, out: np.ndarray | None = None) -> np.ndarray:
    """F*log(F) + q*log(q) with q = 1 - F, i.e. -H_B(F), element-wise for F in [0, 1], into out if given."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(F, out=np.empty_like(F) if out is None else out)
        out *= F
        qlogq = np.log(q)
        qlogq *= q
    out += qlogq
    # 0*log(0) is NaN only where F is 0 or 1, and no other sum is positive: fmin
    # writes the limit +0.0 there, mask-free, and leaves every other bit
    return np.fmin(out, 0.0, out=out)


def _half_angle_tan(F: np.ndarray, q) -> np.ndarray:
    """t = tan(pi*r/2) in [0, 1], r = min(F, q = 1 - F): sin(pi*F) = 2t/(1 + t*t), and cot(pi*F) = (1 - t*t)/(2t)
    signed as 1/2 - F. r is exact (1 - F is for F >= 1/2) and the same for F and 1 - F. numpy's tangent is
    vectorized on builds where its sine is not."""
    return np.tan(np.minimum(F, q) * (0.5 * np.pi))


def bernoulli_entropy(p):
    """Entropy (nats) of a Bernoulli(p) coin, with 0*log(0) = 0.

    Accepts scalars or arrays; p must lie in [0, 1].
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"bernoulli_entropy needs p in [0,1], got {p!r}")
    # 0.0 - x is -x bit for bit, except that it makes +0.0 of the +0.0 at p = 0 and p = 1
    h = np.subtract(0.0, _neg_entropy(arr, 1.0 - arr))
    return float(h) if arr.ndim == 0 else h


def derangetropy_kernel(F, out=None):
    """Density-free factor (24/(pi*e)) * sin(pi*F) * F^F * (1-F)^(1-F).

    Multiplying a density f(x) by it at its own cdf gives rho. Computed as SCALE * sin(pi*F) * exp(-H_B(F)), with
    -H_B shared with bernoulli_entropy and the sine from _half_angle_tan: K(1 - s) == K(s) to the bit where
    1 - (1 - s) == s, +0.0 at F = 0 and 1, -0.0 at F = -0.0.
    Given out, a float array of F's shape sharing no memory with F, it writes the same bits there and returns out.
    derangetropy_gamma_form and the 50-digit mpmath test are its oracles.
    """
    arr = np.asarray(F, dtype=float)
    # comparisons with NaN are False, so this also rejects NaN
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DomainError(f"kernel needs F in [0,1], got {F!r}")
    q = np.subtract(1.0, arr, out=np.empty_like(arr))
    val = _neg_entropy(arr, q, out)
    t = np.asarray(_half_angle_tan(arr, q))
    np.multiply(np.exp(val, out=val), t, out=val)
    val /= np.add(np.square(t, out=t), 1.0, out=t)
    val *= 2.0 * SCALE
    return float(val) if arr.ndim == 0 else val


def derangetropy(d: Distribution, x: float) -> DerangetropyValue:
    """Evaluate rho at a point, returning the ingredients along with it."""
    x = float(x)
    f, F, rho = derangetropy_profile(d, x)
    return DerangetropyValue(x=x, f=float(f), F=float(F), rho=float(rho))


def derangetropy_profile(d: Distribution, xs):
    """Vectorized evaluation over a grid; returns (f, F, rho) arrays (0-d for a scalar)."""
    xs = np.asarray(xs, dtype=float)
    f = np.asarray(d.pdf(xs), dtype=float)
    F = np.asarray(d.cdf(xs), dtype=float)
    w = derangetropy_kernel(F)
    # w == 0 forces rho = 0 even against an infinite density spike, without forming 0 * inf
    rho = np.multiply(w, f, out=np.zeros(f.shape), where=w != 0.0)
    return f, F, rho


def derangetropy_entropy_form(d: Distribution, x: float) -> float:
    """rho written with exp(-H_B(F)) in place of the power term, at one point.

    Not an independent oracle: H_B comes from the same log expression the
    kernel uses, so this route checks only the scalar path through
    bernoulli_entropy and math.sin.
    """
    x = float(x)
    f = float(d.pdf(x))
    F = float(d.cdf(x))
    if F <= 0.0 or F >= 1.0:
        return 0.0
    return SCALE * math.sin(math.pi * F) * math.exp(-bernoulli_entropy(F)) * f


def derangetropy_gamma_form(d: Distribution, x: float) -> float:
    """rho written through the reflection identity; needs F strictly in (0,1).

    sin(pi*F) = pi / (Gamma(F) * Gamma(1-F)) turns the leading constant into
    24/e and moves the oscillatory factor into two math.lgamma evaluations;
    F^F * (1-F)^(1-F) is taken in power form. Sharing no code with the
    kernel, this is the independent oracle of the three routes.
    """
    x = float(x)
    f = float(d.pdf(x))
    F = float(d.cdf(x))
    if F <= 0.0 or F >= 1.0:
        raise DomainError(f"gamma form needs F strictly inside (0,1), got F={F!r}")
    psi = F ** F * (1.0 - F) ** (1.0 - F)
    return (24.0 / math.e) * psi * f / math.exp(math.lgamma(F) + math.lgamma(1.0 - F))


def _interior_point(d: Distribution, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and F at x, numpy scalars (cheaper arithmetic) for a 0-d x; DomainError unless all F in (0,1) and f > 0."""
    f = np.asarray(d.pdf(x), dtype=float)
    F = np.asarray(d.cdf(x), dtype=float)
    # comparisons with NaN are False, so NaN is rejected too
    ok = (F > 0.0) & (F < 1.0) & (f > 0.0)
    if not ok.all():
        i = int(np.argmin(ok))
        raise DomainError(f"needs F in (0,1) and f > 0, got F={F.item(i)!r}, f={f.item(i)!r} at x={x.item(i)!r}")
    return f[()], F[()]


def _log_slope(f: np.ndarray, F: np.ndarray, score: np.ndarray) -> np.ndarray:
    """rho'/rho = f*(pi*cot(pi*F) + log(F/(1-F))) + f'/f, element-wise, cot from _half_angle_tan.

    score is the family's f'/f, which stays finite where f' overflows or f underflows.
    """
    q = 1.0 - F
    t = _half_angle_tan(F, q)
    # on a window about 1e-306 wide f * cot(pi F) passes the float range; inf keeps the sign, all a scan needs
    with np.errstate(over="ignore"):
        # pi*cot(pi*r) = pi/(2t) - pi*t/2 >= 0, and cot(pi*F) has the sign of 1/2 - F
        return f * (np.copysign(0.5 * np.pi / t - 0.5 * np.pi * t, 0.5 - F) + np.log(F / q)) + score


def derangetropy_derivative(d: Distribution, x):
    """Closed-form d(rho)/dx where F is in (0,1) and f > 0, at a point or an array of points.

    Differentiating rho(x) and dividing out rho gives

        rho'/rho = f(x) * (pi*cot(pi*F) + log(F/(1-F))) + f'(x)/f(x)

    The chain rule puts the factor f(x) on the two F-terms (dF/dx = f); a
    rendition without that factor is only valid when f is identically 1.
    Every element is evaluated in one pass; DomainError if any of them lies
    outside the interior. A scalar x gives a float.
    """
    x = np.asarray(x, dtype=float)
    f, F = _interior_point(d, x)
    rho_prime = derangetropy_kernel(F) * f * _log_slope(f, F, d.score(x))
    return float(rho_prime) if x.ndim == 0 else rho_prime


def total_energy_derivative(d: Distribution, x):
    """d/dx of -log rho, i.e. -rho'/rho; zero exactly at energy equilibria.

    Takes a point or an array of points, under the same conditions as
    derangetropy_derivative; a scalar x gives a float.
    """
    x = np.asarray(x, dtype=float)
    f, F = _interior_point(d, x)
    slope = -_log_slope(f, F, d.score(x))
    return float(slope) if x.ndim == 0 else slope


def energy_decomposition(d: Distribution, x) -> EnergyBreakdown:
    """Split -log rho into oscillatory and structural parts, at a point or an array of points.

    e_oscillatory = -log sin(pi*F) diverges at both support ends and
    vanishes at the median; e_structural = H_B(F) - log f carries the
    distribution-shape information. DomainError if any point has F outside
    (0,1) or f <= 0. A scalar x gives float fields, an array x array fields.
    """
    x = np.asarray(x, dtype=float)
    f, F = _interior_point(d, x)
    t = _half_angle_tan(F, 1.0 - F)
    e_osc, e_str, rho = -np.log(2.0 * t / (1.0 + t * t)), bernoulli_entropy(F) - np.log(f), derangetropy_kernel(F) * f
    # below the normal range K*f has lost its relative precision, or is 0, where its log is still e_osc + e_str - C
    parts = (e_osc, e_str, np.where(rho < _TINY, e_osc + e_str - ENERGY_CONSTANT, -np.log(np.maximum(rho, _TINY))))
    if x.ndim == 0:
        parts = tuple(float(v) for v in parts)
    return EnergyBreakdown(*parts, constant_c=ENERGY_CONSTANT)
