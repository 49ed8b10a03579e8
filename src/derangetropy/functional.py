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

from .distributions import Distribution, _on_array
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


def _unit_interval(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F, 1 - F), once every F is known to lie in [0, 1]; DomainError otherwise."""
    # comparisons with NaN are False, so this also rejects NaN
    if F.size and not (F.min() >= 0.0 and F.max() <= 1.0):
        raise DomainError(f"needs F in [0,1], got {F!r}")
    return F, np.subtract(1.0, F, out=np.empty_like(F))


def bernoulli_entropy(p):
    """Entropy (nats) of a Bernoulli(p) coin, with 0*log(0) = 0.

    Accepts scalars or arrays; p must lie in [0, 1].
    """
    # 0.0 - x is -x bit for bit, except that it makes +0.0 of the +0.0 at p = 0 and p = 1
    return _on_array(lambda arr: np.subtract(0.0, _neg_entropy(*_unit_interval(arr))), p)


def derangetropy_kernel(F, out=None):
    """Density-free factor (24/(pi*e)) * sin(pi*F) * F^F * (1-F)^(1-F).

    Multiplying a density f(x) by it at its own cdf gives rho. Computed as SCALE * sin(pi*F) * exp(-H_B(F)), with
    -H_B shared with bernoulli_entropy and the sine from _half_angle_tan: K(1 - s) == K(s) to the bit where
    1 - (1 - s) == s, +0.0 at F = 0 and 1, -0.0 at F = -0.0.
    Given out, a float array of F's shape sharing no memory with F, it writes the same bits there and returns out.
    derangetropy_gamma_form and the 50-digit mpmath test are its oracles.
    """
    return _on_array(lambda arr: _kernel(*_unit_interval(arr), out), F)


def _kernel(F: np.ndarray, q, out: np.ndarray | None = None) -> np.ndarray:
    """derangetropy_kernel at F known to lie in [0, 1], with q = 1 - F."""
    val = _neg_entropy(F, q, out)
    t = np.asarray(_half_angle_tan(F, q))
    np.multiply(np.exp(val, out=val), t, out=val)
    val /= np.add(np.square(t, out=t), 1.0, out=t)
    val *= 2.0 * SCALE
    return val


def derangetropy(d: Distribution, x: float) -> DerangetropyValue:
    """Evaluate rho at a point, returning the ingredients along with it."""
    return DerangetropyValue(*_on_array(lambda arr: (arr, *_profile(d, arr)), x))


def derangetropy_profile(d: Distribution, xs):
    """Vectorized evaluation over a grid; returns (f, F, rho), floats for a scalar."""
    return _on_array(lambda arr: _profile(d, arr), xs)


def _profile(d: Distribution, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f, F, rho) on a float array x."""
    f, F = d._pdf(x), d._cdf(x)
    w = _kernel(*_unit_interval(F))
    # w == 0 forces rho = 0 even against an infinite density spike, without forming 0 * inf
    return f, F, np.multiply(w, f, out=np.zeros(f.shape), where=w != 0.0)


def derangetropy_entropy_form(d: Distribution, x: float) -> float:
    """rho written with exp(-H_B(F)) in place of the power term, at one point.

    Not an independent oracle: H_B comes from the same log expression the
    kernel uses, so this route checks only the scalar path through
    bernoulli_entropy and math.sin.
    """
    f, F = d.pdf(x), d.cdf(x)
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
    f, F = d.pdf(x), d.cdf(x)
    if F <= 0.0 or F >= 1.0:
        raise DomainError(f"gamma form needs F strictly inside (0,1), got F={F!r}")
    psi = F ** F * (1.0 - F) ** (1.0 - F)
    return (24.0 / math.e) * psi * f / math.exp(math.lgamma(F) + math.lgamma(1.0 - F))


def _interior_point(d: Distribution, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and F at x, numpy scalars (cheaper arithmetic) for a 0-d x; DomainError unless all F in (0,1) and f > 0,
    which puts every x strictly inside the support, where the family's _score holds."""
    f, F = d._pdf(x), d._cdf(x)
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
    # pi*cot(pi*r) = pi/(2t) - pi*t/2 >= 0, and cot(pi*F) has the sign of 1/2 - F
    return f * (np.copysign(0.5 * np.pi / t - 0.5 * np.pi * t, 0.5 - F) + np.log(F / q)) + score


def derangetropy_derivative(d: Distribution, x):
    """Closed-form d(rho)/dx where F is in (0,1) and f > 0, at a point or an array of points.

    Differentiating rho(x) and dividing out rho gives

        rho'/rho = f(x) * (pi*cot(pi*F) + log(F/(1-F))) + f'(x)/f(x)

    The chain rule puts the factor f(x) on the two F-terms (dF/dx = f); a
    rendition without that factor is only valid when f is identically 1.
    Every element is evaluated in one pass; DomainError if any of them lies
    outside the interior.
    """
    def rho_prime(arr):
        f, F = _interior_point(d, arr)
        return _kernel(F, 1.0 - F) * f * _log_slope(f, F, d._score(arr))
    return _on_array(rho_prime, x)


def total_energy_derivative(d: Distribution, x):
    """d/dx of -log rho, i.e. -rho'/rho; zero exactly at energy equilibria.

    Takes a point or an array of points, under the same conditions as
    derangetropy_derivative.
    """
    return _on_array(lambda arr: -_log_slope(*_interior_point(d, arr), d._score(arr)), x)


def energy_decomposition(d: Distribution, x) -> EnergyBreakdown:
    """Split -log rho into oscillatory and structural parts, at a point or an array of points.

    e_oscillatory = -log sin(pi*F) diverges at both support ends and
    vanishes at the median; e_structural = H_B(F) - log f carries the
    distribution-shape information. DomainError if any point has F outside
    (0,1) or f <= 0.
    """
    def parts(arr):
        f, F = _interior_point(d, arr)
        q = 1.0 - F
        t = _half_angle_tan(F, q)
        e_osc, e_str, rho = -np.log(2.0 * t / (1.0 + t * t)), -_neg_entropy(F, q) - np.log(f), _kernel(F, q) * f
        # where K*f is 0, subnormal (its relative precision lost) or inf, its log is still e_osc + e_str - C
        normal = (rho >= _TINY) & (rho < np.inf)
        return e_osc, e_str, np.where(normal, -np.log(np.maximum(rho, _TINY)), e_osc + e_str - ENERGY_CONSTANT)
    return EnergyBreakdown(*_on_array(parts, x), constant_c=ENERGY_CONSTANT)
