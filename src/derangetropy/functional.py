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
from .numerics import ln_gamma

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

    The exact algebraic relation is

        e_total = e_oscillatory + e_structural - constant_c

    i.e. the stored sign convention is s = -1 applied to
    constant_c = log(24/(pi*e)) > 0. Readers preferring the opposite
    convention can negate constant_c; identity_residual takes the sign as an
    argument so both are checkable.
    """

    e_oscillatory: float
    e_structural: float
    e_total: float
    constant_c: float

    def identity_residual(self, sign: float = -1.0) -> float:
        return self.e_total - (self.e_oscillatory + self.e_structural + sign * self.constant_c)


def bernoulli_entropy(p):
    """Entropy (nats) of a Bernoulli(p) coin, with 0*log(0) = 0.

    Accepts scalars or arrays; p must lie in [0, 1].
    """
    arr = np.asarray(p, dtype=float)
    scalar = arr.ndim == 0
    if np.any(arr < 0.0) or np.any(arr > 1.0) or not np.all(np.isfinite(arr)):
        raise DomainError(f"bernoulli_entropy needs p in [0,1], got {p!r}")
    safe_p = np.where(arr > 0.0, arr, 1.0)
    safe_q = np.where(arr < 1.0, 1.0 - arr, 1.0)
    h = -(arr * np.log(safe_p) + (1.0 - arr) * np.log(safe_q))
    h = np.maximum(h, 0.0)
    return float(h) if scalar else h


def derangetropy_kernel(F):
    """Density-free factor (24/(pi*e)) * sin(pi*F) * F^F * (1-F)^(1-F).

    Multiplying a density f(x) by this factor evaluated at its own cdf gives
    rho. Computed in log space as SCALE * sin(pi*F) * exp(F*log(F) +
    (1-F)*log(1-F)), and exactly zero at F = 0 and F = 1. That matches
    derangetropy_entropy_form algebraically, so that form checks only the code
    path; derangetropy_gamma_form and the 50-digit mpmath test are the oracles.
    """
    arr = np.asarray(F, dtype=float)
    scalar = arr.ndim == 0
    # comparisons with NaN are False, so this also rejects NaN
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DomainError(f"kernel needs F in [0,1], got {F!r}")
    q = 1.0 - arr
    # log is skipped where its argument is 0, which leaves 0*log(0) = 0
    log_psi = np.log(arr, out=np.zeros_like(arr), where=arr > 0.0)
    log_psi *= arr
    log_psi += q * np.log(q, out=np.zeros_like(q), where=q > 0.0)
    val = SCALE * np.sin(np.pi * arr)
    val *= np.exp(log_psi)
    # sin(np.pi) is 1.2e-16, not 0
    val *= q > 0.0
    return float(val) if scalar else val


def derangetropy(d: Distribution, x: float) -> DerangetropyValue:
    """Evaluate rho at a point, returning the ingredients along with it."""
    x = float(x)
    f = float(d.pdf(x))
    F = float(d.cdf(x))
    w = derangetropy_kernel(F)
    # w == 0 forces rho = 0 even against an infinite density spike
    rho = 0.0 if w == 0.0 else w * f
    return DerangetropyValue(x=x, f=f, F=F, rho=rho)


def derangetropy_profile(d: Distribution, xs):
    """Vectorized evaluation over a grid; returns (f, F, rho) arrays."""
    xs = np.asarray(xs, dtype=float)
    f = np.asarray(d.pdf(xs), dtype=float)
    F = np.asarray(d.cdf(xs), dtype=float)
    w = derangetropy_kernel(F)
    rho = np.where(w == 0.0, 0.0, w * f)
    return f, F, rho


def derangetropy_entropy_form(d: Distribution, x: float) -> float:
    """rho written with exp(-H_B(F)) in place of the power term."""
    x = float(x)
    f = float(d.pdf(x))
    F = float(d.cdf(x))
    if F <= 0.0 or F >= 1.0:
        return 0.0
    return SCALE * math.sin(math.pi * F) * math.exp(-bernoulli_entropy(F)) * f


def derangetropy_gamma_form(d: Distribution, x: float) -> float:
    """rho written through the reflection identity; needs F strictly in (0,1).

    sin(pi*F) = pi / (Gamma(F) * Gamma(1-F)) turns the leading constant into
    24/e and moves the oscillatory factor into two log-gamma evaluations.
    """
    x = float(x)
    f = float(d.pdf(x))
    F = float(d.cdf(x))
    if F <= 0.0 or F >= 1.0:
        raise DomainError(f"gamma form needs F strictly inside (0,1), got F={F!r}")
    psi = F ** F * (1.0 - F) ** (1.0 - F)
    return (24.0 / math.e) * psi * f / math.exp(ln_gamma(F) + ln_gamma(1.0 - F))


def _interior_point(d: Distribution, x: float) -> tuple[float, float, float]:
    f = float(d.pdf(x))
    F = float(d.cdf(x))
    if F <= 0.0 or F >= 1.0:
        raise DomainError(f"needs F strictly inside (0,1), got F={F!r} at x={x!r}")
    if f <= 0.0:
        raise DomainError(f"needs f(x) > 0, got f={f!r} at x={x!r}")
    return x, f, F


def derangetropy_derivative(d: Distribution, x: float) -> float:
    """Closed-form d(rho)/dx at a point with F in (0,1) and f > 0.

    Differentiating rho(x) and dividing out rho gives

        rho'/rho = f(x) * (pi*cot(pi*F) + log(F/(1-F))) + f'(x)/f(x)

    The chain rule puts the factor f(x) on the two F-terms (dF/dx = f); a
    rendition without that factor is only valid when f is identically 1.
    """
    x, f, F = _interior_point(d, float(x))
    fp = float(d.pdf_derivative(x))
    rho = derangetropy_kernel(F) * f
    cot = math.cos(math.pi * F) / math.sin(math.pi * F)
    bracket = f * (math.pi * cot + math.log(F / (1.0 - F))) + fp / f
    return rho * bracket


def total_energy_derivative(d: Distribution, x: float) -> float:
    """d/dx of -log rho, i.e. -rho'/rho; zero exactly at energy equilibria."""
    x, f, F = _interior_point(d, float(x))
    fp = float(d.pdf_derivative(x))
    cot = math.cos(math.pi * F) / math.sin(math.pi * F)
    return -(f * (math.pi * cot + math.log(F / (1.0 - F))) + fp / f)


def energy_decomposition(d: Distribution, x: float) -> EnergyBreakdown:
    """Split -log rho into oscillatory and structural parts at one point.

    e_oscillatory = -log sin(pi*F) diverges at both support ends and
    vanishes at the median; e_structural = H_B(F) - log f carries the
    distribution-shape information.
    """
    x, f, F = _interior_point(d, float(x))
    sin_pf = math.sin(math.pi * F)
    e_osc = -math.log(sin_pf)
    e_struct = bernoulli_entropy(F) - math.log(f)
    rho = SCALE * sin_pf * math.exp(-bernoulli_entropy(F)) * f
    e_total = -math.log(rho)
    return EnergyBreakdown(
        e_oscillatory=e_osc,
        e_structural=e_struct,
        e_total=e_total,
        constant_c=ENERGY_CONSTANT,
    )
