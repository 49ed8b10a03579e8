"""Exception hierarchy shared by every module in the package.

All failures raised on purpose derive from DerangetropyError so callers can
catch one type at the boundary (the CLI maps them onto exit codes).
"""


class DerangetropyError(Exception):
    """Base class for all package-specific failures."""


class DomainError(DerangetropyError):
    """An argument lies outside the mathematical domain of the operation."""


class NonConvergence(DerangetropyError):
    """An iterative routine exhausted its budget before reaching tolerance."""


class NonFiniteSample(DerangetropyError):
    """A sampled value came back NaN or infinite where a finite one is required."""


class GridMismatch(DerangetropyError):
    """Two arrays that must describe the same grid disagree in shape or extent."""


class NegativeDensity(DerangetropyError):
    """A density value is negative beyond rounding tolerance."""


class ParseError(DerangetropyError):
    """Text input (CSV rows, distribution specs, config files) failed to parse."""


class NonMonotoneGrid(DerangetropyError):
    """Grid abscissae are not strictly increasing."""


class InvalidGrid(DerangetropyError):
    """A grid function violates its structural invariants (mass, cdf shape)."""


class SymmetryProbeFailed(DerangetropyError):
    """A check that only makes sense for symmetric densities was fed an asymmetric one."""
