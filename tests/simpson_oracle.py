"""Adaptive Simpson: the tests' independent oracle for `numerics.integrate`.

It shares no nodes, weights or error estimate with `integrate`, only its split
budget `numerics._MAX_SPLITS`, read at each call so that a test can lower it.
"""

import math
from typing import Callable

from derangetropy import numerics
from derangetropy.errors import NonConvergence, NonFiniteSample


def _sample_one(f: Callable, x: float) -> float:
    y = float(f(x))
    if not math.isfinite(y):
        raise NonFiniteSample(f"integrand returned a non-finite value at x={x!r}")
    return y


def adaptive_simpson(f: Callable, a: float, b: float, abs_tol: float) -> float:
    """Adaptive Simpson over a < b to an estimated absolute error of abs_tol."""
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
        if splits >= numerics._MAX_SPLITS:
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
