"""Classical wave-optics oracle: mirror momentum from beam intensities.

Beams carry unit cross-section and the experiment lasts unit time (c = 1), so
intensities double as momentum fluxes. Serves as the independent reference the
quantum ensemble totals are compared against.
"""

from __future__ import annotations

import math

from .errors import ConstraintViolationError
from .photon_modes import BeamsplitterSpec


def classical_mirror_momentum(intensity: float, bs: BeamsplitterSpec, alpha: float) -> float:
    """Signed net momentum given to the double-sided mirror per unit time.

    Inside beam (arm B) pushes outward: +2*t^2*I*cos(alpha). The folded D1
    output beam strikes the outside face at beta with cos(beta) = cos(alpha)/2
    and pushes inward: -8*r^2*t^2*I*cos(beta). The sum reduces to
    -2*t^2*I*(r^2 - t^2)*cos(alpha): inward whenever r > t.
    """
    if intensity < 0.0:
        raise ConstraintViolationError(f"intensity must be non-negative, got {intensity}")
    if not 0.0 < alpha < math.pi / 2.0:
        raise ConstraintViolationError(
            f"alpha must lie strictly between 0 and pi/2 radians, got {alpha}"
        )
    r2 = bs.r * bs.r
    t2 = bs.t * bs.t
    cos_alpha = math.cos(alpha)
    cos_beta = 0.5 * cos_alpha
    inside = 2.0 * t2 * intensity * cos_alpha
    outside = -8.0 * r2 * t2 * intensity * cos_beta
    return inside + outside
