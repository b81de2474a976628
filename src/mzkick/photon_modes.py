"""Single-photon states on the two-arm basis and the beamsplitter convention.

The interferometer arms span a two-dimensional Hilbert space {|A>, |B>}.
Both beamsplitters follow the convention that reflection multiplies the
amplitude by i*r and transmission by t, with r and t real and r^2 + t^2 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintViolationError

# Library-wide tolerance for identities that hold exactly in real arithmetic.
IDENTITY_TOL = 1e-12

CHANNEL_D1 = "D1"
CHANNEL_D2 = "D2"
CHANNELS = (CHANNEL_D1, CHANNEL_D2)


@dataclass(frozen=True)
class BeamsplitterSpec:
    """Lossless beamsplitter fixed by its reflection probability r^2: the amplitudes
    r and t are derived from it, so r^2 + t^2 = 1 holds by construction."""

    r_squared: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r_squared < 1.0 and self.t < 1.0):
            raise ConstraintViolationError(
                f"r_squared: must lie strictly between 0 and 1, with t = sqrt(1 - r_squared) "
                f"below 1 (got {self.r_squared})"
            )

    @property
    def r(self) -> float:
        return math.sqrt(self.r_squared)

    @property
    def t(self) -> float:
        return math.sqrt(1.0 - self.r_squared)


@dataclass(frozen=True)
class ModeAmplitudes:
    """Complex amplitudes on arms A and B."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))

    def norm_squared(self) -> float:
        return abs(self.a) ** 2 + abs(self.b) ** 2

    def require_normalized(self) -> None:
        nsq = self.norm_squared()
        if abs(nsq - 1.0) > IDENTITY_TOL:
            raise ConstraintViolationError(f"amplitudes not normalized: |a|^2 + |b|^2 = {nsq!r}")


def intra_state(bs: BeamsplitterSpec) -> ModeAmplitudes:
    """State prepared inside the interferometer by the input beamsplitter: i*r|A> + t|B>."""
    return ModeAmplitudes(1j * bs.r, bs.t)


def detector_state(bs: BeamsplitterSpec, channel: str) -> ModeAmplitudes:
    """Arm-basis state that exits the output beamsplitter toward the given detector.

    D1 corresponds to t|A> - i*r|B>, D2 to the orthogonal -i*r|A> + t|B>.
    """
    if channel == CHANNEL_D1:
        return ModeAmplitudes(bs.t, -1j * bs.r)
    if channel == CHANNEL_D2:
        return ModeAmplitudes(-1j * bs.r, bs.t)
    raise ValueError(f"unknown detector channel {channel!r}; expected one of {CHANNELS}")


def inner_product(x: ModeAmplitudes, y: ModeAmplitudes) -> complex:
    """<x|y> = conj(x.a)*y.a + conj(x.b)*y.b."""
    return x.a.conjugate() * y.a + x.b.conjugate() * y.b
