"""Photon-mirror coupling, post-selection, weak values, and per-channel kicks.

A photon traversing arm B kicks the mirror by delta = 2*hbar*omega*cos(alpha);
a photon in arm A leaves it untouched. Entangling the arm state with the mirror
pointer and post-selecting on a detector channel yields the conditional mirror
state, whose mean momentum is governed by the weak value of the arm-B projector
in the weak-coupling limit. Photons that exit toward D1 strike the mirror a
second time from outside at an angle beta fixed by cos(beta) = cos(alpha)/2,
which exactly cancels their inside kick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConstraintViolationError, ZeroOverlapError
from .photon_modes import BeamsplitterSpec, ModeAmplitudes, inner_product
from .pointer import PointerState, filter_spectrum, normalized_mean, shift
from .pointer import mean_momentum  # noqa: F401 -- perfbench/traced.py wraps it here by name

# Below this post-selection probability (or amplitude overlap) the conditional
# state is numerically meaningless and the outcome is treated as forbidden.
ZERO_OVERLAP_TOL = 1e-14


@dataclass(frozen=True)
class OpticalSetup:
    """Experiment constants: beamsplitters, photon frequency, geometry, scales.

    alpha is the incidence angle of the inside beam on the mirror; the outside
    beam angle beta is always derived from cos(beta) = cos(alpha)/2, so the
    geometric cancellation for D1 photons cannot be misconfigured. nbar is the
    mean photon number of the input beam (coherent-state statistics).
    """

    bs: BeamsplitterSpec
    omega: float
    alpha: float
    nbar: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.pi / 2.0:
            raise ConstraintViolationError(
                f"alpha must lie strictly between 0 and pi/2 radians, got {self.alpha}"
            )
        if self.omega <= 0.0:
            raise ConstraintViolationError(f"omega must be positive, got {self.omega}")
        if self.nbar < 0.0:
            raise ConstraintViolationError(f"nbar must be non-negative, got {self.nbar}")

    @property
    def hbar(self) -> float:
        """Reduced Planck constant, fixed by the choice of units."""
        return 1.0

    @property
    def cos_beta(self) -> float:
        return 0.5 * math.cos(self.alpha)

    @property
    def beta(self) -> float:
        return math.acos(self.cos_beta)

    @property
    def delta_kick(self) -> float:
        """Per-reflection momentum kick of the inside beam: 2*hbar*omega*cos(alpha)."""
        return 2.0 * self.hbar * self.omega * math.cos(self.alpha)


class JointState(NamedTuple):
    """Entangled photon-mirror state a|A>arm_a + b|B>arm_b, where psi = (a, b)."""

    psi: ModeAmplitudes
    arm_a: PointerState
    arm_b: PointerState


class PostselectionResult(NamedTuple):
    """Outcome of projecting the joint state onto one detector channel."""

    probability: float
    mean_kick: float


def couple_with_kick(psi: ModeAmplitudes, pointer: PointerState, delta_kick: float) -> JointState:
    """Exact reflection coupling at an explicit kick: a|A>phi(p) + b|B>phi(p - delta)."""
    psi.require_normalized()
    pointer.require_normalized()
    return JointState(psi, pointer, shift(pointer, delta_kick))


def first_order_joint(psi: ModeAmplitudes, pointer: PointerState, delta_kick: float) -> JointState:
    """First-order expansion of the coupling: phi(p - delta) ~ phi(p) - delta*dphi/dp.

    Valid only for delta much smaller than the pointer spread; exists to
    quantify that regime against couple_with_kick. The output norm exceeds 1
    by O((delta/spread)^2). Production paths use the exact coupling.
    """
    pointer.require_normalized()
    expanded = filter_spectrum(pointer, lambda freqs: 1.0 - 2j * np.pi * delta_kick * freqs)
    return JointState(psi, pointer, expanded)


def weak_value_PB(psi: ModeAmplitudes, phi_post: ModeAmplitudes) -> complex:
    """Weak value of the arm-B projector between psi and the post-selected state.

    <phi|B><B|psi> / <phi|psi>; lies outside [0, 1] when the post-selection is
    nearly orthogonal to psi.
    """
    den = inner_product(phi_post, psi)
    if abs(den) < ZERO_OVERLAP_TOL:
        raise ZeroOverlapError(
            "post-selected state is orthogonal to the prepared state; weak value undefined"
        )
    num = phi_post.b.conjugate() * psi.b
    return num / den


def postselect(joint: JointState, phi_post: ModeAmplitudes) -> PostselectionResult:
    """Project the joint state onto a photon channel; exact at any coupling.

    Returns the channel probability and the mean momentum of the normalized
    conditional mirror state. The state is never stored: two passes over the
    grid blocks each build it a block at a time, the first to integrate its
    density into the probability, the second, normalized, through
    pointer.normalized_mean, which checks it as a normalized PointerState
    (check_samples, then check_norm) and takes its first moment. The
    probability reading assumes the joint state is normalized
    (couple_with_kick guarantees this; first_order_joint does not).
    """
    grid = joint.arm_a.grid
    ca, cb = phi_post.a.conjugate(), phi_post.b.conjugate()
    a, b = joint.psi.a, joint.psi.b
    amp_a, amp_b = joint.arm_a.amplitudes, joint.arm_b.amplitudes

    def amplitude(s: slice) -> np.ndarray:
        """ca*(a*phi_a) + cb*(b*phi_b) on block s, in place in two block arrays
        with the operands in the order of that expression, so the bits are its
        bits (complex products may fuse multiply-adds). Not written as the
        expression: numpy runs ca * x on a large temporary x as x *= ca."""
        c = np.multiply(a, amp_a[s])
        np.multiply(ca, c, out=c)
        d = np.multiply(b, amp_b[s])
        np.multiply(cb, d, out=d)
        return np.add(c, d, out=c)

    probability = float(grid.integrate(lambda s: np.abs(amplitude(s)) ** 2))
    if not probability >= ZERO_OVERLAP_TOL:  # nan too
        raise ZeroOverlapError(
            f"post-selection probability {probability!r} is numerically zero"
        )
    norm = math.sqrt(probability)
    return PostselectionResult(probability, normalized_mean(grid, lambda s: np.abs(amplitude(s) / norm)))


def net_kick_d1(setup: OpticalSetup) -> float:
    """Total mirror momentum from a D1 photon: inside kick plus outside kick.

    The inside contribution is the weak-value-limit kick delta/2 =
    hbar*omega*cos(alpha); the outside reflection contributes
    -2*hbar*omega*cos(beta) on the same signed axis (positive = outward normal
    of the inside face). With cos(beta) = cos(alpha)/2 the sum is identically
    zero.
    """
    inside = 0.5 * setup.delta_kick
    outside = -2.0 * setup.hbar * setup.omega * setup.cos_beta
    return inside + outside


def net_kick_d2(setup: OpticalSetup) -> float:
    """Weak-value-limit mirror momentum from a D2 photon: -t^2/(r^2-t^2) * delta.

    Negative (inward) whenever r > t, although D2 photons only ever strike the
    mirror from inside. Undefined at r = t, where the D2 outcome is forbidden.
    """
    bs = setup.bs
    denom = bs.r * bs.r - bs.t * bs.t
    if abs(denom) < ZERO_OVERLAP_TOL:
        raise ZeroOverlapError(
            "r = t leaves zero post-selection overlap for the D2 channel (forbidden outcome)"
        )
    return -(bs.t * bs.t / denom) * setup.delta_kick
