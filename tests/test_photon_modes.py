"""Arm-basis states, beamsplitter convention, and detection probabilities."""

import math

import pytest
from hypothesis import given, strategies as st

from mzkick.errors import ConstraintViolationError, ZeroOverlapError
from mzkick.photon_modes import (
    CHANNEL_D1,
    CHANNEL_D2,
    BeamsplitterSpec,
    ModeAmplitudes,
    detector_state,
    inner_product,
    intra_state,
)
from mzkick.pointer import default_grid, gaussian_pointer
from mzkick.weak_measurement import couple_with_kick, postselect

SQRT_075 = 0.8660254037844386  # sqrt(0.75)
R2_SWEEP = [0.51 + 0.04 * k for k in range(13)]  # 0.51, 0.55, ..., 0.99

r_squared_values = st.floats(min_value=0.01, max_value=0.99)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)

# Without a kick the pointer factors out, so the grid post-selection
# probability is the bare photon probability |<channel|psi>|^2.
UNKICKED_POINTER = gaussian_pointer(default_grid(1.0), 1.0)


def detection_probability(psi: ModeAmplitudes, channel_state: ModeAmplitudes) -> float:
    return postselect(couple_with_kick(psi, UNKICKED_POINTER, 0.0), channel_state).probability


class TestBeamsplitterSpec:
    def test_from_r_squared(self):
        bs = BeamsplitterSpec(0.75)
        assert bs.r == pytest.approx(SQRT_075, abs=1e-15)
        assert bs.t == pytest.approx(0.5, abs=1e-15)

    # 5.5e-17 and 5e-324 lie inside (0, 1), but 1 - r_squared rounds to 1, so t would be 1.
    @pytest.mark.parametrize("r_squared", [0.0, 1.0, -0.1, 1.5, 5.5e-17, 5e-324, math.nan])
    def test_rejects_invalid_r_squared(self, r_squared):
        with pytest.raises(ConstraintViolationError):
            BeamsplitterSpec(r_squared)


class TestIntraState:
    def test_unbalanced_amplitudes(self):
        # i*r|A> + t|B> evaluated directly at r^2 = 0.75
        psi = intra_state(BeamsplitterSpec(0.75))
        assert psi.a == pytest.approx(1j * SQRT_075, abs=1e-15)
        assert psi.b == pytest.approx(0.5 + 0j, abs=1e-15)

    def test_balanced_amplitudes(self):
        psi = intra_state(BeamsplitterSpec(0.5))
        assert psi.a == pytest.approx(0.7071067811865476j, abs=1e-12)
        assert psi.b == pytest.approx(0.7071067811865476 + 0j, abs=1e-12)

    @given(r_squared_values)
    def test_normalized(self, r_squared):
        psi = intra_state(BeamsplitterSpec(r_squared))
        assert abs(psi.norm_squared() - 1.0) < 1e-12


class TestDetectorStates:
    def test_d1_amplitudes(self):
        # t|A> - i*r|B> evaluated directly at r^2 = 0.75
        phi1 = detector_state(BeamsplitterSpec(0.75), CHANNEL_D1)
        assert phi1.a == pytest.approx(0.5 + 0j, abs=1e-15)
        assert phi1.b == pytest.approx(-1j * SQRT_075, abs=1e-15)

    def test_d2_amplitudes(self):
        phi2 = detector_state(BeamsplitterSpec(0.75), CHANNEL_D2)
        assert phi2.a == pytest.approx(-1j * SQRT_075, abs=1e-15)
        assert phi2.b == pytest.approx(0.5 + 0j, abs=1e-15)

    def test_unknown_channel(self):
        with pytest.raises(ValueError):
            detector_state(BeamsplitterSpec(0.75), "D3")

    @given(r_squared_values)
    def test_channel_states_orthonormal(self, r_squared):
        bs = BeamsplitterSpec(r_squared)
        phi1 = detector_state(bs, CHANNEL_D1)
        phi2 = detector_state(bs, CHANNEL_D2)
        assert abs(phi1.norm_squared() - 1.0) < 1e-12
        assert abs(phi2.norm_squared() - 1.0) < 1e-12
        assert abs(inner_product(phi1, phi2)) < 1e-12


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        psi = intra_state(BeamsplitterSpec(0.75))
        assert inner_product(psi, psi) == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_d1_overlap(self):
        # <Phi1|Psi> = 2*i*r*t by hand expansion
        bs = BeamsplitterSpec(0.75)
        got = inner_product(detector_state(bs, CHANNEL_D1), intra_state(bs))
        assert got == pytest.approx(2j * bs.r * bs.t, abs=1e-12)
        assert got == pytest.approx(0.8660254037844386j, abs=1e-12)

    def test_d2_overlap(self):
        # <Phi2|Psi> = conj(-i*r)*(i*r) + t*t = t^2 - r^2: the hand expansion
        # gives -(r^2 - t^2), i.e. -0.5 at r^2 = 0.75.
        bs = BeamsplitterSpec(0.75)
        got = inner_product(detector_state(bs, CHANNEL_D2), intra_state(bs))
        assert got == pytest.approx(-0.5 + 0j, abs=1e-12)


class TestDetectionProbability:
    def test_d1_closed_form(self):
        bs = BeamsplitterSpec(0.75)
        p = detection_probability(intra_state(bs), detector_state(bs, CHANNEL_D1))
        assert p == pytest.approx(0.75, abs=1e-12)  # 4 r^2 t^2

    def test_d2_closed_form(self):
        bs = BeamsplitterSpec(0.75)
        p = detection_probability(intra_state(bs), detector_state(bs, CHANNEL_D2))
        assert p == pytest.approx(0.25, abs=1e-12)  # (r^2 - t^2)^2

    def test_balanced_dark_port(self):
        # P(D2) = 0 at r = t: post-selection refuses the forbidden outcome
        bs = BeamsplitterSpec(0.5)
        psi = intra_state(bs)
        with pytest.raises(ZeroOverlapError, match="numerically zero"):
            detection_probability(psi, detector_state(bs, CHANNEL_D2))
        assert detection_probability(psi, detector_state(bs, CHANNEL_D1)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r_squared", R2_SWEEP)
    def test_closed_forms_across_sweep(self, r_squared):
        bs = BeamsplitterSpec(r_squared)
        psi = intra_state(bs)
        r2, t2 = bs.r**2, bs.t**2
        p1 = detection_probability(psi, detector_state(bs, CHANNEL_D1))
        p2 = detection_probability(psi, detector_state(bs, CHANNEL_D2))
        assert abs(p1 - 4.0 * r2 * t2) < 1e-12
        assert abs(p2 - (r2 - t2) ** 2) < 1e-12
        assert abs(p1 + p2 - 1.0) < 1e-12

    def test_rejects_non_normalized(self):
        bs = BeamsplitterSpec(0.75)
        with pytest.raises(ConstraintViolationError):
            detection_probability(ModeAmplitudes(1.0, 1.0), detector_state(bs, CHANNEL_D1))

    @given(r_squared_values, phases, phases)
    def test_completeness_for_any_normalized_state(self, r_squared, theta_a, theta_b):
        # not only the intra-interferometer state: any point on the Bloch sphere
        bs = BeamsplitterSpec(r_squared)
        c = math.cos(theta_a / 2.0)
        s = math.sin(theta_a / 2.0)
        psi = ModeAmplitudes(c, s * complex(math.cos(theta_b), math.sin(theta_b)))
        p1 = detection_probability(psi, detector_state(bs, CHANNEL_D1))
        p2 = detection_probability(psi, detector_state(bs, CHANNEL_D2))
        assert abs(p1 + p2 - 1.0) < 1e-12
