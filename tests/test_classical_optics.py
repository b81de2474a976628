"""Classical wave-optics mirror momentum."""

import math

import pytest
from hypothesis import given, strategies as st

from mzkick.classical_optics import classical_mirror_momentum
from mzkick.errors import ConstraintViolationError
from mzkick.photon_modes import BeamsplitterSpec


class TestClassicalMirrorMomentum:
    def test_headline_value(self):
        bs = BeamsplitterSpec(0.75)
        got = classical_mirror_momentum(100.0, bs, math.radians(60.0))
        assert got == pytest.approx(-12.5, abs=1e-12)  # -2 t^2 I (r^2 - t^2) cos(alpha)

    def test_balanced_interferometer_is_neutral(self):
        bs = BeamsplitterSpec(0.5)
        got = classical_mirror_momentum(100.0, bs, math.radians(60.0))
        assert got == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("r_squared", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_reflective_splitters_push_inward(self, r_squared):
        bs = BeamsplitterSpec(r_squared)
        assert classical_mirror_momentum(100.0, bs, math.radians(60.0)) < 0.0

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.02, max_value=math.pi / 2.0 - 0.02),
    )
    def test_two_path_sum_equals_closed_form(self, intensity, r_squared, alpha):
        # inside + outside bookkeeping against -2 t^2 I (r^2 - t^2) cos(alpha)
        bs = BeamsplitterSpec(r_squared)
        got = classical_mirror_momentum(intensity, bs, alpha)
        closed = -2.0 * bs.t**2 * intensity * (bs.r**2 - bs.t**2) * math.cos(alpha)
        assert abs(got - closed) < 1e-12 * max(intensity, 1.0)

    def test_rejects_bad_inputs(self):
        bs = BeamsplitterSpec(0.75)
        with pytest.raises(ConstraintViolationError):
            classical_mirror_momentum(-1.0, bs, 0.3)
        with pytest.raises(ConstraintViolationError):
            classical_mirror_momentum(1.0, bs, 0.0)
