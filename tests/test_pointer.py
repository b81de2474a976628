"""Gaussian pointer states, the spectral shift, moments, and overlaps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mzkick.errors import ConstraintViolationError, GridCoverageError, GridMismatchError
from mzkick.pointer import (
    MomentumGrid,
    PointerState,
    default_grid,
    gaussian_pointer,
    mean_momentum,
    overlap,
    shift,
)

SPREAD = 10.0


def gaussian_overlap(delta: float, spread: float) -> float:
    """Closed-form overlap of a Gaussian with its own shift: exp(-d^2/(4 s^2))."""
    return math.exp(-(delta**2) / (4.0 * spread**2))


@pytest.fixture
def grid():
    return MomentumGrid(-120.0, 120.0, 2048)


@pytest.fixture
def gauss(grid):
    return gaussian_pointer(grid, SPREAD)


class TestMomentumGrid:
    def test_spacing_and_points(self, grid):
        assert grid.spacing == pytest.approx(240.0 / 2047)
        assert grid.points[0] == -120.0
        assert grid.points[-1] == 120.0
        assert np.allclose(np.diff(grid.points), grid.spacing)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConstraintViolationError):
            MomentumGrid(10.0, -10.0, 64)

    def test_rejects_too_few_points(self):
        with pytest.raises(ConstraintViolationError):
            MomentumGrid(-10.0, 10.0, 8)

    def test_default_grid_covers_spread_and_shift(self):
        g = default_grid(SPREAD, max_shift=40.0)
        assert g.p_max == pytest.approx(40.0 + 8.0 * SPREAD)
        assert g.n == 4096


class TestGaussianPointer:
    def test_normalized_with_zero_mean(self, gauss):
        assert gauss.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert mean_momentum(gauss) == pytest.approx(0.0, abs=1e-10)

    def test_momentum_standard_deviation(self, gauss):
        # second moment of the density exp(-p^2/spread^2) is spread^2/2
        p = gauss.grid.points
        second = np.trapezoid(p * p * gauss.density(), p)
        assert math.sqrt(second) == pytest.approx(7.071067811865475, abs=1e-6)

    def test_rejects_narrow_grid(self):
        with pytest.raises(GridCoverageError):
            gaussian_pointer(MomentumGrid(-20.0, 20.0, 256), SPREAD)

    def test_rejects_non_positive_spread(self, grid):
        with pytest.raises(ConstraintViolationError):
            gaussian_pointer(grid, 0.0)

    def test_state_constructor_enforces_tail_capture(self):
        g = MomentumGrid(-5.0, 5.0, 64)
        amp = np.exp(-np.linspace(-5, 5, 64) ** 2 / 200.0)  # spread 10: tails alive
        with pytest.raises(GridCoverageError):
            PointerState(g, amp)


class TestShift:
    def test_zero_shift_is_identity(self, gauss):
        assert shift(gauss, 0.0) is gauss

    def test_matches_analytic_translation(self, gauss):
        # oracle: re-evaluate the normalized Gaussian at p - 1 on the same grid
        moved = shift(gauss, 1.0)
        p = gauss.grid.points
        ref = np.exp(-((p - 1.0) ** 2) / (2.0 * SPREAD**2)).astype(complex)
        ref /= math.sqrt(np.trapezoid(np.abs(ref) ** 2, p))
        assert np.max(np.abs(moved.amplitudes - ref)) < 1e-12
        assert mean_momentum(moved) == pytest.approx(1.0, abs=1e-8)

    def test_round_trip(self, gauss):
        back = shift(shift(gauss, 7.3), -7.3)
        assert np.max(np.abs(back.amplitudes - gauss.amplitudes)) < 1e-10

    def test_preserves_norm(self, gauss):
        assert shift(gauss, 25.0).norm_squared() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_shift_off_grid(self, gauss):
        with pytest.raises(GridCoverageError):
            shift(gauss, 100.0)  # Gaussian tail would wrap past +120

    def test_rejects_shift_wider_than_grid(self, gauss):
        with pytest.raises(GridCoverageError):
            shift(gauss, 500.0)

    @pytest.mark.parametrize(
        "n,halfwidth,delta,message",
        [
            # spacing 10.8 > 0.6 spreads: FFT aliasing rings into the edges
            (16, 81.0, 1.0, "grid spacing 10.8 is too coarse.*raise grid_points"),
            # spacing 5.56 resolves the state, but the shift carries real
            # density (exp(-25) of the peak) onto the edge
            (37, 100.0, 50.0, "widen the grid"),
        ],
        ids=["coarse", "coverage"],
    )
    def test_edge_failure_names_its_cause(self, n, halfwidth, delta, message):
        g = gaussian_pointer(MomentumGrid(-halfwidth, halfwidth, n), SPREAD)
        with pytest.raises(GridCoverageError, match=message):
            shift(g, delta)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_norm_and_mean_translation_property(self, delta):
        g = gaussian_pointer(MomentumGrid(-120.0, 120.0, 1024), SPREAD)
        moved = shift(g, delta)
        assert moved.norm_squared() == pytest.approx(1.0, abs=1e-10)
        assert mean_momentum(moved) - mean_momentum(g) == pytest.approx(delta, abs=1e-8)

    def test_translation_of_asymmetric_wavefunction(self, grid):
        # two unequal humps: exercises the shift away from the symmetric case
        p = grid.points
        amp = np.exp(-((p - 2.0) ** 2) / 50.0) + 0.5 * np.exp(-((p + 5.0) ** 2) / 200.0)
        amp = amp.astype(complex)
        amp /= math.sqrt(np.trapezoid(np.abs(amp) ** 2, p))
        state = PointerState(grid, amp)
        for delta in (3.7, -11.2):
            moved = shift(state, delta)
            assert moved.norm_squared() == pytest.approx(1.0, abs=1e-10)
            assert mean_momentum(moved) - mean_momentum(state) == pytest.approx(delta, abs=1e-8)


class TestMeanMomentum:
    def test_symmetric_superposition_sits_halfway(self, gauss):
        # (phi(p) + phi(p - d)) is symmetric about d/2 for every d
        for delta in (1.0, 8.0, 25.0):
            summed = gauss.amplitudes + shift(gauss, delta).amplitudes
            p = gauss.grid.points
            summed /= math.sqrt(np.trapezoid(np.abs(summed) ** 2, p))
            state = PointerState(gauss.grid, summed)
            assert mean_momentum(state) == pytest.approx(delta / 2.0, abs=1e-8)

    def test_rejects_non_normalized(self, gauss):
        doubled = PointerState(gauss.grid, 2.0 * gauss.amplitudes)
        with pytest.raises(ConstraintViolationError):
            mean_momentum(doubled)


class TestOverlap:
    def test_self_overlap(self, gauss):
        assert overlap(gauss, gauss) == pytest.approx(1.0 + 0j, abs=1e-12)

    def test_small_shift_closed_form(self, gauss):
        got = abs(overlap(gauss, shift(gauss, 1.0)))
        assert got == pytest.approx(gaussian_overlap(1.0, SPREAD), abs=1e-8)
        assert got == pytest.approx(0.9975031223974601, abs=1e-8)

    def test_large_shift_closed_form(self, gauss):
        got = abs(overlap(gauss, shift(gauss, 40.0)))
        assert got == pytest.approx(gaussian_overlap(40.0, SPREAD), abs=1e-8)
        assert got == pytest.approx(0.01831563888873418, abs=1e-8)

    def test_matches_high_resolution_quadrature(self, gauss):
        # independent oracle: analytic integrand on a 4x denser grid
        fine = np.linspace(-120.0, 120.0, 4 * 2048)
        f0 = np.exp(-(fine**2) / (2.0 * SPREAD**2))
        f0 /= math.sqrt(np.trapezoid(f0**2, fine))
        f1 = np.exp(-((fine - 1.0) ** 2) / (2.0 * SPREAD**2))
        f1 /= math.sqrt(np.trapezoid(f1**2, fine))
        oracle = np.trapezoid(f0 * f1, fine)
        assert abs(overlap(gauss, shift(gauss, 1.0))) == pytest.approx(oracle, abs=1e-8)

    def test_decay_is_monotone(self, gauss):
        deltas = np.linspace(0.0, 5.0 * SPREAD, 26)
        values = [abs(overlap(gauss, shift(gauss, d))) for d in deltas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_closed_form_over_wide_range(self, gauss):
        for ratio in np.linspace(0.0, 5.0, 21):
            delta = ratio * SPREAD
            got = abs(overlap(gauss, shift(gauss, delta)))
            assert got == pytest.approx(gaussian_overlap(delta, SPREAD), abs=1e-8)

    def test_rejects_mismatched_grids(self, gauss):
        other = gaussian_pointer(MomentumGrid(-120.0, 120.0, 1024), SPREAD)
        with pytest.raises(GridMismatchError):
            overlap(gauss, other)


class TestGridRefinement:
    def test_doubling_resolution_changes_nothing(self):
        results = []
        for n in (2048, 4096):
            g = gaussian_pointer(MomentumGrid(-120.0, 120.0, n), SPREAD)
            moved = shift(g, 4.0)
            results.append((mean_momentum(moved), abs(overlap(g, moved))))
        assert abs(results[0][0] - results[1][0]) < 1e-9
        assert abs(results[0][1] - results[1][1]) < 1e-9
