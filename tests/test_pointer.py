"""Gaussian pointer states, the spectral shift, moments, and overlaps."""

import ast
import math
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import mzkick
from mzkick import pointer
from mzkick.errors import ConstraintViolationError, GridCoverageError, GridMismatchError
from mzkick.pointer import (
    GRID_BLOCK,
    TAIL_DENSITY_RATIO,
    MomentumGrid,
    PointerState,
    _wrap_band,
    block_map,
    check_norm,
    default_halfwidth,
    filter_spectrum,
    gaussian_pointer,
    grid_blocks,
    mean_momentum,
    overlap,
    shift,
)
from oracles import visibility

SPREAD = 10.0


def grid_points(grid: MomentumGrid) -> np.ndarray:
    """The grid's sample points, as numpy spaces them: the oracle for block_points."""
    return np.linspace(grid.p_min, grid.p_max, grid.n)


@pytest.fixture
def grid():
    return MomentumGrid(-120.0, 120.0, 2048)


@pytest.fixture
def gauss(grid):
    return gaussian_pointer(grid, SPREAD)


class TestMomentumGrid:
    def test_spacing_and_points(self, grid):
        assert grid.spacing == pytest.approx(240.0 / 2047)
        p = grid.block_points(slice(0, grid.n))
        assert p[0] == -120.0 and p[-1] == 120.0
        assert np.allclose(np.diff(p), grid.spacing)
        assert not p.flags.writeable  # a view of the cached first block

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConstraintViolationError):
            MomentumGrid(10.0, -10.0, 64)

    def test_rejects_too_few_points(self):
        with pytest.raises(ConstraintViolationError):
            MomentumGrid(-10.0, 10.0, 8)

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308), (0.0, 5e-324)], ids=["infinite", "zero"])
    def test_rejects_a_spacing_that_is_not_finite_and_nonzero(self, bounds):
        with pytest.raises(ConstraintViolationError, match="grid spacing .* must be finite and nonzero"):
            MomentumGrid(*bounds, 16)

    @pytest.mark.parametrize("max_shift", [40.0, -40.0])
    def test_default_halfwidth_covers_spread_and_shift(self, max_shift):
        assert default_halfwidth(SPREAD, max_shift) == 40.0 + 8.0 * SPREAD

    @pytest.mark.parametrize("spread", [0.0, -1.0, math.nan, math.inf])
    def test_default_halfwidth_rejects_non_positive_spread(self, spread):
        with pytest.raises(ConstraintViolationError, match="delta_spread"):
            default_halfwidth(spread)


# Samples the trapezoidal rule must carry through unchanged: signed zeros,
# subnormals, and values up to 1e100 (so that no sum overflows).
SPECIAL_SAMPLES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.0e-308, 1e100, -1e100])
SAMPLES = st.one_of(SPECIAL_SAMPLES, st.floats(min_value=-1e100, max_value=1e100, allow_subnormal=True))


@st.composite
def grid_and_samples(draw):
    n = draw(st.integers(min_value=16, max_value=4096))
    half = draw(st.floats(min_value=1e-150, max_value=1e150))
    real = draw(arrays(np.float64, n, elements=SAMPLES))
    if draw(st.booleans()):
        return MomentumGrid(-half, half, n), real
    y = real.astype(np.complex128)
    y.imag = draw(arrays(np.float64, n, elements=SAMPLES))
    return MomentumGrid(-half, half, n), y


class TestIntegrate:
    @settings(max_examples=200, deadline=None)
    @given(grid_and_samples())
    def test_bit_identical_to_numpy_trapezoid(self, case):
        grid, y = case
        got, want = grid.integrate(lambda s: y[s]), np.trapezoid(y, grid_points(grid))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestGaussianPointer:
    def test_normalized_with_zero_mean(self, gauss):
        assert gauss.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert mean_momentum(gauss) == pytest.approx(0.0, abs=1e-10)

    def test_momentum_standard_deviation(self, gauss):
        # second moment of the density exp(-p^2/spread^2) is spread^2/2
        p = grid_points(gauss.grid)
        second = np.trapezoid(p * p * (np.abs(gauss.amplitudes) ** 2), p)
        assert math.sqrt(second) == pytest.approx(7.071067811865475, abs=1e-6)

    def test_rejects_narrow_grid(self):
        with pytest.raises(GridCoverageError):
            gaussian_pointer(MomentumGrid(-20.0, 20.0, 256), SPREAD)

    def test_rejects_non_positive_spread(self, grid):
        with pytest.raises(ConstraintViolationError):
            gaussian_pointer(grid, 0.0)

    @pytest.mark.parametrize("spread", [-1.0, math.nan, math.inf])
    def test_rejects_a_spread_that_is_not_positive_and_finite(self, spread):
        # With a nan spread the state was all nan, with RuntimeWarnings only;
        # the refusal comes before any of them (the test configuration turns
        # a RuntimeWarning into an error).
        with pytest.raises(ConstraintViolationError, match="delta_spread must be positive and finite"):
            gaussian_pointer(MomentumGrid(-100.0, 100.0, 4096), spread)

    def test_state_constructor_enforces_tail_capture(self):
        g = MomentumGrid(-5.0, 5.0, 64)
        amp = np.exp(-np.linspace(-5, 5, 64) ** 2 / 200.0)  # spread 10: tails alive
        with pytest.raises(GridCoverageError):
            PointerState(g, amp)

    def test_state_constructor_rejects_wrong_shape(self, grid):
        with pytest.raises(ConstraintViolationError, match="amplitudes shape"):
            PointerState(grid, gaussian_samples(grid)[:-1])

    def test_state_constructor_rejects_zero_amplitudes(self, grid):
        with pytest.raises(ConstraintViolationError, match="identically zero"):
            PointerState(grid, np.zeros(grid.n))

    def test_check_norm_refuses_nan(self):
        with pytest.raises(ConstraintViolationError, match="pointer state not normalized: integral = nan"):
            check_norm(math.nan)

    @pytest.mark.parametrize(
        "samples, dtype",
        [([True, False], np.float64), ([1, 0], np.float64), ([1.0, 0.0], np.float64),
         (np.array([1.0, 0.0], dtype=np.float32), np.float64), ([1.0 + 0j, 0j], np.complex128),
         (np.array([1.0, 0.0], dtype=np.complex64), np.complex128)],
        ids=["bool", "int", "float", "float32", "complex", "complex64"],
    )
    def test_state_keeps_real_samples_real(self, grid, samples, dtype):
        amp = np.zeros(grid.n, dtype=np.asarray(samples).dtype)
        amp[grid.n // 2 : grid.n // 2 + 2] = samples
        assert PointerState(grid, amp).amplitudes.dtype == dtype


class TestPointerStateIdentity:
    def test_states_compare_and_hash_by_identity(self, gauss):
        moved = shift(gauss, 1.0)
        assert (gauss == moved) is False
        assert gauss == gauss
        assert hash(gauss) != hash(moved)
        assert len({gauss, moved, gauss}) == 2

    def test_peak_is_the_maximum_density(self, gauss):
        assert gauss.peak == float(np.max(np.abs(gauss.amplitudes) ** 2))


def gaussian_samples(grid):
    amp = np.exp(-(grid_points(grid) ** 2) / (2.0 * SPREAD**2)).astype(np.complex128)
    amp /= math.sqrt(np.trapezoid(np.abs(amp) ** 2, grid_points(grid)))
    return amp


class TestPointerStateAdoption:
    def test_adopts_read_only_array_that_owns_its_data(self, grid):
        arr = gaussian_samples(grid)
        arr.flags.writeable = False
        assert PointerState(grid, arr).amplitudes is arr

    @pytest.mark.parametrize("source", ["writeable", "read-only view"])
    def test_copies_and_ignores_later_writes(self, grid, source):
        base = gaussian_samples(grid)
        original = base.copy()
        arr = base
        if source == "read-only view":
            arr = base[:]
            arr.flags.writeable = False
        state = PointerState(grid, arr)
        assert state.amplitudes is not arr
        assert not np.shares_memory(state.amplitudes, base)
        base *= 3.0
        assert np.array_equal(state.amplitudes, original)
        assert state.norm_squared() == float(np.trapezoid(np.abs(original) ** 2, grid_points(grid)))

    def test_amplitudes_are_read_only(self, gauss):
        with pytest.raises(ValueError):
            gauss.amplitudes[0] = 1.0


class TestShift:
    def test_zero_shift_is_identity(self, gauss):
        assert shift(gauss, 0.0) is gauss

    def test_matches_analytic_translation(self, gauss):
        # oracle: re-evaluate the normalized Gaussian at p - 1 on the same grid
        moved = shift(gauss, 1.0)
        p = grid_points(gauss.grid)
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
            # spacing 10.8 > 0.6 spreads: too coarse to build the Gaussian
            (16, 81.0, 1.0, "grid spacing 10.8 is too coarse.*raise grid_points"),
            # spacing 5.56 resolves the state, but the shift carries real
            # density (exp(-25) of the peak) onto the edge
            (37, 100.0, 50.0, "widen the grid"),
        ],
        ids=["coarse", "coverage"],
    )
    def test_edge_failure_names_its_cause(self, n, halfwidth, delta, message):
        with pytest.raises(GridCoverageError, match=message):
            shift(gaussian_pointer(MomentumGrid(-halfwidth, halfwidth, n), SPREAD), delta)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_norm_and_mean_translation_property(self, delta):
        g = gaussian_pointer(MomentumGrid(-120.0, 120.0, 1024), SPREAD)
        moved = shift(g, delta)
        assert moved.norm_squared() == pytest.approx(1.0, abs=1e-10)
        assert mean_momentum(moved) - mean_momentum(g) == pytest.approx(delta, abs=1e-8)

    def test_translation_of_asymmetric_wavefunction(self, grid):
        # two unequal humps: exercises the shift away from the symmetric case
        p = grid_points(grid)
        amp = np.exp(-((p - 2.0) ** 2) / 50.0) + 0.5 * np.exp(-((p + 5.0) ** 2) / 200.0)
        amp = amp.astype(complex)
        amp /= math.sqrt(np.trapezoid(np.abs(amp) ** 2, p))
        state = PointerState(grid, amp)
        for delta in (3.7, -11.2):
            moved = shift(state, delta)
            assert moved.norm_squared() == pytest.approx(1.0, abs=1e-10)
            assert mean_momentum(moved) - mean_momentum(state) == pytest.approx(delta, abs=1e-8)


class TestFilterSpectrum:
    def test_unit_response_returns_the_input(self, gauss):
        same = filter_spectrum(gauss, np.ones_like)
        assert np.max(np.abs(same.amplitudes - gauss.amplitudes)) < 1e-15

    def test_fft_is_called_only_in_filter_spectrum(self):
        """Every reference to an fft module or function in the package, by the
        top-level definition that holds it."""
        sites = set()
        for path in sorted(Path(mzkick.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Attribute):
                        names = [node.attr]
                    elif isinstance(node, (ast.Import, ast.ImportFrom)):
                        names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                    else:
                        continue
                    if any("fft" in name.split(".") for name in names):
                        sites.add((path.name, getattr(top, "name", None)))
        assert sites == {("pointer.py", "filter_spectrum")}


def parent_shift(state: PointerState, delta_kick: float) -> PointerState:
    """shift as first written, with boolean wrap masks over a full density and
    out-of-place transforms: the reference for the wrap band."""
    if delta_kick == 0.0:
        return state
    grid = state.grid
    span = grid.p_max - grid.p_min
    if abs(delta_kick) >= span:
        raise GridCoverageError(f"shift {delta_kick} exceeds the grid span {span}")
    p = grid_points(grid)
    dens = np.abs(state.amplitudes) ** 2
    peak = float(dens.max())
    if delta_kick > 0.0:
        wrap = dens[p > grid.p_max - delta_kick]
    else:
        wrap = dens[p < grid.p_min - delta_kick]
    if wrap.size and float(wrap.max()) >= TAIL_DENSITY_RATIO * peak:
        raise GridCoverageError(f"shift by {delta_kick} would push significant density off-grid")
    freqs = np.fft.fftfreq(grid.n, d=grid.spacing)
    moved = np.fft.ifft(np.fft.fft(state.amplitudes) * np.exp(-2j * np.pi * freqs * delta_kick))
    return PointerState(grid, moved)


def parent_mask(grid: MomentumGrid, delta_kick: float) -> np.ndarray:
    p = grid_points(grid)
    return p > grid.p_max - delta_kick if delta_kick > 0.0 else p < grid.p_min - delta_kick


def box_state(grid: MomentumGrid) -> PointerState:
    """Unit density on the middle half of the grid and none elsewhere, so the
    wrap check turns on whether one sample is in the band."""
    amp = np.zeros(grid.n, dtype=np.complex128)
    amp[grid.n // 4 : 3 * grid.n // 4] = 1.0
    return PointerState(grid, amp)


def boundary_kicks(grid: MomentumGrid) -> list[float]:
    """Exact multiples of the spacing, and kicks that put the band edge on a
    grid point or one ulp either side of it, both signs."""
    p = grid_points(grid)
    kicks = [k * grid.spacing for k in range(1, grid.n - 1)]
    kicks += [grid.p_max - x for x in p[1:]] + [grid.p_min - x for x in p[:-1]]
    kicks += [np.nextafter(k, s) for k in kicks[: grid.n] for s in (-np.inf, np.inf)]
    kicks = [float(k) for k in kicks if k != 0.0]
    return kicks + [-k for k in kicks]


class TestWrapBand:
    @pytest.mark.parametrize("grid", [MomentumGrid(-120.0, 120.0, 256), MomentumGrid(-0.3, 0.7, 101)],
                             ids=["symmetric", "offset"])
    def test_band_equals_parent_masks(self, grid):
        indices = np.arange(grid.n)
        for kick in boundary_kicks(grid):
            assert np.array_equal(indices[_wrap_band(grid, kick)], np.flatnonzero(parent_mask(grid, kick)))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-239.0, max_value=239.0).filter(lambda k: k != 0.0))
    def test_band_equals_parent_masks_property(self, kick):
        grid = MomentumGrid(-120.0, 120.0, 2048)
        indices = np.arange(grid.n)
        assert np.array_equal(indices[_wrap_band(grid, kick)], np.flatnonzero(parent_mask(grid, kick)))

    @pytest.mark.parametrize("make_state", [box_state, lambda g: gaussian_pointer(g, SPREAD)],
                             ids=["box", "gaussian"])
    def test_refuses_exactly_what_the_parent_refuses(self, make_state):
        grid = MomentumGrid(-120.0, 120.0, 256)
        state = make_state(grid)
        kicks = boundary_kicks(grid) + [-240.0, 240.0, 250.0, -1e300, 1e300]
        outcomes = {True: 0, False: 0}
        for kick in kicks:
            try:
                want = parent_shift(state, kick).amplitudes
            except GridCoverageError:
                want = None
            try:
                got = shift(state, kick).amplitudes
            except GridCoverageError:
                got = None
            assert (got is None) == (want is None), kick
            if got is not None:
                assert got.tobytes() == want.tobytes(), kick
            outcomes[got is None] += 1
        assert outcomes[True] and outcomes[False]

    def test_refuses_nan(self, gauss):
        with pytest.raises(GridCoverageError, match="exceeds the grid span"):
            shift(gauss, math.nan)


class TestMeanMomentum:
    def test_symmetric_superposition_sits_halfway(self, gauss):
        # (phi(p) + phi(p - d)) is symmetric about d/2 for every d
        for delta in (1.0, 8.0, 25.0):
            summed = gauss.amplitudes + shift(gauss, delta).amplitudes
            p = grid_points(gauss.grid)
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
        assert got == pytest.approx(visibility(1.0, SPREAD), abs=1e-8)
        assert got == pytest.approx(0.9975031223974601, abs=1e-8)

    def test_large_shift_closed_form(self, gauss):
        got = abs(overlap(gauss, shift(gauss, 40.0)))
        assert got == pytest.approx(visibility(40.0, SPREAD), abs=1e-8)
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
            assert got == pytest.approx(visibility(delta, SPREAD), abs=1e-8)

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


# Grid sizes on either side of a block edge: one block, exactly one, one more
# sample (one more interval: still one integration block), two more, and a
# grid of three full blocks and a short one.
BLOCK_EDGE_SIZES = [16, GRID_BLOCK, GRID_BLOCK + 1, GRID_BLOCK + 2, 3 * GRID_BLOCK + 5]
MULTI_BLOCK = 3 * GRID_BLOCK + 5  # odd, so the spectrum has no Nyquist bin


def bump_state(grid: MomentumGrid) -> PointerState:
    """A Gaussian a tenth of the grid wide: dead at both edges at any n."""
    width = (grid.p_max - grid.p_min) / 20.0
    return PointerState(grid, np.exp(-((grid_points(grid) / width) ** 2)).astype(np.complex128))


class TestGridBlocks:
    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_blocks_cover_every_sample_once(self, n):
        blocks = grid_blocks(n)
        assert [i for s in blocks for i in range(n)[s]] == list(range(n))
        assert all(s.stop - s.start == GRID_BLOCK for s in blocks[:-1])

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_integrate_takes_every_interval_once(self, n):
        grid = MomentumGrid(-1.0, 1.0, n)
        read = []

        def sample(s):
            read.append(s)
            return np.ones(len(range(n)[s]))

        assert grid.integrate(sample) == pytest.approx(2.0, rel=1e-12)
        read.sort(key=lambda s: s.start)  # blocks run on any thread in any order
        assert 0 == read[0].start and read[-1].stop == n
        # Neighbouring blocks share one end point, so every interval
        # (i, i + 1) lies in exactly one block.
        assert all(a.stop - 1 == b.start for a, b in zip(read, read[1:]))
        assert [i for s in read for i in range(s.start, s.stop - 1)] == list(range(n - 1))
        assert len(read) == -(-(n - 1) // GRID_BLOCK)

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_integrate_agrees_with_numpy_trapezoid(self, n, dtype):
        rng = np.random.default_rng(n)
        grid = MomentumGrid(-3.0, 7.0, n)
        y = rng.standard_normal(n).astype(dtype)
        if dtype is np.complex128:
            y.imag = rng.standard_normal(n)
        got, want = grid.integrate(lambda s: y[s]), np.trapezoid(y, grid_points(grid))
        if n <= GRID_BLOCK + 1:  # one block: numpy's own expression
            assert got.tobytes() == want.tobytes()
            return
        # The block sums are added in order, where numpy sums all terms
        # pairwise; each order is within (log2(n) + 8) eps of the summed
        # magnitudes, so the two differ by at most 64 eps of them.
        terms = np.diff(grid_points(grid)) * (y[1:] + y[:-1]) / 2.0
        assert abs(got - want) <= 64 * sys.float_info.epsilon * np.sum(np.abs(terms))

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_spectrum_blocks_see_numpy_frequencies(self, n):
        state = bump_state(MomentumGrid(-10.0, 10.0, n))
        seen = []

        def response(freqs):
            seen.append(freqs.copy())
            return np.ones(freqs.size, dtype=np.complex128)

        filter_spectrum(state, response)
        # Blocks run on any thread in any order: the blocks seen, as a multiset.
        freqs = np.fft.fftfreq(n, d=state.grid.spacing)
        assert sorted(f.tobytes() for f in seen) == sorted(freqs[s].tobytes() for s in grid_blocks(n))

    @pytest.mark.parametrize("kick", [13.7, -0.3])
    def test_shift_matches_the_whole_array_reference(self, kick):
        state = gaussian_pointer(MomentumGrid(-120.0, 120.0, MULTI_BLOCK), SPREAD)
        got = shift(state, kick).amplitudes
        assert got.tobytes() == parent_shift(state, kick).amplitudes.tobytes()

    @pytest.mark.parametrize("where", [1, GRID_BLOCK - 1, GRID_BLOCK, 2 * GRID_BLOCK + 7, MULTI_BLOCK - 2])
    def test_peak_is_the_maximum_density_at_any_n(self, where):
        rng = np.random.default_rng(where)
        amp = rng.standard_normal(MULTI_BLOCK) + 1j * rng.standard_normal(MULTI_BLOCK)
        amp[where] = 9.0 - 7.0j
        amp[0] = amp[-1] = 0.0
        state = PointerState(MomentumGrid(-1.0, 1.0, MULTI_BLOCK), amp)
        assert state.peak == float(np.max(np.abs(amp) ** 2))

    @pytest.mark.parametrize("where", [None, 1, GRID_BLOCK, MULTI_BLOCK - 2], ids=["all", "1", "block", "last"])
    def test_a_nan_sample_is_refused_at_any_n(self, where):
        # A nan peak passed both the zero check and the tail check.
        grid = MomentumGrid(-120.0, 120.0, MULTI_BLOCK)
        amp = np.full(MULTI_BLOCK, math.nan) if where is None else gaussian_samples(grid)
        amp[where or 0] = math.nan
        with pytest.raises(ConstraintViolationError, match="wavefunction has a nan sample"):
            PointerState(grid, amp)

    def test_a_sample_whose_square_overflows_is_refused(self):
        # The peak was inf, the tail check passed, and the norm overflowed.
        amp = np.full(64, 1e150)
        amp[32] = 1e200
        with pytest.raises(ConstraintViolationError, match="peak density overflows to inf"):
            PointerState(MomentumGrid(-1.0, 1.0, 64), amp)

    def test_a_density_whose_sum_overflows_is_not_normalized(self):
        # The peak, 1.69e308, is finite; the trapezoid sums overflow to inf, and
        # the first moment's to inf - inf, with RuntimeWarnings only.
        amp = np.zeros(64)
        amp[8:56] = 1.3e154
        state = PointerState(MomentumGrid(-1.0, 1.0, 64), amp)
        assert state.norm_squared() == math.inf
        for check in (state.require_normalized, lambda: mean_momentum(state)):
            with pytest.raises(ConstraintViolationError, match="pointer state not normalized: integral = inf"):
                check()

    @pytest.mark.parametrize("n", [4096, 196613])
    @pytest.mark.parametrize("kick", [0.0, 13.7, -0.3])
    def test_mean_momentum_keeps_the_bits_of_the_first_moment_integral(self, n, kick):
        grid = MomentumGrid(-120.0, 120.0, n)
        state = shift(gaussian_pointer(grid, SPREAD), kick)
        amp = state.amplitudes
        want = float(grid.integrate(lambda s: grid.block_points(s) * np.abs(amp[s]) ** 2))
        assert np.float64(mean_momentum(state)).tobytes() == np.float64(want).tobytes()

    def test_moments_at_a_multi_block_grid(self):
        state = gaussian_pointer(MomentumGrid(-120.0, 120.0, MULTI_BLOCK), SPREAD)
        moved = shift(state, 13.7)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)
        assert mean_momentum(moved) == pytest.approx(13.7, abs=1e-10)
        assert abs(overlap(state, moved)) == pytest.approx(visibility(13.7, SPREAD), abs=1e-12)


@st.composite
def grid_and_kick(draw):
    """A grid of any bounds and a size about a block edge, and a kick whose band
    edge lands on a sample or between two, of either sign."""
    ends = draw(st.lists(st.floats(min_value=-1e100, max_value=1e100), min_size=2, max_size=2, unique=True))
    n = draw(st.one_of(st.sampled_from([16, GRID_BLOCK, GRID_BLOCK + 1, GRID_BLOCK + 2, 2 * GRID_BLOCK + 1]),
                       st.integers(min_value=16, max_value=2 * GRID_BLOCK + 1)))
    assume((max(ends) - min(ends)) / (n - 1) > 0.0)  # linspace scales otherwise at spacing 0
    grid = MomentumGrid(min(ends), max(ends), n)
    p = grid_points(grid)
    j = draw(st.integers(min_value=0, max_value=n - 2))
    edge = p[j] if draw(st.booleans()) else p[j] / 2.0 + p[j + 1] / 2.0
    kick = grid.p_max - edge if draw(st.booleans()) else grid.p_min - edge
    return grid, kick


class TestBlockPoints:
    @settings(max_examples=60, deadline=None)
    @given(grid_and_kick())
    def test_blocks_and_wrap_band_match_linspace(self, case):
        grid, kick = case
        p = grid_points(grid)
        n = grid.n
        integration = [slice(a, min(a + GRID_BLOCK, n - 1) + 1) for a in range(0, n - 1, GRID_BLOCK)]
        for s in grid_blocks(n) + integration + [slice(0, n)]:
            assert grid.block_points(s).tobytes() == p[s].tobytes(), s
        if kick > 0.0:
            want = slice(int(np.searchsorted(p, grid.p_max - kick, side="right")), None)
        else:
            want = slice(0, int(np.searchsorted(p, grid.p_min - kick, side="left")))
        indices = np.arange(n)
        assert np.array_equal(indices[_wrap_band(grid, kick)], indices[want])


class TestBlockMap:
    """block_map on the pool: forced by reporting four usable CPUs."""

    @pytest.fixture(autouse=True)
    def pooled(self, monkeypatch):
        monkeypatch.setattr(pointer, "_cpus", lambda: 4)

    def test_results_come_in_block_order_from_worker_threads(self):
        blocks = grid_blocks(5 * GRID_BLOCK + 3)
        got = block_map(lambda s: (s.start, threading.get_ident()), blocks)
        assert [start for start, _ in got] == [s.start for s in blocks]
        assert threading.get_ident() not in {ident for _, ident in got}

    def test_one_block_or_one_cpu_runs_inline(self, monkeypatch):
        here = threading.get_ident()
        assert block_map(lambda s: threading.get_ident(), grid_blocks(GRID_BLOCK)) == [here]
        monkeypatch.setattr(pointer, "_cpus", lambda: 1)
        assert set(block_map(lambda s: threading.get_ident(), grid_blocks(3 * GRID_BLOCK))) == {here}

    def test_caller_errstate_holds_in_the_workers(self):
        # Without it a worker takes numpy's default, divide="warn", and the
        # test configuration turns that RuntimeWarning into an error.
        def log_of_zero(s):
            return threading.get_ident(), float(np.log(np.zeros(4))[0])

        with np.errstate(divide="ignore"):
            got = block_map(log_of_zero, grid_blocks(4 * GRID_BLOCK))
        assert [value for _, value in got] == [-math.inf] * 4
        assert threading.get_ident() not in {ident for ident, _ in got}

    def test_an_integrate_inside_an_integrate_runs_inline(self, monkeypatch):
        # The inner passes run on the worker of their outer block: queued on
        # the pool, they would wait forever once outer blocks held every
        # worker. Two outer blocks leave two of the four workers free, so a
        # queued inner pass would run elsewhere instead of hanging the test.
        inner = MomentumGrid(-1.0, 1.0, 2 * GRID_BLOCK + 1)
        outer = MomentumGrid(-3.0, 3.0, 2 * GRID_BLOCK + 1)
        elsewhere = []

        def sample(s):
            here = threading.get_ident()

            def ones(t):
                elsewhere.append(threading.get_ident() != here)
                return np.ones(t.stop - t.start)

            return np.full(s.stop - s.start, inner.integrate(ones))

        pooled = outer.integrate(sample)
        assert elsewhere == [False] * 4
        monkeypatch.setattr(pointer, "_cpus", lambda: 1)
        assert pooled.tobytes() == outer.integrate(sample).tobytes()

    def test_an_exception_in_a_worker_reaches_the_caller(self):
        running = []

        def refuse_first(s):
            running.append(s.start)
            if s.start == 0:
                raise GridCoverageError("first block")
            time.sleep(0.05)
            running.remove(s.start)
            return s.start

        with pytest.raises(GridCoverageError, match="^first block$"):
            block_map(refuse_first, grid_blocks(4 * GRID_BLOCK))
        assert running == [0]  # every other block that started has ended
