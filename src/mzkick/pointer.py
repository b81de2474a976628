"""Mirror momentum wavefunctions on a uniform grid.

The mirror is a quantum pointer described entirely by its momentum
wavefunction phi(p). States are sampled on a uniform grid wide enough that
both tails are negligible; all integrals use the trapezoidal rule, which is
spectrally accurate once the tails are dead. Every pass over a grid works in
blocks of GRID_BLOCK samples, so its temporaries, the sample points among them,
are the size of a block, not of the grid; a grid of up to GRID_BLOCK points is
one block. block_map runs the blocks of a pass on one worker thread per usable
CPU and returns their results in block order; each block is computed by the
same operations whichever thread runs it, and the results are combined in
block order, so the bits do not depend on the number of workers.
"""

from __future__ import annotations

import bisect
import contextvars
import math
import operator
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

import numpy as np

from .errors import ConstraintViolationError, GridCoverageError, GridMismatchError

# Tail-capture requirement: edge density relative to the peak.
TAIL_DENSITY_RATIO = 1e-12
DEFAULT_GRID_POINTS = 4096

# Gaussian coverage margin: the grid must reach this many spreads past the
# wavepacket center (exp(-64) ~ 1.6e-28, far below TAIL_DENSITY_RATIO).
COVERAGE_SPREADS = 8.0

# Samples per block of a grid pass (trapezoid intervals per block in integrate).
GRID_BLOCK = 2**16


def grid_blocks(n: int) -> list[slice]:
    """The slices of GRID_BLOCK samples, the last one shorter, that cover n samples in order."""
    return [slice(start, min(start + GRID_BLOCK, n)) for start in range(0, n, GRID_BLOCK)]


def block_map(fn: Callable[[slice], object], blocks: list[slice]) -> list:
    """[fn(s) for s in blocks], in block order.

    With two or more blocks and two or more usable CPUs the blocks run on a
    thread pool with one worker per CPU, each in a copy of the caller's
    contextvars context, so a numpy errstate the caller set holds in them;
    otherwise they run inline. fn runs on any thread in any order, so it may
    write only to its own block. A block_map called from a block, such as an
    integrate inside an integrate's sample, runs inline on that block's worker:
    on the pool it would wait for workers that are all waiting in turn. An
    exception raised in a block reaches the caller as it was raised.
    """
    if len(blocks) < 2 or _cpus() < 2 or getattr(_worker, "in_pool", False):
        return [fn(s) for s in blocks]
    pool = _pool(_cpus())
    futures = [pool.submit(contextvars.copy_context().run, fn, s) for s in blocks]
    try:
        return [f.result() for f in futures]
    finally:
        from concurrent.futures import wait

        for f in futures:  # the blocks not yet started, once one has raised
            f.cancel()
        wait(futures)  # no block runs on after block_map returns


@cache
def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


# Marks the threads of the block pools, on which block_map runs inline.
_worker = threading.local()


def _mark_worker() -> None:
    _worker.in_pool = True


@cache
def _pool(workers: int):
    """The pool of the given number of block workers, built on first use."""
    # Imported on first use (about 8 ms and 0.7 MiB), so a run whose grids are
    # one block never pays for it.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="grid-block", initializer=_mark_worker)


def trapezoid(widths: np.ndarray, y: np.ndarray) -> np.inexact:
    """The trapezoidal sum of samples y over intervals of the given widths, in
    the expression numpy 2.4's np.trapezoid evaluates."""
    return (widths * (y[1:] + y[:-1]) / 2.0).sum()


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid with n samples on [p_min, p_max].

    The sample points are not stored: block_points makes those of a block when
    a pass needs them. Only the first block's points (at most GRID_BLOCK + 1)
    are kept, so a one-block grid reads the same array on every pass.
    """

    p_min: float
    p_max: float
    n: int

    def __post_init__(self) -> None:
        if not self.p_max > self.p_min:
            raise ConstraintViolationError(f"need p_max > p_min, got [{self.p_min}, {self.p_max}]")
        if self.n < 16:
            raise ConstraintViolationError(f"need at least 16 grid points, got {self.n}")
        if not 0.0 < self.spacing < math.inf:
            raise ConstraintViolationError(
                f"grid spacing {self.spacing!r} of [{self.p_min}, {self.p_max}] over {self.n} points "
                "must be finite and nonzero"
            )

    @property
    def spacing(self) -> float:
        return (self.p_max - self.p_min) / (self.n - 1)

    def block_points(self, s: slice) -> np.ndarray:
        """The points p[s] of a block s, with the bits of np.linspace(p_min, p_max, n)[s]:
        i * spacing + p_min for each index i, and p_max at index n - 1 (linspace scales
        otherwise only where the spacing underflows to 0). A block within the first
        GRID_BLOCK + 1 points is a read-only view of the cached array of them."""
        if s.stop <= GRID_BLOCK + 1:
            return self._first_points[s]
        return self._points(s.start, s.stop)

    @cached_property
    def _first_points(self) -> np.ndarray:
        p = self._points(0, min(self.n, GRID_BLOCK + 1))
        p.flags.writeable = False
        return p

    def _points(self, start: int, stop: int) -> np.ndarray:
        p = np.arange(start, stop, dtype=np.float64)  # exact integers
        p *= self.spacing
        p += self.p_min
        if stop == self.n:
            p[-1] = self.p_max
        return p

    @cached_property
    def _first_widths(self) -> np.ndarray:
        """The interval widths np.diff(p) of the first integration block.
        Kept because a one-block grid integrates thousands of times per scan:
        taking them anew made a 4,096-point decoherence kick about 20% slower."""
        return np.diff(self._first_points)

    def interval_map(self, fn: Callable[[slice, np.ndarray, np.ndarray], object]) -> list:
        """[fn(s, p[s], np.diff(p[s])) for each integration block s], in order, by block_map.

        The intervals are taken GRID_BLOCK at a time; neighbouring blocks share
        their end point, so each interval lies in exactly one block. A block's
        points are made once, for its widths and for fn.
        """
        def run(s: slice):
            p = self.block_points(s)
            return fn(s, p, self._first_widths if s.start == 0 else np.diff(p))

        last = self.n - 1
        return block_map(run, [slice(a, min(a + GRID_BLOCK, last) + 1) for a in range(0, last, GRID_BLOCK)])

    def integrate(self, sample: Callable[[slice], np.ndarray]) -> np.inexact:
        """Trapezoidal integral over the grid of the samples y, read as
        y[s] = sample(s) on each integration block s.

        The sums of the interval_map blocks are added in order. A grid of up to
        GRID_BLOCK + 1 points is one block: the same expression, and so the
        same bits, as np.trapezoid(y, np.linspace(p_min, p_max, n)). sample
        must be pure: the blocks run on any thread in any order.
        """
        return reduce(operator.add, self.interval_map(lambda s, _, widths: trapezoid(widths, sample(s))))


def default_halfwidth(delta_spread: float, max_shift: float = 0.0) -> float:
    """The half-width of a symmetric grid that covers a centered Gaussian of the
    given spread plus the largest shift it will undergo: COVERAGE_SPREADS
    spreads past the shift."""
    if not 0.0 < delta_spread < math.inf:  # also refuses nan
        raise ConstraintViolationError(f"delta_spread must be positive and finite, got {delta_spread}")
    return abs(max_shift) + COVERAGE_SPREADS * delta_spread


@dataclass(frozen=True, eq=False)
class PointerState:
    """Wavefunction samples phi(p_k) on a momentum grid.

    Real samples (bool, integer or float) are stored as float64, any others as
    complex128: a real state, such as a Gaussian pointer, takes half the memory,
    and every pass reads x as the complex (x, +0.0) it would have stored. Only
    the amplitudes are stored; a pass that needs the points p_k takes
    them block by block from grid.block_points.

    The amplitudes are read-only. A read-only array that owns its data is
    adopted as it is, so its maker hands it over and writes it no more; any
    other array (writeable, or a view of another array) is copied. The peak
    density and the norm are computed once per state. States compare and hash
    by identity.

    Adoption is a contract, not a check: the maker of an adopted array must
    not set it writeable again, because the cached peak and norm assume it
    never changes. The hand-over sites are filter_spectrum (the filtered
    spectrum, transformed back in place) and gaussian_pointer (its samples).
    normalized_mean runs check_samples and check_norm on the conditional
    pointer of weak_measurement.postselect, which builds no state.
    """

    grid: MomentumGrid
    amplitudes: np.ndarray
    peak: float = field(init=False, repr=False)  # peak density max |phi(p_k)|^2

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes)
        amp = np.asarray(amp, dtype=np.float64 if amp.dtype.kind in "biuf" else np.complex128)
        if amp.flags.writeable or not amp.flags.owndata:
            amp = amp.copy()
        if amp.shape != (self.grid.n,):
            raise ConstraintViolationError(
                f"amplitudes shape {amp.shape} does not match grid with n={self.grid.n}"
            )
        peak = _peak_density(amp)
        check_samples(peak, abs(amp[0]), abs(amp[-1]))
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "peak", peak)

    def norm_squared(self) -> float:
        return self._norm_squared

    @cached_property
    def _norm_squared(self) -> float:
        amp = self.amplitudes
        with np.errstate(over="ignore"):  # a density that sums past the largest float is inf
            return float(self.grid.integrate(lambda s: np.abs(amp[s]) ** 2))

    def require_normalized(self) -> None:
        check_norm(self.norm_squared())


def check_samples(peak: float, first: float, last: float) -> None:
    """The checks every pointer state passes, on numbers taken from its samples:
    the peak density is nonzero, and the edge magnitudes first = |phi(p_min)|
    and last = |phi(p_max)| carry less than TAIL_DENSITY_RATIO of it. They
    raise in that order. A nan sample makes the peak nan, and a sample whose
    square overflows makes it inf; both are refused before the tail check,
    whose comparisons a nan peak would pass and an inf one could not judge."""
    if peak == 0.0:
        raise ConstraintViolationError("wavefunction is identically zero")
    if math.isnan(peak):
        raise ConstraintViolationError("wavefunction has a nan sample")
    if peak == math.inf:
        raise ConstraintViolationError("wavefunction peak density overflows to inf")
    # Tail capture: the grid must contain essentially all the density.
    if first**2 >= TAIL_DENSITY_RATIO * peak or last**2 >= TAIL_DENSITY_RATIO * peak:
        raise GridCoverageError(
            "wavefunction density at the grid edges exceeds "
            f"{TAIL_DENSITY_RATIO} of the peak; widen the grid"
        )


def check_norm(norm_squared: float) -> None:
    """The check of a normalized pointer state: its norm lies within 1e-8 of 1 (a nan norm does not)."""
    if not abs(norm_squared - 1.0) <= 1e-8:
        raise ConstraintViolationError(f"pointer state not normalized: integral = {norm_squared!r}")


def gaussian_pointer(grid: MomentumGrid, delta_spread: float) -> PointerState:
    """Normalized samples of exp(-p^2 / (2 spread^2)) centered at p = 0, on a
    grid that both covers and resolves the Gaussian.

    The samples are real, so the state holds them as float64. Each is scaled
    by 1 / sqrt(norm), which is how numpy divides a complex array by a real
    number: they are, bit for bit, the real parts of complex samples divided
    by sqrt(norm)."""
    margin = default_halfwidth(delta_spread)
    if grid.p_min > -margin or grid.p_max < margin:
        raise GridCoverageError(
            f"grid [{grid.p_min}, {grid.p_max}] must extend at least +-{margin} "
            f"around 0 for spread {delta_spread}"
        )
    # Resolution: the spectrum's power at the top FFT frequency, relative to its
    # peak, is exp(-(pi*spread/spacing)^2); past TAIL_DENSITY_RATIO (spacing
    # above ~0.6 spreads) a shift rings into the grid edges.
    max_spacing = math.pi * delta_spread / math.sqrt(-math.log(TAIL_DENSITY_RATIO))
    if grid.spacing > max_spacing:
        raise GridCoverageError(
            f"grid spacing {grid.spacing:.6g} is too coarse for spread {delta_spread} "
            f"(at most {max_spacing:.6g}); raise grid_points"
        )
    amp = np.empty(grid.n)

    def fill(s: slice) -> None:
        p = grid.block_points(s)
        amp[s] = np.exp(-(p * p) / (2.0 * delta_spread * delta_spread))

    block_map(fill, grid_blocks(grid.n))
    scale = 1.0 / math.sqrt(float(grid.integrate(lambda s: np.abs(amp[s]) ** 2)))
    block_map(lambda s: np.multiply(amp[s], scale, out=amp[s]), grid_blocks(grid.n))
    amp.flags.writeable = False
    return PointerState(grid, amp)


def shift(state: PointerState, delta_kick: float) -> PointerState:
    """Translate the wavefunction: phi(p) -> phi(p - delta_kick).

    Implemented by phase multiplication in the conjugate domain, so the shift
    is exact for band-limited states and delta_kick need not be a grid
    multiple. The transform is circular, so any sample band that would wrap
    around must carry no density. A zero kick returns the state itself.
    """
    return next(shifts(state, [delta_kick]))


def shifts(state: PointerState, kicks: Sequence[float]) -> Iterator[PointerState]:
    """shift(state, kick) for each kick in order, each made as it is read, from
    one forward transform of the state (filter_spectrum).

    Each kick's span and wrap checks run when it is read, so the kicks before
    a refused one are made first and the first refused kick raises. The
    iterator holds no kick's state once it is handed out.
    """
    grid = state.grid
    span = grid.p_max - grid.p_min

    def phase(delta_kick: float) -> Callable[[np.ndarray], np.ndarray]:
        def response(freqs: np.ndarray) -> np.ndarray:  # exp(-2*pi*i*f*delta), in place
            factor = -2j * np.pi * freqs
            factor *= delta_kick
            return np.exp(factor, out=factor)

        return response

    spectra = filter_spectrum(state, [None if kick == 0.0 else phase(kick) for kick in kicks])
    for kick in kicks:
        if kick != 0.0:
            if not abs(kick) < span:  # also refuses nan
                raise GridCoverageError(f"shift {kick} exceeds the grid span {span}")
            wrap = state.amplitudes[_wrap_band(grid, kick)]
            if wrap.size and _peak_density(wrap) >= TAIL_DENSITY_RATIO * state.peak:
                raise GridCoverageError(f"shift by {kick} would push significant density off-grid")
        yield next(spectra)


def filter_spectrum(
    state: PointerState, responses: Sequence[Callable[[np.ndarray], np.ndarray] | None]
) -> Iterator[PointerState]:
    """ifft(fft(phi) * response(f)), f = fftfreq(n, d=spacing), for each response
    in order, each made as it is read; the state itself for a None response.
    The one FFT path.

    The state is transformed once, when the first response that is not None is
    read: it is copied a block at a time into a complex buffer, which the
    forward transform works on in place (numpy's fft has complex loops only, so
    transforming a real state directly would first cast it to a whole-grid
    complex copy). Each response then writes spectrum * response(f) a block at
    a time into a buffer of its own, which is transformed back in place; the
    last response that is not None multiplies the spectrum itself, so one
    response allocates one grid array, and many hold the spectrum plus the
    buffer being read. Neither the full factor nor the full frequency array is
    ever built. A response must be pure: its blocks run on any thread in any
    order.
    """
    grid = state.grid
    n = grid.n
    last = max((i for i, response in enumerate(responses) if response is not None), default=-1)
    # The bits of np.fft.fftfreq(n, d): the bins k, wrapped to k - n from
    # k = (n + 1) // 2 on, times 1 / (n * d).
    scale = 1.0 / (n * grid.spacing)
    spectrum = None

    def filtered(response: Callable[[np.ndarray], np.ndarray], in_place: bool) -> np.ndarray:
        nonlocal spectrum
        if spectrum is None:
            amp = state.amplitudes
            spectrum = np.empty(n, dtype=np.complex128)
            block_map(lambda s: np.copyto(spectrum[s], amp[s]), grid_blocks(n))
            np.fft.fft(spectrum, out=spectrum)
        out = spectrum if in_place else np.empty(n, dtype=np.complex128)

        def multiply(s: slice) -> None:
            bins = np.arange(s.start, s.stop)
            wrapped = bins[max((n + 1) // 2 - s.start, 0):]
            wrapped -= n
            # The spectrum stays the left operand: F * P, which P * F need not
            # match bit for bit (fused multiply-add).
            np.multiply(spectrum[s], response(bins * scale), out=out[s])

        block_map(multiply, grid_blocks(n))
        if in_place:
            spectrum = None  # handed over with the last state
        np.fft.ifft(out, out=out)
        out.flags.writeable = False
        return out

    # Each state is made in the yield expression, so the generator keeps no
    # state or buffer between reads: the one handed out before is freed with
    # its reader's last reference.
    for i, response in enumerate(responses):
        yield state if response is None else PointerState(grid, filtered(response, i == last))


def _wrap_band(grid: MomentumGrid, delta_kick: float) -> slice:
    """The samples a shift by delta_kick carries past the far edge: those with
    p > p_max - delta_kick for a positive kick, p < p_min - delta_kick otherwise.

    A binary search over the sample indices that makes each probed point alone,
    so no array of points is built: the steps, and so the bound, of
    np.searchsorted on np.linspace(p_min, p_max, n).
    """
    def point(i: int) -> float:
        return grid.block_points(slice(i, i + 1))[0]

    if delta_kick > 0.0:
        return slice(bisect.bisect_right(range(grid.n), grid.p_max - delta_kick, key=point), None)
    return slice(0, bisect.bisect_left(range(grid.n), grid.p_min - delta_kick, key=point))


def _peak_density(amp: np.ndarray) -> float:
    """max |amp|^2 over a non-empty array, as the square of the blockwise max
    of |amp|: squaring is monotonic, so the bits are those of max(|amp|**2),
    and np.maximum passes a nan on as np.max does."""
    return peak_of(block_map(lambda s: np.abs(amp[s]).max(), grid_blocks(amp.size)))


def peak_of(maxima: list) -> float:
    """The peak density from the maxima of |amp| over blocks that cover the array."""
    top = float(reduce(np.maximum, maxima))
    return top * top


def normalized_mean(grid: MomentumGrid, magnitude: Callable[[slice], np.ndarray]) -> float:
    """First moment of the density m**2 of a normalized pointer, where
    magnitude(s) gives m = |phi| on integration block s as a fresh array (the
    pass squares it in place); magnitude must be pure. One interval_map pass
    takes each block's max of m, its edge samples and the trapezoid sums of
    m**2 and p * m**2, which pass check_samples, then check_norm. Overflow and
    invalid operations raise no warning: a norm they make inf or nan fails check_norm."""

    def moments(s: slice, p: np.ndarray, widths: np.ndarray) -> tuple:
        m = magnitude(s)
        top, first, last = m.max(), m[0], m[-1]
        dens = np.square(m, out=m)
        return top, first, last, trapezoid(widths, dens), trapezoid(widths, np.multiply(p, dens, out=dens))

    with np.errstate(over="ignore", invalid="ignore"):
        tops, firsts, lasts, norms, means = zip(*grid.interval_map(moments))
    check_samples(peak_of(tops), firsts[0], lasts[-1])
    check_norm(float(reduce(operator.add, norms)))
    return float(reduce(operator.add, means))


def mean_momentum(state: PointerState) -> float:
    """First moment of the momentum density of a normalized state."""
    amp = state.amplitudes
    return normalized_mean(state.grid, lambda s: np.abs(amp[s]))


def overlap(s1: PointerState, s2: PointerState) -> complex:
    """Inner product <phi1|phi2> of two states on the same grid.

    A real block of phi1 is made complex before it is conjugated, so its
    conjugate carries the -0.0 imaginary parts of the complex one."""
    if s1.grid != s2.grid:
        raise GridMismatchError(f"grids differ: {s1.grid} vs {s2.grid}")
    a1, a2 = s1.amplitudes, s2.amplitudes
    return complex(s1.grid.integrate(lambda s: np.conj(a1[s].astype(np.complex128, copy=False)) * a2[s]))
