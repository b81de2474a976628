"""Mirror momentum wavefunctions on a uniform grid.

The mirror is a quantum pointer described entirely by its momentum
wavefunction phi(p). States are sampled on a uniform grid wide enough that
both tails are negligible; all integrals use the trapezoidal rule, which is
spectrally accurate once the tails are dead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintViolationError, GridCoverageError, GridMismatchError

# Tail-capture requirement: edge density relative to the peak.
TAIL_DENSITY_RATIO = 1e-12
DEFAULT_GRID_POINTS = 4096

# Gaussian coverage margin: the grid must reach this many spreads past the
# wavepacket center (exp(-64) ~ 1.6e-28, far below TAIL_DENSITY_RATIO).
COVERAGE_SPREADS = 8.0


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum grid with n samples on [p_min, p_max]."""

    p_min: float
    p_max: float
    n: int

    def __post_init__(self) -> None:
        if not self.p_max > self.p_min:
            raise ConstraintViolationError(f"need p_max > p_min, got [{self.p_min}, {self.p_max}]")
        if self.n < 16:
            raise ConstraintViolationError(f"need at least 16 grid points, got {self.n}")

    @property
    def spacing(self) -> float:
        return (self.p_max - self.p_min) / (self.n - 1)

    @cached_property
    def points(self) -> np.ndarray:
        p = np.linspace(self.p_min, self.p_max, self.n)
        p.flags.writeable = False
        return p


def default_grid(
    delta_spread: float, max_shift: float = 0.0, n: int = DEFAULT_GRID_POINTS
) -> MomentumGrid:
    """Symmetric grid covering a centered Gaussian of the given spread plus the
    largest shift it will undergo."""
    if delta_spread <= 0.0:
        raise ConstraintViolationError(f"delta_spread must be positive, got {delta_spread}")
    half = abs(max_shift) + COVERAGE_SPREADS * delta_spread
    return MomentumGrid(-half, half, n)


@dataclass(frozen=True)
class PointerState:
    """Complex wavefunction samples phi(p_k) on a momentum grid."""

    grid: MomentumGrid
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amp.shape != (self.grid.n,):
            raise ConstraintViolationError(
                f"amplitudes shape {amp.shape} does not match grid with n={self.grid.n}"
            )
        peak = float(np.max(np.abs(amp) ** 2))
        if peak == 0.0:
            raise ConstraintViolationError("wavefunction is identically zero")
        # Tail capture: the grid must contain essentially all the density.
        if abs(amp[0]) ** 2 >= TAIL_DENSITY_RATIO * peak or abs(amp[-1]) ** 2 >= TAIL_DENSITY_RATIO * peak:
            raise GridCoverageError(
                "wavefunction density at the grid edges exceeds "
                f"{TAIL_DENSITY_RATIO} of the peak; widen the grid"
            )
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm_squared(self) -> float:
        return float(np.trapezoid(self.density(), self.grid.points))

    def require_normalized(self, tol: float = 1e-8) -> None:
        nsq = self.norm_squared()
        if abs(nsq - 1.0) > tol:
            raise ConstraintViolationError(f"pointer state not normalized: integral = {nsq!r}")


def gaussian_pointer(grid: MomentumGrid, delta_spread: float) -> PointerState:
    """Normalized samples of exp(-p^2 / (2 spread^2)) centered at p = 0, on a
    grid that both covers and resolves the Gaussian."""
    if delta_spread <= 0.0:
        raise ConstraintViolationError(f"delta_spread must be positive, got {delta_spread}")
    margin = COVERAGE_SPREADS * delta_spread
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
    p = grid.points
    amp = np.exp(-(p * p) / (2.0 * delta_spread * delta_spread)).astype(np.complex128)
    amp /= math.sqrt(float(np.trapezoid(np.abs(amp) ** 2, p)))
    return PointerState(grid, amp)


def shift(state: PointerState, delta_kick: float) -> PointerState:
    """Translate the wavefunction: phi(p) -> phi(p - delta_kick).

    Implemented by phase multiplication in the conjugate domain, so the shift
    is exact for band-limited states and delta_kick need not be a grid
    multiple. The transform is circular, so any sample band that would wrap
    around must carry no density.
    """
    if delta_kick == 0.0:
        return state
    grid = state.grid
    span = grid.p_max - grid.p_min
    if abs(delta_kick) >= span:
        raise GridCoverageError(f"shift {delta_kick} exceeds the grid span {span}")
    p = grid.points
    dens = state.density()
    peak = float(dens.max())
    if delta_kick > 0.0:
        wrap = dens[p > grid.p_max - delta_kick]
    else:
        wrap = dens[p < grid.p_min - delta_kick]
    if wrap.size and float(wrap.max()) >= TAIL_DENSITY_RATIO * peak:
        raise GridCoverageError(
            f"shift by {delta_kick} would push significant density off-grid"
        )
    freqs = np.fft.fftfreq(grid.n, d=grid.spacing)
    moved = np.fft.ifft(np.fft.fft(state.amplitudes) * np.exp(-2j * np.pi * freqs * delta_kick))
    return PointerState(grid, moved)


def mean_momentum(state: PointerState) -> float:
    """First moment of the momentum density of a normalized state."""
    state.require_normalized()
    p = state.grid.points
    return float(np.trapezoid(p * state.density(), p))


def overlap(s1: PointerState, s2: PointerState) -> complex:
    """Inner product <phi1|phi2> of two states on the same grid."""
    if s1.grid != s2.grid:
        raise GridMismatchError(f"grids differ: {s1.grid} vs {s2.grid}")
    p = s1.grid.points
    return complex(np.trapezoid(np.conj(s1.amplitudes) * s2.amplitudes, p))
