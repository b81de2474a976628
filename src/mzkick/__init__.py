"""Quantum and classical momentum bookkeeping for a Mach-Zehnder interferometer
whose internal mirror is silvered on both sides.

One output beam is folded back onto the outside of the mirror, so each photon
can strike it twice. Post-selecting the mirror's momentum wavefunction on the
detector outcome shows that the photons reaching the bright port deliver zero
net momentum, while the rare dark-port photons pull the mirror inward by their
(negative) weak-value kick - yet the ensemble total reproduces the classical
radiation-pressure result exactly.
"""

from .classical_optics import classical_mirror_momentum
from .ensemble import (
    KickReport,
    RunRecord,
    RunTable,
    expected_kick_report,
    fluctuation_analysis,
    sample_runs,
)
from .errors import (
    ConfigError,
    ConstraintViolationError,
    DegenerateSampleError,
    GridCoverageError,
    GridMismatchError,
    MzkickError,
    ZeroOverlapError,
)
from .photon_modes import (
    CHANNEL_D1,
    CHANNEL_D2,
    CHANNELS,
    BeamsplitterSpec,
    ModeAmplitudes,
    detector_state,
    inner_product,
    intra_state,
)
from .pointer import (
    MomentumGrid,
    PointerState,
    default_grid,
    gaussian_pointer,
    mean_momentum,
    overlap,
    shift,
)
from .weak_measurement import (
    JointState,
    OpticalSetup,
    PostselectionResult,
    couple_reflection,
    couple_with_kick,
    first_order_joint,
    net_kick_d1,
    net_kick_d2,
    postselect,
    weak_value_PB,
)

__version__ = "0.1.0"

__all__ = [
    "BeamsplitterSpec",
    "CHANNELS",
    "CHANNEL_D1",
    "CHANNEL_D2",
    "ConfigError",
    "ConstraintViolationError",
    "DegenerateSampleError",
    "GridCoverageError",
    "GridMismatchError",
    "JointState",
    "KickReport",
    "ModeAmplitudes",
    "MomentumGrid",
    "MzkickError",
    "OpticalSetup",
    "PointerState",
    "PostselectionResult",
    "RunRecord",
    "RunTable",
    "ZeroOverlapError",
    "classical_mirror_momentum",
    "couple_reflection",
    "couple_with_kick",
    "default_grid",
    "detector_state",
    "expected_kick_report",
    "first_order_joint",
    "fluctuation_analysis",
    "gaussian_pointer",
    "inner_product",
    "intra_state",
    "mean_momentum",
    "net_kick_d1",
    "net_kick_d2",
    "overlap",
    "postselect",
    "sample_runs",
    "shift",
    "weak_value_PB",
]
