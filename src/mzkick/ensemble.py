"""Coherent-state photon statistics and ensemble momentum totals.

The input beam is coherent light with mean photon number nbar, so the photon
count is Poisson-distributed per run and each photon independently exits
toward D1 with probability 4*r^2*t^2. In the linear-optics regime every D1
photon delivers zero net momentum and every D2 photon delivers its weak-value
kick, so run-level mirror momentum attaches entirely to the D2 count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical_optics import classical_mirror_momentum
from .errors import ConstraintViolationError
from .weak_measurement import OpticalSetup, net_kick_d2


@dataclass(frozen=True)
class KickReport:
    """Expected per-channel and total mirror momentum for one setup."""

    d1_total: float
    d2_total: float
    grand_total: float
    classical_reference: float


def expected_kick_report(setup: OpticalSetup) -> KickReport:
    """Expected ensemble momentum totals, channel by channel.

    D1 photons contribute exactly zero each; D2 photons number
    nbar*(r^2-t^2)^2 on average and each delivers the weak-value kick. The
    grand total reproduces the classical wave-optics momentum at intensity
    I = nbar*hbar*omega.
    """
    kick2 = net_kick_d2(setup)
    bs = setup.bs
    p_d2 = (bs.r * bs.r - bs.t * bs.t) ** 2
    d1_total = 0.0
    d2_total = setup.nbar * p_d2 * kick2
    classical = classical_mirror_momentum(
        setup.nbar * setup.hbar * setup.omega, bs, setup.alpha
    )
    return KickReport(
        d1_total=d1_total,
        d2_total=d2_total,
        grand_total=d1_total + d2_total,
        classical_reference=classical,
    )


# numpy's largest Poisson mean: Generator.poisson raises ValueError above it.
POISSON_NBAR_MAX = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True, eq=False)
class RunTable:
    """Monte-Carlo runs as columns indexed by trial: photon total, D1 and D2 counts, mirror momentum."""

    totals: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    momentum: np.ndarray

    def __len__(self) -> int:
        return len(self.totals)


def sample_runs(setup: OpticalSetup, trials: int, seed: int) -> RunTable:
    """Monte-Carlo photon counting: Poisson totals, binomial channel split.

    Each trial draws N ~ Poisson(nbar) and n1 ~ Binomial(N, 4*r^2*t^2); the
    mirror momentum is n2 times the per-photon D2 kick. Uses the counter-based
    Philox generator in a single vectorized pass, so a fixed seed reproduces
    the records exactly however the downstream analysis is scheduled.
    """
    if trials < 1:
        raise ConstraintViolationError(f"trials must be >= 1, got {trials}")
    if not 0.0 < setup.nbar <= POISSON_NBAR_MAX:
        raise ConstraintViolationError(f"sampling requires 0 < nbar <= {POISSON_NBAR_MAX!r}")
    kick2 = net_kick_d2(setup)
    bs = setup.bs
    p_d1 = 4.0 * (bs.r * bs.r) * (bs.t * bs.t)
    rng = np.random.Generator(np.random.Philox(seed))
    totals = rng.poisson(setup.nbar, size=trials)
    d1 = rng.binomial(totals, p_d1)
    d2 = totals - d1
    return RunTable(totals, d1, d2, d2 * kick2)


def binary_scaled(column) -> tuple[np.ndarray, int]:
    """column / 2**e as floats, and e = math.frexp(max|column|)[1]: an exact rescale into (-1, 1)
    whose mean and deviations are 2**-e times the column's, and whose sums of squares can neither
    overflow nor underflow. Raises ConstraintViolationError on an infinite or nan entry."""
    column = np.asarray(column, dtype=float)
    mantissa, e = math.frexp(float(np.max(np.abs(column))))
    if not math.isfinite(mantissa):
        raise ConstraintViolationError(f"a column holds {mantissa}; its statistics are undefined")
    return np.ldexp(column, -e), e


def fluctuation_analysis(d1, momentum, totals=None) -> float | None:
    """Pearson correlation between the runs' D1 counts and their mirror momenta.

    Because the momentum rides on D2 photons alone and the per-photon kick is
    inward (negative) for r > t, runs with more D1 photons at fixed total have
    fewer D2 photons and hence less inward momentum: within any fixed-total
    sub-ensemble the correlation is exactly +1. With Poissonian totals the two
    counts are independent, so the unconditional correlation vanishes.

    Passing the runs' photon totals pools the correlation within groups of equal total (the
    fixed-total reading). The correlation is undefined, and None is returned, for fewer than
    30 runs or a sample with no variance (within totals, if pooled). Unequal column lengths or
    a nan or inf momentum raise ConstraintViolationError.
    """
    if len({len(d1), len(momentum), len(momentum if totals is None else totals)}) > 1:
        raise ConstraintViolationError("the run columns d1, momentum and totals differ in length")
    if len(d1) < 30:
        return None
    n1, _ = binary_scaled(d1)
    mom, _ = binary_scaled(momentum)
    bounds = []  # one group: the plain Pearson correlation
    if totals is not None:
        # A stable sort makes each total's runs one slice in trial order: the
        # same values, summed in the same order, that a per-total mask selects.
        # Non-negative integer totals sort in the smallest unsigned type that holds
        # them (uint16 at nbar 1e4, which numpy sorts by radix); a stable sort's
        # permutation is unique, so narrowing does not change it. Others sort as given.
        totals = np.asarray(totals)
        if totals.dtype.kind in "iu" and totals.min() >= 0:
            totals = totals.astype(np.min_scalar_type(totals.max()))
        order = np.argsort(totals, kind="stable")
        bounds = np.flatnonzero(np.diff(totals[order])) + 1
        n1, mom = n1[order], mom[order]
    sxy = sxx = syy = 0.0
    for x, y in zip(np.split(n1, bounds), np.split(mom, bounds)):
        dx = x - x.mean()
        dy = y - y.mean()
        # np.sum, not a BLAS dot: its result does not depend on the thread count.
        sxy += float(np.sum(dx * dy))
        sxx += float(np.sum(dx * dx))
        syy += float(np.sum(dy * dy))
    if sxx <= 0.0 or syy <= 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)
