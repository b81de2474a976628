"""Coherent-state photon statistics and ensemble momentum totals.

The input beam is coherent light with mean photon number nbar, so the photon
count is Poisson-distributed per run and each photon independently exits
toward D1 with probability 4*r^2*t^2. In the linear-optics regime every D1
photon delivers zero net momentum and every D2 photon delivers its weak-value
kick, so run-level mirror momentum attaches entirely to the D2 count.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .classical_optics import classical_mirror_momentum
from .errors import ConstraintViolationError, DegenerateSampleError
from .weak_measurement import OpticalSetup, net_kick_d2


@dataclass(frozen=True)
class RunRecord:
    """One experimental run: photon counts and the resulting mirror momentum."""

    total_photons: int
    d1_count: int
    d2_count: int
    mirror_momentum: float

    def __post_init__(self) -> None:
        if min(self.total_photons, self.d1_count, self.d2_count) < 0:
            raise ConstraintViolationError("photon counts must be non-negative")
        if self.d1_count + self.d2_count != self.total_photons:
            raise ConstraintViolationError(
                f"counts {self.d1_count} + {self.d2_count} != total {self.total_photons}"
            )


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
class RunTable(Sequence):
    """Runs as read-only columns indexed by trial, with the RunRecord invariants
    checked once, vectorized; reads as a sequence of RunRecord."""

    totals: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    momentum: np.ndarray

    def __post_init__(self) -> None:
        bad = np.flatnonzero((np.minimum(self.d1, self.d2) < 0) | (self.d1 + self.d2 != self.totals))
        if bad.size:
            n, a, b = self.totals[bad[0]], self.d1[bad[0]], self.d2[bad[0]]
            raise ConstraintViolationError(f"run {bad[0]}: counts {a} + {b} must be >= 0 and sum to {n}")
        for col in self.columns:
            col.flags.writeable = False

    @classmethod
    def from_records(cls, records: Sequence[RunRecord]) -> RunTable:
        if isinstance(records, cls):
            return records
        return cls(*(np.array([getattr(r, f.name) for r in records]) for f in fields(RunRecord)))

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self.totals, self.d1, self.d2, self.momentum

    def __len__(self) -> int:
        return len(self.totals)

    def __getitem__(self, i: int) -> RunRecord:
        return RunRecord(*(col[i].item() for col in self.columns))

    def __iter__(self) -> Iterator[RunRecord]:
        return (RunRecord(*row) for row in zip(*(col.tolist() for col in self.columns)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunTable):
            return NotImplemented
        return all(map(np.array_equal, self.columns, other.columns))


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


def fluctuation_analysis(
    records: Sequence[RunRecord],
    conditional_on_total: bool = False,
    classical_attribution: bool = False,
) -> float:
    """Pearson correlation between the D1 count and the mirror momentum.

    Because the momentum rides on D2 photons alone and the per-photon kick is
    inward (negative) for r > t, runs with more D1 photons at fixed total have
    fewer D2 photons and hence less inward momentum: within any fixed-total
    sub-ensemble the correlation is exactly +1. With Poissonian totals the two
    counts are independent, so the unconditional correlation vanishes.

    conditional_on_total pools the correlation within groups of equal total
    photon number (the fixed-total reading). classical_attribution is a
    documented contrast mode: it reattaches the sample-mean momentum to the
    D1 counts proportionally, as the classical story would suggest, which
    flips the correlation negative.
    """
    if len(records) < 30:
        raise DegenerateSampleError(f"need at least 30 records, got {len(records)}")
    table = RunTable.from_records(records)
    n1 = table.d1.astype(float)
    mom = np.asarray(table.momentum, dtype=float)
    if classical_attribution:
        if n1.mean() == 0.0:
            raise DegenerateSampleError("no D1 counts to attribute momentum to")
        mom = n1 * (mom.mean() / n1.mean())
    starts = [0]  # one group: the plain Pearson correlation
    if conditional_on_total:
        # A stable sort makes each total's runs one slice in trial order: the
        # same values, summed in the same order, that a per-total mask selects.
        order = np.argsort(table.totals, kind="stable")
        _, starts = np.unique(table.totals[order], return_index=True)
        n1, mom = n1[order], mom[order]
    sxy = sxx = syy = 0.0
    for x, y in zip(np.split(n1, starts[1:]), np.split(mom, starts[1:])):
        dx = x - x.mean()
        dy = y - y.mean()
        # np.sum, not a BLAS dot: its result does not depend on the thread count.
        sxy += float(np.sum(dx * dy))
        sxx += float(np.sum(dx * dx))
        syy += float(np.sum(dy * dy))
    if sxx <= 0.0 or syy <= 0.0:
        raise DegenerateSampleError("sample has no variance (within totals, if pooled); "
                                    "correlation undefined")
    return sxy / math.sqrt(sxx * syy)
