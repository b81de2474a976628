"""Coherent-state counting statistics and ensemble momentum totals."""

import math

import numpy as np
import pytest

from mzkick.cli import main
from mzkick.ensemble import (
    POISSON_NBAR_MAX,
    RunRecord,
    RunTable,
    expected_kick_report,
    fluctuation_analysis,
    sample_runs,
)
from mzkick.errors import ConstraintViolationError, DegenerateSampleError, ZeroOverlapError
from mzkick.photon_modes import BeamsplitterSpec
from mzkick.weak_measurement import OpticalSetup, net_kick_d2

ALPHA_60 = math.radians(60.0)


def make_setup(r_squared=0.75, nbar=100.0, alpha=ALPHA_60, omega=1.0):
    return OpticalSetup(
        bs=BeamsplitterSpec.from_r_squared(r_squared), omega=omega, alpha=alpha, nbar=nbar
    )


def fixed_total_records(total: int, trials: int, seed: int, kick: float, p_d1: float):
    """Runs conditioned on an exact photon total: only the split fluctuates."""
    rng = np.random.Generator(np.random.Philox(seed))
    n1 = rng.binomial(total, p_d1, size=trials)
    return [RunRecord(total, int(a), int(total - a), float((total - a) * kick)) for a in n1]


def as_records(table: RunTable) -> list[RunRecord]:
    """The table's rows as RunRecords, built from its columns."""
    return [RunRecord(*row) for row in zip(*(col.tolist() for col in table.columns))]


def same_columns(a: RunTable, b: RunTable) -> bool:
    """Whether two tables hold equal columns."""
    return all(map(np.array_equal, a.columns, b.columns))


def within_total_reference(records) -> float:
    """The pooled within-total correlation as a per-total boolean-mask loop.

    Each sum is an np.sum, as in fluctuation_analysis: a BLAS dot adds in another
    order, so it can differ in the last bit even when the groups are right."""
    n1 = np.array([rec.d1_count for rec in records], dtype=float)
    mom = np.array([rec.mirror_momentum for rec in records], dtype=float)
    totals = np.array([rec.total_photons for rec in records])
    sxy = sxx = syy = 0.0
    for total in np.unique(totals):
        sel = totals == total
        dx = n1[sel] - n1[sel].mean()
        dy = mom[sel] - mom[sel].mean()
        sxy += float(np.sum(dx * dy))
        sxx += float(np.sum(dx * dx))
        syy += float(np.sum(dy * dy))
    return sxy / math.sqrt(sxx * syy)


class TestRunRecord:
    def test_count_consistency_enforced(self):
        with pytest.raises(ConstraintViolationError):
            RunRecord(10, 4, 5, 0.0)
        with pytest.raises(ConstraintViolationError):
            RunRecord(10, -1, 11, 0.0)


class TestRunTable:
    @staticmethod
    def columns(totals, d1, d2):
        return np.array(totals), np.array(d1), np.array(d2), np.zeros(len(totals))

    def test_negative_count_rejected(self):
        with pytest.raises(ConstraintViolationError, match="run 1: counts -1 \\+ 11"):
            RunTable(*self.columns([10, 10], [4, -1], [6, 11]))

    def test_count_sum_enforced(self):
        with pytest.raises(ConstraintViolationError, match="run 1"):
            RunTable(*self.columns([10, 10, 10], [4, 4, 3], [6, 5, 7]))

    def test_from_records_round_trip(self):
        table = sample_runs(make_setup(nbar=1e3), 50, seed=3)
        rebuilt = RunTable.from_records(as_records(table))
        assert len(rebuilt) == len(table) == 50
        assert same_columns(rebuilt, table)


class TestExpectedKickReport:
    def test_headline_values(self):
        report = expected_kick_report(make_setup())
        assert report.d1_total == 0.0
        assert report.d2_total == pytest.approx(-12.5, abs=1e-12)
        assert report.grand_total == pytest.approx(-12.5, abs=1e-12)
        assert report.classical_reference == pytest.approx(-12.5, abs=1e-12)

    def test_grand_total_is_sum(self):
        report = expected_kick_report(make_setup(0.9, nbar=1e4))
        assert report.grand_total == report.d1_total + report.d2_total

    @pytest.mark.parametrize("r_squared", [0.51, 0.6, 0.75, 0.9, 0.99])
    def test_matches_classical_reference(self, r_squared):
        report = expected_kick_report(make_setup(r_squared, nbar=1e4))
        assert report.grand_total == pytest.approx(report.classical_reference, rel=1e-12)

    def test_balanced_raises(self):
        with pytest.raises(ZeroOverlapError):
            expected_kick_report(make_setup(0.5))


class TestSampleRuns:
    def test_deterministic_per_seed(self):
        setup = make_setup(nbar=1e3)
        assert same_columns(sample_runs(setup, 200, seed=11), sample_runs(setup, 200, seed=11))

    def test_different_seeds_differ(self):
        setup = make_setup(nbar=1e3)
        assert not same_columns(sample_runs(setup, 200, seed=11), sample_runs(setup, 200, seed=12))

    def test_record_structure(self):
        setup = make_setup(nbar=1e3)
        kick = net_kick_d2(setup)
        table = sample_runs(setup, 100, seed=3)
        assert np.array_equal(table.d1 + table.d2, table.totals)
        assert np.array_equal(table.momentum, table.d2 * kick)

    def test_poisson_mean(self):
        setup = make_setup(nbar=1e4)
        records = sample_runs(setup, 1000, seed=5)
        totals = records.totals
        # Poisson(1e4) has sd 100, so the mean of 1000 draws has se ~ 3.16
        assert abs(totals.mean() - 1e4) < 3.0 * 100.0 / math.sqrt(1000)

    def test_sample_mean_matches_expectation(self):
        setup = make_setup(nbar=1e4)
        records = sample_runs(setup, 1000, seed=7)
        momenta = records.momentum
        se = momenta.std(ddof=1) / math.sqrt(len(records))
        assert abs(momenta.mean() - expected_kick_report(setup).grand_total) < 3.0 * se

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConstraintViolationError):
            sample_runs(make_setup(), 0, seed=1)
        with pytest.raises(ConstraintViolationError):
            sample_runs(make_setup(nbar=0.0), 10, seed=1)
        with pytest.raises(ConstraintViolationError):
            sample_runs(make_setup(nbar=1e30), 10, seed=1)
        with pytest.raises(ZeroOverlapError):
            sample_runs(make_setup(0.5), 10, seed=1)

    def test_nbar_limit_is_numpys(self):
        assert len(sample_runs(make_setup(nbar=POISSON_NBAR_MAX), 2, seed=1)) == 2
        rng = np.random.Generator(np.random.Philox(1))
        with pytest.raises(ValueError):
            rng.poisson(np.nextafter(POISSON_NBAR_MAX, np.inf))


class TestFluctuationAnalysis:
    @pytest.mark.parametrize("mode", [{}, {"conditional_on_total": True}])
    def test_table_and_record_list_agree_exactly(self, mode):
        table = sample_runs(make_setup(nbar=1e4), 2000, seed=17)
        assert fluctuation_analysis(table, **mode) == fluctuation_analysis(as_records(table), **mode)

    def test_grouped_pooling_matches_mask_loop_exactly(self):
        table = sample_runs(make_setup(nbar=1e4), 5000, seed=23)
        assert len(np.unique(table.totals)) >= 100
        corr = fluctuation_analysis(table, conditional_on_total=True)
        assert corr == within_total_reference(as_records(table))

    @pytest.mark.parametrize(
        "levels",
        [
            [1, 254, 255],
            [1, 255, 256, 257],
            [1, 65534, 65535],
            [1, 65535, 65536, 65537],
            [65535, 65536, 131071],
            [65535],
            [7],
        ],
        ids=["uint8-top", "uint8-uint16", "uint16-top", "uint16-uint32", "from-65535", "all-65535",
             "all-7"],
    )
    def test_grouping_at_narrow_type_edges_matches_mask_loop_exactly(self, levels):
        # The totals are sorted in the smallest unsigned type that holds them. Each
        # set tops or straddles one such type; in a straddling set the largest level
        # wraps onto a smaller one in the narrower type, so too narrow a sort would
        # merge two groups. A single level is one group.
        rng = np.random.Generator(np.random.Philox(5))
        totals = rng.permutation(np.resize(np.array(levels), 60))
        d1 = rng.binomial(totals, 0.75)
        d2 = totals - d1
        table = RunTable(totals, d1, d2, d2 * net_kick_d2(make_setup(nbar=1e4)))
        corr = fluctuation_analysis(table, conditional_on_total=True)
        assert corr == within_total_reference(as_records(table))

    def test_fixed_total_correlation_is_plus_one(self):
        setup = make_setup(nbar=1e4)
        records = fixed_total_records(10_000, 500, seed=2, kick=net_kick_d2(setup), p_d1=0.75)
        assert abs(fluctuation_analysis(records) - 1.0) < 1e-12

    def test_unconditional_correlation_vanishes(self):
        # Poisson thinning makes the two channel counts independent, so more
        # D1 photons by Poisson excess say nothing about the momentum.
        records = sample_runs(make_setup(nbar=1e4), 1000, seed=9)
        assert abs(fluctuation_analysis(records)) < 0.15

    def test_within_total_pooling_recovers_plus_one(self):
        records = sample_runs(make_setup(nbar=1e4), 1000, seed=9)
        corr = fluctuation_analysis(records, conditional_on_total=True)
        assert abs(corr - 1.0) < 1e-12

    @pytest.mark.parametrize("mode", [{}, {"conditional_on_total": True}])
    def test_large_kicks_keep_the_value(self, mode):
        # Pearson's r is scale-invariant, and the columns are scaled by a power of
        # two before any square is summed, so a power-of-two kick keeps every bit.
        table = sample_runs(make_setup(nbar=100.0), 1000, seed=9)

        def with_kick(kick):
            return RunTable(table.totals, table.d1, table.d2, table.d2 * kick)

        reference = fluctuation_analysis(with_kick(-1.0), **mode)
        for k in (500, 1000):
            assert fluctuation_analysis(with_kick(-2.0**k), **mode) == reference
        for kick in (-1e140, -1e152, -1e306):
            assert fluctuation_analysis(with_kick(kick), **mode) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("mode", [{}, {"conditional_on_total": True}])
    def test_tiny_kicks_keep_the_value(self, mode):
        # Squared momenta below the normal float range would lose precision or
        # vanish; in the power-of-two scale no square leaves it.
        table = sample_runs(make_setup(nbar=100.0), 1000, seed=9)

        def with_kick(kick):
            return RunTable(table.totals, table.d1, table.d2, table.d2 * kick)

        reference = fluctuation_analysis(with_kick(-1.0), **mode)
        for k in (-500, -1000):
            assert fluctuation_analysis(with_kick(-2.0**k), **mode) == reference
        for kick in (-1e-150, -1e-160, -1e-300):
            assert fluctuation_analysis(with_kick(kick), **mode) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_non_finite_momentum_raises(self, bad):
        table = sample_runs(make_setup(nbar=100.0), 1000, seed=9)
        momentum = table.momentum.copy()
        momentum[3] = bad
        with pytest.raises(ConstraintViolationError, match=f"holds {abs(bad)}"):
            fluctuation_analysis(RunTable(table.totals, table.d1, table.d2, momentum))

    @pytest.mark.parametrize("mode", [{}, {"conditional_on_total": True}])
    def test_huge_counts_give_a_finite_correlation(self, mode):
        # Counts near 1e200 square far beyond the float range unless scaled first.
        table = sample_runs(make_setup(nbar=100.0), 100, seed=4)
        scale = 2**664  # about 1.2e200, an exact int
        records = [RunRecord(int(n) * scale, int(a) * scale, int(b) * scale, float(m) * 2.0**664)
                   for n, a, b, m in zip(*table.columns)]
        corr = fluctuation_analysis(records, **mode)
        assert math.isfinite(corr)
        assert corr == fluctuation_analysis(table, **mode)

    def test_requires_thirty_records(self):
        records = sample_runs(make_setup(nbar=1e4), 10, seed=1)
        with pytest.raises(DegenerateSampleError):
            fluctuation_analysis(records)

    def test_zero_variance_raises(self):
        records = [RunRecord(100, 60, 40, -20.0)] * 40
        with pytest.raises(DegenerateSampleError):
            fluctuation_analysis(records)


class TestRecordsCsv:
    def test_round_trip(self, tmp_path, capsys):
        records = sample_runs(make_setup(nbar=500.0), 50, seed=4)
        argv = ["ensemble", "--nbar", "500", "--trials", "50", "--seed", "4", "--out", str(tmp_path)]
        assert main(argv) == 0
        lines = (tmp_path / "ensemble_records.csv").read_text().splitlines()
        assert lines[0] == "trial,N,n1,n2,momentum"
        assert len(lines) == 51
        for i, line in enumerate(lines[1:]):
            trial, n, n1, n2, momentum = line.split(",")
            assert int(trial) == i
            assert int(n) == records.totals[i]
            assert int(n1) == records.d1[i]
            assert int(n2) == records.d2[i]
            assert float(momentum) == records.momentum[i]
