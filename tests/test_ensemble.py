"""Coherent-state counting statistics and ensemble momentum totals."""

import math

import numpy as np
import pytest

from mzkick.cli import main
from mzkick.ensemble import (
    POISSON_NBAR_MAX,
    RunTable,
    expected_kick_report,
    fluctuation_analysis,
    sample_runs,
)
from mzkick.errors import ConstraintViolationError, ZeroOverlapError
from mzkick.weak_measurement import net_kick_d2
from oracles import make_setup


def fixed_total_records(total: int, trials: int, seed: int, kick: float, p_d1: float) -> RunTable:
    """Runs conditioned on an exact photon total: only the split fluctuates."""
    rng = np.random.Generator(np.random.Philox(seed))
    n1 = rng.binomial(total, p_d1, size=trials)
    return RunTable(np.full(trials, total), n1, total - n1, (total - n1) * kick)


def pooled_or_not(table: RunTable, pooled: bool) -> float:
    """fluctuation_analysis on a table's columns, pooled within totals or not."""
    return fluctuation_analysis(table.d1, table.momentum, table.totals if pooled else None)


def within_total_reference(d1, momentum, totals) -> float:
    """The pooled within-total correlation as a per-total boolean-mask loop.

    Each sum is an np.sum, as in fluctuation_analysis: a BLAS dot adds in another
    order, so it can differ in the last bit even when the groups are right."""
    n1 = np.asarray(d1, dtype=float)
    mom = np.asarray(momentum, dtype=float)
    sxy = sxx = syy = 0.0
    for total in np.unique(totals):
        sel = totals == total
        dx = n1[sel] - n1[sel].mean()
        dy = mom[sel] - mom[sel].mean()
        sxy += float(np.sum(dx * dy))
        sxx += float(np.sum(dx * dx))
        syy += float(np.sum(dy * dy))
    return sxy / math.sqrt(sxx * syy)


POOLED = pytest.mark.parametrize("pooled", [False, True], ids=["unpooled", "pooled"])


class TestExpectedKickReport:
    def test_headline_values(self):
        report = expected_kick_report(make_setup(nbar=100.0))
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
            expected_kick_report(make_setup(0.5, nbar=100.0))


class TestSampleRuns:
    def test_deterministic_per_seed(self):
        setup = make_setup(nbar=1e3)
        a, b = sample_runs(setup, 200, seed=11), sample_runs(setup, 200, seed=11)
        assert all(map(np.array_equal, vars(a).values(), vars(b).values()))

    def test_different_seeds_differ(self):
        setup = make_setup(nbar=1e3)
        a, b = sample_runs(setup, 200, seed=11), sample_runs(setup, 200, seed=12)
        assert not all(map(np.array_equal, vars(a).values(), vars(b).values()))

    def test_record_structure(self):
        setup = make_setup(nbar=1e3)
        kick = net_kick_d2(setup)
        table = sample_runs(setup, 100, seed=3)
        assert np.array_equal(table.d1 + table.d2, table.totals)
        assert np.array_equal(table.momentum, table.d2 * kick)

    def test_counts_are_non_negative(self):
        # RunTable no longer checks its columns, so this guarantee rests on sample_runs
        table = sample_runs(make_setup(r_squared=0.99, nbar=3.0), 2000, seed=4)
        assert min(table.totals.min(), table.d1.min(), table.d2.min()) == 0
        assert np.array_equal(table.d1 + table.d2, table.totals)

    def test_len_is_the_number_of_runs(self):
        # the ensemble record count is read as len(sample_runs(...)), not as a field count
        table = sample_runs(make_setup(nbar=1e3), 37, seed=2)
        assert len(table) == 37
        assert all(len(column) == 37 for column in vars(table).values())

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
            sample_runs(make_setup(nbar=100.0), 0, seed=1)
        with pytest.raises(ConstraintViolationError):
            sample_runs(make_setup(nbar=0.0), 10, seed=1)
        with pytest.raises(ConstraintViolationError):
            sample_runs(make_setup(nbar=1e30), 10, seed=1)
        with pytest.raises(ZeroOverlapError):
            sample_runs(make_setup(0.5, nbar=100.0), 10, seed=1)

    def test_nbar_limit_is_numpys(self):
        assert len(sample_runs(make_setup(nbar=POISSON_NBAR_MAX), 2, seed=1)) == 2
        rng = np.random.Generator(np.random.Philox(1))
        with pytest.raises(ValueError):
            rng.poisson(np.nextafter(POISSON_NBAR_MAX, np.inf))


class TestFluctuationAnalysis:
    def test_grouped_pooling_matches_mask_loop_exactly(self):
        table = sample_runs(make_setup(nbar=1e4), 5000, seed=23)
        assert len(np.unique(table.totals)) >= 100
        corr = fluctuation_analysis(table.d1, table.momentum, table.totals)
        assert corr == within_total_reference(table.d1, table.momentum, table.totals)

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
        corr = fluctuation_analysis(table.d1, table.momentum, table.totals)
        assert corr == within_total_reference(table.d1, table.momentum, table.totals)

    @pytest.mark.parametrize("levels", [[2048.0, 2049.0], [-1, 255]], ids=["float", "negative-label"])
    def test_totals_outside_the_narrowing_rule_group_exactly(self, levels):
        # Only non-negative integer totals are narrowed before the sort. In float16
        # 2048.0 and 2049.0 are one value, and in uint8 -1 is 255, so narrowing
        # either column would merge its two groups, which give different values.
        rng = np.random.Generator(np.random.Philox(5))
        totals = rng.permutation(np.resize(np.array(levels), 60))
        d1 = rng.binomial(100, 0.75, size=60)
        momentum = (100 - d1) * net_kick_d2(make_setup(nbar=1e4)) + 20.0 * (totals == levels[1])
        corr = fluctuation_analysis(d1, momentum, totals)
        assert corr == within_total_reference(d1, momentum, totals)
        assert abs(corr - within_total_reference(d1, momentum, np.zeros(60))) > 0.1

    @pytest.mark.parametrize("pooled, longer", [(False, "momentum"), (True, "momentum"), (True, "totals")],
                             ids=["unpooled", "pooled", "pooled-totals"])
    def test_unequal_column_lengths_raise(self, pooled, longer):
        table = sample_runs(make_setup(nbar=1e4), 100, seed=9)
        columns = {"d1": table.d1, "momentum": table.momentum, "totals": table.totals if pooled else None}
        columns[longer] = np.append(columns[longer], columns[longer][:5])
        with pytest.raises(ConstraintViolationError, match="differ in length"):
            fluctuation_analysis(**columns)

    def test_fixed_total_correlation_is_plus_one(self):
        setup = make_setup(nbar=1e4)
        records = fixed_total_records(10_000, 500, seed=2, kick=net_kick_d2(setup), p_d1=0.75)
        assert abs(fluctuation_analysis(records.d1, records.momentum) - 1.0) < 1e-12

    def test_unconditional_correlation_vanishes(self):
        # Poisson thinning makes the two channel counts independent, so more
        # D1 photons by Poisson excess say nothing about the momentum.
        records = sample_runs(make_setup(nbar=1e4), 1000, seed=9)
        assert abs(fluctuation_analysis(records.d1, records.momentum)) < 0.15

    def test_within_total_pooling_recovers_plus_one(self):
        records = sample_runs(make_setup(nbar=1e4), 1000, seed=9)
        corr = fluctuation_analysis(records.d1, records.momentum, records.totals)
        assert abs(corr - 1.0) < 1e-12

    @POOLED
    def test_large_kicks_keep_the_value(self, pooled):
        # Pearson's r is scale-invariant, and the columns are scaled by a power of
        # two before any square is summed, so a power-of-two kick keeps every bit.
        table = sample_runs(make_setup(nbar=100.0), 1000, seed=9)

        def with_kick(kick):
            return RunTable(table.totals, table.d1, table.d2, table.d2 * kick)

        reference = pooled_or_not(with_kick(-1.0), pooled)
        for k in (500, 1000):
            assert pooled_or_not(with_kick(-2.0**k), pooled) == reference
        for kick in (-1e140, -1e152, -1e306):
            assert pooled_or_not(with_kick(kick), pooled) == pytest.approx(reference, rel=1e-12)

    @POOLED
    def test_tiny_kicks_keep_the_value(self, pooled):
        # Squared momenta below the normal float range would lose precision or
        # vanish; in the power-of-two scale no square leaves it.
        table = sample_runs(make_setup(nbar=100.0), 1000, seed=9)

        def with_kick(kick):
            return RunTable(table.totals, table.d1, table.d2, table.d2 * kick)

        reference = pooled_or_not(with_kick(-1.0), pooled)
        for k in (-500, -1000):
            assert pooled_or_not(with_kick(-2.0**k), pooled) == reference
        for kick in (-1e-150, -1e-160, -1e-300):
            assert pooled_or_not(with_kick(kick), pooled) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("bad", [-math.inf, math.nan])
    def test_non_finite_momentum_raises(self, bad):
        table = sample_runs(make_setup(nbar=100.0), 1000, seed=9)
        momentum = table.momentum.copy()
        momentum[3] = bad
        with pytest.raises(ConstraintViolationError, match=f"holds {abs(bad)}"):
            fluctuation_analysis(table.d1, momentum)

    @POOLED
    def test_huge_counts_give_a_finite_correlation(self, pooled):
        # Counts near 1e200 square far beyond the float range unless scaled first.
        table = sample_runs(make_setup(nbar=100.0), 100, seed=4)
        scale = 2**664  # about 1.2e200, an exact int
        totals, d1, d2 = (np.array([n * scale for n in col.tolist()], dtype=object)
                          for col in (table.totals, table.d1, table.d2))
        corr = pooled_or_not(RunTable(totals, d1, d2, table.momentum * 2.0**664), pooled)
        assert math.isfinite(corr)
        assert corr == pooled_or_not(table, pooled)

    def test_requires_thirty_records(self):
        records = sample_runs(make_setup(nbar=1e4), 10, seed=1)
        assert fluctuation_analysis(records.d1, records.momentum) is None

    def test_zero_variance_gives_none(self):
        assert fluctuation_analysis(np.full(40, 60), np.full(40, -20.0)) is None


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
