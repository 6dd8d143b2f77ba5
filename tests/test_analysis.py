"""Verdict aggregation, classification, error counting, per-process
mature fractions, and the paired significance test."""

import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dca.analysis import (AntigenVerdict, TruthMismatch, _student_t_two_tailed,
                          aggregate, classify, count_errors, mean_and_std,
                          paired_t_test, process_mag, write_process_table,
                          write_verdict_table)
from dca.core import Context
from dca.tissue import MigrationRecord


def record(context, antigens, tick=0):
    return MigrationRecord(tick=tick, cell_id=0, context=context,
                           antigens=tuple(antigens), csm=1.0, semi=0.0,
                           mat=0.0)


class TestAggregate:
    def test_multiset_counting(self):
        verdicts = aggregate([record(Context.MATURE, ["a", "a", "b"])])
        assert verdicts["a"].presented_mature == 2
        assert verdicts["b"].presented_mature == 1
        assert verdicts["a"].presented_semi == 0

    def test_mean_context_mixes_records(self):
        verdicts = aggregate([
            record(Context.MATURE, ["a"]),
            record(Context.SEMI_MATURE, ["a"]),
            record(Context.MATURE, ["a"]),
        ])
        assert verdicts["a"].mean_context == pytest.approx(2 / 3)

    def test_empty_records_empty_map(self):
        assert aggregate([]) == {}

    @given(st.lists(st.tuples(
        st.sampled_from([Context.MATURE, Context.SEMI_MATURE]),
        st.lists(st.sampled_from("abcde"), max_size=4)), max_size=30),
        st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_order_independence(self, raw, rng):
        records = [record(ctx, ags, tick=i) for i, (ctx, ags) in enumerate(raw)]
        shuffled = records[:]
        rng.shuffle(shuffled)
        a = {k: (v.presented_mature, v.presented_semi)
             for k, v in aggregate(records).items()}
        b = {k: (v.presented_mature, v.presented_semi)
             for k, v in aggregate(shuffled).items()}
        assert a == b

    @given(st.lists(st.tuples(
        st.sampled_from([Context.MATURE, Context.SEMI_MATURE]),
        st.lists(st.sampled_from("abcde"), max_size=4)), max_size=30))
    @settings(max_examples=150)
    def test_presentation_totals_conserved(self, raw):
        records = [record(ctx, ags) for ctx, ags in raw]
        verdicts = aggregate(records)
        assert (sum(v.total for v in verdicts.values())
                == sum(len(r.antigens) for r in records))


class TestClassify:
    def make_verdict(self, mature, semi):
        v = AntigenVerdict("x", presented_mature=mature, presented_semi=semi)
        return {"x": v}

    def test_strictly_over_threshold_is_anomalous(self):
        verdicts = self.make_verdict(66, 34)
        classify(verdicts, 0.65)
        assert verdicts["x"].decided_class == 1

    def test_exactly_at_threshold_is_normal(self):
        verdicts = self.make_verdict(65, 35)
        classify(verdicts, 0.65)
        assert verdicts["x"].decided_class == 0

    def test_never_mature_is_normal(self):
        verdicts = self.make_verdict(0, 10)
        classify(verdicts, 0.65)
        assert verdicts["x"].decided_class == 0

    def test_unseen_label_stays_undecided(self):
        verdicts = {"x": AntigenVerdict("x")}
        classify(verdicts, 0.65)
        assert verdicts["x"].decided_class is None
        assert verdicts["x"].mean_context is None

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.tuples(st.integers(0, 20), st.integers(0, 20))))
    @settings(max_examples=150)
    def test_extreme_thresholds(self, raw):
        verdicts = {k: AntigenVerdict(k, m, s) for k, (m, s) in raw.items()}
        presented = [k for k, v in verdicts.items() if v.total > 0]
        classify(verdicts, 0.0)
        assert all(verdicts[k].decided_class == (1 if verdicts[k].presented_mature
                                                 else 0) for k in presented)
        classify(verdicts, 1.0)
        assert all(verdicts[k].decided_class == 0 for k in presented)

    def test_threshold_range_checked(self):
        with pytest.raises(ValueError):
            classify({}, 1.5)

    @given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                    max_size=20),
           st.one_of(st.floats(0.0, 1.0), st.sampled_from(
               [0.0, 0.5, 0.65, 1.0, 1 / 3, 2 / 3])))
    @settings(max_examples=300)
    def test_decides_by_the_mean_context(self, counts, threshold):
        verdicts = {str(k): AntigenVerdict(str(k), m, s)
                    for k, (m, s) in enumerate(counts)}
        classify(verdicts, threshold)
        for v in verdicts.values():
            mc = v.mean_context
            assert v.decided_class == (None if mc is None
                                       else 1 if mc > threshold else 0)


class TestCountErrors:
    def test_perfect_agreement(self):
        verdicts = {"a": AntigenVerdict("a", 10, 0, decided_class=1),
                    "b": AntigenVerdict("b", 0, 10, decided_class=0)}
        assert count_errors(verdicts, {"a": 1, "b": 0}) == (0, 0)

    def test_all_wrong(self):
        verdicts = {f"i{k}": AntigenVerdict(f"i{k}", 10, 0, decided_class=1)
                    for k in range(700)}
        truth = {f"i{k}": 0 for k in range(700)}
        assert count_errors(verdicts, truth) == (700, 0)

    def test_unseen_counts_as_error(self):
        verdicts = {"a": AntigenVerdict("a", decided_class=None)}
        errors, unseen = count_errors(verdicts, {"a": 1, "b": 0})
        assert errors == 2
        assert unseen == 2

    def test_missing_truth_entry_aborts(self):
        verdicts = {"ghost": AntigenVerdict("ghost", 1, 0, decided_class=1)}
        with pytest.raises(TruthMismatch):
            count_errors(verdicts, {})


class TestProcessMag:
    def test_fraction_over_group_members(self):
        verdicts = {"p1": AntigenVerdict("p1", 843, 100),
                    "p2": AntigenVerdict("p2", 0, 57)}
        mags = process_mag(verdicts, {"proc": {"p1", "p2"}})
        assert mags["proc"] == pytest.approx(843 / 1000)

    def test_unpresented_group_is_undefined(self):
        mags = process_mag({}, {"ghost": {"nope"}})
        assert mags["ghost"] is None

    def test_single_label_group_equals_mean_context(self):
        verdicts = {"p": AntigenVerdict("p", 3, 1)}
        mags = process_mag(verdicts, {"solo": {"p"}})
        assert mags["solo"] == verdicts["p"].mean_context

    @given(st.tuples(st.integers(0, 50), st.integers(0, 50)),
           st.tuples(st.integers(0, 50), st.integers(0, 50)))
    @settings(max_examples=150)
    def test_union_lies_between_disjoint_groups(self, ga, gb):
        verdicts = {"a": AntigenVerdict("a", *ga),
                    "b": AntigenVerdict("b", *gb)}
        mags = process_mag(verdicts, {"A": {"a"}, "B": {"b"},
                                      "AB": {"a", "b"}})
        if mags["A"] is None or mags["B"] is None:
            return
        lo, hi = sorted((mags["A"], mags["B"]))
        assert lo - 1e-12 <= mags["AB"] <= hi + 1e-12

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            process_mag({}, {})


class TestPairedTTest:
    def test_identical_samples_tie(self):
        result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.mean_difference == 0.0
        assert result.p_value == 1.0
        assert result.exact_tie

    def test_constant_shift_flagged(self):
        result = paired_t_test([1, 2, 3, 4, 5], [0, 1, 2, 3, 4])
        assert result.mean_difference == pytest.approx(1.0)
        assert result.exact_tie

    def test_against_reference_value(self):
        result = paired_t_test([0.91, 0.85, 0.88], [0.40, 0.42, 0.44])
        assert result.p_value == pytest.approx(0.0029796976768, abs=1e-9)
        assert result.p_value < 0.05
        assert not result.exact_tie

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            paired_t_test([0.9, bad, 0.8], [0.4, 0.5, 0.3])
        with pytest.raises(ValueError, match=repr(bad)):
            paired_t_test([0.9, 0.7, 0.8], [0.4, 0.5, bad])

    @pytest.mark.parametrize("xs,ys", [
        ([1e308, -1e308], [-1e308, 1e308]),  # differences of inf and -inf
        ([1e308, 1e308, 0.0], [-1e308, -1e308, 0.0]),  # mean of inf
        ([1e200, 0.0], [0.0, 0.0]),  # finite mean, squares overflow
    ], ids=["nan-mean", "inf-mean", "inf-spread"])
    def test_overflowing_differences_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="overflows a float"):
            paired_t_test(xs, ys)

    def test_the_same_samples_at_any_scale_give_the_same_p(self):
        # at 1e-162 the unscaled squares underflowed: an exact tie, p 0
        for k in range(-300, 151):
            scale = 10.0 ** k
            result = paired_t_test([2 * scale, 0.0], [0.0, 0.0])
            assert result.mean_difference == scale
            assert result.p_value == 0.5000000000000004, k
            assert not result.exact_tie
        # scaling three pairs by a power of two scales them exactly, so
        # every such scale gives the p of scale 1, to the bit
        p_values = {paired_t_test([3.0 * s, 1.5 * s, 0.5 * s],
                                  [1.0 * s, 0.0, 0.25 * s]).p_value
                    for s in (2.0 ** -1000, 2.0 ** -530, 1.0, 2.0 ** 400)}
        assert len(p_values) == 1

    def test_matches_scipy_ttest_rel(self):
        stats = pytest.importorskip("scipy.stats")
        # the tail alone, over df 1-200 and |t| 1e-4-300
        ts = [10 ** (-4 + k * math.log10(3e6) / 40) for k in range(41)]
        for df in range(1, 201):
            for t, expected in zip(ts, 2 * stats.t.sf(ts, df)):
                got = _student_t_two_tailed(t, df)
                if expected == 0.0:
                    assert got < 1e-300
                else:
                    assert got == pytest.approx(expected, rel=1e-9), (df, t)
        # whole tests on random paired samples
        rng = random.Random(20)
        for _ in range(500):
            n = rng.randint(2, 30)
            xs = [rng.gauss(0.5, 0.2) for _ in range(n)]
            ys = [x + rng.gauss(rng.uniform(-0.3, 0.3), 0.2) for x in xs]
            expected = stats.ttest_rel(xs, ys).pvalue
            assert paired_t_test(xs, ys).p_value == pytest.approx(
                expected, rel=1e-12)


class TestHelpers:
    def test_mean_and_std(self):
        mean, std = mean_and_std([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert mean == pytest.approx(5.0)
        assert std == pytest.approx(2.13809, abs=1e-5)

    def test_tables_render_both_formats(self):
        verdicts = {"a": AntigenVerdict("a", 3, 1, decided_class=1),
                    "b": AntigenVerdict("b")}
        human, machine = io.StringIO(), io.StringIO()
        write_verdict_table(verdicts, human)
        write_verdict_table(verdicts, machine, machine=True)
        assert "unseen" in human.getvalue()
        assert machine.getvalue().splitlines()[1] == "a\t4\t0.75\t1"
        rows = {"proc": (10.0, 0.843, 0.069)}
        human, machine = io.StringIO(), io.StringIO()
        write_process_table(rows, human)
        write_process_table(rows, machine, machine=True)
        assert "0.843" in human.getvalue()
        assert "proc\t10.0\t0.843\t0.069" in machine.getvalue()

    @pytest.mark.parametrize("machine", [False, True])
    def test_verdict_table_reads_each_mean_context_once(self, machine):
        reads = []

        class Counted(AntigenVerdict):
            @property
            def mean_context(self):
                reads.append(self.label)
                return super().mean_context

        verdicts = {"a": Counted("a", 3, 1, decided_class=1),
                    "b": Counted("b"), "c": Counted("c", 0, 2, 0)}
        write_verdict_table(verdicts, io.StringIO(), machine=machine)
        assert reads == ["a", "b", "c"]
