"""Dataset pipeline: attribute ranking, signal mapping, stream orderings
and the two file formats."""

import io
import math
import os
import re
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dca import datasets, streams
from dca.core import Context, fuse_signals
from dca.datasets import (DANGER_ATTRIBUTE_COUNT, TARGET_CSM_RATE,
                          LabelledItem, SignalMapping, item_to_signals, load_items, load_uci, order_stream,
                          run_bc_experiment, select_attributes,
                          synthetic_items, write_items)
from dca.streams import Event, EventDrivenRunner
from dca.tissue import MigrationRecord, PopulationConfig


# near-valid dataset lines: 11 fields from a vocabulary that reaches every
# check of both formats, any number of such fields, and arbitrary text
dataset_field = st.one_of(
    st.sampled_from(["0", "1", "2", "4", "7", "0.5", "10", "?", "nan", "inf",
                     "-1", "1e999", "9" * 400, "x", "", " 3 ", "#"]),
    st.text(max_size=6))
dataset_line = st.one_of(
    st.lists(dataset_field, min_size=11, max_size=11).map(",".join),
    st.lists(dataset_field, max_size=13).map(",".join),
    st.text(max_size=40))


def make_item(ident, attrs, cls):
    return LabelledItem(ident, tuple(attrs), cls)


def toy_items():
    # only attribute 4 varies; classes split on it
    flat = [0.5] * 9
    a = list(flat)
    a[4] = 0.1
    b = list(flat)
    b[4] = 0.9
    return [make_item("a", a, 0), make_item("b", b, 1)]


class TestLabelledItem:
    def test_requires_nine_finite_attributes(self):
        with pytest.raises(ValueError):
            make_item("x", [0.5] * 8, 0)
        with pytest.raises(ValueError):
            make_item("x", [0.5] * 8 + [math.nan], 0)
        with pytest.raises(ValueError):
            make_item("x", [0.5] * 9, 2)


def select_attributes_per_item(items):
    """`select_attributes` as it was first written: one pass over the items
    per attribute, and the calibration through one `item_to_signals` and
    one `fuse_signals` call per item. The reference for the column form."""
    if len(items) < 2:
        raise ValueError("need at least two items")
    n = len(items)
    stds = []
    for a in range(9):
        vals = [it.attributes[a] for it in items]
        mean = sum(vals) / n
        try:
            stds.append(math.sqrt(sum((v - mean) ** 2 for v in vals)
                                  / (n - 1)))
        except OverflowError:
            raise ValueError(f"the spread of attribute {a} overflows a "
                             "float") from None
    if all(s == 0.0 for s in stds):
        raise ValueError("constant dataset: no attribute varies")
    ranked = sorted(range(9), key=lambda a: (-stds[a], a))
    top = ranked[0]
    danger = tuple(ranked[1:1 + DANGER_ATTRIBUTE_COUNT])
    by_class = ([it.attributes[top] for it in items if it.true_class == 0],
                [it.attributes[top] for it in items if it.true_class == 1])
    if not by_class[0] or not by_class[1]:
        raise ValueError("both classes must be present")
    mu0 = sum(by_class[0]) / len(by_class[0])
    mu1 = sum(by_class[1]) / len(by_class[1])
    unscaled = SignalMapping(danger, top, (mu0, mu1), scale=1.0)
    weights = PopulationConfig().weights
    csm_rate = sum(fuse_signals(item_to_signals(it, unscaled), weights)[0]
                   for it in items) / n
    if csm_rate <= 0:
        raise ValueError("dataset produces no csm signal; cannot calibrate")
    return SignalMapping(danger, top, (mu0, mu1),
                         scale=TARGET_CSM_RATE / csm_rate)


def outcome(fn, items):
    """`repr` of what `fn(items)` returns, or the type and message of the
    error it raises."""
    try:
        return repr(fn(items))
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# attributes on the tenths grid, off it and negative, so that ties,
# rounding, the constant check, an uncalibratable set and a negative
# danger signal are all drawn; and now and then one huge attribute, whose
# signals overflow or whose spread does
attribute = st.one_of(st.integers(0, 10).map(lambda v: v / 10),
                      st.floats(0.0, 1.0), st.floats(-0.3, 1.0))


def build_items(rows, huge):
    items = [make_item(f"i{k}", attrs, cls)
             for k, (attrs, cls) in enumerate(rows)]
    if huge is not None:
        first = items[0]
        items[0] = make_item(first.id, (huge,) + first.attributes[1:],
                             first.true_class)
    return items


item_lists = st.builds(
    build_items,
    st.lists(st.tuples(st.lists(attribute, min_size=9, max_size=9),
                       st.integers(0, 1)), min_size=2, max_size=30),
    st.sampled_from([None] * 6 + [1e308, -1e308, 1e200]))


class TestSelectAttributes:
    @pytest.mark.parametrize("seed", [97, 1, 2])
    def test_equals_the_per_item_form_on_synthetic_sets(self, seed):
        items = synthetic_items(seed=seed)
        assert repr(select_attributes(items)) == \
            repr(select_attributes_per_item(items))

    @given(item_lists)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_item_form_on_drawn_sets(self, items):
        assert outcome(select_attributes, items) == \
            outcome(select_attributes_per_item, items)


    def test_single_varying_attribute_tops_ranking(self):
        mapping = select_attributes(toy_items())
        assert mapping.pamp_safe_attribute == 4
        assert mapping.class_means == (0.1, 0.9)

    def test_synthetic_top_attribute_is_clump_thickness(self):
        mapping = select_attributes(synthetic_items())
        assert mapping.pamp_safe_attribute == 0
        assert set(mapping.danger_attributes) == {2, 5, 7}

    def test_ranking_invariant_under_permutation(self):
        items = synthetic_items()
        mapping = select_attributes(items)
        reordered = select_attributes(list(reversed(items)))
        assert mapping.pamp_safe_attribute == reordered.pamp_safe_attribute
        assert mapping.danger_attributes == reordered.danger_attributes

    def test_constant_dataset_rejected(self):
        items = [make_item(str(i), [0.5] * 9, i % 2) for i in range(4)]
        with pytest.raises(ValueError):
            select_attributes(items)

    def test_scale_calibrates_mean_csm_rate(self):
        items = synthetic_items()
        mapping = select_attributes(items)
        weights = PopulationConfig().weights
        rate = statistics.mean(
            fuse_signals(item_to_signals(it, mapping), weights)[0]
            for it in items)
        assert rate == pytest.approx(TARGET_CSM_RATE, rel=1e-9)


class TestItemToSignals:
    def make_mapping(self, **overrides):
        base = dict(danger_attributes=(1, 2, 3), pamp_safe_attribute=0,
                    class_means=(0.2, 0.8), scale=100.0)
        base.update(overrides)
        return SignalMapping(**base)

    def test_danger_is_scaled_mean_of_trio(self):
        mapping = self.make_mapping()
        item = make_item("x", [0.2, 0.2, 0.4, 0.6, 0, 0, 0, 0, 0], 0)
        assert item_to_signals(item, mapping).danger == pytest.approx(40.0)

    def test_pamp_zero_at_class0_mean(self):
        mapping = self.make_mapping()
        item = make_item("x", [0.2] + [0.0] * 8, 0)
        signals = item_to_signals(item, mapping)
        assert signals.pamp == 0.0
        assert signals.safe == pytest.approx(60.0)

    def test_safe_zero_at_class1_mean(self):
        mapping = self.make_mapping()
        item = make_item("x", [0.8] + [0.0] * 8, 1)
        signals = item_to_signals(item, mapping)
        assert signals.safe == 0.0
        assert signals.pamp == pytest.approx(60.0)

    def test_pamp_from_class0_mean_and_safe_from_class1_mean(self):
        mapping = self.make_mapping()
        for x in (0.0, 0.35, 0.7, 1.0):
            signals = item_to_signals(make_item("x", [x] + [0.0] * 8, 1),
                                      mapping)
            assert signals.pamp == pytest.approx(100.0 * abs(x - 0.2))
            assert signals.safe == pytest.approx(100.0 * abs(x - 0.8))

    def test_inflammation_stays_zero(self):
        assert item_to_signals(toy_items()[0],
                               select_attributes(toy_items())).inflammation == 0.0

    @given(st.lists(st.floats(0.1, 1.0), min_size=9, max_size=9))
    @settings(max_examples=150)
    def test_concentrations_never_negative(self, attrs):
        signals = item_to_signals(make_item("x", attrs, 0),
                                  self.make_mapping())
        assert signals.pamp >= 0 and signals.danger >= 0 and signals.safe >= 0


@pytest.fixture(scope="module")
def items():
    return synthetic_items()


class TestOrderStream:

    def test_one_step_boundary(self, items):
        stream = order_stream(items, "one-step")
        assert [it.true_class for it in stream[:240]] == [0] * 240
        assert [it.true_class for it in stream[240:]] == [1] * 460

    def test_two_step_arithmetic(self, items):
        stream = order_stream(items, "two-step")
        classes = [it.true_class for it in stream]
        assert classes[:120] == [0] * 120
        assert classes[120:580] == [1] * 460
        assert classes[580:] == [0] * 120

    def test_random_is_seed_deterministic(self, items):
        a = order_stream(items, "random", seed=5)
        b = order_stream(items, "random", seed=5)
        c = order_stream(items, "random", seed=6)
        assert a == b
        assert a != c

    def test_every_id_once(self, items):
        for order in ("one-step", "two-step", "random"):
            stream = order_stream(items, order, seed=1)
            assert sorted(it.id for it in stream) == sorted(it.id for it in items)

    def test_unknown_order_rejected(self, items):
        with pytest.raises(ValueError):
            order_stream(items, "three-step")


class TestRunBcExperiment:
    def test_a_negative_drain_cap_is_rejected_before_any_tick(
            self, items, monkeypatch):
        def no_tissue(cfg):
            raise AssertionError("a tissue was built")

        monkeypatch.setattr(datasets, "Tissue", no_tissue)
        with pytest.raises(ValueError, match="drain_ticks"):
            run_bc_experiment(items, "one-step",
                              PopulationConfig.breast_cancer(seed=2),
                              repeats=1, drain_ticks=-5)

    @pytest.mark.parametrize("order", ["one-step", "two-step", "random"])
    def test_events_pass_the_full_checks(self, items, order, monkeypatch):
        # the events are recorded in this process, so every repeat runs here
        monkeypatch.setattr(streams, "usable_cpus", lambda: 1)
        fed = []

        class Recording(EventDrivenRunner):
            def run(self, events):
                events = list(events)
                fed.append(events)
                super().run(events)

        monkeypatch.setattr(datasets, "EventDrivenRunner", Recording)
        cfg = PopulationConfig.breast_cancer(seed=2)
        run_bc_experiment(items, order, cfg, repeats=2)
        mapping = select_attributes(items)
        assert len(fed) == 2
        for r, events in enumerate(fed):
            assert all(type(e) is Event and Event(*e) == e for e in events)
            stream = order_stream(items, order, seed=cfg.seed * 7919 + r)
            assert events == [e for k, it in enumerate(stream) for e in (
                Event.signal_set(float(k), item_to_signals(it, mapping)),
                Event.antigen(float(k), it.id, "dataset"))]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_results_do_not_depend_on_the_workers(self, items, monkeypatch,
                                                  workers, count):
        def run():
            result = run_bc_experiment(items, "random",
                                       PopulationConfig.breast_cancer(seed=5),
                                       repeats=count)
            return (result.records_per_repeat, result.orderings,
                    result.summary)

        monkeypatch.setattr(streams, "usable_cpus", lambda: 1)
        inline = run()
        monkeypatch.setattr(streams, "usable_cpus", lambda: workers)
        assert run() == inline
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


    # A repeat's records travel back as columns, and are built again in
    # the caller: these are the column form's edges.
    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeats_that_migrate_no_cell_give_empty_lists(
            self, items, monkeypatch, workers):
        monkeypatch.setattr(streams, "usable_cpus", lambda: workers)
        cfg = PopulationConfig.breast_cancer(seed=3,
                                             threshold_mode=("fixed", 1e9))
        result = run_bc_experiment(items, "one-step", cfg, repeats=2,
                                   drain_ticks=0)
        assert result.records_per_repeat == [[], []]
        assert result.summary.unseen == len(items)

    def test_records_from_a_forked_repeat_are_migration_records(
            self, items, monkeypatch):
        monkeypatch.setattr(streams, "usable_cpus", lambda: 2)
        result = run_bc_experiment(items, "one-step",
                                   PopulationConfig.breast_cancer(seed=4),
                                   repeats=2)
        forked = result.records_per_repeat[1]
        assert forked
        for record in forked:
            assert type(record) is MigrationRecord
            assert (record.context is Context.MATURE
                    or record.context is Context.SEMI_MATURE)


class TestSyntheticItems:
    def test_shape_and_determinism(self):
        items = synthetic_items()
        assert len(items) == 700
        assert sum(1 for it in items if it.true_class == 0) == 240
        assert sum(1 for it in items if it.true_class == 1) == 460
        assert items == synthetic_items()
        assert len({it.id for it in items}) == 700

    def test_values_on_tenths_grid(self):
        for it in synthetic_items():
            for a in it.attributes:
                assert 0.1 <= a <= 1.0
                assert a == pytest.approx(round(a * 10) / 10)


class TestFileFormats:
    def test_native_round_trip(self):
        items = synthetic_items()[:25]
        buf = io.StringIO()
        write_items(items, buf)
        buf.seek(0)
        assert load_items(buf) == items

    def test_native_field_count_checked(self):
        with pytest.raises(ValueError, match="line 1"):
            load_items(io.StringIO("x,1,2\n"))

    def test_uci_parsing(self):
        raw = io.StringIO(
            "1000025,5,1,1,1,2,1,3,1,1,2\n"
            "1002945,5,4,4,5,7,10,3,2,1,2\n"
            "1015425,3,1,1,1,2,2,?,1,1,2\n"   # missing value: dropped
            "1016277,8,10,10,8,7,10,9,7,1,4\n"
        )
        items = load_uci(raw)
        assert len(items) == 3
        # minority class (4: one record) becomes class 0 by default
        assert [it.true_class for it in items] == [1, 1, 0]
        assert items[0].attributes[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("classes,expected", [
        ((2, 4, 4), [0, 1, 1]),
        ((2, 4), [0, 1]),
    ], ids=["benign-minority", "tie-benign"])
    def test_uci_minority_class_becomes_class0(self, classes, expected):
        raw = io.StringIO("".join(f"{i},5,1,1,1,2,1,3,1,1,{cls}\n"
                                  for i, cls in enumerate(classes)))
        assert [it.true_class for it in load_uci(raw)] == expected

    def test_uci_duplicate_codes_stay_unique(self):
        raw = io.StringIO("9,5,1,1,1,2,1,3,1,1,2\n9,5,1,1,1,2,1,3,1,1,4\n")
        items = load_uci(raw)
        assert [it.id for it in items] == ["9", "9#1"]
        raw = io.StringIO("".join(f"{code},5,1,1,1,2,1,3,1,1,2\n"
                                  for code in ("5#1", "5", "5")))
        assert [it.id for it in load_uci(raw)] == ["5#1", "5", "5#2"]

    def test_uci_bad_class_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            load_uci(io.StringIO("9,5,1,1,1,2,1,3,1,1,3\n"))

    @pytest.mark.parametrize("line,message", [
        ("a,0.5,0.5,0.5,0.5,x,0.5,0.5,0.5,0.5,1",
         "line 2: could not convert string to float: 'x'"),
        ("a,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,7",
         "line 2: class must be 0 or 1"),
        ("a,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,x",
         "line 2: invalid literal for int()"),
        ("a,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,nan,1",
         "line 2: attributes must be finite"),
        (",0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,1",
         "line 2: empty item id"),
        ("a\tb,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,1",
         "line 2: antigen label 'a\\tb' contains a comma, tab or line break"),
        ("a,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,1\n# note\n"
         "a,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0",
         "line 4: duplicate id 'a' (first on line 2)"),
    ], ids=["attribute", "class", "class-text", "nan", "empty-id", "tab-in-id",
            "duplicate-id"])
    def test_native_value_errors_name_their_line(self, line, message):
        text = "# header\n" + line + "\n"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            load_items(io.StringIO(text))

    @pytest.mark.parametrize("line,message", [
        ("9,5,1,x,1,2,1,3,1,1,2", "line 2: invalid literal for int()"),
        ("9,5,1,1,1,2,1,3,1,1,b", "line 2: invalid literal for int()"),
        ("9,5,1,1,1,2,1,3,1,1,7", "line 2: class must be 2 or 4, got 7"),
        ("9,5,1,1,1,2,1,3,1," + "9" * 400 + ",2",
         "line 2: int too large to convert to float"),
        ("9\t1,5,1,1,1,2,1,3,1,1,2",
         "line 2: antigen label '9\\t1' contains a comma, tab or line break"),
    ], ids=["attribute", "class-text", "class", "huge", "tab-in-code"])
    def test_uci_value_errors_name_their_line(self, line, message):
        text = "9,5,1,1,1,2,1,3,1,1,2\n" + line + "\n"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            load_uci(io.StringIO(text))

    def test_undecodable_bytes_are_reported_by_line(self):
        data = b"# items\n\xff\n"
        for load in (load_items, load_uci):
            with pytest.raises(ValueError,
                               match="^line 2: 'utf-8' codec can't decode"):
                load(io.BytesIO(data))

    @given(st.lists(dataset_line, max_size=6))
    @settings(max_examples=300)
    def test_any_text_loads_or_names_its_line(self, lines):
        text = "\n".join(lines)
        for load in (load_items, load_uci):
            try:
                load(io.StringIO(text))
            except ValueError as exc:
                assert re.match(r"line \d+: ", str(exc)), exc

    @given(st.binary(max_size=120))
    @settings(max_examples=200)
    def test_any_bytes_load_or_name_their_line(self, data):
        for load in (load_items, load_uci):
            try:
                load(io.BytesIO(data))
            except ValueError as exc:
                assert re.match(r"line \d+: ", str(exc)), exc
