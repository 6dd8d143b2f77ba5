"""Tissue environment: antigen store semantics, the tick scheduler, the
population invariants, and the migration-log file format."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dca.analysis import aggregate
from dca.core import Context, SignalVector
from dca.streams import EventDrivenRunner, ScenarioConfig, generate_scenario
from dca.tissue import (MigrationRecord, PopulationConfig, Tissue,
                        TissueCompartment, format_record, read_migration_log,
                        write_migration_log)

CONSTANT_PAMP = SignalVector(pamp=50)


def small_config(seed, **overrides):
    base = dict(num_cells=10, tissue_antigen_capacity=2,
                antigen_sample_multiplicity=3,
                antigen_sampling_probability=0.5,
                threshold_mode=("uniform", 2.0, 8.0))
    base.update(overrides)
    return PopulationConfig(seed=seed, **base)


class TestPopulationConfig:
    def test_defaults_match_expected_settings(self):
        cfg = PopulationConfig.breast_cancer()
        assert cfg.num_cells == 100
        assert cfg.cell_antigen_capacity == 50
        assert cfg.tissue_antigen_capacity == 1
        assert cfg.antigen_sampling_probability == 0.10
        assert cfg.antigen_sample_multiplicity == 10
        assert cfg.threshold_mode == ("uniform", 5.0, 15.0)

    def test_portscan_defaults(self):
        cfg = PopulationConfig.portscan()
        assert cfg.num_cells == 500
        assert cfg.tissue_antigen_capacity == 500
        assert cfg.antigen_sampling_probability == 1.0
        assert cfg.antigen_sample_multiplicity == 1

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            PopulationConfig(num_cells=0)
        with pytest.raises(ValueError):
            PopulationConfig(antigen_sampling_probability=1.5)
        with pytest.raises(ValueError):
            PopulationConfig(threshold_mode=("fixed", 0.0))
        with pytest.raises(ValueError):
            PopulationConfig(threshold_mode=("uniform", 5.0, 4.0))
        with pytest.raises(ValueError):
            PopulationConfig(threshold_mode=("triangular", 1.0, 2.0))
        with pytest.raises(ValueError, match="seed"):
            PopulationConfig(seed=-1)


class TestTissueCompartment:
    def test_deposit_fills_free_slot(self):
        comp = TissueCompartment(500, 1, np.random.default_rng(0))
        comp.deposit("y")
        assert comp.occupied == 1

    def test_capacity_one_always_overwrites(self):
        comp = TissueCompartment(1, 10, np.random.default_rng(0))
        comp.deposit("x")
        comp.deposit("y")
        assert comp.occupied == 1
        assert comp.sample_slot(0) == "y"

    def test_deposit_takes_first_free_slot(self):
        comp = TissueCompartment(3, 1, np.random.default_rng(0))
        for label in "abc":
            comp.deposit(label)
        assert comp.sample_slot(1) == "b"
        comp.deposit("d")
        assert comp.slots == [("a", 1), ("d", 1), ("c", 1)]

    def test_overwrite_slot_choice_is_uniform(self):
        hits = {"x": 0, "y": 0}
        for seed in range(10000):
            comp = TissueCompartment(2, 1, np.random.default_rng(seed))
            comp.deposit("x")
            comp.deposit("y")
            comp.deposit("z")
            survivors = {slot[0] for slot in comp.slots}
            overwritten = ({"x", "y"} - survivors).pop()
            hits[overwritten] += 1
        assert hits["x"] / 10000 == pytest.approx(0.5, abs=0.05)

    def test_signal_replacement_last_write_wins(self):
        comp = TissueCompartment(1, 1, np.random.default_rng(0))
        comp.set_signals(SignalVector(pamp=10))
        comp.set_signals(SignalVector(danger=7))
        assert comp.signals == SignalVector(danger=7)

    def test_sample_exhaustion_clears_slot(self):
        comp = TissueCompartment(1, 2, np.random.default_rng(0))
        comp.deposit("a")
        assert comp.sample_slot(0) == "a"
        assert comp.sample_slot(0) == "a"
        assert comp.occupied == 0
        assert comp.sample_slot(0) is None
        assert comp.slots == [None]

    def test_empty_label_rejected(self):
        comp = TissueCompartment(1, 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            comp.deposit("")


class TestTick:
    def test_quiet_tissue_never_migrates(self):
        tissue = Tissue(small_config(seed=3))
        for _ in range(100):
            tissue.tick()
        assert tissue.records == []
        assert all(not c.antigen_store for c in tissue.pool)

    def test_strong_pamp_migrates_whole_pool_in_one_tick(self):
        cfg = PopulationConfig.breast_cancer(
            seed=1, threshold_mode=("fixed", 10.0))
        tissue = Tissue(cfg)
        tissue.set_signals(CONSTANT_PAMP)
        assert len(tissue.tick()) == 100

    def test_pool_size_constant_after_every_tick(self):
        tissue = Tissue(small_config(seed=7, antigen_overwrite=True))
        tissue.set_signals(SignalVector(pamp=20, safe=5))
        for _ in range(50):
            tissue.enqueue_antigen("ag")
            tissue.tick()
            assert len(tissue.pool) == 10

    def test_multiplicity_bounds_total_ingestions(self):
        cfg = small_config(seed=11, antigen_sample_multiplicity=3,
                           antigen_sampling_probability=1.0,
                           antigen_overwrite=True)
        tissue = Tissue(cfg)
        tissue.enqueue_antigen("only")
        tissue.set_signals(SignalVector(danger=1))
        for _ in range(30):
            tissue.tick()
        held = sum(c.antigen_store.count("only") for c in tissue.pool)
        presented = sum(r.antigens.count("only") for r in tissue.records)
        assert held + presented == 3

    def test_migration_only_at_or_above_threshold(self):
        cfg = small_config(seed=13)
        tissue = Tissue(cfg)
        tissue.set_signals(SignalVector(pamp=3, danger=2, safe=1))
        thresholds = {c.id: c.migration_threshold for c in tissue.pool}
        for _ in range(40):
            for cell in tissue.pool:
                thresholds[cell.id] = cell.migration_threshold
            tissue.tick()
        assert tissue.records
        for record in tissue.records:
            assert record.csm >= thresholds[record.cell_id]

    def test_fixed_seed_reproduces_records_exactly(self):
        def run():
            tissue = Tissue(small_config(seed=21, antigen_overwrite=True))
            for i in range(60):
                tissue.enqueue_antigen(f"item-{i}")
                tissue.set_signals(SignalVector(pamp=i % 7, safe=(i + 3) % 5))
                tissue.tick()
            return tissue.records

        assert run() == run()

    def test_flow_controlled_feed_loses_nothing(self):
        cfg = small_config(seed=5, tissue_antigen_capacity=1,
                           antigen_sample_multiplicity=2,
                           antigen_sampling_probability=1.0)
        tissue = Tissue(cfg)
        tissue.set_signals(SignalVector(danger=1))
        for i in range(20):
            tissue.enqueue_antigen(f"q-{i}")
        for _ in range(50):
            tissue.tick()
        counts = {}
        for cell in tissue.pool:
            for label in cell.antigen_store:
                counts[label] = counts.get(label, 0) + 1
        for record in tissue.records:
            for label in record.antigens:
                counts[label] = counts.get(label, 0) + 1
        assert counts == {f"q-{i}": 2 for i in range(20)}

    @pytest.mark.parametrize("overwrite,pending,occupied",
                             [(False, 5, 0), (True, 0, 2)])
    def test_antigen_entry_policy(self, overwrite, pending, occupied):
        tissue = Tissue(small_config(seed=2, antigen_overwrite=overwrite))
        for i in range(5):
            tissue.enqueue_antigen(f"e-{i}")
        assert tissue.feed_pending == pending
        assert tissue.compartment.occupied == occupied
        assert not tissue.settled

    def test_settled_needs_feed_store_and_cells_empty(self):
        cfg = small_config(seed=4, antigen_sampling_probability=1.0)
        tissue = Tissue(cfg)
        assert tissue.settled
        tissue.enqueue_antigen("a")
        tissue.set_signals(SignalVector(danger=1))
        tissue.tick()
        assert tissue.feed_pending == 0
        assert not tissue.settled
        for _ in range(100):
            tissue.tick()
        assert tissue.settled
        assert sum(r.antigens.count("a") for r in tissue.records) == 3

    def test_fresh_threshold_redrawn_under_uniform_mode(self):
        cfg = small_config(seed=17, num_cells=50)
        tissue = Tissue(cfg)
        tissue.set_signals(SignalVector(pamp=40))
        tissue.tick()
        thresholds = {c.migration_threshold for c in tissue.pool}
        assert len(thresholds) > 10


def _driven_tissue(seed):
    """A small overwriting tissue and the steps that drive it: antigen and
    signals that make cells migrate both with and without antigen."""
    tissue = Tissue(small_config(seed, antigen_overwrite=True))
    steps = [([f"item-{i}"] if i % 3 else [],
              SignalVector(pamp=i % 7, danger=i % 4, safe=(i + 3) % 5))
             for i in range(80)]
    return tissue, steps


def _step(tissue, labels, signals):
    for label in labels:
        tissue.enqueue_antigen(label)
    tissue.set_signals(signals)
    return tissue.tick()


class TestLazyLog:
    """The migration log is kept as per-tick arrays and built into records
    only when read; every way of reading it must give the same records."""

    def test_reading_every_tick_equals_reading_once(self):
        eager, steps = _driven_tissue(21)
        lazy, _ = _driven_tissue(21)
        for labels, signals in steps:
            before = list(eager.records)
            _step(eager, labels, signals)
            assert eager.records[:len(before)] == before
            _step(lazy, labels, signals)
        assert eager.records == lazy.records
        assert any(r.antigens for r in lazy.records)
        assert any(not r.antigens for r in lazy.records)

    def test_migrations_counts_every_record(self):
        tissue, steps = _driven_tissue(5)
        for i, (labels, signals) in enumerate(steps):
            _step(tissue, labels, signals)
            if i == 40:
                assert tissue.migrations == len(tissue.records)
        assert tissue.migrations == len(tissue.records) > 0

    @pytest.mark.parametrize("read_midway", [False, True])
    def test_records_with_antigen_filters_records(self, read_midway):
        tissue, steps = _driven_tissue(9)
        for i, (labels, signals) in enumerate(steps):
            _step(tissue, labels, signals)
            if read_midway and i == 40:
                tissue.records  # builds the first half; the rest stays pending
        held = tissue.records_with_antigen()
        assert held == [r for r in tissue.records if r.antigens]
        assert held

    def test_tick_returns_the_records_it_appended(self):
        tissue, steps = _driven_tissue(13)
        sizes = set()
        for labels, signals in steps:
            before = len(tissue.records)
            returned = _step(tissue, labels, signals)
            assert list(returned) == tissue.records[before:]
            assert len(returned) == len(tissue.records) - before
            sizes.add(len(returned))
        assert 0 in sizes and max(sizes) > 1

    def test_antigen_records_give_the_same_verdicts_on_the_portscan_shape(self):
        events = generate_scenario(ScenarioConfig(noise_seed=3))
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=3)))
        runner.run(events)
        runner.drain()
        tissue = runner.tissue
        held = tissue.records_with_antigen()
        assert 0 < len(held) < tissue.migrations
        assert aggregate(held) == aggregate(tissue.records)


record_strategy = st.builds(
    MigrationRecord,
    tick=st.integers(0, 10_000),
    cell_id=st.integers(0, 10_000),
    context=st.sampled_from([Context.MATURE, Context.SEMI_MATURE]),
    antigens=st.lists(
        st.text(alphabet=st.characters(
            whitelist_categories=("L", "N"), max_codepoint=0x2000),
            min_size=1, max_size=8),
        max_size=5).map(tuple),
    csm=st.floats(0, 1e6, allow_nan=False),
    semi=st.floats(-1e6, 1e6, allow_nan=False),
    mat=st.floats(-1e6, 1e6, allow_nan=False),
)
records_strategy = st.lists(record_strategy, max_size=20)

log_text = st.text(alphabet=st.sampled_from("\t\n,.-+_ 019aeimnrtux"),
                   max_size=40) | st.text(max_size=40)


def _with_field(record, index, text):
    parts = format_record(record).split("\t")
    parts[index] = text
    return "\t".join(parts)


# whole records, records with one field replaced, and arbitrary text
log_line = st.one_of(
    record_strategy.map(format_record),
    st.builds(_with_field, record_strategy, st.integers(0, 6), log_text),
    log_text,
)


class TestMigrationLog:
    @given(records_strategy)
    @settings(max_examples=150)
    def test_round_trip_identity(self, records):
        buf = io.StringIO()
        write_migration_log(records, buf)
        buf.seek(0)
        assert read_migration_log(buf) == records

    def test_field_order_is_stable(self):
        record = MigrationRecord(3, 7, Context.MATURE, ("a", "b"),
                                 10.5, -1.25, 2.0)
        assert format_record(record) == "3\t7\tmature\ta,b\t10.5\t-1.25\t2.0"

    def test_malformed_line_reports_line_number(self):
        buf = io.StringIO("3\t7\tmature\ta\t1.0\t2.0\t3.0\nbroken line\n")
        with pytest.raises(ValueError, match="line 2"):
            read_migration_log(buf)

    @pytest.mark.parametrize("line,message", [
        ("1\t2\tbogus\ta\t1.0\t2.0\t3.0", "line 2: invalid context 'bogus'"),
        ("1\t2\tmature\ta\tx\t2.0\t3.0", "line 2: invalid csm 'x'"),
        ("1.5\t2\tmature\ta\t1.0\t2.0\t3.0", "line 2: invalid tick '1.5'"),
        ("1\t2\tmature\t\t1.0\t2.0\t", "line 2: invalid mat ''"),
        ("1\t2\tmature\ta,,b\t1.0\t2.0\t3.0", "line 2: invalid antigens 'a,,b'"),
        ("1\t2\tmature\t,a\t1.0\t2.0\t3.0", "line 2: invalid antigens ',a'"),
        ("1\t2\tmature\ta,\t1.0\t2.0\t3.0", "line 2: invalid antigens 'a,'"),
    ])
    def test_bad_field_names_its_line_and_field(self, line, message):
        buf = io.StringIO("3\t7\tmature\ta\t1.0\t2.0\t3.0\n" + line + "\n")
        with pytest.raises(ValueError) as info:
            read_migration_log(buf)
        assert str(info.value) == message

    def test_binary_log_reads_as_text_and_names_an_undecodable_line(self):
        good = "3\t7\tmature\ta\t1.0\t2.0\t3.0\n"
        assert (read_migration_log(io.BytesIO(good.encode()))
                == read_migration_log(io.StringIO(good)))
        with pytest.raises(ValueError, match="^line 2: 'utf-8' codec"):
            read_migration_log(io.BytesIO(good.encode() + b"\xff\xfe\n"))

    @given(st.lists(log_line, max_size=8).map("\n".join))
    @settings(max_examples=300)
    def test_any_text_parses_or_names_its_first_bad_line(self, text):
        try:
            read_migration_log(io.StringIO(text))
        except ValueError as exc:
            match = re.match(r"line (\d+): ", str(exc))
            assert match, str(exc)
            lines = io.StringIO(text).readlines()
            bad = int(match[1])
            assert 1 <= bad <= len(lines)
            read_migration_log(io.StringIO("".join(lines[:bad - 1])))
            with pytest.raises(ValueError, match="^line 1: "):
                read_migration_log(io.StringIO(lines[bad - 1]))
