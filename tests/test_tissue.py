"""Tissue environment: antigen store semantics, the tick scheduler, the
population invariants, and the migration-log file format."""

import io
import re
import tempfile
from itertools import chain
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dca import tissue
from dca.analysis import aggregate, tally
from dca.core import Context, SignalVector, WeightMatrix
from dca.streams import EventDrivenRunner, ScenarioConfig, generate_scenario
from dca.tissue import (MigrationRecord, PopulationConfig, Tissue,
                        format_record, log_lines, read_migration_log,
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

    @pytest.mark.parametrize("mode", [
        ("uniform", 5.0), ("fixed",), ("fixed", 5.0, 6.0),
        ("uniform", 5.0, 6.0, 7.0), ("fixed", float("nan")),
        ("fixed", float("inf")), ("uniform", 5.0, float("inf")),
        ("fixed", "10"), ()])
    def test_malformed_threshold_mode_rejected(self, mode):
        with pytest.raises(ValueError):
            PopulationConfig(threshold_mode=mode)


def store(capacity, multiplicity, seed=0):
    """A one-cell tissue, for its antigen store."""
    return Tissue(PopulationConfig(
        num_cells=1, tissue_antigen_capacity=capacity,
        antigen_sample_multiplicity=multiplicity, seed=seed))


class TestTissueCompartment:
    def test_deposit_fills_free_slot(self):
        tissue = store(500, 1)
        tissue.deposit("y")
        assert tissue.occupied == 1

    def test_capacity_one_always_overwrites(self):
        tissue = store(1, 10)
        tissue.deposit("x")
        tissue.deposit("y")
        assert tissue.occupied == 1
        assert tissue.sample_slot(0) == "y"

    def test_deposit_takes_first_free_slot(self):
        tissue = store(3, 1)
        for label in "abc":
            tissue.deposit(label)
        assert tissue.sample_slot(1) == "b"
        tissue.deposit("d")
        assert tissue.slots == [("a", 1), ("d", 1), ("c", 1)]

    def test_overwrite_slot_choice_is_uniform(self):
        hits = {"x": 0, "y": 0}
        for seed in range(10000):
            tissue = store(2, 1, seed)
            tissue.deposit("x")
            tissue.deposit("y")
            tissue.deposit("z")
            survivors = {slot[0] for slot in tissue.slots}
            overwritten = ({"x", "y"} - survivors).pop()
            hits[overwritten] += 1
        assert hits["x"] / 10000 == pytest.approx(0.5, abs=0.05)

    def test_signal_replacement_last_write_wins(self):
        tissue = store(1, 1)
        tissue.set_signals(SignalVector(pamp=10))
        tissue.set_signals(SignalVector(danger=7))
        assert tissue.signals == SignalVector(danger=7)

    def test_sample_exhaustion_clears_slot(self):
        tissue = store(1, 2)
        tissue.deposit("a")
        assert tissue.sample_slot(0) == "a"
        assert tissue.sample_slot(0) == "a"
        assert tissue.occupied == 0
        assert tissue.sample_slot(0) is None
        assert tissue.slots == [None]

    def test_empty_label_rejected(self):
        tissue = store(1, 1)
        with pytest.raises(ValueError):
            tissue.deposit("")

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_empty_label_rejected_where_it_enters(self, overwrite):
        tissue = Tissue(PopulationConfig.breast_cancer(
            seed=1, antigen_overwrite=overwrite))
        with pytest.raises(ValueError, match="non-empty"):
            tissue.enqueue_antigen("")
        assert tissue.feed_pending == 0
        assert tissue.occupied == 0
        tissue.tick()
        assert tissue.clock == 1

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_a_batch_with_an_empty_label_changes_nothing(self, overwrite):
        tissue = Tissue(PopulationConfig.portscan(
            seed=1, antigen_overwrite=overwrite))
        before = tissue.signals
        with pytest.raises(ValueError, match="non-empty"):
            tissue.receive(SignalVector(pamp=3), ["a", "", "b"])
        assert tissue.signals is before
        assert (tissue.feed_pending, tissue.occupied) == (0, 0)

    # a label the migration log could not hold, since it joins a record's
    # labels with commas and ends its fields with tabs and line breaks
    @pytest.mark.parametrize("label", ["a,b", "a\tb", "a\nb", "a\rb"])
    @pytest.mark.parametrize("entry", [
        lambda t, label: t.deposit(label),
        lambda t, label: t.enqueue_antigen(label),
        lambda t, label: t.receive(SignalVector(pamp=3), ["a", label, "b"]),
    ], ids=["deposit", "enqueue_antigen", "receive"])
    @pytest.mark.parametrize("overwrite", [False, True])
    def test_a_label_the_log_cannot_hold_changes_nothing(self, overwrite,
                                                         entry, label):
        tissue = Tissue(PopulationConfig.portscan(
            seed=1, antigen_overwrite=overwrite))
        before = tissue.signals
        with pytest.raises(ValueError, match="contains a comma, tab or line "
                                             "break") as exc:
            entry(tissue, label)
        assert repr(label) in str(exc.value)
        assert tissue.signals is before
        assert (tissue.feed_pending, tissue.occupied) == (0, 0)
        assert tissue.slots == [None] * tissue.capacity


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

    def test_a_context_tie_migrates_semi_mature(self):
        # equal semi and mat weight rows make every cell's mat equal its
        # semi; the rule is mature only when mat > semi
        tied = WeightMatrix(semi=(1.0, 1.0, 1.0), mat=(1.0, 1.0, 1.0))
        tissue = Tissue(small_config(seed=17, weights=tied))
        tissue.set_signals(SignalVector(pamp=3, danger=2, safe=1))
        for i in range(40):
            tissue.enqueue_antigen(f"item-{i}")
            tissue.tick()
        records = tissue.records
        assert records and all(r.mat == r.semi > 0 for r in records)
        assert {r.context for r in records} == {Context.SEMI_MATURE}
        presented = list(tissue.presentations())
        assert presented and not any(mature for mature, _ in presented)

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
        assert tissue.occupied == occupied
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


def _bc_driven_tissue(seed):
    """A tissue of the breast-cancer shape (flow-controlled one-slot store,
    100 cells) and one item per tick, as `run_bc_experiment` streams them."""
    tissue = Tissue(PopulationConfig.breast_cancer(seed=seed))
    steps = [([f"item-{i}"], SignalVector(pamp=i % 5, danger=2, safe=i % 3))
             for i in range(150)]
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
    def test_presentations_are_the_records_that_hold_antigen(self, read_midway):
        # the overwriting shape and the breast-cancer shape
        for tissue, steps in (_driven_tissue(9), _bc_driven_tissue(9)):
            for i, (labels, signals) in enumerate(steps):
                _step(tissue, labels, signals)
                if read_midway and i == len(steps) // 2:
                    tissue.records  # builds the first half; the rest pends
            shown = [(mature, tuple(labels))
                     for mature, labels in tissue.presentations()]
            assert shown == [(r.context is Context.MATURE, r.antigens)
                             for r in tissue.records if r.antigens]
            # some ticks log migrations both with and without antigen
            by_tick: dict[int, set[bool]] = {}
            for r in tissue.records:
                by_tick.setdefault(r.tick, set()).add(bool(r.antigens))
            assert {True, False} in by_tick.values()

    def test_a_cell_that_migrated_empty_keeps_its_record_empty(self):
        # the one cell migrates with nothing, then its replacement samples
        # before the log is read: the logged record must not see the sample
        tissue = Tissue(PopulationConfig(
            num_cells=1, tissue_antigen_capacity=1,
            antigen_sample_multiplicity=1, antigen_sampling_probability=1.0,
            threshold_mode=("fixed", 1.0)))
        tissue.set_signals(CONSTANT_PAMP)
        assert len(tissue.tick()) == 1
        tissue.enqueue_antigen("a")
        tissue.set_signals(SignalVector())
        assert len(tissue.tick()) == 0
        assert tissue.pool[0].antigen_store == ["a"]
        assert list(tissue.presentations()) == []
        assert [r.antigens for r in tissue.records] == [()]
        assert list(tissue.presentations()) == []

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

    def test_presentations_give_the_same_verdicts_on_the_portscan_shape(self):
        events = generate_scenario(ScenarioConfig(noise_seed=3))
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=3)))
        runner.run(events)
        runner.drain()
        tissue = runner.tissue
        shown = list(tissue.presentations())
        assert 0 < len(shown) < tissue.migrations
        assert tally(shown) == aggregate(tissue.records)

    @given(st.integers(0, 2**32), st.booleans(),
           st.lists(st.tuples(st.integers(0, 3), st.floats(0, 6),
                              st.floats(0, 6), st.floats(0, 6)),
                    min_size=1, max_size=40),
           st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_tally_of_presentations_equals_aggregate_of_records(
            self, seed, overwrite, raw_steps, read_at):
        # reading `records` at a drawn tick leaves the ticks before it
        # built and those after it pending, so both parts are read
        tissue = Tissue(small_config(seed, antigen_overwrite=overwrite))
        for t, (n, pamp, danger, safe) in enumerate(raw_steps):
            if t == read_at:
                tissue.records
            _step(tissue, [f"p-{t}-{k}" for k in range(n)],
                  SignalVector(pamp=pamp, danger=danger, safe=safe))
        verdicts = tally(tissue.presentations())
        assert verdicts == aggregate(tissue.records)


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


def one_string_per_name(names):
    """Whether equal names are one object: the first of each is kept."""
    first = {}
    return all(first.setdefault(name, name) is name for name in names)


def lines_in_mode(text, mode, chunk):
    """The lines `log_lines` reads from `text` at `chunk` characters or
    bytes per read, from a text-mode file ("text"), a binary-mode file
    ("binary"), a `StringIO` or a `BytesIO`."""
    with mock.patch.object(tissue, "LOG_CHUNK", chunk):
        if mode in ("StringIO", "BytesIO"):
            fh = (io.StringIO(text) if mode == "StringIO"
                  else io.BytesIO(text.encode()))
            return list(chain.from_iterable(log_lines(fh)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(text.encode())
            with (open(path, encoding="utf-8") if mode == "text"
                  else open(path, "rb")) as fh:
                return list(chain.from_iterable(log_lines(fh)))


def read_partly(data, chunk):
    """The lines `log_lines` yields from `data` at `chunk` bytes per read
    before it raises, and its error."""
    lines = []
    with mock.patch.object(tissue, "LOG_CHUNK", chunk):
        with pytest.raises(ValueError) as exc:
            for batch in log_lines(io.BytesIO(data)):
                lines += batch
    return lines, str(exc.value)


class TestLogLines:
    @given(st.text(alphabet=st.sampled_from("\r\n\t,09azAZ\u20ac"),
                   max_size=40), st.integers(1, 9))
    @example("ab\r\ncd", 3)
    @example("\r\r\n\n", 1)
    @settings(max_examples=300)
    def test_lines_are_text_mode_s_at_any_chunk_size(self, text, chunk):
        expected = io.StringIO(text, newline=None).read().split("\n")
        if not expected[-1]:
            expected.pop()
        for mode in ("text", "binary", "StringIO", "BytesIO"):
            assert lines_in_mode(text, mode, chunk) == expected, mode

    @pytest.mark.parametrize("mode", ["binary", "StringIO", "BytesIO"])
    @pytest.mark.parametrize("text,chunk,expected", [
        # CR LF split across a chunk end
        ("abc\r\ndef\n", 4, ["abc", "def"]),
        # a lone CR as the last character of a chunk
        ("abc\rdef\n", 4, ["abc", "def"]),
        ("abc\r", 4, ["abc"]),
        # a UTF-8 character split across chunks (3 bytes, read 2 at a time)
        ("a\u20acb\nc\u20ac\n", 2, ["a\u20acb", "c\u20ac"]),
    ])
    def test_line_ends_and_characters_across_chunk_ends(self, mode, text,
                                                        chunk, expected):
        assert lines_in_mode(text, mode, chunk) == expected

    def test_each_batch_holds_the_lines_of_one_read(self):
        with mock.patch.object(tissue, "LOG_CHUNK", 8):
            batches = list(log_lines(io.StringIO("aaa\nbbb\ncccccccccc\nd")))
        assert batches == [["aaa", "bbb"], ["cccccccccc"], ["d"]]

    def test_an_undecodable_byte_in_the_third_chunk_names_its_line(self):
        data = b"1\n2\n3\n4\n5\xff\n6\n"  # read as 1\n2\n, 3\n4\n, 5\xff\n6, \n
        lines, error = read_partly(data, 4)
        assert lines == ["1", "2", "3", "4"]
        assert error == ("line 5: 'utf-8' codec can't decode byte 0xff in "
                         "position 1: invalid start byte")
        assert read_partly(data, 64) == (lines, error)

    def test_an_undecodable_line_longer_than_a_chunk_names_its_line(self):
        lines, error = read_partly(b"ok\r\nabcdef\xe2\x82", 3)
        assert lines == ["ok"]
        assert error == ("line 2: 'utf-8' codec can't decode bytes in "
                         "position 6-7: unexpected end of data")


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
        # a lone CR ends a line in every mode, as text mode reads it
        ("1\t2\tmature\ta\rb,c\t1.0\t2.0\t3.0",
         "line 2: expected 7 fields, got 4"),
    ])
    def test_bad_field_names_its_line_and_field(self, line, message):
        text = "3\t7\tmature\ta\t1.0\t2.0\t3.0\n" + line + "\n"
        for buf in (io.StringIO(text), io.BytesIO(text.encode())):
            with pytest.raises(ValueError) as info:
                read_migration_log(buf)
            assert str(info.value) == message

    @pytest.mark.parametrize("chunk", [5, 64, tissue.LOG_CHUNK])
    def test_equal_labels_are_one_string(self, chunk):
        records = []
        for tick in range(200):
            records.append(MigrationRecord(
                tick, tick, Context.MATURE,
                (f"item-{tick % 7}", f"item-{tick % 5}", "item-0"),
                1.0, 2.0, 3.0))
        buf = io.StringIO()
        write_migration_log(records, buf)
        buf.seek(0)
        with mock.patch.object(tissue, "LOG_CHUNK", chunk):
            read = read_migration_log(buf)
        assert read == records
        assert one_string_per_name(
            label for r in read for label in r.antigens)

    def test_only_records_that_bring_a_new_label_are_checked(self,
                                                            monkeypatch):
        checked = []
        monkeypatch.setattr(tissue, "check_labels", checked.append)
        text = "".join(f"{tick}\t1\tmature\t{labels}\t1.0\t2.0\t3.0\n"
                       for tick, labels in enumerate(
                           ["a,b", "b,a", "a", "a,c", "c,b,a", ""]))
        read_migration_log(io.StringIO(text))
        assert checked == [("a", "b"), ("a", "c")]

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
            lines = io.StringIO(text, newline=None).readlines()
            bad = int(match[1])
            assert 1 <= bad <= len(lines)
            read_migration_log(io.StringIO("".join(lines[:bad - 1])))
            with pytest.raises(ValueError, match="^line 1: "):
                read_migration_log(io.StringIO(lines[bad - 1]))
