"""Event streams: serialization, signal derivation, the synthetic
scenario, replay pacing, and the framed socket transport."""

import io
import os
import socket
import struct
import sys
import threading
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dca import streams
from dca.core import SignalVector
from dca.streams import (ANTIGEN, BASELINE_PPS, DRAIN_TICKS, FOLD_RECORDS,
                         K_DANGER, K_SAFE, MAX_FRAME, MAX_TICK_JUMP,
                         PORTSCAN_EXPERIMENTS, SAFE_MAX, SIGNAL_SET, Event,
                         EventDrivenRunner,
                         ProtocolError, ScenarioConfig, SignalMask,
                         SinkDisconnected, StreamClient, StreamFormatError,
                         TissueServer, _read_frames, derive_signals,
                         format_event, generate_scenario, parse_event,
                         read_log, replay, run_portscan_experiment,
                         scenario_process_groups, write_log)
from dca.tissue import PopulationConfig, Tissue

event_strategy = st.one_of(
    st.builds(Event.signal_set,
              st.floats(0, 1e6, allow_nan=False),
              st.builds(SignalVector,
                        pamp=st.floats(0, 100), danger=st.floats(0, 100),
                        safe=st.floats(0, 100),
                        inflammation=st.floats(0, 2))),
    st.builds(Event.antigen,
              st.floats(0, 1e6, allow_nan=False),
              st.text(alphabet=st.characters(
                  whitelist_categories=("L", "N")), min_size=1, max_size=10),
              st.sampled_from(["shell", "scanner", "file-transfer"])),
)
events_strategy = st.lists(event_strategy, max_size=20).map(
    lambda evs: sorted(evs, key=lambda e: e.timestamp))


# near-valid event lines: whole events, tab-joined fields from a vocabulary
# that reaches every check, and arbitrary text
event_field = st.one_of(
    st.sampled_from(["0", "1.5", "-1", "-0.0", "nan", "inf", "1e999", "2.5",
                     "", "S", "A", "x", "x,y", "sh\rell", " 3 "]),
    st.text(max_size=8))
event_line = st.one_of(
    event_strategy.map(format_event),
    st.lists(event_field, min_size=1, max_size=7).map("\t".join),
    st.text(max_size=40))


def scenario_events(noise_seed=3):
    return generate_scenario(ScenarioConfig(noise_seed=noise_seed))


def run_in_process(events, seed=9, mask=SignalMask()):
    runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=seed)),
                               mask=mask)
    runner.run(events)
    runner.drain()
    return runner.tissue.records


WAIT_DEADLINE_S = 10


def wait_for(server, deadline=WAIT_DEADLINE_S):
    """`server.wait()` under a deadline, so that a reader or accept loop
    that blocks fails the test instead of stalling the suite."""
    outcome = []

    def wait():
        try:
            outcome.append((True, server.wait()))
        except Exception as exc:
            outcome.append((False, exc))

    waiter = threading.Thread(target=wait, daemon=True)
    waiter.start()
    waiter.join(deadline)
    if waiter.is_alive():
        pytest.fail(f"TissueServer.wait() still blocked after {deadline} s")
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class Trickle:
    """The read end of a socket pair that writes the next fragment into
    the pair just before each read, so that each read returns exactly
    that fragment (or as much of it as the buffer holds); after the last
    fragment the write end shuts down (EOF)."""

    def __init__(self, fragments):
        assert all(fragments), "an empty fragment would block the read"
        self._tx, self._rx = socket.socketpair()
        self._tx.settimeout(WAIT_DEADLINE_S)
        self._rx.settimeout(WAIT_DEADLINE_S)
        self._fragments = iter(fragments)
        self.reads = 0

    def recv_into(self, buffer):
        self.reads += 1
        fragment = next(self._fragments, None)
        if fragment is None:
            self._tx.shutdown(socket.SHUT_WR)
        else:
            self._tx.sendall(fragment)
        return self._rx.recv_into(buffer)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._tx.close()
        self._rx.close()


def read_payloads(fragments):
    with Trickle(fragments) as sock:
        return [payload for batch in _read_frames(sock) for payload in batch]


@st.composite
def fragmented_frames(draw):
    """Valid frames, and their wire bytes cut into fragments: every byte
    alone, or at arbitrary points (splits inside headers included)."""
    payloads = draw(st.lists(st.text(max_size=40), max_size=15))
    wire = b"".join(frame(p.encode()) for p in payloads)
    if draw(st.booleans()):
        cuts = set(range(1, len(wire)))
    else:
        cuts = draw(st.sets(st.integers(1, max(1, len(wire) - 1))))
    bounds = [0, *sorted(c for c in cuts if c < len(wire)), len(wire)]
    fragments = [wire[i:j] for i, j in zip(bounds, bounds[1:]) if j > i]
    return payloads, fragments


class TestEventLog:
    def test_empty_round_trip(self):
        buf = io.StringIO()
        write_log([], buf)
        buf.seek(0)
        assert read_log(buf) == []

    @given(events_strategy)
    @settings(max_examples=150)
    def test_round_trip_is_bit_exact(self, events):
        buf = io.StringIO()
        write_log(events, buf)
        buf.seek(0)
        assert read_log(buf) == events

    def test_generated_scenario_round_trips(self):
        events = scenario_events()
        buf = io.StringIO()
        write_log(events, buf)
        buf.seek(0)
        assert read_log(buf) == events

    def test_decreasing_timestamps_rejected_with_line_number(self):
        buf = io.StringIO("1.0\tA\tx\tshell\n0.5\tA\ty\tshell\n")
        with pytest.raises(StreamFormatError, match="line 2"):
            read_log(buf)

    def test_malformed_line_rejected_with_line_number(self):
        with pytest.raises(StreamFormatError, match="line 1"):
            read_log(io.StringIO("nonsense\n"))
        with pytest.raises(StreamFormatError, match="line 3"):
            read_log(io.StringIO("0\tA\tx\tshell\n1\tA\ty\tshell\n2\tS\tbad\n"))

    def test_non_finite_signal_rejected_with_line_number(self):
        with pytest.raises(StreamFormatError, match="^line 2: .*finite"):
            read_log(io.StringIO("0\tS\t1\t1\t1\t0\n1\tS\tnan\t1\t1\t0\n"))

    @given(st.lists(event_line, max_size=8))
    @settings(max_examples=200)
    def test_any_text_parses_or_raises_a_stream_format_error(self, lines):
        for line in lines:
            try:
                text = format_event(parse_event(line))
            except StreamFormatError:
                continue
            assert format_event(parse_event(text)) == text
        try:
            read_log(io.StringIO("\n".join(lines)))
        except StreamFormatError:
            pass

    @given(st.binary(max_size=80))
    @settings(max_examples=200)
    def test_any_bytes_parse_or_raise_a_stream_format_error(self, data):
        try:
            read_log(io.BytesIO(data))
        except StreamFormatError:
            pass

    def test_undecodable_bytes_are_reported_by_line(self):
        data = b"0\tA\tx\tshell\n1\tA\t\xff\xfe\tshell\n"
        with pytest.raises(StreamFormatError,
                           match="^line 2: 'utf-8' codec can't decode"):
            read_log(io.BytesIO(data))
        assert read_log(io.BytesIO(data[:12])) == [
            Event.antigen(0.0, "x", "shell")]

    def test_named_tuple_copies_are_validated(self):
        antigen = Event.antigen(1.0, "a", "shell")
        assert antigen._replace(label="b") == Event.antigen(1.0, "b", "shell")
        with pytest.raises(ValueError):
            antigen._replace(label="a,b")
        with pytest.raises(ValueError):
            antigen._replace(timestamp=float("nan"))
        with pytest.raises(ValueError):
            Event._make((1.0, "Z", None, None, None))
        with pytest.raises(ValueError):
            SignalVector()._replace(inflammation=3.0)
        with pytest.raises(ValueError):
            SignalVector._make((-1.0, 0.0, 0.0, 0.0))
        assert hash(antigen) == hash(Event.antigen(1.0, "a", "shell"))
        with pytest.raises(AttributeError):
            antigen.label = "b"

    def test_event_validation(self):
        with pytest.raises(ValueError):
            Event(0.0, "Z")
        with pytest.raises(ValueError):
            Event.antigen(1.0, "", "shell")
        with pytest.raises(ValueError):
            Event.signal_set(-1.0, SignalVector())

    @pytest.mark.parametrize("label,process", [
        ("a,b", "shell"), ("a\tb", "shell"), ("a\nb", "shell"),
        ("a\rb", "shell"), ("a", "sh\tell"), ("a", "sh\nell"),
        ("a", "sh\rell"),
    ])
    def test_labels_that_would_split_a_log_field_rejected(self, label,
                                                          process):
        with pytest.raises(ValueError):
            Event.antigen(1.0, label, process)

    def test_process_name_may_hold_a_comma(self):
        assert Event.antigen(1.0, "a", "ssh,daemon").process == "ssh,daemon"

    def test_serialized_layouts(self):
        signal = Event.signal_set(2.0, SignalVector(1.5, 2.5, 3.5, 1.0))
        assert format_event(signal) == "2.0\tS\t1.5\t2.5\t3.5\t1.0"
        antigen = Event.antigen(2.25, "scanner:1034", "scanner")
        assert format_event(antigen) == "2.25\tA\tscanner:1034\tscanner"
        assert parse_event(format_event(antigen)) == antigen


class TestDeriveSignals:
    def test_steady_traffic_gives_full_safe(self):
        out = derive_signals([50.0] * 5, [0.0] * 5)
        assert all(s.safe == SAFE_MAX for s in out)

    def test_zero_traffic_zero_pamp_danger(self):
        out = derive_signals([0.0] * 3, [0.0] * 3)
        assert all(s.pamp == 0.0 and s.danger == 0.0 for s in out)

    def test_step_erodes_safe_via_moving_average(self):
        out = derive_signals([10.0, 10.0, 14.0, 14.0, 14.0], [0.0] * 5)
        # the 2-sample moving average moves 10 -> 12 -> 14 across the step
        assert out[1].safe == SAFE_MAX
        assert out[2].safe == pytest.approx(SAFE_MAX - K_SAFE * 2.0)
        assert out[3].safe == pytest.approx(SAFE_MAX - K_SAFE * 2.0)
        assert out[4].safe == SAFE_MAX
        # a step large enough floors safe at zero
        assert derive_signals([10.0, 110.0], [0.0] * 2)[1].safe == 0.0

    def test_danger_scale_covariance(self):
        pps = [3.0, 80.0, 15.0]
        out = derive_signals(pps, [0.0] * 3)
        assert [s.danger for s in out] == [K_DANGER * p for p in pps]

    def test_user_absent_sets_inflammation(self):
        # the scenario's user is absent, so every second is inflamed
        out = derive_signals([1.0, 50.0], [0.0, 3.0])
        assert [s.inflammation for s in out] == [1.0, 1.0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            derive_signals([1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            derive_signals([-1.0], [0.0])


class TestScenario:
    def test_deterministic_under_fixed_noise_seed(self):
        assert scenario_events(5) == scenario_events(5)
        assert scenario_events(5) != scenario_events(6)

    def test_pause_phase_has_no_pamp_and_baseline_danger(self):
        cfg = ScenarioConfig(noise_seed=2)
        events = generate_scenario(cfg)
        start = cfg.login_duration + cfg.scan_duration
        pause = [e.signals for e in events
                 if e.kind == SIGNAL_SET and start + 2 <= e.timestamp
                 < start + cfg.pause_duration]
        assert all(s.pamp == 0.0 for s in pause)
        baseline_danger = K_DANGER * BASELINE_PPS
        for s in pause:
            assert s.danger == pytest.approx(baseline_danger, abs=0.5)

    def test_scanner_emits_most_antigen_and_only_while_scanning(self):
        cfg = ScenarioConfig(noise_seed=4)
        events = generate_scenario(cfg)
        counts: dict[str, int] = {}
        for e in events:
            if e.kind == ANTIGEN:
                counts[e.process] = counts.get(e.process, 0) + 1
                if e.process == "scanner":
                    assert cfg.phase_of(int(e.timestamp)) == "scan"
        assert counts["scanner"] == max(counts.values())

    def test_scan_phase_signal_contrast(self):
        cfg = ScenarioConfig(noise_seed=8)
        events = generate_scenario(cfg)

        def phase_mean(phase, field):
            vals = [getattr(e.signals, field) for e in events
                    if e.kind == SIGNAL_SET
                    and cfg.phase_of(int(e.timestamp)) == phase]
            return sum(vals) / len(vals)

        assert phase_mean("scan", "pamp") > phase_mean("pause", "pamp")
        assert phase_mean("scan", "danger") > phase_mean("pause", "danger")
        assert phase_mean("scan", "safe") < phase_mean("pause", "safe")

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scan_duration=0)

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(noise_seed=0), ScenarioConfig(noise_seed=7),
        ScenarioConfig(noise_seed=31),
        ScenarioConfig(login_duration=150, scan_duration=150,
                       pause_duration=150, transfer_duration=75,
                       close_duration=50, noise_seed=2)])
    def test_every_generated_event_passes_the_full_checks(self, cfg):
        # the generator checks its label table once and builds its antigen
        # events without the constructor; each must still be one it accepts
        events = generate_scenario(cfg)
        assert any(e.kind == ANTIGEN for e in events)
        for e in events:
            assert type(e) is Event
            assert Event(*e) == e

    def test_process_groups_cover_all_antigen(self):
        events = scenario_events()
        groups = scenario_process_groups(events)
        labels = {e.label for e in events if e.kind == ANTIGEN}
        assert set().union(*groups.values()) == labels


class TestReplay:
    def test_max_rate_equals_paced_rate(self):
        events = scenario_events()
        fast = run_in_process(events)
        sleeps = []
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=9)))
        replay(events, 1.0, runner, sleep=sleeps.append)
        runner.drain()
        assert runner.tissue.records == fast
        # pacing covers the log's logical duration at rate 1
        span = events[-1].timestamp - events[0].timestamp
        assert sum(sleeps) == pytest.approx(span, abs=1.0)

    def test_doubling_rate_halves_waiting(self):
        events = scenario_events()
        waits = {}
        for rate in (1.0, 2.0):
            sleeps = []
            runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=9)))
            replay(events, rate, runner, sleep=sleeps.append)
            waits[rate] = sum(sleeps)
        assert waits[2.0] == pytest.approx(waits[1.0] / 2)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            replay([], 0.0, None)

    @pytest.mark.parametrize("rate", [1e-12, "1e-300"])
    def test_a_wait_longer_than_sleep_accepts_is_rejected_first(self, rate):
        # the longest gap is what counts, wherever it falls in the log
        events = scenario_events()[:10]
        gap = events[-1].timestamp - events[-2].timestamp
        assert gap / float(rate) > threading.TIMEOUT_MAX

        class RecordingSink:
            def __init__(self):
                self.delivered = []

            def apply(self, event):
                self.delivered.append(event)

        sleeps, sink = [], RecordingSink()
        with pytest.raises(ValueError, match="longer than sleep allows"):
            replay(events, rate, sink, sleep=sleeps.append)
        assert sleeps == [] and sink.delivered == []

    def test_a_slow_rate_within_the_limit_is_paced(self):
        events = scenario_events()[:10]
        longest = max(b.timestamp - a.timestamp
                      for a, b in zip(events, events[1:]))
        rate = longest / threading.TIMEOUT_MAX * 2
        sleeps = []
        replay(events, rate, EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), sleep=sleeps.append)
        assert sleeps and max(sleeps) <= threading.TIMEOUT_MAX

    def test_sink_disconnection_reports_undelivered(self):
        class FlakySink:
            def __init__(self):
                self.delivered = 0

            def apply(self, event):
                if self.delivered >= 3:
                    raise OSError("gone")
                self.delivered += 1

        events = scenario_events()[:10]
        with pytest.raises(SinkDisconnected) as exc:
            replay(events, "max", FlakySink())
        assert exc.value.undelivered == 7


def apply_each(runner, events):
    """The runner's loop as it was before it walked whole seconds: every
    event checked, ticked up to and applied on its own. The reference for
    `EventDrivenRunner.run`."""
    tissue = runner.tissue
    for event in events:
        if event.timestamp < runner._last_ts:
            raise StreamFormatError(
                f"event timestamp {event.timestamp!r} decreases")
        if int(event.timestamp) - tissue.clock > streams.MAX_TICK_JUMP:
            raise StreamFormatError(
                f"event timestamp {event.timestamp!r} lies more than "
                f"{streams.MAX_TICK_JUMP} ticks past the clock "
                f"({tissue.clock})")
        runner._last_ts = event.timestamp
        while tissue.clock < int(event.timestamp):
            tissue.tick()
        if event.kind == SIGNAL_SET:
            tissue.set_signals(runner.mask.apply(event.signals))
        else:
            tissue.enqueue_antigen(event.label)


def runner_state(runner):
    t = runner.tissue
    return (t.records, list(t.pool), list(t._feed), t.slots, t.signals,
            t.clock, runner._last_ts)


def outcome_of(fn):
    try:
        fn()
    except StreamFormatError as exc:
        return str(exc)
    return None


# the steps between timestamps: the same instant, within a second, to the
# next seconds, a gap, a jump past the patched bound, and a step back (a
# decrease, which may land in the same second)
STEPS = [0.0, 0.0, 0.0, 0.25, 0.3, 1.0, 1.5, 2.0, 4.0, 9.0, -0.2]
runner_steps = st.lists(st.tuples(
    st.sampled_from(STEPS), st.booleans(), st.integers(0, 4),
    st.sampled_from(["a", "b", "c", "d"])), max_size=60)


def build_stream(steps):
    events, ts = [], 0.0
    for step, signal, level, label in steps:
        ts = max(0.0, ts + step)
        events.append(
            Event.signal_set(ts, SignalVector(pamp=level, danger=1.0,
                                              safe=4 - level,
                                              inflammation=level / 2))
            if signal else Event.antigen(ts, label, "shell"))
    return events


# No shrinking: see test_tissue_reference.py.
@given(st.integers(0, 2**32), runner_steps, st.booleans(),
       st.sampled_from([1, 2, 40]), st.sampled_from([SignalMask(),
                                                     SignalMask(use_pamp=False)]),
       st.lists(st.integers(0, 60), max_size=4))
@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_run_matches_the_per_event_loop(seed, steps, overwrite, capacity,
                                        mask, cuts):
    """Whole seconds handed over at once give what one event at a time
    gave: the same records, pool, feed, store, signals, clock and last
    timestamp, and the same rejection. The stream is cut into several
    `run` calls, so seconds split across calls are compared too."""
    cfg = PopulationConfig(seed=seed, num_cells=10,
                           tissue_antigen_capacity=capacity,
                           antigen_sample_multiplicity=2,
                           antigen_sampling_probability=0.5,
                           threshold_mode=("uniform", 2.0, 8.0),
                           antigen_overwrite=overwrite)
    events = build_stream(steps)
    batched = EventDrivenRunner(Tissue(cfg), mask=mask)
    each = EventDrivenRunner(Tissue(cfg), mask=mask)
    bounds = [0, *sorted(cuts), len(events)]

    def run_in_calls():
        for i, j in zip(bounds, bounds[1:]):
            batched.run(events[i:j])

    with mock.patch.object(streams, "MAX_TICK_JUMP", 8):
        assert outcome_of(run_in_calls) == \
            outcome_of(lambda: apply_each(each, events))
    assert runner_state(batched) == runner_state(each)
    assert batched.drain() == each.drain()
    assert runner_state(batched) == runner_state(each)


def test_streams_reach_the_cases_they_name():
    """The drawn streams above reach an overflowing overwrite store and a
    rejection in the middle of a second; these fixed steps do both."""
    steps = [(0.0, True, 1, "a"), (0.25, False, 0, "a"), (0.0, False, 0, "b"),
             (0.0, False, 0, "c"), (0.25, True, 3, "a"), (-0.2, False, 0, "d")]
    cfg = PopulationConfig(seed=1, num_cells=10, tissue_antigen_capacity=2,
                           antigen_overwrite=True)
    runner = EventDrivenRunner(Tissue(cfg))
    with pytest.raises(StreamFormatError, match="decreases"):
        runner.run(build_stream(steps))
    # the three labels of second 0 went into a two-slot store, and its
    # last signal set, not its first, is the tissue's
    assert sorted(label for label, _ in runner.tissue.slots) in (
        ["a", "c"], ["b", "c"])
    assert runner.tissue.signals.pamp == 3


# events of one second: the gap in seconds from the previous event,
# whether it is a signal set, a level or label, and a key that places it
# when the second is re-stamped
second_steps = st.lists(st.tuples(
    st.sampled_from([0, 0, 0, 1, 3]), st.booleans(), st.integers(0, 4),
    st.floats(0, 1)), max_size=50)


def stamp_seconds(steps):
    """The events of `steps`, each second's stamped in drawn order at even
    offsets within it, and the same events with each second's signal sets
    and antigen interleaved in key order, each kind keeping its own order.
    The re-stamped copy puts every event of a second at its start when
    `key` of the second's first event is below 0.5, so that signal sets
    and antigen share a timestamp."""
    seconds: dict[int, list] = {}
    second = 0
    for gap, signal, level, key in steps:
        second += gap
        seconds.setdefault(second, []).append((
            Event.signal_set(0.0, SignalVector(
                pamp=level, danger=1.0, safe=4 - level))
            if signal else Event.antigen(0.0, f"ag-{level}", "shell"), key))
    original, restamped = [], []
    for second, group in seconds.items():
        k = len(group) + 1
        original += [e._replace(timestamp=second + (i + 1) / k)
                     for i, (e, _) in enumerate(group)]
        by_kind = {kind: iter([e for e, _ in group if e.kind == kind])
                   for kind in (SIGNAL_SET, ANTIGEN)}
        kinds = [e.kind for e, _ in sorted(group, key=lambda p: p[1])]
        same_instant = group[0][1] < 0.5
        restamped += [next(by_kind[kind])._replace(
            timestamp=float(second) if same_instant else second + (i + 1) / k)
            for i, kind in enumerate(kinds)]
    return original, restamped


@given(st.integers(0, 2**32), second_steps, st.sampled_from([1, 3]))
@settings(max_examples=80, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target))
def test_interleaving_within_a_second_changes_nothing(seed, steps, capacity):
    """Within a second only its last signal set and the order of its
    labels reach the tissue, so interleaving signal sets and antigen
    differently, or stamping them at one instant, gives the same records,
    pool, feed, store and clock, under both store policies. The server
    merges equal timestamps by client alone on the strength of this."""
    original, restamped = stamp_seconds(steps)
    for overwrite in (False, True):
        cfg = PopulationConfig(seed=seed, num_cells=10,
                               tissue_antigen_capacity=capacity,
                               antigen_sample_multiplicity=2,
                               antigen_sampling_probability=0.5,
                               threshold_mode=("uniform", 2.0, 8.0),
                               antigen_overwrite=overwrite)
        states = []
        for events in (original, restamped):
            runner = EventDrivenRunner(Tissue(cfg))
            runner.run(events)
            # all but the last timestamp, which the re-stamping moves
            before_drain = runner_state(runner)[:-1]
            runner.drain()
            states.append((before_drain, runner_state(runner)[:-1]))
        assert states[0] == states[1]


def test_restamping_reaches_the_cases_it_names():
    """Fixed steps whose re-stamped copy moves an antigen ahead of a signal
    set at the same instant, and another second's behind one."""
    steps = [(0, True, 1, 0.3), (0, False, 2, 0.1), (0, True, 3, 0.5),
             (1, True, 0, 0.7), (0, False, 1, 0.2)]
    original, restamped = stamp_seconds(steps)
    assert [e.kind for e in original] == ["S", "A", "S", "S", "A"]
    assert [(e.timestamp, e.kind) for e in restamped] == [
        (0.0, "A"), (0.0, "S"), (0.0, "S"), (1 + 1 / 3, "A"),
        (1 + 2 / 3, "S")]
    assert [e.signals for e in restamped if e.kind == SIGNAL_SET] == \
        [e.signals for e in original if e.kind == SIGNAL_SET]


class TestRunner:
    def test_signal_mask_zeroes_channels(self):
        mask = SignalMask(use_pamp=False, use_inflammation=False)
        masked = mask.apply(SignalVector(5, 6, 7, 1))
        assert masked == SignalVector(0, 6, 7, 0)

    def test_a_mask_keeping_every_channel_returns_the_vector_itself(self):
        s = SignalVector(5, 6, 7, 1)
        assert SignalMask().apply(s) is s
        assert PORTSCAN_EXPERIMENTS[4].mask.apply(s) is s

    @pytest.mark.parametrize("number,zeroed", [
        (1, ("pamp", "inflammation")), (2, ("inflammation",)),
        (3, ("inflammation",))])
    def test_experiments_zero_their_masked_channels(self, number, zeroed):
        s = SignalVector(5, 6, 7, 1)
        masked = PORTSCAN_EXPERIMENTS[number].mask.apply(s)
        assert masked == s._replace(**dict.fromkeys(zeroed, 0.0))

    def test_a_negative_drain_cap_is_rejected_before_any_tick(self):
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=1)))
        runner.apply(Event.antigen(3.0, "x", "shell"))
        with pytest.raises(ValueError, match="max_ticks"):
            runner.drain(max_ticks=-3)
        assert runner.tissue.clock == 3
        assert runner.drain(max_ticks=0) == 0
        assert runner.tissue.clock == 4

    def test_out_of_order_event_rejected(self):
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=1)))
        runner.apply(Event.antigen(5.0, "x", "shell"))
        with pytest.raises(StreamFormatError):
            runner.apply(Event.antigen(4.0, "y", "shell"))

    def test_a_jump_past_the_bound_is_rejected_before_any_tick(
            self, monkeypatch):
        monkeypatch.setattr("dca.streams.MAX_TICK_JUMP", 5)
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(
            seed=1, num_cells=20)))
        runner.apply(Event.signal_set(0.0, SignalVector(1, 1, 1, 1)))
        runner.apply(Event.antigen(5.5, "x", "shell"))  # just at the bound
        assert runner.tissue.clock == 5
        with pytest.raises(StreamFormatError, match=r"^event timestamp 11\.0 "
                           r"lies more than 5 ticks past the clock \(5\)$"):
            runner.apply(Event.antigen(11.0, "y", "shell"))
        assert runner.tissue.clock == 5
        assert runner.tissue.slots.count(None) == 499
        # the rejected event left no trace: the last timestamp is unchanged
        runner.apply(Event.antigen(5.5, "z", "shell"))

    def test_drain_returns_its_ticks(self):
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=1)))
        runner.apply(Event.signal_set(0.0, SignalVector(pamp=50)))
        runner.apply(Event.signal_set(3.0, SignalVector(pamp=50)))
        assert runner.drain() == 0
        assert runner.tissue.clock == 4
        # a held antigen that no cell ever presents: the drain hits its cap
        quiet = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=1)))
        quiet.apply(Event.antigen(0.0, "x", "shell"))
        assert quiet.drain() == DRAIN_TICKS
        assert not quiet.tissue.settled
        assert quiet.drain(max_ticks=5) == 5

    def test_events_apply_before_their_second_ticks(self):
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=1)))
        runner.apply(Event.signal_set(0.0, SignalVector(pamp=50)))
        assert runner.tissue.clock == 0
        runner.apply(Event.signal_set(3.0, SignalVector()))
        # ticks 0-2 ran under the first signal set
        assert runner.tissue.clock == 3

    def test_replay_and_run_end_a_stream_alike(self):
        # the stream ends in signal-only seconds, so the tissue has settled
        # before the tick covering the last event's second has run
        events = [e for e in scenario_events()[:200] if e.kind == SIGNAL_SET]

        def fresh_runner():
            return EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=9)))

        direct, replayed = fresh_runner(), fresh_runner()
        direct.run(events)
        direct.drain()
        replay(events, "max", replayed)
        replayed.drain()
        clock = replayed.tissue.clock
        assert clock == int(events[-1].timestamp) + 1
        assert clock == direct.tissue.clock
        assert replayed.tissue.records == direct.tissue.records

    def test_drain_presents_every_antigen(self):
        # fewer cells than store slots: sampled antigen outlives the last
        # immature cell holding some, so the drain must also wait for the
        # feed and the store to empty
        runner = EventDrivenRunner(Tissue(
            PopulationConfig.portscan(seed=1010, num_cells=50)))
        runner.run(scenario_events(noise_seed=1010))
        runner.drain()
        tissue = runner.tissue
        assert tissue.feed_pending == 0
        assert tissue.occupied == 0
        assert all(not cell.antigen_store for cell in tissue.pool)


class TestFrameReader:
    @given(fragmented_frames())
    @settings(max_examples=150, deadline=None)
    def test_fragmentation_never_changes_the_payloads(self, case):
        payloads, fragments = case
        assert read_payloads(fragments) == payloads

    def test_frames_straddling_a_full_buffer(self):
        # max-size and odd-size frames, with a multi-byte character at a
        # payload edge; fragments both within and beyond one buffer
        payloads = ["x" * MAX_FRAME, "é" * (MAX_FRAME // 2), "y" * 4093,
                    "", "z" * 17] * 20
        wire = b"".join(frame(p.encode()) for p in payloads)
        for size in (1000, 4101, 20_000, 70_000):
            fragments = [wire[i:i + size] for i in range(0, len(wire), size)]
            assert read_payloads(fragments) == payloads

    def test_a_burst_of_frames_costs_one_read(self):
        payloads = [f"0.5\tA\tx{i}\tshell" for i in range(500)]
        wire = b"".join(frame(p.encode()) for p in payloads)
        with Trickle([wire]) as sock:
            assert list(_read_frames(sock)) == [payloads]
            assert sock.reads == 2  # the burst, then EOF

    def test_eof_at_a_frame_boundary_ends_cleanly(self):
        assert read_payloads([frame(b"a"), frame(b"bc")]) == ["a", "bc"]
        assert read_payloads([]) == []

    @pytest.mark.parametrize("cut", [1, 3, 4, 6, 11])
    def test_cut_inside_a_frame_is_a_protocol_error(self, cut):
        # a whole first frame, then the second (8-byte payload) cut short
        wire = frame(b"first") + frame(b"12345678")[:cut]
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_payloads([wire])

    def test_oversized_header_raises_before_its_payload(self):
        # the writer keeps its end open: the error must come from the
        # header alone, not from a read timeout
        tx, rx = socket.socketpair()
        with tx, rx:
            rx.settimeout(WAIT_DEADLINE_S)
            tx.sendall(frame(b"ok") + struct.pack(">I", MAX_FRAME + 1))
            reader = _read_frames(rx)
            assert next(reader) == ["ok"]
            with pytest.raises(ProtocolError, match="exceeds"):
                next(reader)

    def test_undecodable_payload_is_a_value_error(self):
        with pytest.raises(ValueError):
            read_payloads([frame(b"\xff\xfe")])

    @given(st.one_of(
        st.binary(min_size=1, max_size=64),
        st.tuples(st.lists(st.binary(max_size=30), min_size=1, max_size=5),
                  st.integers(0, 200)).map(
            lambda case: b"".join(map(frame, case[0]))[case[1]:]
            or b"\x00")))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes_raise_only_documented_errors(self, wire):
        try:
            for line in read_payloads([wire]):
                parse_event(line)
        except (ProtocolError, ValueError):
            pass


class TestWireTransport:
    def test_single_client_matches_in_process(self):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))))
        server.start()
        with StreamClient(*server.address) as client:
            replay(events, "max", client)
        assert wait_for(server) == expected

    def test_two_clients_merge_by_timestamp(self):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()

        def push(stream):
            with StreamClient(*server.address) as client:
                replay(stream, "max", client)

        signals = [e for e in events if e.kind == SIGNAL_SET]
        antigen = [e for e in events if e.kind == ANTIGEN]
        threads = [threading.Thread(target=push, args=(s,))
                   for s in (signals, antigen)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert wait_for(server) == expected

    def test_antigen_ahead_of_a_signal_set_at_one_instant(self):
        # every event of a second stamped at its start: the merge puts the
        # antigen of client 0 ahead of the signal set of client 1 at each
        # instant, where the in-process stream has the signal set first
        events = [e._replace(timestamp=float(int(e.timestamp)))
                  for e in scenario_events()]
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        # connected in this order, so the antigen client is client 0
        with StreamClient(*server.address) as antigen_client, \
                StreamClient(*server.address) as signal_client:
            replay([e for e in events if e.kind == ANTIGEN], "max",
                   antigen_client)
            replay([e for e in events if e.kind == SIGNAL_SET], "max",
                   signal_client)
        assert wait_for(server) == expected

    def test_oversized_frame_drops_only_that_client(self):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        rogue = socket.create_connection(server.address)
        rogue.sendall(struct.pack(">I", MAX_FRAME + 1) + b"x")
        rogue.close()
        with StreamClient(*server.address) as client:
            replay(events, "max", client)
        assert wait_for(server) == expected

    def test_oversized_header_drops_a_client_that_stays_connected(self):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        with socket.create_connection(server.address) as rogue:
            rogue.sendall(struct.pack(">I", MAX_FRAME + 1))
            with StreamClient(*server.address) as client:
                replay(events, "max", client)
            assert wait_for(server) == expected

    def test_partial_frame_discarded(self):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        rogue = socket.create_connection(server.address)
        rogue.sendall(struct.pack(">I", 100) + b"only-ten-b")
        rogue.close()
        with StreamClient(*server.address) as client:
            replay(events, "max", client)
        assert wait_for(server) == expected

    def test_undecodable_frame_drops_that_client(self, caplog):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        rogue = socket.create_connection(server.address)
        rogue.sendall(struct.pack(">I", 2) + b"\xff\xfe")
        rogue.close()
        with StreamClient(*server.address) as client:
            replay(events, "max", client)
        assert wait_for(server) == expected
        assert "dropped" in caplog.text

    def test_reset_connection_drops_that_client(self, caplog):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        rogue = socket.create_connection(server.address)
        rogue.sendall(struct.pack(">I", 100) + b"only-ten-b")
        # a zero linger time makes close() reset the connection
        rogue.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                         struct.pack("ii", 1, 0))
        rogue.close()
        with StreamClient(*server.address) as client:
            replay(events, "max", client)
        assert wait_for(server) == expected
        assert "client 0 dropped" in caplog.text

    @pytest.mark.parametrize("line", ["0.5\tA\ta,b\tshell",
                                      "0.5\tA\tx\ny\tshell",
                                      "0.5\tA\tx\tsh\rell"])
    def test_label_that_breaks_the_logs_drops_that_client(self, caplog,
                                                          line):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        rogue = socket.create_connection(server.address)
        payload = line.encode()
        rogue.sendall(struct.pack(">I", len(payload)) + payload)
        rogue.close()
        with StreamClient(*server.address) as client:
            replay(events, "max", client)
        assert wait_for(server) == expected
        assert "dropped" in caplog.text

    def test_non_finite_signal_drops_that_client(self):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        rogue = socket.create_connection(server.address)
        rogue.sendall(frame(b"0.5\tS\tnan\t1\t1\t0"))
        rogue.close()
        with StreamClient(*server.address) as client:
            replay(events, "max", client)
        assert wait_for(server) == expected
        assert server.dropped == [(0, "line 1: pamp, danger and safe must "
                                      "be finite and non-negative")]

    def test_decreasing_timestamp_drops_that_client(self):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        # past the other stream's end, so neither event can be applied
        # before the second one drops the client
        rogue = socket.create_connection(server.address)
        rogue.sendall(frame(b"1000.0\tA\tx\tshell")
                      + frame(b"999.0\tA\ty\tshell"))
        rogue.close()
        with StreamClient(*server.address) as client:
            replay(events, "max", client)
        assert wait_for(server) == expected
        assert server.dropped == [
            (0, "line 2: timestamp 999.0 decreases (previous 1000.0)")]

    def test_timestamp_jump_drops_that_client(self):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        # past the other stream's end, so neither event can be applied
        # before the second one drops the client
        far = 1000.0 + MAX_TICK_JUMP + 1
        rogue = socket.create_connection(server.address)
        rogue.sendall(frame(b"1000.0\tA\tx\tshell")
                      + frame(f"{far!r}\tA\ty\tshell".encode()))
        rogue.close()
        with StreamClient(*server.address) as client:
            replay(events, "max", client)
        assert wait_for(server) == expected
        assert server.dropped == [
            (0, f"line 2: timestamp {far!r} jumps more than {MAX_TICK_JUMP} "
                "s past the previous (1000.0)")]

    def test_a_first_timestamp_past_the_bound_drops_that_client(self):
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9, num_cells=20))))
        server.start()
        with socket.create_connection(server.address) as sock:
            sock.sendall(frame(f"{MAX_TICK_JUMP + 1.0!r}\tA\tx\tshell"
                               .encode()))
        assert wait_for(server) == []
        assert server.runner.tissue.clock == 0
        assert [index for index, _ in server.dropped] == [0]

    def test_merges_while_the_stream_runs_and_keeps_them_after_a_drop(self):
        events = scenario_events()
        head = [e for e in events if e.timestamp <= 20.0]
        assert head[-1] == Event.signal_set(20.0, head[-1].signals)
        expected = run_in_process([e for e in head if e.timestamp < 20.0])
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=9)))
        server = TissueServer(runner)
        server.start()
        with socket.create_connection(server.address) as sock:
            sock.sendall(b"".join(frame(format_event(e).encode())
                                  for e in head))
            # the event at 20.0 moves the watermark to 20: every earlier
            # event is applied while the client is still connected
            deadline = time.monotonic() + WAIT_DEADLINE_S
            while runner.tissue.clock < 19:
                assert time.monotonic() < deadline, "no merge before the end"
                time.sleep(0.01)
            sock.sendall(frame(b"\xff\xfe"))
        assert wait_for(server) == expected
        assert [index for index, _ in server.dropped] == [0]

    def test_records_are_built_while_the_stream_runs(self):
        events = scenario_events()
        head = [e for e in events if e.timestamp <= 20.0]
        expected = run_in_process(head)
        runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=9)))
        tissue = runner.tissue
        server = TissueServer(runner)
        server.start()
        with socket.create_connection(server.address) as sock:
            sock.sendall(b"".join(frame(format_event(e).encode())
                                  for e in head))
            deadline = time.monotonic() + WAIT_DEADLINE_S
            while tissue.clock < 19:
                assert time.monotonic() < deadline, "no merge before the end"
                time.sleep(0.01)
            # between merges (the lock is free) fewer than FOLD_RECORDS
            # migrations are unbuilt; these private reads build nothing
            with server._lock:
                assert tissue.migrations >= FOLD_RECORDS
                built = len(tissue._records)
                assert built > 0
                assert tissue.migrations - built < FOLD_RECORDS
                assert built + sum(map(len, tissue._pending)) == \
                    tissue.migrations
        assert wait_for(server) == expected

    def test_nothing_is_applied_before_every_client_has_connected(self):
        events = scenario_events()
        expected = run_in_process(events)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=2)
        server.start()
        with StreamClient(*server.address) as client:
            replay([e for e in events if e.kind == SIGNAL_SET], "max", client)
        # give the server time to read the whole signal stream; the
        # antigen client, yet to connect, still sends from timestamp 0
        time.sleep(0.2)
        with StreamClient(*server.address) as client:
            replay([e for e in events if e.kind == ANTIGEN], "max", client)
        assert wait_for(server) == expected

    def test_tissue_error_is_raised_from_wait_not_a_drop(self):
        class FaultyTissue(Tissue):
            def tick(self):
                if self.clock > 50:
                    raise ValueError("tissue fault")
                return super().tick()

        server = TissueServer(EventDrivenRunner(
            FaultyTissue(PopulationConfig.portscan(seed=9))))
        server.start()
        with StreamClient(*server.address) as client:
            replay(scenario_events(), "max", client)
        with pytest.raises(ValueError, match="tissue fault"):
            wait_for(server)
        assert server.dropped == []

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    @settings(max_examples=5, deadline=None)
    def test_any_split_into_clients_serves_the_in_process_run(self, owners):
        # event i goes to client owners[i % len(owners)]; a client that
        # owns none sends nothing and finishes at once. More clients than
        # cores and a short switch interval stress the shared merge state.
        events = scenario_events()[:400]
        parts = [[], [], [], []]
        for i, e in enumerate(events):
            parts[owners[i % len(owners)]].append(e)
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))), expected_clients=4)
        server.start()

        def push(stream):
            with StreamClient(*server.address) as client:
                replay(stream, "max", client)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=push, args=(p,))
                       for p in parts]
            for t in threads:
                t.start()
            for t in threads:
                t.join(WAIT_DEADLINE_S)
                assert not t.is_alive()
            records = wait_for(server)
        finally:
            sys.setswitchinterval(interval)
        assert records == run_in_process(events)

    def test_wait_before_start_is_an_error(self):
        with TissueServer(EventDrivenRunner(
                Tissue(PopulationConfig.portscan(seed=9)))) as server:
            with pytest.raises(RuntimeError, match="before start"):
                wait_for(server)

    def test_closed_server_releases_its_port(self):
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))))
        host, port = server.address
        server.close()
        server.close()
        socket.create_server((host, port)).close()

    def test_close_ends_a_wait_for_clients(self):
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))))
        host, port = server.address
        server.start()
        server.close()
        with pytest.raises(RuntimeError, match="0 of 1 clients"):
            wait_for(server)
        socket.create_server((host, port)).close()

    def test_oversized_send_refused_client_side(self):
        server = TissueServer(EventDrivenRunner(
            Tissue(PopulationConfig.portscan(seed=9))))
        server.start()
        with StreamClient(*server.address) as client:
            with pytest.raises(ProtocolError):
                client.apply(Event.antigen(0.0, "x" * (MAX_FRAME + 1), "shell"))
        wait_for(server)


class TestPortscanExperiments:
    @pytest.mark.parametrize("repeats", [0, 1])
    def test_too_few_repeats_rejected(self, repeats):
        with pytest.raises(ValueError, match="at least 2"):
            run_portscan_experiment(ScenarioConfig(), 2, repeats=repeats)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            run_portscan_experiment(ScenarioConfig(), 5)

    def test_small_run_produces_all_processes(self):
        result = run_portscan_experiment(ScenarioConfig(noise_seed=1), 2,
                                         seed=1, repeats=2)
        assert set(result.process_table) == {
            "ssh-daemon", "shell", "scanner", "forward-agent", "file-transfer"}
        assert result.scanner_vs_transfer.mean_difference > 0
        assert result.antigen_per_cell > 0


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunRepeats:
    """`run_repeats` through its one seam, `streams.usable_cpus`."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_results_come_back_in_repeat_order(self, monkeypatch, workers,
                                               count):
        monkeypatch.setattr(streams, "usable_cpus", lambda: workers)
        results = streams.run_repeats(lambda r: (r, os.getpid()), count)
        assert [r for r, _ in results] == list(range(count))
        pids = [pid for _, pid in results]
        # the caller runs the first share, one child each other share
        assert pids[0] == os.getpid()
        assert len(set(pids)) == min(workers, count)
        assert pids == sorted(pids, key=pids.index)  # shares are consecutive
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_portscan_results_do_not_depend_on_the_workers(
            self, monkeypatch, workers, count):
        def run():
            return run_portscan_experiment(ScenarioConfig(noise_seed=3), 3,
                                           seed=4, repeats=count)

        monkeypatch.setattr(streams, "usable_cpus", lambda: 1)
        inline = run()
        monkeypatch.setattr(streams, "usable_cpus", lambda: workers)
        assert run() == inline
        assert_no_child_left()

    def test_a_childs_value_error_reaches_the_caller(self, monkeypatch):
        def run_one(r):
            if r == 2:
                raise ValueError(f"repeat {r} is bad")
            return r

        monkeypatch.setattr(streams, "usable_cpus", lambda: 2)
        with pytest.raises(ValueError, match="^repeat 2 is bad$"):
            streams.run_repeats(run_one, 4)
        assert_no_child_left()

    def test_the_earliest_failing_share_wins(self, monkeypatch):
        def run_one(r):
            raise KeyError(r) if r >= 1 else LookupError(r)

        monkeypatch.setattr(streams, "usable_cpus", lambda: 3)
        with pytest.raises(LookupError) as info:
            streams.run_repeats(run_one, 3)
        assert type(info.value) is LookupError
        assert_no_child_left()

    def test_a_child_that_dies_is_named(self, monkeypatch):
        def run_one(r):
            if r == 3:
                os._exit(7)
            return r

        monkeypatch.setattr(streams, "usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="repeats 2, 3 ended without"):
            streams.run_repeats(run_one, 4)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_an_error_in_the_callers_share_stops_every_child(
            self, monkeypatch, error):
        def run_one(r):
            if r == 0:
                raise error("the caller's share")
            time.sleep(60)

        monkeypatch.setattr(streams, "usable_cpus", lambda: 3)
        start = time.monotonic()
        with pytest.raises(error):
            streams.run_repeats(run_one, 3)
        assert time.monotonic() - start < 30
        assert_no_child_left()
