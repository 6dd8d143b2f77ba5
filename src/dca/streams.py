"""Timestamped event streams and their delivery paths.

An event stream is a timestamp-ordered sequence of signal-set and
antigen events. Streams can be generated synthetically (a scripted
remote-session scenario containing an address scan), written to and
read from a line-oriented log with bit-exact round-trips, replayed at
a configurable rate, or pushed over a length-prefixed socket transport
into a tissue server. All delivery paths funnel into the same
event-driven runner, so they produce identical migration records for
equal seeds.
"""

from __future__ import annotations

import bisect
import logging
import math
import os
import pickle
import random
import re
import signal
import socket
import struct
import threading
import time
from dataclasses import dataclass, replace
from itertools import islice, pairwise
from typing import (IO, Callable, Iterable, Iterator, NamedTuple, NoReturn,
                    Optional, Sequence, TextIO, TypeVar)

from .analysis import (PairedTTestResult, mean_and_std, paired_t_test,
                       process_mag, tally)
from .core import SignalVector, WeightMatrix
from .tissue import (MigrationRecord, PopulationConfig, Tissue, check_labels,
                     log_lines, log_records)

log = logging.getLogger(__name__)

SIGNAL_SET = "S"
ANTIGEN = "A"

# wire framing: 4-byte big-endian unsigned length, then one event line
FRAME_HEADER = struct.Struct(">I")
MAX_FRAME = 4096
RECV_BUFFER = 65536  # server read size; must exceed one whole frame

DRAIN_TICKS = 300  # safety cap on ticks run after the stream ends
# the most ticks one event may make the runner run: a day of logical
# seconds, a few seconds of ticks on a small pool
MAX_TICK_JUMP = 86_400
# a server builds its tissue's records once this many migrations are unbuilt
FOLD_RECORDS = 256
# the most distinct labels and process names a server client's names dict
# holds before it is emptied, so a stream of ever new labels is not kept
SHARED_NAMES = 4096

# characters that would split a field of the event log (tab, line breaks);
# the label rule forbids these and the comma, so `parse_events` screens
# process names with it
_BAD_PROCESS = re.compile("[\t\n\r]")


class StreamFormatError(ValueError):
    """Malformed or out-of-order event stream content."""


class ProtocolError(Exception):
    """Wire-framing violation (oversized or truncated frame)."""


class SinkDisconnected(Exception):
    """Replay sink went away; carries the count of undelivered events."""

    def __init__(self, undelivered: int):
        super().__init__(f"sink disconnected with {undelivered} undelivered events")
        self.undelivered = undelivered


class _EventFields(NamedTuple):
    timestamp: float
    kind: str
    signals: Optional[SignalVector] = None
    label: Optional[str] = None
    process: Optional[str] = None


class Event(_EventFields):
    """One timestamped input to the tissue server.

    `kind` is SIGNAL_SET (payload: signals) or ANTIGEN (payload: label
    and source process name). Timestamps are seconds since stream start
    and must be non-decreasing within a stream. An immutable named tuple,
    equal and hashed by value; every way of building one (the
    constructor, `_make`, `_replace`) runs the same checks, the label's
    through `tissue.check_labels`. Three functions that make many events
    check their inputs another way and skip these: `parse_events` checks
    a batch's fields itself, `generate_scenario` checks its fixed table of
    (label, process) pairs once per call through `Event.antigen`, and
    `datasets.run_bc_experiment` relies on `LabelledItem`, which checked
    each item id with `check_labels`.
    """

    __slots__ = ()

    def __new__(cls, timestamp: float, kind: str,
                signals: Optional[SignalVector] = None,
                label: Optional[str] = None, process: Optional[str] = None):
        if not 0 <= timestamp < math.inf:  # NaN fails too
            raise ValueError("timestamp must be finite and non-negative")
        if kind == ANTIGEN:
            check_labels((label,))
            if not process:
                raise ValueError("antigen event requires a process name")
            if _BAD_PROCESS.search(process):
                raise ValueError(f"process name {process!r} contains a "
                                 "tab or line break")
        elif kind == SIGNAL_SET:
            if signals is None:
                raise ValueError("signal-set event requires a signal vector")
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        return tuple.__new__(cls, (timestamp, kind, signals, label, process))

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)

    @classmethod
    def signal_set(cls, timestamp: float, signals: SignalVector) -> "Event":
        return cls(timestamp, SIGNAL_SET, signals)

    @classmethod
    def antigen(cls, timestamp: float, label: str, process: str) -> "Event":
        return cls(timestamp, ANTIGEN, None, label, process)


def format_event(e: Event) -> str:
    """Serialize one event to its log line (no trailing newline).

    Floats are rendered with repr so that parsing restores them
    bit-exactly.
    """
    if e.kind == SIGNAL_SET:
        s = e.signals
        return "\t".join((repr(e.timestamp), SIGNAL_SET, repr(s.pamp),
                          repr(s.danger), repr(s.safe), repr(s.inflammation)))
    return "\t".join((repr(e.timestamp), ANTIGEN, e.label, e.process))


def parse_event(line: str, lineno: int = 0) -> Event:
    parts = line.split("\t")
    try:
        if len(parts) == 6 and parts[1] == SIGNAL_SET:
            ts, _, p, d, s, ic = parts
            return Event(float(ts), SIGNAL_SET, SignalVector(
                float(p), float(d), float(s), float(ic)))
        if len(parts) == 4 and parts[1] == ANTIGEN:
            ts, _, label, process = parts
            return Event(float(ts), ANTIGEN, None, label, process)
    except (ValueError, TypeError) as exc:
        raise StreamFormatError(f"line {lineno}: {exc}") from exc
    raise StreamFormatError(f"line {lineno}: unrecognized event layout")


def parse_events(lines: Sequence[str], first_lineno: int = 1,
                 last: float = -math.inf, max_jump: Optional[int] = None, *,
                 names: dict[str, str]) -> list[Event]:
    """Parse a batch of event lines, numbered from `first_lineno`, whose
    timestamps must not fall below `last` (the timestamp before the batch)
    or below each other; with `max_jump`, whose `last` must then be
    finite, no whole second may lie more than that past the previous one's.

    The result is what `parse_event` and those order checks give line by
    line: the events, or the error of the first bad line in line order,
    malformed, non-finite, decreasing or jumping. One pass splits each
    line once and builds its event without `Event`'s checks. It checks
    each timestamp against the previous one and a ceiling for the whole
    batch (`last`'s whole second plus `max_jump` and one), and the labels
    and process names with one `check_labels` call: the label rule
    forbids all that a process name's does, and a comma besides. Anything
    else sends the batch to the checked walk (`parse_event` line by
    line), which raises the exact error, or returns the events of a batch
    that was only unusual: a process name with a comma, or steps that
    each lie within `max_jump` but together span more.

    Equal labels and process names share one string, the one `names`
    holds: it maps each name of the batches before that passed
    `check_labels` to its string, and the batch adds its new names, the
    last entries, so only those are checked. A caller that parses a
    stream batch by batch through one dict checks each distinct name
    once; one batch alone takes an empty dict. The checked walk shares
    none, and empties `names`, which may then hold unchecked names.
    """
    events: list[Event] = []
    share = names.setdefault
    known = len(names)  # the names before this batch
    append = events.append
    new = tuple.__new__
    floor = max(last, 0.0)  # the lowest next timestamp, non-negative
    ceiling = math.inf if max_jump is None else int(last) + max_jump + 1
    try:
        for line in lines:
            parts = line.split("\t")
            ts = float(parts[0])
            if not floor <= ts < ceiling:  # NaN fails too
                break
            floor = ts
            if len(parts) == 4 and parts[1] == ANTIGEN:
                label, process = parts[2], parts[3]
                append(new(Event, (ts, ANTIGEN, None, share(label, label),
                                   share(process, process))))
            elif len(parts) == 6 and parts[1] == SIGNAL_SET:
                append(new(Event, (ts, SIGNAL_SET, SignalVector(
                    float(parts[2]), float(parts[3]), float(parts[4]),
                    float(parts[5])), None, None)))
            else:
                break
        else:
            if len(names) != known:
                check_labels(list(islice(reversed(names),
                                         len(names) - known)))
            return events
    except ValueError:
        pass
    names.clear()
    return _parse_checked(enumerate(lines, first_lineno), last, max_jump)


def _parse_checked(numbered: Iterable[tuple[int, str]], last: float,
                   max_jump: Optional[int]) -> list[Event]:
    """`parse_events` one numbered line at a time, with every check: the
    walk that raises each error."""
    events: list[Event] = []
    for lineno, line in numbered:
        e = parse_event(line, lineno)
        if e.timestamp < last:
            raise StreamFormatError(
                f"line {lineno}: timestamp {e.timestamp!r} decreases "
                f"(previous {last!r})")
        if max_jump is not None and int(e.timestamp) - int(last) > max_jump:
            raise StreamFormatError(
                f"line {lineno}: timestamp {e.timestamp!r} jumps more than "
                f"{max_jump} s past the previous ({last!r})")
        last = e.timestamp
        events.append(e)
    return events


def write_log(events: Iterable[Event], fh: TextIO) -> None:
    for e in events:
        fh.write(format_event(e) + "\n")


def read_log(fh: IO) -> list[Event]:
    """Parse an event log one `tissue.log_lines` chunk at a time, rejecting
    decreasing timestamps; errors are StreamFormatErrors naming the first
    bad line in line order. Blank lines are skipped but numbered: each run
    of lines between them goes to `parse_events` as one batch, numbered
    from its first line and checked against the timestamp before it. One
    names dict serves every batch, so equal labels and process names share
    one string across the whole log."""
    events: list[Event] = []
    names: dict[str, str] = {}
    lineno = 1
    for lines in log_lines(fh, StreamFormatError):
        start, end = 0, len(lines)
        while start < end:
            try:
                stop = lines.index("", start)
            except ValueError:
                stop = end
            if stop > start:
                run = lines if stop - start == end else lines[start:stop]
                events += parse_events(
                    run, lineno + start,
                    events[-1].timestamp if events else -math.inf,
                    names=names)
            start = stop + 1
        lineno += end
    return events


# ---------------------------------------------------------------------------
# signal derivation from per-second traffic counters


# conversion from traffic counters to concentrations (see derive_signals)
K_PAMP = 0.15  # per icmp-unreachable/s
K_DANGER = 0.05  # per packet/s
K_SAFE = 0.3  # per packet/s of change in the moving average
SAFE_MAX = 5.0
INFLAMMATION = 1.0  # the session's user is absent


def derive_signals(pps: Sequence[float],
                   unreachable: Sequence[float]) -> list[SignalVector]:
    """Convert per-second traffic counters into one SignalVector per second.

    Pamp is K_PAMP * icmp-unreachable/s and danger K_DANGER * packets/s.
    The safe signal is the inverse rate of change of traffic: SAFE_MAX at
    steady load, eroded by K_SAFE times the absolute change of the
    2-sample moving average of packets/sec, floored at zero.
    """
    if len(pps) != len(unreachable):
        raise ValueError("counter series must have equal length")
    if any(v < 0 for v in pps) or any(v < 0 for v in unreachable):
        raise ValueError("traffic counters must be non-negative")
    out: list[SignalVector] = []
    prev_ma: Optional[float] = None
    prev_sample: Optional[float] = None
    for t, load in enumerate(pps):
        window_prev = load if prev_sample is None else prev_sample
        ma = (load + window_prev) / 2.0
        delta = 0.0 if prev_ma is None else ma - prev_ma
        out.append(SignalVector(
            pamp=K_PAMP * unreachable[t],
            danger=K_DANGER * load,
            safe=max(0.0, SAFE_MAX - K_SAFE * abs(delta)),
            inflammation=INFLAMMATION,
        ))
        prev_ma, prev_sample = ma, load
    return out


# ---------------------------------------------------------------------------
# synthetic remote-session scenario

ADDRESS_COUNT = 1000  # addresses probed by the scan
FRACTION_UNREACHABLE = 0.9  # of those, with no host behind them
BASELINE_PPS = 10.0
SCAN_PPS = 200.0
TRANSFER_BYTES = 3.3e6  # copied by the transfer phase
PACKET_BYTES = 1000.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Scripted remote-session timeline containing an address scan.

    Five phases run back to back: log-in, scan, pause, file transfer,
    session close. Traffic is a noisy packets/sec series; the scan
    phase adds ICMP destination-unreachable errors for addresses with
    no host behind them.
    """

    login_duration: int = 30
    scan_duration: int = 30
    pause_duration: int = 30
    transfer_duration: int = 15
    close_duration: int = 10
    noise_seed: int = 0

    def __post_init__(self):
        durations = (self.login_duration, self.scan_duration,
                     self.pause_duration, self.transfer_duration,
                     self.close_duration)
        if min(durations) <= 0:
            raise ValueError("phase durations must be positive")

    @property
    def total_duration(self) -> int:
        return (self.login_duration + self.scan_duration + self.pause_duration
                + self.transfer_duration + self.close_duration)

    def phase_of(self, second: int) -> str:
        edges = (
            ("login", self.login_duration),
            ("scan", self.scan_duration),
            ("pause", self.pause_duration),
            ("transfer", self.transfer_duration),
            ("close", self.close_duration),
        )
        acc = 0
        for name, dur in edges:
            acc += dur
            if second < acc:
                return name
        return "close"


# synthetic processes active in the session; per-phase antigen
# emissions per second. The scanner only emits while scanning; the
# ssh-daemon children only emit during session setup.
PROCESS_RATES: dict[str, dict[str, float]] = {
    "ssh-daemon": {"login": 4.0},
    "shell": {"login": 6.0, "scan": 4.0, "pause": 2.0, "transfer": 1.0,
              "close": 4.0},
    "scanner": {"scan": 33.0},
    "forward-agent": {"login": 4.0, "scan": 4.0, "pause": 4.0,
                      "transfer": 4.0, "close": 4.0},
    "file-transfer": {"transfer": 19.0},
}

SCANNER_PROCESS = "scanner"
TRANSFER_PROCESS = "file-transfer"


def generate_scenario(cfg: ScenarioConfig) -> list[Event]:
    """Emit the scenario's event stream: one signal set per second plus
    per-process antigen events, deterministically from the noise seed.

    Each second, each process draws its emission count (`int(rate)`, plus
    one with probability of the rest) and then a label per emission from
    its pids. The label draw is `Random.choice` written out: the same
    `getrandbits(k)` rejection loop, with `k` the bit length of the
    process's pid count, so the stream is the one `choice` gives. Each
    second's phase is worked out once."""
    rng = random.Random(cfg.noise_seed)
    seconds = cfg.total_duration
    phases = [cfg.phase_of(t) for t in range(seconds)]
    transfer_pps = TRANSFER_BYTES / PACKET_BYTES / cfg.transfer_duration
    scan_rate = ADDRESS_COUNT / cfg.scan_duration

    pps: list[float] = []
    unreachable: list[float] = []
    for phase in phases:
        if phase == "scan":
            # bursty probing traffic: large swings defeat the moving average
            load = SCAN_PPS * rng.uniform(0.3, 1.7)
            unreach = scan_rate * FRACTION_UNREACHABLE * rng.uniform(0.8, 1.2)
        elif phase == "transfer":
            # bulk copy: high, mostly steady traffic with mild rate wobble
            load = transfer_pps + rng.gauss(0.0, 12.0)
            unreach = 0.0
        else:
            load = BASELINE_PPS + rng.gauss(0.0, 1.0)
            unreach = 0.0
        pps.append(max(0.0, load))
        unreachable.append(max(0.0, unreach))

    signals = derive_signals(pps, unreachable)

    # a fixed pid universe per process; the ssh-daemon spawns children
    pid_counts = {"ssh-daemon": 4, "shell": 1, "scanner": 1,
                  "forward-agent": 1, "file-transfer": 1}
    labels = {
        proc: [f"{proc}:{1000 + 17 * i + offset}"
               for offset in range(pid_counts[proc])]
        for i, proc in enumerate(PROCESS_RATES)
    }
    # every antigen event draws its label and process from this table, so
    # checking each pair once checks them all; the events below skip
    # `Event.__new__`, and their timestamps t + i/k are finite and
    # non-negative by construction
    for proc, proc_labels in labels.items():
        for label in proc_labels:
            Event.antigen(0.0, label, proc)

    random_, getrandbits = rng.random, rng.getrandbits
    new = tuple.__new__
    events: list[Event] = []
    for t, phase in enumerate(phases):
        events.append(Event.signal_set(float(t), signals[t]))
        emissions: list[tuple[str, str]] = []
        for proc, rates in PROCESS_RATES.items():
            rate = rates.get(phase, 0.0)
            if proc == "ssh-daemon" and t >= cfg.login_duration - 10:
                # daemon children are quiet once the session is up
                rate = 0.0
            whole = int(rate)
            if random_() < rate - whole:
                whole += 1
            if whole:
                proc_labels = labels[proc]
                n = len(proc_labels)
                k = n.bit_length()
                for _ in range(whole):
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    emissions.append((proc_labels[r], proc))
        share = len(emissions) + 1
        events += [new(Event, (t + i / share, ANTIGEN, None, label, proc))
                   for i, (label, proc) in enumerate(emissions, 1)]
    return events


def scenario_process_groups(events: Iterable[Event]) -> dict[str, set[str]]:
    """Map each source process to the set of antigen labels it emitted."""
    groups: dict[str, set[str]] = {}
    for e in events:
        if e.kind == ANTIGEN:
            groups.setdefault(e.process, set()).add(e.label)
    return groups


# ---------------------------------------------------------------------------
# event delivery into a tissue


@dataclass(frozen=True)
class SignalMask:
    """Which signal channels a run actually uses; masked channels are
    zeroed before reaching the tissue."""

    use_pamp: bool = True
    use_danger: bool = True
    use_safe: bool = True
    use_inflammation: bool = True

    def apply(self, s: SignalVector) -> SignalVector:
        """`s` with the masked channels zeroed; `s` itself when every
        channel is kept."""
        if (self.use_pamp and self.use_danger and self.use_safe
                and self.use_inflammation):
            return s
        return SignalVector(
            pamp=s.pamp if self.use_pamp else 0.0,
            danger=s.danger if self.use_danger else 0.0,
            safe=s.safe if self.use_safe else 0.0,
            inflammation=s.inflammation if self.use_inflammation else 0.0,
        )


class EventDrivenRunner:
    """Maps an event stream onto tissue ticks: one tick per whole second
    of logical time; each event is applied before the tick covering its
    second runs, and `drain` runs the tick covering the last event's
    second. Wall-clock pacing never affects the outcome. This is the only
    caller of `Tissue.tick`, for both experiment families.

    `run` walks the stream one whole second at a time. Until the tick
    covering a second runs, only the second's last signal set and the
    order of its antigen labels matter, so once the second is over the
    runner ticks up to it and hands the tissue just those
    (`Tissue.receive`), in one call per second. `apply(e)` is
    `run((e,))`, so the run, the server's merges and a replay into a
    runner share one loop, and a second split over several calls gives
    what one call would.

    An event whose timestamp decreases, or whose whole second lies more
    than `MAX_TICK_JUMP` past the clock, is rejected with a
    `StreamFormatError`, so one far-future timestamp cannot tie the
    runner up for hours. Every event before it, its own second's too, has
    then been applied, and nothing after it is; the rejected event leaves
    no trace."""

    def __init__(self, tissue: Tissue, mask: SignalMask = SignalMask()):
        self.tissue = tissue
        self.mask = mask
        self._last_ts = -math.inf

    def apply(self, event: Event) -> None:
        self.run((event,))

    def run(self, events: Iterable[Event]) -> None:
        tissue = self.tissue
        last = self._last_ts
        gathered = False  # whether events of `second` await the tissue
        second = end = -math.inf  # the second being gathered, and its end
        signals: Optional[SignalVector] = None
        labels: list[str] = []
        try:
            for e in events:
                ts = e.timestamp
                if ts < last:
                    raise StreamFormatError(
                        f"event timestamp {ts!r} decreases")
                if ts >= end:  # the first event of a later second
                    if gathered:
                        gathered = False  # so a tissue error hands none twice
                        self._hand_over(second, signals, labels)
                        signals, labels = None, []
                    second = int(ts)
                    if second - tissue.clock > MAX_TICK_JUMP:
                        raise StreamFormatError(
                            f"event timestamp {ts!r} lies more than "
                            f"{MAX_TICK_JUMP} ticks past the clock "
                            f"({tissue.clock})")
                    end = second + 1
                    gathered = True
                last = ts
                if e.kind == SIGNAL_SET:
                    signals = e.signals
                else:
                    labels.append(e.label)
        finally:
            self._last_ts = last
            if gathered:
                self._hand_over(second, signals, labels)

    def _hand_over(self, second: int, signals: Optional[SignalVector],
                   labels: list[str]) -> None:
        """Tick up to `second`, then give the tissue its input."""
        tissue = self.tissue
        while tissue.clock < second:
            tissue.tick()
        tissue.receive(None if signals is None else self.mask.apply(signals),
                       labels)

    def drain(self, max_ticks: int = DRAIN_TICKS) -> int:
        """End the stream: run the tick covering the last event's second,
        then keep ticking under the final signals until the tissue has
        settled (`Tissue.settled`) or `max_ticks` more ticks have run.
        Returns the ticks run after the last event's second; the tissue's
        `settled` then tells whether it settled or hit the cap. Every
        delivery path ends with this call. A negative cap is rejected
        before any tick."""
        if max_ticks < 0:
            raise ValueError(f"max_ticks must be non-negative, got {max_ticks}")
        while self.tissue.clock <= self._last_ts:
            self.tissue.tick()
        for ticks in range(max_ticks):
            if self.tissue.settled:
                return ticks
            self.tissue.tick()
        return max_ticks


def replay(events: Sequence[Event], rate, sink,
           sleep: Callable[[float], None] = time.sleep) -> None:
    """Deliver events to a sink in order, pacing inter-event delays by
    1/rate; rate "max" never waits. `sink` is anything with apply().

    Logical time comes from event timestamps either way, so rate only
    affects wall-clock duration, never outcomes. A rate that needs a wait
    over `threading.TIMEOUT_MAX`, sleep's limit, fails before any delivery,
    as does a rate that is not a positive number (NaN included).
    """
    if rate != "max":
        rate = float(rate)
        if not rate > 0:  # NaN fails too
            raise ValueError("replay rate must be positive or 'max'")
        longest = max((b.timestamp - a.timestamp
                       for a, b in pairwise(events)), default=0.0) / rate
        if longest > threading.TIMEOUT_MAX:
            raise ValueError(f"replay rate {rate:g} makes a wait of "
                             f"{longest:.3g} s, longer than sleep allows")
    prev_ts: Optional[float] = None
    for i, e in enumerate(events):
        if rate != "max" and prev_ts is not None and e.timestamp > prev_ts:
            sleep((e.timestamp - prev_ts) / rate)
        prev_ts = e.timestamp
        try:
            sink.apply(e)
        except (OSError, ProtocolError) as exc:
            raise SinkDisconnected(len(events) - i) from exc


# ---------------------------------------------------------------------------
# framed socket transport


def _send_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME}")
    sock.sendall(FRAME_HEADER.pack(len(payload)) + payload)


def _read_frames(sock: socket.socket) -> Iterator[list[str]]:
    """Yield the decoded payloads of the whole frames each read delivers,
    as one list, until a clean EOF.

    Reads in bulk with `recv_into` into one reused buffer and splits
    every whole frame out of it, so a burst of small frames costs one
    call into the socket, not two per frame. A declared length over
    MAX_FRAME raises ProtocolError as soon as its header is in, after the
    whole frames before it are yielded; EOF inside a header or a payload
    raises ProtocolError; a payload that is not UTF-8 raises
    UnicodeDecodeError (a ValueError).
    """
    buf = bytearray(RECV_BUFFER)
    with memoryview(buf) as view:
        end = 0  # bytes held in buf, from its start
        while True:
            got = sock.recv_into(view[end:])
            if not got:
                if end:
                    raise ProtocolError(
                        f"connection closed mid-frame ({end} bytes pending)")
                return
            end += got
            pos = 0
            batch = []
            while end - pos >= FRAME_HEADER.size:
                (length,) = FRAME_HEADER.unpack_from(buf, pos)
                if length > MAX_FRAME:
                    if batch:
                        yield batch
                    raise ProtocolError(
                        f"declared frame length {length} exceeds {MAX_FRAME}")
                start = pos + FRAME_HEADER.size
                if end - start < length:
                    break
                pos = start + length
                batch.append(str(view[start:pos], "utf-8"))
            if pos < end:  # move the partial frame left over to the front
                view[:end - pos] = view[pos:end]
            end -= pos
            if batch:
                yield batch


class StreamClient:
    """Pushes events to a tissue server over the framed transport."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port))

    def apply(self, event: Event) -> None:
        _send_frame(self._sock, format_event(event).encode("utf-8"))

    def close(self) -> None:
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TissueServer:
    """Accepts framed event streams and feeds them to one tissue run.

    Clients (for example one signal client and one antigen client)
    connect, push their streams, and disconnect. The server merges the
    streams while they arrive. After each read, a client's handler parses
    the whole frames it got as one batch (`parse_events`, through one
    names dict per client, emptied once it holds `SHARED_NAMES`, so equal
    labels share one string) and adds them to that client's pending
    events. Once every expected client has
    connected, it applies through the runner every pending event below
    the watermark: the whole second at or below the latest timestamp of
    the slowest client still streaming. No client can still send an event
    below it, so the merge order is the one a merge of the finished
    streams would give: timestamp, then client index, then arrival. The
    watermark only rises, and a read that leaves it where it was merges
    nothing, so the runner runs at most once per second of stream, not
    once per read. The tissue sees only each second's last signal set and
    its labels in order, and both follow from that order however signal
    sets and antigen of equal timestamps interleave. Once `FOLD_RECORDS`
    migrations are unbuilt, a merge folds the tick logs added since the
    last fold into the server's own records, so records are built as
    ticks finish. `wait()` applies the rest, drains the tissue, folds the
    last ticks and returns the records. Pending events are bounded by the
    clients' timestamp skew plus one read per client.

    A client that violates the frame protocol, sends a malformed event,
    a decreasing timestamp or one whose whole second lies more than
    `MAX_TICK_JUMP` past its previous one's (or past 0, for its first),
    or resets its connection is dropped without disturbing the others,
    and recorded in `dropped` as its index and the reason. Its events not
    yet applied are discarded; those applied before the drop stay in the
    run. A finished or dropped client no longer holds the watermark back.
    An error the tissue raises while applying events is not a drop: it is
    raised from `wait()`, and every event pending or read after it is
    discarded. After `wait()`, `drain_ticks` holds the ticks its drain
    ran; a later `wait()` returns the same records, or raises the same
    error, and runs no tick.

    The listening socket opens here and closes once the expected
    clients have connected, or on `close()`; use the server as a
    context manager so that it is released when the run fails.
    """

    def __init__(self, runner: EventDrivenRunner, expected_clients: int = 1,
                 host: str = "127.0.0.1", port: int = 0):
        if expected_clients <= 0:
            raise ValueError("expected_clients must be positive")
        self.runner = runner
        self.expected_clients = expected_clients
        self._listener = socket.create_server((host, port))
        self.dropped: list[tuple[int, str]] = []
        self.drain_ticks: Optional[int] = None
        # guarded by the lock: the events of each connected client not yet
        # applied, the latest timestamp of each client still streaming,
        # an error the tissue raised, and the records built so far
        self._lock = threading.Lock()
        self._pending: dict[int, list[Event]] = {}
        self._latest: dict[int, float] = {}
        self._failure: Optional[BaseException] = None
        self._merged = -math.inf  # the watermark of the last merge
        self._records: list[MigrationRecord] = []
        self._folded = 0  # the tissue's tick logs built into `_records`
        self._thread: Optional[threading.Thread] = None
        self._connected = 0

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self) -> None:
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def close(self) -> None:
        """Release the listening socket. Safe to call more than once, and
        after the accept loop has closed it itself. An accept loop still
        waiting for clients ends, and `wait()` then raises."""
        try:
            # wakes an accept() blocked in the accept loop; close alone
            # would leave it blocked, holding the port
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _accept_loop(self) -> None:
        handlers = []
        for index in range(self.expected_clients):
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # close() ended the wait for clients
            with self._lock:
                self._pending[index] = []
                self._latest[index] = -math.inf
                self._connected += 1
            t = threading.Thread(target=self._serve_client,
                                 args=(conn, index), daemon=True)
            t.start()
            handlers.append(t)
        for t in handlers:
            t.join()
        self._listener.close()

    def _serve_client(self, conn: socket.socket, index: int) -> None:
        # timestamps are non-negative, and a first one is a jump from 0:
        # with every client's jumps bounded, the merged stream's are too
        last = 0.0
        lineno = 1  # of the next frame
        names: dict[str, str] = {}  # so that equal labels share one string
        try:
            with conn:
                for lines in _read_frames(conn):
                    events = parse_events(lines, lineno, last, MAX_TICK_JUMP,
                                          names=names)
                    if len(names) > SHARED_NAMES:
                        names.clear()
                    lineno += len(lines)
                    last = events[-1].timestamp
                    self._receive(index, events)
        except (ProtocolError, ValueError, OSError) as exc:
            # bad framing, undecodable bytes, a malformed or out-of-order
            # event, or a reset
            log.warning("client %d dropped: %s", index, exc)
            with self._lock:
                self.dropped.append((index, str(exc)))
                del self._pending[index]
                del self._latest[index]
            return
        with self._lock:
            del self._latest[index]

    def _receive(self, index: int, events: list[Event]) -> None:
        """Add one read's events to a client's pending ones and apply
        every pending event below the watermark. Once the tissue has
        raised, the run is lost and the events are discarded."""
        with self._lock:
            if self._failure is not None:
                return
            self._pending[index] += events
            self._latest[index] = events[-1].timestamp
            if self._connected < self.expected_clients:
                return  # a client yet to connect may send any timestamp
            low = min(self._latest.values())
            if low > -math.inf:
                self._merge(math.floor(low))

    def _merge(self, watermark: float) -> None:
        """Apply every pending event timestamped below `watermark`, in
        merge order, then fold the finished ticks if `FOLD_RECORDS`
        migrations are unbuilt. The caller holds the lock.

        Nothing is done unless the watermark has risen since the last
        merge: each client's timestamps never fall, so an event that
        arrives later lies at or above its client's latest timestamp, and
        so at or above every watermark merged before. Reads within one
        second thus cost only their parse. Once the tissue has raised,
        nothing more is applied and the pending events are discarded: the
        run is lost, and `wait()` raises the error."""
        if self._failure is not None or watermark <= self._merged:
            return
        self._merged = watermark
        ready: list[Event] = []
        for index in sorted(self._pending):
            events = self._pending[index]
            cut = bisect.bisect_left(events, watermark, key=_timestamp)
            ready += events[:cut]
            del events[:cut]
        # stable: equal timestamps keep client index, then arrival, order
        ready.sort(key=_timestamp)
        try:
            self.runner.run(ready)
        except Exception as exc:
            self._failure = exc
            for events in self._pending.values():
                events.clear()
            return
        # one build per many ticks: each build has a fixed cost
        if self.runner.tissue.migrations - len(self._records) >= FOLD_RECORDS:
            self._fold()

    def _fold(self) -> None:
        """Build the records of the tick logs added since the last fold."""
        log = self.runner.tissue.log
        self._records += log_records(log[self._folded:])
        self._folded = len(log)

    def wait(self) -> list[MigrationRecord]:
        """Block until all expected clients finish, apply the events not
        yet applied, drain the tissue, fold the last ticks and return the
        records; a later call returns the same list (or raises the same
        error) and runs nothing."""
        if self._thread is None:
            raise RuntimeError("TissueServer.wait() called before start()")
        self._thread.join()
        if self._connected < self.expected_clients:
            raise RuntimeError(
                f"TissueServer closed after {self._connected} of "
                f"{self.expected_clients} clients connected")
        with self._lock:
            self._merge(math.inf)
            if self._failure is None and self.drain_ticks is None:
                try:
                    self.drain_ticks = self.runner.drain()
                    self._fold()
                except Exception as exc:
                    self._failure = exc
        if self._failure is not None:
            raise self._failure
        return self._records


def _timestamp(e: Event) -> float:
    return e.timestamp


# ---------------------------------------------------------------------------
# the repeats of an experiment

T = TypeVar("T")


def usable_cpus() -> int:
    """The CPUs `run_repeats` spreads repeats over: those this process may
    run on, or 1 where the platform cannot fork or cannot tell."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def run_repeats(run_one: Callable[[int], T], count: int) -> list[T]:
    """`[run_one(r) for r in range(count)]`, with the repeats spread over
    forked workers.

    The repeat indices split into `min(count, usable_cpus())` (at least
    one) fixed shares of consecutive repeats. The caller runs the first share and
    one forked child runs each other share, sending its results back
    pickled through a pipe. A repeat must therefore depend on its index
    alone, and its result must pickle. Results come back in repeat
    order, so the list is the same for any CPU count. A repeat's
    exception is raised again in the caller, and that of the earliest
    share wins, as it would inline; a child that ends without a result
    raises a `RuntimeError` naming its repeats. Every child is killed
    and reaped before this returns or raises.
    """
    workers = max(1, min(count, usable_cpus()))
    shares = [range(k * count // workers, (k + 1) * count // workers)
              for k in range(workers)]
    pids: list[int] = []
    read_ends: list[int] = []
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(run_one, share, write_end)
            finally:
                os.close(write_end)
            pids.append(pid)
        results = [run_one(r) for r in shares[0]]
        for share, read_end in zip(shares[1:], read_ends):
            results += _share_results(share, read_end)
        return results
    finally:
        for read_end in read_ends:
            os.close(read_end)
        for pid in pids:
            # a child whose results were read has exited or is exiting
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_share(run_one: Callable[[int], T], share: range,
               write_end: int) -> NoReturn:
    """A forked child's whole life: run its share of the repeats, send
    `(True, results)` or `(False, exception)`, and leave through
    `os._exit`, so that no exit handler or stdio flush of the caller's
    process runs twice."""
    status = 1
    try:
        try:
            reply = (True, [run_one(r) for r in share])
        except Exception as exc:  # raised again by the caller
            reply = (False, exc)
        data = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _share_results(share: range, read_end: int) -> list:
    """The results a child sent for its share, or the exception one of its
    repeats raised."""
    with open(read_end, "rb", closefd=False) as fh:
        data = fh.read()
    try:
        ok, value = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):
        raise RuntimeError(
            f"the worker running repeats {', '.join(map(str, share))} "
            "ended without a result") from None
    if not ok:
        raise value
    return value


# ---------------------------------------------------------------------------
# the scan-detection experiment series


@dataclass(frozen=True)
class PortscanExperiment:
    """One row of the experiment series: which signals are active and
    the safe-to-mature weight override."""

    mask: SignalMask
    safe_mat_weight: float


PORTSCAN_EXPERIMENTS: dict[int, PortscanExperiment] = {
    1: PortscanExperiment(SignalMask(use_pamp=False, use_inflammation=False), -1.0),
    2: PortscanExperiment(SignalMask(use_inflammation=False), -1.0),
    3: PortscanExperiment(SignalMask(use_inflammation=False), -2.0),
    4: PortscanExperiment(SignalMask(), -2.0),
}


@dataclass
class PortscanResult:
    """Aggregate outcome of one experiment over its repeats."""

    process_table: dict[str, tuple[float, float, float]]
    scanner_vs_transfer: PairedTTestResult
    antigen_per_cell: float


def run_portscan_experiment(scenario: ScenarioConfig, experiment: int,
                            seed: int = 0, repeats: int = 10) -> PortscanResult:
    """Run one signal-combination experiment over fresh scenario noise
    per repeat, reporting per-process mature-presentation fractions,
    the scanner-vs-transfer paired test, and antigen per migrated cell.
    The repeats may run in forked workers (see `run_repeats`)."""
    if repeats < 2:
        raise ValueError("repeats must be at least 2 for the paired t-test")
    try:
        exp = PORTSCAN_EXPERIMENTS[experiment]
    except KeyError:
        raise ValueError(f"unknown experiment number {experiment}") from None
    weights = WeightMatrix().with_safe_mat_weight(exp.safe_mat_weight)

    def run_one(r: int) -> tuple[dict[str, tuple[Optional[float], int]],
                                 float]:
        """Each process's mature fraction and presentation count, and the
        antigen per migrated cell, of repeat `r`."""
        events = generate_scenario(replace(
            scenario, noise_seed=scenario.noise_seed + 100003 * seed + r))
        cfg = PopulationConfig.portscan(seed=seed * 1000003 + r,
                                        weights=weights)
        runner = EventDrivenRunner(Tissue(cfg), mask=exp.mask)
        runner.run(events)
        runner.drain()
        verdicts = tally(runner.tissue.presentations())
        groups = scenario_process_groups(events)
        rows = {name: (mag, sum(verdicts[l].total for l in groups[name]
                                if l in verdicts))
                for name, mag in process_mag(verdicts, groups).items()}
        presented = sum(v.total for v in verdicts.values())
        migrations = runner.tissue.migrations
        return rows, presented / migrations if migrations else 0.0

    per_process: dict[str, list[Optional[float]]] = {}
    per_process_counts: dict[str, list[float]] = {}
    antigen_per_cell_runs: list[float] = []
    for rows, antigen_per_cell in run_repeats(run_one, repeats):
        for name, (mag, count) in rows.items():
            per_process.setdefault(name, []).append(mag)
            per_process_counts.setdefault(name, []).append(count)
        antigen_per_cell_runs.append(antigen_per_cell)

    table: dict[str, tuple[float, float, float]] = {}
    for name, runs in per_process.items():
        defined = [v for v in runs if v is not None]
        mean, std = mean_and_std(defined) if defined else (0.0, 0.0)
        count_mean, _ = mean_and_std(per_process_counts[name])
        table[name] = (count_mean, mean, std)

    scanner = per_process.get(SCANNER_PROCESS, [])
    transfer = per_process.get(TRANSFER_PROCESS, [])
    pairs = [(x, y) for x, y in zip(scanner, transfer)
             if x is not None and y is not None]
    ttest = paired_t_test([p[0] for p in pairs], [p[1] for p in pairs])
    return PortscanResult(
        process_table=table,
        scanner_vs_transfer=ttest,
        antigen_per_cell=sum(antigen_per_cell_runs) / len(antigen_per_cell_runs),
    )
