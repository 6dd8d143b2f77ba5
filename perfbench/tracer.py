"""Span tracing of the ``dca`` layers from outside the library.

``Tracer.install()`` replaces the public functions and methods named in
``TARGETS`` with wrappers that record one span per call: a name, the
parent span, start and end. Module-level functions are patched in every
``dca`` module that looks them up, so ``dca.datasets.aggregate`` and
``dca.streams.aggregate`` are both traced. ``uninstall()`` restores the
originals.

Spans live in per-thread arrays (no lock on the hot path) and are written
out by ``dump``. Per-cell methods such as ``DendriticCell.apply_deltas``
are deliberately not wrapped: a bc session makes over a million of those
calls. ``TissueCompartment.sample_slot`` and ``Tissue.enqueue_antigen``
are only counted, not spanned, for the same reason.
"""

from __future__ import annotations

import json
import sys
import threading
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from dca import analysis, core, datasets, streams, tissue

SESSION = "session"

# span name -> (owner, attribute); owners that are modules are patched
# wherever a dca module holds the same function object
TARGETS = {
    "core.fuse_signals": (core, "fuse_signals"),
    "tissue.tick": (tissue.Tissue, "tick"),
    "tissue.deposit": (tissue.TissueCompartment, "deposit"),
    "tissue.write_log": (tissue, "write_migration_log"),
    "tissue.read_log": (tissue, "read_migration_log"),
    "analysis.aggregate": (analysis, "aggregate"),
    "analysis.classify": (analysis, "classify"),
    "analysis.count_errors": (analysis, "count_errors"),
    "analysis.process_mag": (analysis, "process_mag"),
    "analysis.paired_t_test": (analysis, "paired_t_test"),
    "datasets.item_to_signals": (datasets, "item_to_signals"),
    "datasets.select_attributes": (datasets, "select_attributes"),
    "datasets.order_stream": (datasets, "order_stream"),
    "datasets.run_bc_experiment": (datasets, "run_bc_experiment"),
    "streams.generate_scenario": (streams, "generate_scenario"),
    "streams.write_log": (streams, "write_log"),
    "streams.read_log": (streams, "read_log"),
    "streams.replay": (streams, "replay"),
    "streams.runner.apply": (streams.EventDrivenRunner, "apply"),
    "streams.runner.drain": (streams.EventDrivenRunner, "drain"),
    "streams.client.apply": (streams.StreamClient, "apply"),
    "streams.server.wait": (streams.TissueServer, "wait"),
}

# counted, never spanned: called once per cell sample or per item
COUNTED = {
    "tissue.sample_slot": (tissue.TissueCompartment, "sample_slot"),
    "tissue.enqueue": (tissue.Tissue, "enqueue_antigen"),
}


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.tick_backlog_max = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self._tallies: dict[str, list[int]] = {}

    # --- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _open(self, nid: int) -> tuple[_Buffer, int]:
        buf = self._buf()
        idx = len(buf.name)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.start.append(perf_counter())
        buf.end.append(0.0)
        buf.stack.append(idx)
        return buf, idx

    @staticmethod
    def _close(buf: _Buffer, idx: int) -> None:
        buf.end[idx] = perf_counter()
        buf.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one session."""
        buf, idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(buf, idx)

    def _in(self, buf: _Buffer, name: str) -> bool:
        nid = self._ids.get(name)
        return any(buf.name[j] == nid for j in buf.stack)

    # --- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        key = name.replace(".", "_")
        pre = getattr(self, "_pre_" + key, None)
        post = getattr(self, "_post_" + key, None)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            buf, idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(buf, idx)
            if post is not None:
                post(buf, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _pre_tissue_tick(self, args):
        t = args[0]
        buf = self._buf()
        buf.counts["tissue.cell_ticks"] += len(t.pool)
        buf.tick_backlog_max = max(buf.tick_backlog_max, t.feed_pending)
        if self._in(buf, "streams.runner.drain"):
            buf.counts["tissue.drain_ticks.runner"] += 1
        elif self._in(buf, "datasets.run_bc_experiment"):
            buf.counts["tissue.ticks.bc"] += 1
        return args

    @staticmethod
    def _post_tissue_tick(buf, records):
        buf.counts["tissue.migrations"] += len(records)
        buf.counts["tissue.antigen_presented"] += sum(len(r.antigens)
                                                      for r in records)

    @staticmethod
    def _post_tissue_read_log(buf, records):
        buf.counts["tissue.read_log.items"] += len(records)

    @staticmethod
    def _post_streams_read_log(buf, events):
        buf.counts["streams.read_log.items"] += len(events)

    def _materialize(self, name: str, args):
        """Turn the iterable first argument into a list, outside the span,
        so its length can be counted without timing a generator."""
        items = list(args[0])
        self._buf().counts[name + ".items"] += len(items)
        return (items,) + tuple(args[1:])

    def _pre_analysis_aggregate(self, args):
        return self._materialize("analysis.aggregate", args)

    def _pre_tissue_write_log(self, args):
        return self._materialize("tissue.write_log", args)

    def _pre_streams_write_log(self, args):
        return self._materialize("streams.write_log", args)

    def _count(self, name: str, fn):
        # the cheapest wrapper that still counts: a bare closure over a
        # list, since it runs once per cell sample. Only the thread that
        # ticks the tissue calls these methods, so the increments are not
        # shared between threads.
        tally = self._tallies.setdefault(name, [0, 0])

        def counted(*args):
            result = fn(*args)
            tally[0] += 1
            if result is not None:
                tally[1] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    # --- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for n, m in list(sys.modules.items())
                       if (n == "dca" or n.startswith("dca."))
                       and getattr(m, attr, None) is original]
        for holder in holders:
            self._saved.append((holder, attr, original))
            setattr(holder, attr, replacement)

    def install(self) -> None:
        self._id(SESSION)
        for name, (owner, attr) in TARGETS.items():
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        for name, (owner, attr) in COUNTED.items():
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # --- results ------------------------------------------------------------

    def summary(self) -> tuple[dict, dict, dict]:
        """Per span name: calls, total and self seconds; per-call tick
        durations; and the summed counters of every thread."""
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        durations = defaultdict(list)
        counts: dict[str, int] = defaultdict(int)
        tick = self._ids.get("tissue.tick")
        for buf in self._buffers:
            n = len(buf.name)
            child = [0.0] * n
            for i in range(n):
                p = buf.parent[i]
                if p >= 0:
                    child[p] += buf.end[i] - buf.start[i]
            for i in range(n):
                dur = buf.end[i] - buf.start[i]
                s = stats[self.names[buf.name[i]]]
                s["calls"] += 1
                s["total_s"] += dur
                s["self_s"] += dur - child[i]
                if buf.name[i] == tick:
                    durations["tissue.tick"].append(dur)
            for k, v in buf.counts.items():
                counts[k] += v
            counts["tissue.feed_backlog_max"] = max(
                counts["tissue.feed_backlog_max"], buf.tick_backlog_max)
        for name, (calls, hits) in self._tallies.items():
            counts[name] = calls
            counts[name + ".hits"] = hits
        return dict(stats), dict(durations), dict(counts)

    def dump(self, directory: Path) -> None:
        """Write the spans: ``names.json`` lists the span names, and
        ``thread-<n>.bin`` holds one thread's int32 name ids, int32 parent
        indices, float64 starts and float64 ends, as four arrays in turn."""
        directory.mkdir(parents=True, exist_ok=True)
        for old in directory.glob("thread-*.bin"):
            old.unlink()
        (directory / "names.json").write_text(json.dumps(self.names))
        for t, buf in enumerate(self._buffers):
            with open(directory / f"thread-{t}.bin", "wb") as fh:
                for column in (buf.name, buf.parent, buf.start, buf.end):
                    column.tofile(fh)


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, sessions: int) -> dict[str, float]:
    """The per-layer metrics of a traced run of ``sessions`` sessions.

    Calls, self seconds, migrations and other counts are means per
    session; rates divide a count by the time spent in the span that did
    the work. A layer a workload never calls reports 0.
    """
    stats, durations, counts = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def per_session(value):
        return value / sessions

    def rate(count_key, span):
        busy = stats.get(span, zero)["total_s"]
        return counts.get(count_key, 0) / busy if busy > 0 else 0.0

    def self_s(span):
        return per_session(stats.get(span, zero)["self_s"])

    tick = stats.get("tissue.tick", zero)
    ticks_us = [d * 1e6 for d in durations.get("tissue.tick", [])]
    migrations = counts.get("tissue.migrations", 0)
    samples = counts.get("tissue.sample_slot", 0)
    session_s = stats[SESSION]["total_s"]
    bc_drain = counts.get("tissue.ticks.bc", 0) - counts.get("tissue.enqueue", 0)
    client = stats.get("streams.replay", zero)["total_s"]
    m = {
        "tissue.tick.calls": per_session(tick["calls"]),
        "tissue.tick.self_s": per_session(tick["self_s"]),
        "tissue.tick.session_share": tick["self_s"] / session_s,
        "tissue.cell_ticks_per_s": rate("tissue.cell_ticks", "tissue.tick"),
        "tissue.tick_us.p50": _quantile(ticks_us, 0.50) if ticks_us else 0.0,
        "tissue.tick_us.p99": _quantile(ticks_us, 0.99) if ticks_us else 0.0,
        "tissue.migrations": per_session(migrations),
        "tissue.antigen_presented": per_session(
            counts.get("tissue.antigen_presented", 0)),
        "tissue.presented_per_migration":
            counts.get("tissue.antigen_presented", 0) / migrations
            if migrations else 0.0,
        "tissue.deposit.self_s": self_s("tissue.deposit"),
        "tissue.sample_slot.calls": per_session(samples),
        "tissue.sample_hit_ratio":
            counts.get("tissue.sample_slot.hits", 0) / samples
            if samples else 0.0,
        "tissue.drain_ticks": per_session(
            bc_drain + counts.get("tissue.drain_ticks.runner", 0)),
        "tissue.feed_backlog_max": counts.get("tissue.feed_backlog_max", 0),
        "tissue.write_log.records_per_s":
            rate("tissue.write_log.items", "tissue.write_log"),
        "tissue.read_log.records_per_s":
            rate("tissue.read_log.items", "tissue.read_log"),
        "analysis.aggregate.records_per_s":
            rate("analysis.aggregate.items", "analysis.aggregate"),
        "analysis.aggregate.self_s": self_s("analysis.aggregate"),
        "analysis.classify.self_s": self_s("analysis.classify"),
        "analysis.count_errors.self_s": self_s("analysis.count_errors"),
        "analysis.process_mag.self_s": self_s("analysis.process_mag"),
        "analysis.paired_t_test.self_s": self_s("analysis.paired_t_test"),
        "datasets.item_to_signals.self_s": self_s("datasets.item_to_signals"),
        "datasets.select_attributes.self_s": self_s("datasets.select_attributes"),
        "datasets.order_stream.self_s": self_s("datasets.order_stream"),
        "datasets.run_bc_experiment.self_s": self_s("datasets.run_bc_experiment"),
        "streams.generate_scenario.self_s": self_s("streams.generate_scenario"),
        "streams.write_log.events_per_s":
            rate("streams.write_log.items", "streams.write_log"),
        "streams.read_log.events_per_s":
            rate("streams.read_log.items", "streams.read_log"),
        "streams.runner.apply.self_s": self_s("streams.runner.apply"),
        "streams.client.frames_per_s":
            stats.get("streams.client.apply", zero)["calls"] / client
            if client > 0 else 0.0,
        "streams.server.wait_s": per_session(
            stats.get("streams.server.wait", zero)["total_s"]),
        "core.fuse_signals.calls": per_session(
            stats.get("core.fuse_signals", zero)["calls"]),
        "core.fuse_signals.self_s": self_s("core.fuse_signals"),
    }
    return m
