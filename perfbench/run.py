#!/usr/bin/env python3
"""Benchmark of the ``dca`` library.

One run measures one workload for a fixed time and prints a table, then,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run alternates untraced cycles
of sessions with traced ones, and prints the per-layer metrics and the
tracing overhead. Workloads, sizes and the predicted layer effects are
described in ``perfbench/README.md``.

    python3 perfbench/run.py --workload bc-orders --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke    # every workload at tiny size, both modes

Run from the root of a checkout: the library is imported from ``src/``.
Scratch files and traces go to ``.bench_work/`` there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_STARTS = 3
TAIL_BEYOND = 10           # sessions that must lie beyond the tail percentile
DEADLINE_S = 170           # a run that is still going by then is killed
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "session_s.p50": "s",
    "session_s.tail": "s",
    "result_latency_s.p50": "s",
    "peak_rss_mb": "MB",
}

IMPORT_MODULES = ("dca", "dca.core", "dca.tissue", "dca.analysis",
                  "dca.datasets", "dca.streams", "dca.cli", "scipy")

PER_LAYER = {
    "tissue.tick.calls": "count",
    "tissue.tick.self_s": "s",
    "tissue.tick.session_share": "fraction",
    "tissue.cell_ticks_per_s": "1/s",
    "tissue.tick_us.p50": "us",
    "tissue.tick_us.p99": "us",
    "tissue.migrations": "count",
    "tissue.antigen_presented": "count",
    "tissue.presented_per_migration": "count",
    "tissue.deposit.self_s": "s",
    "tissue.sample_slot.calls": "count",
    "tissue.sample_hit_ratio": "fraction",
    "tissue.drain_ticks": "count",
    "tissue.feed_backlog_max": "count",
    "tissue.write_log.records_per_s": "1/s",
    "tissue.read_log.records_per_s": "1/s",
    "analysis.aggregate.records_per_s": "1/s",
    "analysis.aggregate.self_s": "s",
    "analysis.classify.self_s": "s",
    "analysis.count_errors.self_s": "s",
    "analysis.process_mag.self_s": "s",
    "analysis.paired_t_test.self_s": "s",
    "datasets.item_to_signals.self_s": "s",
    "datasets.select_attributes.self_s": "s",
    "datasets.order_stream.self_s": "s",
    "datasets.run_bc_experiment.self_s": "s",
    "streams.generate_scenario.self_s": "s",
    "streams.write_log.events_per_s": "1/s",
    "streams.read_log.events_per_s": "1/s",
    "streams.runner.apply.self_s": "s",
    "streams.client.frames_per_s": "1/s",
    "streams.server.wait_s": "s",
    "streams.server.dropped_clients": "count",
    "core.fuse_signals.calls": "count",
    "core.fuse_signals.self_s": "s",
    **{f"cli.import_ms.{m}": "ms" for m in IMPORT_MODULES},
    "trace.untraced_session_s.p50": "s",
    "trace.traced_session_s.p50": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
}


class Tally:
    """Operations attempted and failed: sessions, clients and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def checks(self, label: str, checks: dict[str, bool]) -> None:
        for name, ok in checks.items():
            self.record(f"{label}: {name}", ok)


def _probe(workload: str, seed: int, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *flags, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True)


def measure_setup(workload: str, seed: int, starts: int) -> list[float]:
    """Wall times of fresh-interpreter cold starts, after one untimed start
    that fills the bytecode and file caches."""
    _probe(workload, seed)
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        _probe(workload, seed)
        times.append(time.perf_counter() - t0)
    return times


def import_breakdown(workload: str, seed: int) -> dict[str, float]:
    """Cumulative import time in ms per module, from ``-X importtime``.

    A submodule reached through ``from package import name`` gets no line
    of its own, so ``scipy`` sums every outermost ``scipy*`` line: the
    whole scipy tree the cold start imported, almost all of it for
    ``scipy.stats``.
    """
    _probe(workload, seed)
    err = _probe(workload, seed, "-X", "importtime").stderr
    lines = []
    for line in err.splitlines():
        match = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)$", line)
        if match:
            lines.append((len(match.group(3)), match.group(4),
                          int(match.group(2)) / 1000.0))
    out = {m: 0.0 for m in IMPORT_MODULES}
    for k, (indent, name, cumulative) in enumerate(lines):
        if name in out and name != "scipy":
            out[name] = cumulative
        elif name.split(".")[0] == "scipy":
            # importtime prints children first; the parent is the next
            # line indented less
            parent = next((n for i, n, _ in lines[k + 1:] if i < indent), "")
            if parent.split(".")[0] != "scipy":
                out["scipy"] += cumulative
    return out


def run_sessions(wl, tally: Tally, start: int, seconds: float, sessions: list,
                 span=contextlib.nullcontext) -> int:
    """Run whole cycles of sessions, each inside ``span()``, until
    ``seconds`` have passed; returns the next session index. The yardstick
    is timed before and after every session, outside the span."""
    deadline = time.perf_counter() + seconds
    i = start
    before = yardstick.measure()
    while True:
        for _ in range(wl.cycle):
            try:
                with span():
                    s = wl.session(i)
            except Exception as exc:  # a failed operation, not a crash
                tally.record(f"session {i}: {type(exc).__name__}: {exc}", False)
                before = yardstick.measure()
            else:
                after = yardstick.measure()
                s.yardstick_s = (before + after) / 2
                before = after
                tally.record(f"session {i}", True)
                tally.checks(f"session {i}", s.checks)
                for _ in range(wl.clients):
                    tally.record(f"session {i}: client", s.clients_failed == 0)
                sessions.append(s)
            i += 1
        if time.perf_counter() >= deadline:
            return i


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND values beyond it,
    and that percentile; the maximum if there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    j = n - TAIL_BEYOND - 1
    return ordered[j], 100.0 * (j + 1) / n


def bench(args) -> int:
    import workloads
    from tracer import SESSION, Tracer, layer_metrics

    WORK.mkdir(exist_ok=True)
    tally = Tally()
    starts = 1 if args.tiny else SETUP_STARTS
    if args.trace:
        imports = import_breakdown(args.workload, args.seed)
    else:
        setup = measure_setup(args.workload, args.seed, starts)

    wl = workloads.WORKLOADS[args.workload](args.seed, WORK, tiny=args.tiny)
    warm = wl.session(0)
    tally.record("warm-up session", True)
    tally.checks("warm-up session", warm.checks)

    sessions: list = []
    traced: list = []
    if args.trace:
        # alternate untraced and traced cycles, so that both see the same
        # machine and their difference is the tracing overhead
        tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        nxt = 0
        while True:
            nxt = run_sessions(wl, tally, nxt, 0, sessions)
            tracer.install()
            try:
                nxt = run_sessions(wl, tally, nxt, 0, traced,
                                   lambda: tracer.span(SESSION))
            finally:
                tracer.uninstall()
            if time.perf_counter() >= deadline:
                break
    else:
        run_sessions(wl, tally, 0, args.seconds, sessions)
    for s in sessions[:1]:
        tally.record("equal seeds give identical outputs",
                     s.index == 0 and s.digest == warm.digest)
    tally.checks("run", wl.final_checks(sessions))

    if args.trace:
        tracer.dump(WORK / f"trace-{args.workload}")
        if not (sessions and traced):
            return report(args, tally, {}, "no session completed")
        metrics = layer_metrics(tracer, len(traced))
        metrics["streams.server.dropped_clients"] = sum(
            s.clients_failed for s in traced)
        metrics.update({f"cli.import_ms.{m}": v for m, v in imports.items()})
        untraced = statistics.median(s.wall_s * s.speed for s in sessions)
        traced_p50 = statistics.median(s.wall_s * s.speed for s in traced)
        metrics["trace.untraced_session_s.p50"] = untraced
        metrics["trace.traced_session_s.p50"] = traced_p50
        metrics["trace.overhead_s"] = traced_p50 - untraced
        metrics["trace.overhead_frac"] = (traced_p50 - untraced) / untraced
        return report(args, tally, {k: (metrics[k], u)
                                    for k, u in PER_LAYER.items()},
                      f"{len(sessions)} untraced + {len(traced)} traced sessions")

    if not sessions:
        return report(args, tally, {}, "no session completed")
    # session timings are scaled to the reference host's speed by the
    # yardstick around each session; cold starts are not (see README)
    scaled = [s.wall_s * s.speed for s in sessions]
    tail_value, tail_pct = tail(scaled)
    gauge = statistics.median(s.yardstick_s for s in sessions)
    values = {
        "setup_s": statistics.median(setup),
        "session_s.p50": statistics.median(scaled),
        "session_s.tail": tail_value,
        "result_latency_s.p50": statistics.median(
            s.latency_s * s.speed for s in sessions),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return report(args, tally, {k: (values[k], u) for k, u in END_TO_END.items()},
                  f"{len(scaled)} sessions; session_s.tail is "
                  f"p{tail_pct:.1f} of {len(scaled)}; setup_s is the median "
                  f"of {len(setup)} cold starts; session timings are at "
                  f"reference speed. Unscaled session_s.p50 "
                  f"{statistics.median(s.wall_s for s in sessions):.4f}; "
                  f"yardstick median {gauge * 1000:.2f} ms, reference "
                  f"{yardstick.REFERENCE_S * 1000:.2f} ms")


def report(args, tally: Tally, metrics: dict, note: str) -> int:
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ({note})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':<36} {frac:>16.6g} ({tally.failed} of "
          f"{tally.attempted} operations)")
    for what in tally.failures:
        print(f"  FAILED {what}")
    if not metrics:
        print("error: no metrics measured", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Run each workload at tiny size in both modes; check that every metric
    named in BENCHMARK.json is printed with its unit and nothing failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=DEADLINE_S + 10)
            label = f"{w['name']} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: failed_frac is not 0\n{proc.stdout}")
            print(f"smoke {label}: {len(got)} metrics, "
                  f"{result['failed']} of {result['attempted']} failed")
    for p in problems:
        print("SMOKE FAILURE", p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("bc-orders", "portscan-series",
                                               "wire-replay"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, one cold start (smoke runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny in both modes and check")
    args = parser.parse_args(argv)
    if not (SRC / "dca" / "__init__.py").is_file():
        print(f"error: no dca package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    # a hung run (say, a server waiting for a client) must not outlive this
    timer = threading.Timer(DEADLINE_S, lambda: os._exit(3))
    timer.daemon = True
    timer.start()
    sys.path.insert(0, str(SRC))
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
