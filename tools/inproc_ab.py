#!/usr/bin/env python3
"""Time two checkouts' `dca` in one process, in alternating passes.

    python3 tools/inproc_ab.py PARENT_DIR CHANGE_DIR \\
        --shape bc|bc-pair|bc-session|portscan|wire-ingest|wire-ingest-64k|
                wire-tail|logs [--passes N]

Each checkout's `src/dca` is imported under its own package name
(`dca_parent`, `dca_change`): every import inside the package is
relative, so the two load side by side from their own trees. Pass i
builds the same inputs for both sides (seed i) and times one call of the
shape in each, alternating which side runs first, so that a drift of the
host's speed falls on both alike:

- `bc`: `run_bc_experiment` over the synthetic items, one repeat, the
  stream orders in turn, on the breast-cancer tissue (100 cells, a
  one-slot flow-controlled store);
- `bc-pair`: the same at two repeats, the call a `bc-orders` session
  times; with two usable CPUs the second repeat runs in a forked worker,
  so this also sees what it costs to send a repeat's results back;
- `bc-session`: the whole of a `bc-orders` session, in memory: the
  `bc-pair` call, then its verdict table and each repeat's migration log
  written, the log read back, and `aggregate`, `classify` and
  `count_errors` on it, so that a change which moves time between the
  verdict and the report half is timed whole;
- `portscan`: `run_portscan_experiment`, experiment 4, two repeats, on
  the portscan tissue (500 cells, a 500-slot overwriting store);
- `wire-ingest`: a `wire-replay` session's server half, without the
  loopback client that competes with it for the interpreter lock: the
  scenario at five times its phase lengths (about 11,900 events), framed
  as a client sends it, read by a `TissueServer` on 50 cells through a
  connection whose every read hands over one frame, so each read is
  framed, parsed, received and merged on its own; then `wait()` merges
  the rest and drains;
- `wire-ingest-64k`: the same with 64 KB handed over per read, as a
  server gets a backlog of frames;
- `wire-tail`: `wire-ingest` read to its last frame before the clock
  starts (the server started and its accept thread joined), so that the
  call is `wait()` alone: the last merge, the drain and the last fold,
  the work that `result_latency_s` times after the last frame;
- `logs`: the file half of a `wire-replay` session: the `wire-ingest`
  scenario written with `write_log` and read back with `read_log`, then
  the migration log of its 50-cell in-process run (built before the
  clock starts) written with `write_migration_log` and read back with
  `read_migration_log`; each log is read twice, open in text mode (as
  `perfbench` reads it) and in binary mode (as the CLI does).

Half the passes (the larger half) run in this interpreter, which loads
the parent's package first; the other half run in a fresh interpreter
that loads the change's first, and the timings are pooled, so that
whatever the second-loaded package pays falls on both sides alike.

It prints the CPUs that the change's `run_repeats` spreads repeats over,
then each side's median and quartiles in seconds and its median CPU
seconds per call, the gap of the change's median against the parent's,
and the passes the change won. The CPU seconds are the user and system
time of this process and of the workers it reaped during the call
(`resource.getrusage`), so a call that forks its repeats shows the
work the wall time hides.
Within a pass both sides run in one interpreter, so this sees tick-level
differences that the noise between processes hides; a performance claim still needs
`tools/ab_pairs.py` on the benchmark.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import replace
from pathlib import Path
from types import ModuleType
from typing import Callable

SIDES = ("parent", "change")
BC_ORDERS = ("one-step", "two-step", "random")
WIRE_SCALE = 5  # the `wire-replay` scenario's phase lengths, in multiples
WIRE_CELLS = 50
# runs the passes of a fresh interpreter, which loads the change first
FRESH_PASSES = """
import json, sys
sys.path.insert(0, sys.argv[1])
import inproc_ab
print(json.dumps(inproc_ab.fresh_passes(*sys.argv[2:])))
"""


def load(checkout: Path, name: str) -> ModuleType:
    """Import `checkout/src/dca` as the package `name`, in place of any
    package loaded under that name before, submodules included."""
    init = checkout / "src" / "dca" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"{checkout} holds no src/dca")
    for loaded in [key for key in sys.modules
                   if key == name or key.startswith(name + ".")]:
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # the relative imports look it up here
    spec.loader.exec_module(module)
    return module


def bc_call(dca: ModuleType, seed: int,
            repeats: int = 1) -> Callable[[], object]:
    items = dca.synthetic_items(seed=seed)
    cfg = dca.PopulationConfig.breast_cancer(seed=seed)
    order = BC_ORDERS[seed % len(BC_ORDERS)]
    return lambda: dca.run_bc_experiment(items, order, cfg, repeats=repeats)


def bc_session_call(dca: ModuleType, seed: int) -> Callable[[], object]:
    run = bc_call(dca, seed, repeats=2)
    truth = {it.id: it.true_class for it in dca.synthetic_items(seed=seed)}

    def call():
        result = run()
        dca.analysis.write_verdict_table(result.summary.verdicts,
                                         io.StringIO(), machine=True)
        log = io.StringIO()
        for records in result.records_per_repeat:
            dca.write_migration_log(records, log)
        log.seek(0)
        verdicts = dca.aggregate(dca.read_migration_log(log))
        dca.classify(verdicts, dca.datasets.DEFAULT_THRESHOLD)
        return dca.count_errors(verdicts, truth)
    return call


def portscan_call(dca: ModuleType, seed: int) -> Callable[[], object]:
    scenario = dca.ScenarioConfig(noise_seed=seed)
    return lambda: dca.run_portscan_experiment(scenario, 4, seed=seed,
                                               repeats=2)


class FrameFeed:
    """A client connection as a server's reader sees it: each
    `recv_into` hands over the next piece of the wire bytes, or as much
    of it as the buffer holds (the rest comes next), and 0 once all are
    read."""

    def __init__(self, pieces: list[bytes]):
        self._pieces = deque(pieces)

    def recv_into(self, buffer) -> int:
        if not self._pieces:
            return 0
        piece = self._pieces.popleft()
        got = min(len(piece), len(buffer))
        buffer[:got] = piece[:got]
        if got < len(piece):
            self._pieces.appendleft(piece[got:])
        return got

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class FeedListener:
    """A listening socket that hands the server's accept loop one
    `FrameFeed`."""

    def __init__(self, feed: FrameFeed):
        self._feed = feed

    def accept(self):
        return self._feed, ("feed", 0)

    def shutdown(self, how):
        pass

    def close(self):
        pass


def wire_scenario(dca: ModuleType, seed: int) -> object:
    """The scenario of `seed` at `WIRE_SCALE` times its phase lengths."""
    base = dca.ScenarioConfig(noise_seed=seed)
    return replace(base, **{
        name: getattr(base, name) * WIRE_SCALE
        for name in ("login_duration", "scan_duration", "pause_duration",
                     "transfer_duration", "close_duration")})


def wire_ingest_call(dca: ModuleType, seed: int, read_size: int = 0,
                     tail: bool = False) -> Callable[[], object]:
    """A server ingesting the scaled scenario of `seed`, one frame per read
    (`read_size` 0) or `read_size` bytes per read; with `tail`, the server
    reads every frame before the call, which is then its `wait()`."""
    streams = dca.streams
    payloads = [streams.format_event(e).encode("utf-8")
                for e in dca.generate_scenario(wire_scenario(dca, seed))]
    frames = [streams.FRAME_HEADER.pack(len(p)) + p for p in payloads]
    if read_size:
        wire = b"".join(frames)
        frames = [wire[i:i + read_size]
                  for i in range(0, len(wire), read_size)]
    cfg = dca.PopulationConfig.portscan(seed=seed, num_cells=WIRE_CELLS)

    def served():
        server = streams.TissueServer(streams.EventDrivenRunner(
            dca.Tissue(cfg)))
        server._listener.close()
        server._listener = FeedListener(FrameFeed(frames))
        server.start()
        return server

    if tail:
        server = served()
        server._thread.join()
        return server.wait
    return lambda: served().wait()


def logs_call(dca: ModuleType, seed: int) -> Callable[[], object]:
    """The scaled scenario of `seed` and the migration log of its run on
    `WIRE_CELLS` cells, each written to a file and read back in text mode,
    as `perfbench` reads them, and in binary mode, as the CLI does; the run
    happens here, before the clock starts. The call returns what it read
    back: the events twice, then the records twice."""
    events = dca.generate_scenario(wire_scenario(dca, seed))
    runner = dca.EventDrivenRunner(dca.Tissue(dca.PopulationConfig.portscan(
        seed=seed, num_cells=WIRE_CELLS)))
    runner.run(events)
    runner.drain()
    records = runner.tissue.records
    work = tempfile.TemporaryDirectory()  # removed with the call

    def call():
        event_log = Path(work.name) / "scenario.log"
        migration_log = Path(work.name) / "migration.log"
        with open(event_log, "w") as fh:
            dca.write_log(events, fh)
        with open(migration_log, "w") as fh:
            dca.write_migration_log(records, fh)
        read = []
        for path, reader in ((event_log, dca.read_log),
                             (migration_log, dca.read_migration_log)):
            for mode in ("r", "rb"):
                with open(path, mode) as fh:
                    read.append(reader(fh))
        return read
    return call


SHAPES = {"bc": bc_call, "bc-pair": functools.partial(bc_call, repeats=2),
          "bc-session": bc_session_call, "portscan": portscan_call,
          "wire-ingest": wire_ingest_call,
          "wire-ingest-64k": functools.partial(wire_ingest_call,
                                               read_size=65536),
          "wire-tail": functools.partial(wire_ingest_call, tail=True),
          "logs": logs_call}


def cpu_seconds() -> float:
    """User plus system seconds of this process and its reaped children."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def run_passes(packages: dict[str, ModuleType], shape: str, passes: int,
               first: int = 0
               ) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Wall seconds and CPU seconds per call of each side, in pass order,
    for the passes numbered from `first`."""
    wall: dict[str, list[float]] = {side: [] for side in SIDES}
    cpu: dict[str, list[float]] = {side: [] for side in SIDES}
    for i in range(first, first + passes):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            call = SHAPES[shape](packages[side], i)
            gc.collect()
            cpu_start = cpu_seconds()
            start = time.perf_counter()
            call()
            wall[side].append(time.perf_counter() - start)
            cpu[side].append(cpu_seconds() - cpu_start)
    return wall, cpu


def fresh_passes(parent: str, change: str, shape: str, passes: str,
                 first: str) -> tuple[dict[str, list[float]],
                                      dict[str, list[float]]]:
    """`run_passes` in this interpreter with the change's package loaded
    first; what the fresh interpreter of `pooled_passes` runs."""
    packages = {side: load(Path(checkout).resolve(), f"dca_{side}")
                for side, checkout in (("change", change),
                                       ("parent", parent))}
    return run_passes(packages, shape, int(passes), int(first))


def pooled_passes(packages: dict[str, ModuleType], checkouts: dict[str, Path],
                  shape: str, passes: int
                  ) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """`run_passes` over all the passes: the larger half here, with the
    parent's package loaded first, then the rest in a fresh interpreter
    that loads the change's first; the timings in pass order."""
    here = passes - passes // 2
    wall, cpu = run_passes(packages, shape, here)
    if passes > here:
        out = subprocess.run(
            [sys.executable, "-c", FRESH_PASSES, str(Path(__file__).parent),
             str(checkouts["parent"]), str(checkouts["change"]), shape,
             str(passes - here), str(here)],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        fresh_wall, fresh_cpu = json.loads(out.splitlines()[-1])
        for side in SIDES:
            wall[side] += fresh_wall[side]
            cpu[side] += fresh_cpu[side]
    return wall, cpu


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(times: dict[str, list[float]],
              cpu: dict[str, list[float]]) -> str:
    lines = []
    for side in SIDES:
        q1, median, q3 = quartiles(times[side])
        lines.append(f"{side:<7} median {median:.4g} s [{q1:.4g}, {q3:.4g}]"
                     f", cpu {statistics.median(cpu[side]):.4g} s")
    parent, change = times["parent"], times["change"]
    gap = statistics.median(change) / statistics.median(parent) - 1
    wins = sum(c < p for p, c in zip(parent, change))
    lines.append(f"gap {gap:+.1%}; change faster in {wins}/{len(parent)} "
                 "passes")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--shape", choices=sorted(SHAPES), required=True)
    p.add_argument("--passes", type=int, default=30)
    args = p.parse_args(argv)
    if args.passes < 1:
        p.error("--passes must be at least 1")
    checkouts = {side: getattr(args, side).resolve() for side in SIDES}
    try:
        packages = {side: load(checkouts[side], f"dca_{side}")
                    for side in SIDES}
    except FileNotFoundError as exc:
        p.error(str(exc))
    times, cpu = pooled_passes(packages, checkouts, args.shape, args.passes)
    cpus = packages["change"].streams.usable_cpus()
    print(f"shape {args.shape}: {args.passes} passes, alternating which "
          f"side runs first, {cpus} usable CPU{'s' if cpus != 1 else ''}; "
          "seconds per call")
    print(summarize(times, cpu))
    return 0


if __name__ == "__main__":
    sys.exit(main())
