#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--workload W2 ...] --pairs N --seed S --seconds T

`--workload` may repeat, and `--workload all` stands for every workload
that CHANGE_DIR/BENCHMARK.json names; a name it does not list is a usage
error before any run. The workloads run one after another, each with its
own pairs and its own table. Each table's header gives the CPUs this
process may use: the runs inherit them, and on one CPU the experiments
run every repeat inline.

Pair i of a workload W runs `perfbench/run.py --workload W --seed S+i
--seconds T --trace 0` once in each checkout, each with that checkout's
own perfbench, and alternates which side goes first so that a drift of
the host's speed falls on both sides alike. Each run's last line of
standard output is its JSON result; the line before it gives the run's
session count and the percentile that its `session_s.tail` reads. The
table gives, per end-to-end metric, each side's median and quartiles, the
pairs the change won, the median gap, the parent's interquartile range,
whether the change shows a gain, and the metric against its bound; then each side's session counts and
failed operations, and each metric's value in every run, in pair order.
The `session_s.tail` row is marked when a run had too few sessions for
its tail to lie above the median.

The gain column reads `yes` when the change won at least 9 of every 10
pairs and its median is better than the parent's by more than the
parent's interquartile range, and `no` otherwise: a claimed gain needs
both.

A metric's better direction and its bound come from
CHANGE_DIR/BENCHMARK.json (lower is better when it is not listed). A
bound is relative to the parent's median. The bound column reads `worse`
when the change's median is past the bound in the worse direction,
`unresolved` when the parent's interquartile range is more than the bound
times its median (the runs spread too widely to tell), `ok` otherwise,
and `-` for a metric with no bound.

Both checkouts' sources are compiled to bytecode before the first pair,
so that neither side pays for it inside a run. The script imports
nothing from either checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

TAIL_NOTE = re.compile(r"(\d+) sessions; session_s\.tail is p([\d.]+) of")
LOW_TAIL_PCT = 50.0  # a tail at or below this percentile is no tail
GAIN_WIN_SHARE = 0.9  # the share of pairs a gain must win


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`; returns its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds * 20 + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["sessions"] = parse_tail_note(proc.stdout)
    return result


def parse_tail_note(stdout: str) -> Optional[tuple[int, float]]:
    """A run's session count and the percentile its `session_s.tail`
    reads, from the note `perfbench/run.py` prints before the JSON line;
    None when the output holds no such note."""
    match = TAIL_NOTE.search(stdout)
    if match is None:
        return None
    return int(match.group(1)), float(match.group(2))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def usable_cpus() -> int:
    """The CPUs the benchmark runs spread repeats over, by the rule of
    `dca.streams.usable_cpus`: those this process may run on, which the
    runs inherit, or 1 where the platform cannot fork or cannot tell. On
    one CPU the experiments run every repeat inline, so a pair there
    cannot show a change to how repeats are spread."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def load_spec(checkout: Path) -> dict:
    """The checkout's BENCHMARK.json; empty when it is missing or bad."""
    try:
        return json.loads((checkout / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}


def directions(spec: dict) -> dict[str, str]:
    return {m["name"]: m.get("better", "lower")
            for m in spec.get("end_to_end", [])}


def bounds(spec: dict) -> dict[str, float]:
    return {m["name"]: float(m["bound"])
            for m in spec.get("end_to_end", []) if "bound" in m}


def judge(parent: tuple[float, float, float], change_median: float,
          bound: float, better: str) -> str:
    """`worse`, `unresolved` or `ok`: the change's median and the parent's
    spread, each relative to the parent's median, against `bound`. A
    parent median of 0 gives no scale, so only an equal median is ok."""
    q1, median, q3 = parent
    if not median:
        return "ok" if change_median == median else "unresolved"
    gap = (change_median - median) / abs(median)
    if (gap if better == "lower" else -gap) > bound:
        return "worse"
    if (q3 - q1) / abs(median) > bound:
        return "unresolved"
    return "ok"


def gain(wins: int, pairs: int, parent: tuple[float, float, float],
         change_median: float, better: str) -> str:
    """`yes` when the change won at least `GAIN_WIN_SHARE` of the pairs
    and its median is better than the parent's by more than the parent's
    interquartile range; `no` otherwise."""
    q1, median, q3 = parent
    ahead = median - change_median if better == "lower" else \
        change_median - median
    return "yes" if wins >= GAIN_WIN_SHARE * pairs and ahead > q3 - q1 \
        else "no"


def select_workloads(asked: list[str], spec: dict) -> list[str]:
    """The workloads to run, in the order asked and each once, with `all`
    standing for every workload of `spec`. Raises ValueError naming a
    workload that `spec` does not list."""
    known = [w["name"] for w in spec.get("workloads", [])]
    chosen: list[str] = []
    for name in asked:
        if name != "all" and name not in known:
            raise ValueError(f"unknown workload {name!r}; BENCHMARK.json "
                             f"lists {', '.join(known) or 'none'}")
        chosen += known if name == "all" else [name]
    return list(dict.fromkeys(chosen))


def run_pairs(sides: dict[str, Path], workload: str, pairs: int, seed: int,
              seconds: float) -> dict[str, list[dict]]:
    """Run `pairs` alternating pairs of one workload; each side's results
    in pair order."""
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], workload, seed + i,
                                          seconds))
        line = "  ".join(
            f"{side} {results[side][-1]['metrics']['session_s.p50']['value']:.4g}"
            for side in ("parent", "change")
            if "session_s.p50" in results[side][-1]["metrics"])
        print(f"{workload} pair {i + 1}/{pairs} seed {seed + i} "
              f"({order[0]} first): session_s.p50 {line}",
              file=sys.stderr, flush=True)
    return results


def report(results: dict[str, list[dict]], better: dict[str, str],
           bound: dict[str, float]) -> str:
    parent, change = results["parent"], results["change"]
    names = [n for n in parent[0]["metrics"] if n in change[0]["metrics"]]
    head = (f"{'metric':<22} {'parent median [q1, q3]':>30} "
            f"{'change median [q1, q3]':>30} {'wins':>6} {'gap':>8} "
            f"{'parent IQR':>11} {'gain':>5} {'bound':>16}")
    out = [head, "-" * len(head)]
    low_tail = any(r["sessions"] and r["sessions"][1] <= LOW_TAIL_PCT
                   for r in parent + change)
    for name in names:
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        gap = (b2 - a2) / a2 if a2 else float("nan")
        mark = "*" if name == "session_s.tail" and low_tail else ""
        gained = gain(wins, len(a), (a1, a2, a3), b2,
                      better.get(name, "lower"))
        verdict = ("-" if name not in bound else judge(
            (a1, a2, a3), b2, bound[name], better.get(name, "lower"))
            + f" ({bound[name]:.0%})")
        out.append(
            f"{name + mark:<22} {f'{a2:.4g} [{a1:.4g}, {a3:.4g}]':>30} "
            f"{f'{b2:.4g} [{b1:.4g}, {b3:.4g}]':>30} "
            f"{f'{wins}/{len(a)}':>6} {gap:>+8.1%} {a3 - a1:>11.4g} "
            f"{gained:>5} {verdict:>16}")
    if low_tail:
        out.append(f"* some run read session_s.tail at or below "
                   f"p{LOW_TAIL_PCT:g}: too few sessions for a tail")
    for side in ("parent", "change"):
        runs = results[side]
        out.append(f"sessions ({side}): " + ", ".join(
            "?" if r["sessions"] is None
            else f"{r['sessions'][0]} (tail p{r['sessions'][1]:g})"
            for r in runs))
        out.append(f"failed ({side}): {sum(r['failed'] for r in runs)} of "
                   f"{sum(r['attempted'] for r in runs)} operations; "
                   f"{sum(not r['correct'] for r in runs)} incorrect runs")
    for name in names:
        out.append(f"runs {name} (parent | change): " + " | ".join(
            " ".join(f"{r['metrics'][name]['value']:.4g}" for r in runs)
            for runs in (parent, change)))
    return "\n".join(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload of CHANGE/BENCHMARK.json, or all; "
                        "may repeat")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=8)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be at least 1 and --seconds positive")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        if not (path / "perfbench" / "run.py").is_file():
            p.error(f"{path} holds no perfbench/run.py")
    spec = load_spec(sides["change"])
    try:
        workloads = select_workloads(args.workload, spec)
    except ValueError as exc:
        p.error(str(exc))
    for path in sides.values():
        compileall.compile_dir(path / "src", quiet=1)
        compileall.compile_dir(path / "perfbench", quiet=1)
    cpus = usable_cpus()
    for n, workload in enumerate(workloads):
        results = run_pairs(sides, workload, args.pairs, args.seed,
                            args.seconds)
        print(("\n" if n else "")
              + f"workload {workload}: {args.pairs} pairs, seeds {args.seed}-"
              f"{args.seed + args.pairs - 1}, {args.seconds:g} s per run, "
              f"{cpus} usable CPU{'s' if cpus != 1 else ''}; "
              "gap is the change's median against the parent's")
        print(report(results, directions(spec), bounds(spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
