#!/usr/bin/env python3
"""Time two checkouts' `dca` in one process, in alternating passes.

    python3 tools/inproc_ab.py PARENT_DIR CHANGE_DIR \\
        --shape bc|bc-pair|portscan [--passes N]

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
- `portscan`: `run_portscan_experiment`, experiment 4, two repeats, on
  the portscan tissue (500 cells, a 500-slot overwriting store).

It prints the CPUs that the change's `run_repeats` spreads repeats over,
then each side's median and quartiles in seconds, the gap of the
change's median against the parent's, and the passes the change won.
Both sides run in one interpreter, so this sees tick-level differences
that the noise between processes hides; a performance claim still needs
`tools/ab_pairs.py` on the benchmark.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Callable

SIDES = ("parent", "change")
BC_ORDERS = ("one-step", "two-step", "random")


def load(checkout: Path, name: str) -> ModuleType:
    """Import `checkout/src/dca` as the package `name`."""
    init = checkout / "src" / "dca" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"{checkout} holds no src/dca")
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


def portscan_call(dca: ModuleType, seed: int) -> Callable[[], object]:
    scenario = dca.ScenarioConfig(noise_seed=seed)
    return lambda: dca.run_portscan_experiment(scenario, 4, seed=seed,
                                               repeats=2)


SHAPES = {"bc": bc_call, "bc-pair": functools.partial(bc_call, repeats=2),
          "portscan": portscan_call}


def run_passes(packages: dict[str, ModuleType], shape: str,
               passes: int) -> dict[str, list[float]]:
    """Seconds per call of each side, in pass order."""
    times: dict[str, list[float]] = {side: [] for side in SIDES}
    for i in range(passes):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            call = SHAPES[shape](packages[side], i)
            gc.collect()
            start = time.perf_counter()
            call()
            times[side].append(time.perf_counter() - start)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(times: dict[str, list[float]]) -> str:
    lines = []
    for side in SIDES:
        q1, median, q3 = quartiles(times[side])
        lines.append(f"{side:<7} median {median:.4g} s [{q1:.4g}, {q3:.4g}]")
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
    try:
        packages = {side: load(getattr(args, side).resolve(), f"dca_{side}")
                    for side in SIDES}
    except FileNotFoundError as exc:
        p.error(str(exc))
    times = run_passes(packages, args.shape, args.passes)
    cpus = packages["change"].streams.usable_cpus()
    print(f"shape {args.shape}: {args.passes} passes, alternating which "
          f"side runs first, {cpus} usable CPU{'s' if cpus != 1 else ''}; "
          "seconds per call")
    print(summarize(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
