"""The benchmark's set-up probes and tracer hooks, run as tests.

Each probe in ``perfbench/workloads.py`` makes one minimal call into every
library function its workload uses, so renaming or removing any of them
fails here rather than only when the benchmark runs. The tracer's hooks
read what the library returns, so a change to a return type fails here
too. The benchmark directory is only put on ``sys.path`` and read, never
written.
"""

import importlib
import sys
from pathlib import Path

import pytest

from dca.core import SignalVector
from dca.tissue import PopulationConfig, Tissue

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """Imports a benchmark module by name, without writing bytecode."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        yield importlib.import_module


@pytest.mark.parametrize("workload",
                         ["bc-orders", "portscan-series", "wire-replay"])
def test_probe_runs(perfbench, workload):
    perfbench("workloads").PROBES[workload](seed=3)


def test_tracer_counts_tick_returns_as_the_records(perfbench):
    tracer = perfbench("tracer")
    tissue = Tissue(PopulationConfig.portscan(seed=3))
    buf = tracer._Buffer()
    for i in range(30):
        for k in range(20):
            tissue.enqueue_antigen(f"ag-{i}-{k}")
        tissue.set_signals(SignalVector(pamp=i % 3, danger=2, safe=i % 2))
        tracer.Tracer._post_tissue_tick(buf, tissue.tick())
    records = tissue.records
    presented = sum(len(r.antigens) for r in records)
    assert buf.counts["tissue.migrations"] == len(records) > 0
    assert buf.counts["tissue.antigen_presented"] == presented > 0


def test_tracer_counts_every_store_call_and_uninstalls(perfbench):
    tracer = perfbench("tracer")
    targets = [*tracer.TARGETS.values(), *tracer.COUNTED.values()]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tissue = Tissue(PopulationConfig.portscan(
        seed=3, num_cells=50, tissue_antigen_capacity=40))
    traced = tracer.Tracer()
    traced.install()
    try:
        deposits = 0
        for i in range(30):
            for k in range(20):
                tissue.enqueue_antigen(f"ag-{i}-{k}")
                deposits += 1
            tissue.set_signals(SignalVector(pamp=i % 3, danger=2, safe=i % 2))
            tissue.tick()
    finally:
        traced.uninstall()
    assert [getattr(owner, attr) for owner, attr in targets] == originals
    stats, _, counts = traced.summary()
    presented = sum(len(r.antigens) for r in tissue.records)
    held = sum(len(cell.antigen_store) for cell in tissue.pool)
    assert stats["tissue.deposit"]["calls"] == deposits
    assert counts["tissue.sample_slot.hits"] == presented + held > 0
