"""The benchmark's set-up probes, run as tests.

Each probe in ``perfbench/workloads.py`` makes one minimal call into every
library function its workload uses, so renaming or removing any of them
fails here rather than only when the benchmark runs. The benchmark
directory is only put on ``sys.path`` and read, never written.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def probes():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        yield importlib.import_module("workloads").PROBES


@pytest.mark.parametrize("workload",
                         ["bc-orders", "portscan-series", "wire-replay"])
def test_probe_runs(probes, workload):
    probes[workload](seed=3)
