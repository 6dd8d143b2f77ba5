"""One cold start of a workload, timed from outside by ``run.py``.

In a fresh interpreter: import the ``dca`` command (``dca.cli`` pulls in
the whole package), build the workload's inputs and make one minimal call
into each public function the workload uses, so that any import the
library defers to its first call is still paid here.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dca.cli  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.PROBES[sys.argv[1]](int(sys.argv[2]))
