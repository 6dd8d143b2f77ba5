#!/usr/bin/env python3
"""Check that the peak memory of `dca report` does not grow with its log.

    python3 tools/report_rss.py [CHECKOUT]

It runs `dca bc --repeats 20` of CHECKOUT's `src/dca` (this tree by
default) to write a breast-cancer migration log, writes that log
four times over to a second file, and runs `dca report --log` on each.
Every `dca` command runs in a fresh interpreter that calls `dca.cli.main`,
started by a wrapper process of its own, which then prints the peak
resident set size of its one child (`ru_maxrss` of `RUSAGE_CHILDREN`), so
each peak belongs to that one report.
It prints both logs' sizes, record counts and peaks, and the growth of
the peak from the 1x log to the 4x log. It exits 1 unless that growth is
within `SLACK_MB`: a report that holds only its verdicts and one chunk of
records peaks at about the same size on either log.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPEATS = 20  # of `dca bc`, whose migration log is the first log
TIMES = 4  # the second log is the first this many times over
SLACK_MB = 5.0  # the most the report's peak may grow on that log
# runs one `dca` command of the checkout whose `src` is its first argument
DCA = """
import sys
sys.path.insert(0, sys.argv[1])
from dca.cli import main
sys.exit(main(sys.argv[2:]))
"""
# runs `DCA` in a child, then prints that child's peak RSS in KiB, as Linux
# gives `ru_maxrss`. A process started from a large one can count that
# one's peak as its own, so the child starts from this small interpreter
WRAPPER = """
import resource, subprocess, sys
code = subprocess.call([sys.executable, "-c", *sys.argv[1:]])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def run_dca(checkout: Path, argv: list[str]) -> tuple[str, float]:
    """Run one `dca` command of `checkout` in a fresh interpreter, inside
    its own wrapper process; returns its standard output and its peak RSS
    in MB."""
    cmd = [sys.executable, "-c", WRAPPER, DCA, str(checkout / "src"), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: dca {' '.join(argv)} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    *out, peak_kib = proc.stdout.splitlines()
    return "\n".join(out), int(peak_kib) / 1024


def report(checkout: Path, log: Path, out: Path) -> tuple[int, float]:
    """The record count `dca report` prints for `log`, and its peak MB."""
    text, peak = run_dca(checkout, ["--out", str(out), "report",
                                    "--log", str(log)])
    return int(re.search(r"records=(\d+)", text)[1]), peak


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("checkout", type=Path, nargs="?",
                   default=Path(__file__).resolve().parent.parent,
                   help="the checkout whose src/dca runs (default: this one)")
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "dca" / "cli.py").is_file():
        p.error(f"{checkout} holds no src/dca/cli.py")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run_dca(checkout, ["--out", str(work / "bc"), "bc",
                           "--repeats", str(REPEATS)])
        logs = [work / "bc" / "migration.log", work / f"migration-{TIMES}x.log"]
        logs[1].write_bytes(logs[0].read_bytes() * TIMES)
        peaks = []
        for times, log in zip((1, TIMES), logs):
            records, peak = report(checkout, log, work / f"report-{times}x")
            peaks.append(peak)
            print(f"{times}x log: {log.stat().st_size / 1e6:.2f} MB, "
                  f"{records} records; report peak {peak:.1f} MB")
    growth = peaks[1] - peaks[0]
    ok = growth <= SLACK_MB
    print(f"peak growth {growth:+.1f} MB (bound {SLACK_MB:g} MB): "
          f"{'ok' if ok else 'too much'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
