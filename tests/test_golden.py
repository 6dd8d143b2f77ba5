"""Golden sha256 digests of fixed-seed outputs.

These pin byte-level determinism across builds, not just between two
runs of the same build. A change that alters the random stream or an
output format on purpose must update the digests and say why. The tissue
draws from numpy's PCG64 generator, so the digests hold for the numpy
release they were computed on (2.4.6); numpy does not promise the same
streams across releases.
"""

import hashlib
import io
import threading

from dca.analysis import write_process_table
from dca.cli import main
from dca.streams import (SIGNAL_SET, EventDrivenRunner, ScenarioConfig,
                         StreamClient, TissueServer, generate_scenario, replay,
                         run_portscan_experiment)
from dca.tissue import PopulationConfig, Tissue, write_migration_log

BC_SEED_11 = {
    "migration.log":
        "aa941e0b675e75d010bd99130a9ea3a9a33288b8c2c548a9340ae6d2ece7b01e",
    "verdicts.tsv":
        "0d76b1b6bfbccafba1d67d989c20e022c20ac3d1b2fdf873738652a11f0b479e",
    "summary.txt":
        "c1178fa8714111d0c442a69f863e482fa3b1f7b9a969153bfb8ff8c6665b8f44",
}
PORTSCAN_SCENARIO_6 = (
    "a1cc152b8b3fe5e1b291af251cc0653eb209878112483bcd6a7b604f26aa0d4e")
EXPERIMENT_2_TABLE = (
    "ba31d9e1eae4458c9b1dbdab19fda3e158c7b1ae32c10320ec793c8f2e3b7b71")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_bc_cli_outputs(tmp_path):
    assert main(["--seed", "11", "--out", str(tmp_path),
                 "bc", "--repeats", "1"]) == 0
    assert {name: sha((tmp_path / name).read_bytes())
            for name in BC_SEED_11} == BC_SEED_11


def test_portscan_in_process_migration_log():
    runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=6)))
    runner.run(generate_scenario(ScenarioConfig(noise_seed=6)))
    runner.drain()
    buf = io.StringIO()
    write_migration_log(runner.tissue.records, buf)
    assert sha(buf.getvalue().encode()) == PORTSCAN_SCENARIO_6


def test_portscan_served_by_two_clients_migration_log():
    # a signal client that finishes early and an antigen client, streamed
    # and merged as they arrive, give the in-process log
    events = generate_scenario(ScenarioConfig(noise_seed=6))
    with TissueServer(EventDrivenRunner(Tissue(PopulationConfig.portscan(
            seed=6))), expected_clients=2) as server:
        server.start()

        def push(stream):
            with StreamClient(*server.address) as client:
                replay(stream, "max", client)

        threads = [threading.Thread(target=push, args=(
            [e for e in events if (e.kind == SIGNAL_SET) == signals],))
            for signals in (True, False)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        records = server.wait()
    buf = io.StringIO()
    write_migration_log(records, buf)
    assert sha(buf.getvalue().encode()) == PORTSCAN_SCENARIO_6


def test_portscan_experiment_process_table():
    result = run_portscan_experiment(ScenarioConfig(noise_seed=0), 2,
                                     seed=0, repeats=2)
    buf = io.StringIO()
    write_process_table(result.process_table, buf, machine=True)
    assert sha(buf.getvalue().encode()) == EXPERIMENT_2_TABLE
