"""Golden sha256 digests of fixed-seed outputs.

These pin byte-level determinism across builds, not just between two
runs of the same build. A change that alters the random stream or an
output format on purpose must update the digests and say why. The tissue
draws from five PCG64 children of one `numpy.random.SeedSequence` (tick
order, sampling coins, store slots, the pool and fresh thresholds, and
overwrite slots), so the digests hold for the numpy release they were
computed on (2.4.6); numpy does not promise the same streams across
releases. They do not depend on how many ticks of draws the tissue takes
at once (`tissue.BLOCK_TICKS`), which also sizes its blocks of fresh
thresholds.
"""

import hashlib
import io
import threading

from dca.analysis import write_process_table
from dca.cli import main
from dca.streams import (SIGNAL_SET, EventDrivenRunner, ScenarioConfig,
                         StreamClient, TissueServer, generate_scenario, replay,
                         run_portscan_experiment, write_log)
from dca.tissue import PopulationConfig, Tissue, write_migration_log

BC_SEED_11 = {
    "migration.log":
        "e2df7304ca7cfb77eee9de0f84bab547866771a9c6964949497d15e6f0ede75f",
    "verdicts.tsv":
        "9dcfc9973d59284fd34b7cea3cca18f30836c78dd2a931cef7653c33c21b7da6",
    "summary.txt":
        "249211134a82f52efa9eb7574cb1c8a6940128573d93365c786052a47762942a",
}
# two repeats, so a later repeat's stream order and tissue seeds are pinned
BC_SEED_11_RANDOM_TWO_REPEATS = {
    "migration.log":
        "c9f1dbdecb1d1cbc93c6b705c9a67ce63e1f17abd10632b1301f38b7b1693807",
    "verdicts.tsv":
        "8f5647a15cba719641b52a86666215ebe7fdeae3e83349da24144ba93e7739f8",
    "summary.txt":
        "160e4b0429eb9f47f99754e0d9cb389062e5265116a697b62e7cfc317df7ae8d",
}
PORTSCAN_SCENARIO_6 = (
    "e10d96f2030a3a3a0ca8fd59150245f6215977d4d378d16e02f01789eda52ac5")
SCENARIO_6_EVENT_LOG = (
    "512967b06bcb5808ed27cc488ef07479900b40e3791134afa25c1e021cd316a6")
EXPERIMENT_2_TABLE = (
    "7ffabeb7a10dcf99605349e300075cbeb864919073367e61e7dd50eb203e3226")
# at seed 3, so the seed's multipliers in each repeat's seeds are pinned
EXPERIMENT_2_SEED_3_TABLE = (
    "a3a899a7bb24562b664dbd49ab9d41aa44283e1402c615f2138ab17ff4ea2fa1")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_bc_cli_outputs(tmp_path):
    assert main(["--seed", "11", "--out", str(tmp_path),
                 "bc", "--repeats", "1"]) == 0
    assert {name: sha((tmp_path / name).read_bytes())
            for name in BC_SEED_11} == BC_SEED_11


def test_bc_cli_outputs_of_two_random_order_repeats(tmp_path):
    assert main(["--seed", "11", "--out", str(tmp_path),
                 "bc", "--order", "random", "--repeats", "2"]) == 0
    assert ({name: sha((tmp_path / name).read_bytes())
             for name in BC_SEED_11_RANDOM_TWO_REPEATS}
            == BC_SEED_11_RANDOM_TWO_REPEATS)


def test_scenario_event_log():
    buf = io.StringIO()
    write_log(generate_scenario(ScenarioConfig(noise_seed=6)), buf)
    assert sha(buf.getvalue().encode()) == SCENARIO_6_EVENT_LOG


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


def test_portscan_experiment_process_table_at_seed_3():
    result = run_portscan_experiment(ScenarioConfig(noise_seed=0), 2,
                                     seed=3, repeats=2)
    buf = io.StringIO()
    write_process_table(result.process_table, buf, machine=True)
    assert sha(buf.getvalue().encode()) == EXPERIMENT_2_SEED_3_TABLE
