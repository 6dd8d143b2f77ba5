"""Golden sha256 digests of fixed-seed outputs.

These pin byte-level determinism across builds, not just between two
runs of the same build. A change that alters the random stream or an
output format on purpose must update the digests and say why.
"""

import hashlib
import io

from dca.analysis import write_process_table
from dca.cli import main
from dca.streams import (EventDrivenRunner, ScenarioConfig, generate_scenario,
                         run_portscan_experiment)
from dca.tissue import PopulationConfig, Tissue, write_migration_log

BC_SEED_11 = {
    "migration.log":
        "c04c70d4dade06fc9adce8585415b56f7e83a4d6d6cb1377dc3b418b0474789c",
    "verdicts.tsv":
        "cedfae97a36e822dee4db9d68c79db323c45a7535572a072cdbc36a45be049f6",
    "summary.txt":
        "c1178fa8714111d0c442a69f863e482fa3b1f7b9a969153bfb8ff8c6665b8f44",
}
PORTSCAN_SCENARIO_6 = (
    "1cd0a24b9e121f580ceb5ea85e14d887e22b0cfe8e59ff17bd58875692465347")
EXPERIMENT_2_TABLE = (
    "894d013aed2bb850c280814f84fa580f4e627917d5b0ed726d7d3dee8159c888")


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


def test_portscan_experiment_process_table():
    result = run_portscan_experiment(ScenarioConfig(noise_seed=0), 2,
                                     seed=0, repeats=2)
    buf = io.StringIO()
    write_process_table(result.process_table, buf, machine=True)
    assert sha(buf.getvalue().encode()) == EXPERIMENT_2_TABLE
