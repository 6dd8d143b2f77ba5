"""`tools/inproc_ab.py`: loading two checkouts side by side, the summary
of their wall and CPU timings, and its usage errors."""

import importlib.util
import io
import os
import re
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "inproc_ab.py"


@pytest.fixture(scope="module")
def inproc_ab():
    spec = importlib.util.spec_from_file_location("inproc_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout(root, where):
    """A checkout whose `dca` package says where it was loaded from,
    through a relative import."""
    package = root / "src" / "dca"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .core import WHERE\n")
    (package / "core.py").write_text(f"WHERE = {where!r}\n")
    return root


def test_a_name_loaded_again_is_the_new_checkout(inproc_ab, tmp_path):
    inproc_ab.load(checkout(tmp_path / "a", "a"), "dca_test_again")
    again = inproc_ab.load(checkout(tmp_path / "b", "b"), "dca_test_again")
    assert again.WHERE == again.core.WHERE == "b"


def test_two_checkouts_load_as_distinct_packages(inproc_ab, tmp_path):
    a = inproc_ab.load(checkout(tmp_path / "a", "a"), "dca_test_a")
    b = inproc_ab.load(checkout(tmp_path / "b", "b"), "dca_test_b")
    assert (a.WHERE, b.WHERE) == ("a", "b")
    assert Path(a.core.__file__).parent == tmp_path / "a" / "src" / "dca"
    assert Path(b.core.__file__).parent == tmp_path / "b" / "src" / "dca"


def test_this_tree_loads_twice_under_two_names(inproc_ab):
    first = inproc_ab.load(ROOT, "dca_test_first")
    second = inproc_ab.load(ROOT, "dca_test_second")
    assert first.tissue.Tissue is not second.tissue.Tissue
    assert first.tissue.__name__ == "dca_test_first.tissue"
    cfg = second.PopulationConfig.breast_cancer(seed=1, num_cells=5)
    assert second.Tissue(cfg).tick() == ()


def test_bc_pair_is_the_call_a_bc_orders_session_times(inproc_ab,
                                                      monkeypatch):
    dca = inproc_ab.load(ROOT, "dca_test_pair")
    calls = []
    monkeypatch.setattr(dca, "run_bc_experiment",
                        lambda *args, **kwargs: calls.append((args, kwargs)))
    inproc_ab.SHAPES["bc-pair"](dca, 4)()
    inproc_ab.SHAPES["bc"](dca, 4)()
    (items, order, cfg), kwargs = calls[0]
    assert items == dca.synthetic_items(seed=4)
    assert order == "two-step"
    assert cfg == dca.PopulationConfig.breast_cancer(seed=4)
    assert kwargs == {"repeats": 2}
    assert calls[1] == (calls[0][0], {"repeats": 1})


def test_bc_session_reports_on_the_log_of_the_bc_pair_call(inproc_ab,
                                                          monkeypatch):
    dca = inproc_ab.load(ROOT, "dca_test_session")
    runs, aggregated = [], []
    run_bc_experiment, aggregate = dca.run_bc_experiment, dca.aggregate

    def recording_run(*args, **kwargs):
        runs.append((args, kwargs, run_bc_experiment(*args, **kwargs)))
        return runs[-1][2]

    def recording_aggregate(records):
        aggregated.append(records)
        return aggregate(records)

    monkeypatch.setattr(dca, "run_bc_experiment", recording_run)
    monkeypatch.setattr(dca, "aggregate", recording_aggregate)
    errors, unseen = inproc_ab.SHAPES["bc-session"](dca, 4)()
    [((items, order, cfg), kwargs, result)] = runs
    assert (items, order, cfg) == (dca.synthetic_items(seed=4), "two-step",
                                   dca.PopulationConfig.breast_cancer(seed=4))
    assert kwargs == {"repeats": 2}
    # the report half reads back every record of both repeats
    [records] = aggregated
    assert records == [r for run in result.records_per_repeat for r in run]
    assert (errors, unseen) == (result.summary.errors, result.summary.unseen)


@pytest.mark.parametrize("shape", ["wire-ingest", "wire-ingest-64k",
                                   "wire-tail"])
def test_wire_ingest_serves_the_in_process_run(inproc_ab, shape):
    dca = inproc_ab.load(ROOT, "dca_test_wire")
    base = dca.ScenarioConfig(noise_seed=2)
    scenario = dca.ScenarioConfig(
        *(getattr(base, name) * inproc_ab.WIRE_SCALE for name in (
            "login_duration", "scan_duration", "pause_duration",
            "transfer_duration", "close_duration")), noise_seed=2)
    runner = dca.EventDrivenRunner(dca.Tissue(dca.PopulationConfig.portscan(
        seed=2, num_cells=inproc_ab.WIRE_CELLS)))
    runner.run(dca.generate_scenario(scenario))
    runner.drain()
    assert inproc_ab.SHAPES[shape](dca, 2)() == runner.tissue.records


def test_logs_reads_back_the_scenario_and_its_migration_log(inproc_ab):
    dca = inproc_ab.load(ROOT, "dca_test_logs")
    scenario = inproc_ab.wire_scenario(dca, 2)
    runner = dca.EventDrivenRunner(dca.Tissue(dca.PopulationConfig.portscan(
        seed=2, num_cells=inproc_ab.WIRE_CELLS)))
    events = dca.generate_scenario(scenario)
    runner.run(events)
    runner.drain()
    event_log, migration_log = io.StringIO(), io.StringIO()
    dca.write_log(events, event_log)
    dca.write_migration_log(runner.tissue.records, migration_log)
    event_log.seek(0)
    migration_log.seek(0)
    call = inproc_ab.SHAPES["logs"](dca, 2)
    expected = (dca.read_log(event_log), dca.read_migration_log(migration_log))
    assert expected == (events, runner.tissue.records)
    # each log read back open in text mode, then in binary mode
    read = [expected[0]] * 2 + [expected[1]] * 2
    assert call() == call() == read


def test_logs_reads_each_log_in_text_and_in_binary_mode(inproc_ab,
                                                        monkeypatch):
    dca = inproc_ab.load(ROOT, "dca_test_log_modes")
    modes = []
    for name in ("read_log", "read_migration_log"):
        def reading(fh, reader=getattr(dca, name), name=name):
            modes.append((name, "b" in fh.mode))
            return reader(fh)
        monkeypatch.setattr(dca, name, reading)
    inproc_ab.SHAPES["logs"](dca, 2)()
    assert modes == [("read_log", False), ("read_log", True),
                     ("read_migration_log", False),
                     ("read_migration_log", True)]


def test_frame_feed_hands_over_each_piece_as_the_buffer_allows(inproc_ab):
    feed = inproc_ab.FrameFeed([b"abc", b"defgh", b"i"])
    buffer = bytearray(4)
    got = []
    while n := feed.recv_into(memoryview(buffer)):
        got.append(bytes(buffer[:n]))
    assert got == [b"abc", b"defg", b"h", b"i"]
    assert feed.recv_into(memoryview(buffer)) == 0


def recording_checkout(root, where, log):
    """A checkout whose `dca` package the `bc` shape can time, and which
    appends `where` to the file `log` when it is loaded."""
    package = root / "src" / "dca"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from . import streams\n"
        f"with open({str(log)!r}, 'a') as fh:\n"
        f"    fh.write({where!r} + '\\n')\n"
        "class PopulationConfig:\n"
        "    breast_cancer = staticmethod(lambda seed: None)\n"
        "def synthetic_items(seed):\n"
        "    return []\n"
        "def run_bc_experiment(items, order, cfg, repeats):\n"
        "    return None\n")
    (package / "streams.py").write_text("def usable_cpus():\n    return 1\n")
    return root


def test_half_the_passes_run_where_the_change_loads_first(inproc_ab,
                                                          tmp_path, capsys):
    log = tmp_path / "loads.txt"
    parent = recording_checkout(tmp_path / "a", "parent", log)
    change = recording_checkout(tmp_path / "b", "change", log)
    assert inproc_ab.main([str(parent), str(change), "--shape", "bc",
                           "--passes", "5"]) == 0
    # three passes here, the parent loaded first; two in a fresh
    # interpreter, the change loaded first
    assert log.read_text().split() == ["parent", "change", "change",
                                       "parent"]
    out = capsys.readouterr().out
    assert out.startswith("shape bc: 5 passes")
    assert out.splitlines()[-1].endswith("/5 passes")


def test_bc_pair_runs_and_names_the_usable_cpus(inproc_ab, capsys):
    assert inproc_ab.main([str(ROOT), str(ROOT), "--shape", "bc-pair",
                           "--passes", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"shape bc-pair: 1 passes, alternating which side "
                        r"runs first, \d+ usable CPUs?; seconds per call",
                        lines[0])
    assert [line.split()[0] for line in lines[1:]] == [
        "parent", "change", "gap"]
    for line in lines[1:3]:
        assert re.fullmatch(r"\w+ +median \S+ s \[\S+, \S+\], cpu \S+ s",
                            line)


def test_summary_of_canned_timings(inproc_ab):
    times = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0],
             "change": [0.5, 2.5, 1.5, 3.5, 4.5]}
    cpu = {"parent": [2.0, 4.0, 6.0, 8.0, 10.0],
           "change": [1.0, 1.5, 2.0, 9.0, 9.0]}
    assert inproc_ab.summarize(times, cpu).splitlines() == [
        "parent  median 3 s [2, 4], cpu 6 s",
        "change  median 2.5 s [1.5, 3.5], cpu 2 s",
        "gap -16.7%; change faster in 4/5 passes",
    ]


def test_cpu_seconds_count_the_reaped_workers(inproc_ab, monkeypatch):
    """A call that waits for a forked worker's busy loop costs the caller
    almost no CPU, but the worker's CPU seconds count once it is reaped."""
    busy = 0.2

    def forking_call(dca, seed):
        def call():
            pid = os.fork()
            if pid == 0:
                end = time.process_time() + busy
                while time.process_time() < end:
                    pass
                os._exit(0)
            os.waitpid(pid, 0)
        return call

    monkeypatch.setitem(inproc_ab.SHAPES, "forking", forking_call)
    wall, cpu = inproc_ab.run_passes({"parent": None, "change": None},
                                     "forking", 2)
    for side in inproc_ab.SIDES:
        assert len(cpu[side]) == len(wall[side]) == 2
        assert all(seconds >= busy * 0.9 for seconds in cpu[side])


@pytest.mark.parametrize("argv", [
    ["--shape", "tick"],
    ["--shape", "bc", "--passes", "0"],
    ["--shape", "bc", "--passes", "1", "--no-such-flag"],
])
def test_usage_errors(inproc_ab, tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        inproc_ab.main([str(tmp_path), str(tmp_path)] + argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_a_checkout_without_the_package_is_a_usage_error(inproc_ab, tmp_path,
                                                         capsys):
    with pytest.raises(SystemExit) as exc:
        inproc_ab.main([str(ROOT), str(tmp_path), "--shape", "bc"])
    assert exc.value.code == 2
    assert "holds no src/dca" in capsys.readouterr().err
