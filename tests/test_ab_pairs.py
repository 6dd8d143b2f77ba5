"""`tools/ab_pairs.py`: reading each benchmark run's session note,
flagging a `session_s.tail` that is not a tail, and choosing and running
the workloads of one call."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(sessions, pct):
    return ("workload wire-replay  seed 1  trace 0  "
            f"({sessions} sessions; session_s.tail is p{pct} of {sessions}; "
            "setup_s is the median of 3 cold starts)\n"
            '  session_s.p50   0.25 s\n{"correct": true}\n')


def test_parses_the_session_count_and_tail_percentile(ab_pairs):
    assert ab_pairs.parse_tail_note(run_output(15, "33.3")) == (15, 33.3)
    assert ab_pairs.parse_tail_note(run_output(55, "80.0")) == (55, 80.0)
    assert ab_pairs.parse_tail_note('{"correct": true}\n') is None


def result(sessions, pct, tail=0.3):
    return {"metrics": {"session_s.p50": {"value": 0.25},
                        "session_s.tail": {"value": tail}},
            "sessions": (sessions, pct), "failed": 0, "attempted": 3,
            "correct": True}


@pytest.mark.parametrize("pct,marked", [(33.3, True), (50.0, True),
                                        (80.0, False)])
def test_a_tail_at_or_below_the_median_is_marked(ab_pairs, pct, marked):
    table = ab_pairs.report({"parent": [result(55, 80.0)],
                             "change": [result(15, pct)]}, {})
    rows = {line.split()[0]: line for line in table.splitlines()}
    assert ("session_s.tail*" in rows) == marked
    assert "session_s.p50" in rows
    assert "sessions (change): 15 (tail p" in table
    assert "sessions (parent): 55 (tail p80)" in table


def test_every_run_is_listed_in_pair_order(ab_pairs):
    table = ab_pairs.report(
        {"parent": [result(55, 80.0, tail=0.3), result(55, 80.0, tail=0.5)],
         "change": [result(55, 80.0, tail=0.2), result(55, 80.0, tail=0.4)]},
        {})
    assert "runs session_s.tail (parent | change): 0.3 0.5 | 0.2 0.4" in table


WORKLOADS = ["bc-orders", "portscan-series", "wire-replay"]


@pytest.fixture
def checkouts(tmp_path):
    """Two checkouts that hold a perfbench/run.py, and a BENCHMARK.json in
    the change's."""
    sides = []
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
        (root / "src").mkdir()
        sides.append(root)
    (sides[1] / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": w} for w in WORKLOADS],
        "end_to_end": [{"name": "session_s.p50", "better": "lower"}]}))
    return sides


@pytest.fixture
def runs(ab_pairs, monkeypatch):
    """Replaces `run_once` with canned results; the list of its calls,
    as (side, workload, seed)."""
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        return result(55, 80.0)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    return calls


def tables(stdout):
    return [line.split(":")[0] for line in stdout.splitlines()
            if line.startswith("workload ")]


def test_all_runs_every_workload_in_turn(ab_pairs, checkouts, runs, capsys):
    parent, change = checkouts
    assert ab_pairs.main([str(parent), str(change), "--workload", "all",
                          "--pairs", "2", "--seed", "7"]) == 0
    assert runs == [call for w in WORKLOADS for call in (
        ("parent", w, 7), ("change", w, 7),
        ("change", w, 8), ("parent", w, 8))]
    assert tables(capsys.readouterr().out) == [
        f"workload {w}" for w in WORKLOADS]


def test_workload_may_repeat(ab_pairs, checkouts, runs, capsys):
    parent, change = checkouts
    ab_pairs.main([str(parent), str(change), "--workload", "wire-replay",
                   "--workload", "bc-orders", "--workload", "wire-replay",
                   "--pairs", "1"])
    assert [w for _, w, _ in runs] == ["wire-replay"] * 2 + ["bc-orders"] * 2
    assert tables(capsys.readouterr().out) == [
        "workload wire-replay", "workload bc-orders"]


@pytest.mark.parametrize("asked", [["bogus"], ["all", "bogus"],
                                   ["bc-orders", "Wire-Replay"]])
def test_unknown_workload_is_a_usage_error_before_any_run(
        ab_pairs, checkouts, runs, capsys, asked):
    parent, change = checkouts
    argv = [str(parent), str(change)]
    for name in asked:
        argv += ["--workload", name]
    with pytest.raises(SystemExit) as info:
        ab_pairs.main(argv)
    assert info.value.code == 2
    assert runs == []
    assert "unknown workload" in capsys.readouterr().err


def test_workloads_come_from_the_change_checkout(ab_pairs, checkouts, runs):
    parent, change = checkouts
    (change / "BENCHMARK.json").unlink()
    with pytest.raises(SystemExit):
        ab_pairs.main([str(parent), str(change), "--workload", "bc-orders"])
    assert runs == []
