"""`tools/ab_pairs.py`: reading each benchmark run's session note,
flagging a `session_s.tail` that is not a tail, judging each metric
against its bound, and choosing and running the workloads of one call."""

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
                             "change": [result(15, pct)]}, {}, {})
    rows = {line.split()[0]: line for line in table.splitlines()}
    assert ("session_s.tail*" in rows) == marked
    assert "session_s.p50" in rows
    assert "sessions (change): 15 (tail p" in table
    assert "sessions (parent): 55 (tail p80)" in table


def test_every_run_is_listed_in_pair_order(ab_pairs):
    table = ab_pairs.report(
        {"parent": [result(55, 80.0, tail=0.3), result(55, 80.0, tail=0.5)],
         "change": [result(55, 80.0, tail=0.2), result(55, 80.0, tail=0.4)]},
        {}, {})
    assert "runs session_s.tail (parent | change): 0.3 0.5 | 0.2 0.4" in table


def sides(parent, change, name="session_s.p50"):
    """One run per value on each side, holding the one metric `name`."""
    def runs(values):
        return [{"metrics": {name: {"value": v}}, "sessions": (55, 80.0),
                 "failed": 0, "attempted": 3, "correct": True}
                for v in values]
    return {"parent": runs(parent), "change": runs(change)}


def bound_cell(table, name):
    row = next(line for line in table.splitlines()
               if line.startswith(name + " "))
    return row.split()[-2]


STEADY = [1.0, 1.0, 1.0, 1.0, 1.0]


@pytest.mark.parametrize("better,change,verdict", [
    ("lower", [1.25] * 5, "worse"),     # +25% against a 20% bound
    ("lower", [1.15] * 5, "ok"),
    ("lower", [0.5] * 5, "ok"),         # better by any amount
    ("higher", [0.75] * 5, "worse"),
    ("higher", [1.25] * 5, "ok"),
])
def test_the_change_median_is_judged_against_the_bound(
        ab_pairs, better, change, verdict):
    table = ab_pairs.report(sides(STEADY, change), {"session_s.p50": better},
                            {"session_s.p50": 0.2})
    assert bound_cell(table, "session_s.p50") == verdict


def test_a_parent_spread_wider_than_the_bound_is_unresolved(ab_pairs):
    # IQR 0.5 on a median of 1.0: wider than a 25% bound, narrower than 60%
    parent = [0.5, 0.75, 1.0, 1.25, 1.5]
    for bound, verdict in ((0.25, "unresolved"), (0.6, "ok")):
        table = ab_pairs.report(sides(parent, parent), {},
                                {"session_s.p50": bound})
        assert bound_cell(table, "session_s.p50") == verdict
    # a change past the bound is worse however widely the parent spreads
    table = ab_pairs.report(sides(parent, [2.0] * 5), {},
                            {"session_s.p50": 0.25})
    assert bound_cell(table, "session_s.p50") == "worse"


def test_a_zero_parent_median_is_only_ok_when_equal(ab_pairs):
    for change, verdict in (([0.0] * 5, "ok"), ([0.1] * 5, "unresolved")):
        table = ab_pairs.report(sides([0.0] * 5, change), {},
                                {"session_s.p50": 0.2})
        assert bound_cell(table, "session_s.p50") == verdict


def test_a_metric_without_a_bound_reads_a_dash(ab_pairs):
    table = ab_pairs.report(sides(STEADY, [9.0] * 5), {}, {})
    row = next(line for line in table.splitlines()
               if line.startswith("session_s.p50 "))
    assert row.split()[-1] == "-"


def gain_cell(table, name):
    """The gain column of a metric's row, in a table without bounds."""
    row = next(line for line in table.splitlines()
               if line.startswith(name + " "))
    return row.split()[-2]


# ten pairs: the parent's quartiles are 0.9925 and 1.0075 (IQR 0.015)
PARENT = [0.98, 0.99, 0.99, 1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.02]


@pytest.mark.parametrize("better,change,expected", [
    ("lower", [0.9] * 10, "yes"),               # 10/10, gap 0.1
    ("lower", [0.9] * 9 + [1.1], "yes"),        # 9/10 is enough
    ("lower", [0.9] * 8 + [1.1] * 2, "no"),     # 8/10 is not
    ("lower", [0.975] * 10, "yes"),             # gap 0.025, past the IQR
    # every pair won, by 0.005 each: a gap of 0.005, within the IQR
    ("lower", [v - 0.005 for v in PARENT], "no"),
    ("lower", [1.1] * 10, "no"),                # worse
    ("higher", [1.1] * 10, "yes"),
    ("higher", [0.9] * 10, "no"),
])
def test_the_gain_column_needs_nine_in_ten_and_a_gap_past_the_iqr(
        ab_pairs, better, change, expected):
    table = ab_pairs.report(sides(PARENT, change), {"session_s.p50": better},
                            {})
    assert gain_cell(table, "session_s.p50") == expected


WORKLOADS = ["bc-orders", "portscan-series", "wire-replay"]


@pytest.fixture
def checkouts(tmp_path):
    """Two checkouts that hold a perfbench/run.py, and a BENCHMARK.json in
    the change's."""
    roots = []
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text("")
        (root / "src").mkdir()
        roots.append(root)
    (roots[1] / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": w} for w in WORKLOADS],
        "end_to_end": [{"name": "session_s.p50", "better": "lower",
                        "bound": 0.2}]}))
    return roots


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


@pytest.mark.parametrize("cpus,shown", [(1, "1 usable CPU;"),
                                        (3, "3 usable CPUs;")])
def test_each_table_header_gives_the_usable_cpus(ab_pairs, checkouts, runs,
                                                 capsys, monkeypatch, cpus,
                                                 shown):
    monkeypatch.setattr(ab_pairs, "usable_cpus", lambda: cpus)
    parent, change = checkouts
    ab_pairs.main([str(parent), str(change), "--workload", "wire-replay",
                   "--workload", "bc-orders", "--pairs", "1"])
    headers = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("workload ")]
    assert len(headers) == 2
    assert all(shown in line for line in headers)


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


def test_bounds_come_from_the_change_checkout(ab_pairs, checkouts, monkeypatch,
                                             capsys):
    parent, change = checkouts
    values = {"parent": 1.0, "change": 1.3}

    def run_once(checkout, workload, seed, seconds):
        run = result(55, 80.0)
        run["metrics"]["session_s.p50"]["value"] = values[checkout.name]
        return run

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    ab_pairs.main([str(parent), str(change), "--workload", "bc-orders",
                   "--pairs", "3"])
    table = capsys.readouterr().out
    assert bound_cell(table, "session_s.p50") == "worse"
    # session_s.tail has no bound in that BENCHMARK.json
    row = next(line for line in table.splitlines()
               if line.startswith("session_s.tail "))
    assert row.split()[-1] == "-"
