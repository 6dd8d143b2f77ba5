"""`tools/ab_pairs.py`: reading each benchmark run's session note and
flagging a `session_s.tail` that is not a tail."""

import importlib.util
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
