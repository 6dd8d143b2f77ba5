"""`tools/inproc_ab.py`: loading two checkouts side by side, the summary
of their wall and CPU timings, and its usage errors."""

import importlib.util
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
