"""Command-line harness: reproducibility of output trees, config-file
precedence, and the generate/replay/report pipeline."""

import re
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dca
from dca import cli
from dca.cli import main
from dca.datasets import load_items, load_uci, synthetic_items, write_items
from dca.streams import DRAIN_TICKS, MAX_TICK_JUMP


def run(argv, capsys=None):
    code = main([str(a) for a in argv])
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestBc:
    def test_equal_seeds_give_byte_identical_trees(self, tmp_path):
        argv = ["--seed", "3", "bc", "--repeats", "2"]
        assert run(["--out", tmp_path / "a"] + argv) == 0
        assert run(["--out", tmp_path / "b"] + argv) == 0
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert a == b
        assert set(a) == {"manifest.txt", "items.csv", "summary.txt",
                          "verdicts.txt", "verdicts.tsv", "migration.log"}

    def test_different_seeds_differ(self, tmp_path):
        assert run(["--seed", "3", "--out", tmp_path / "a",
                    "bc", "--repeats", "2"]) == 0
        assert run(["--seed", "4", "--out", tmp_path / "b",
                    "bc", "--repeats", "2"]) == 0
        assert (tree_bytes(tmp_path / "a")["migration.log"]
                != tree_bytes(tmp_path / "b")["migration.log"])

    def test_sweep_writes_one_line_per_setting(self, tmp_path, capsys):
        code, captured = run(["--out", tmp_path, "bc", "--repeats", "1",
                              "--sweep-migration", "5,15"], capsys)
        assert code == 0
        summary = (tmp_path / "summary.txt").read_text()
        assert "migration-threshold 5:" in summary
        assert "migration-threshold 15:" in summary
        assert summary.strip() in captured.out.strip()

    def test_unknown_sweep_setting_fails(self, tmp_path, capsys):
        code, captured = run(["--out", tmp_path, "bc",
                              "--sweep-migration", "7"], capsys)
        assert code == 1
        assert "unknown sweep setting" in captured.err

    def test_sweep_list_is_checked_before_any_run(self, tmp_path, capsys):
        code, captured = run(["--out", tmp_path, "bc", "--repeats", "1",
                              "--sweep-migration", "1,5,7"], capsys)
        assert code == 1
        assert captured.err.startswith(
            "error: argument --sweep-migration: unknown sweep setting '7'")
        assert not (tmp_path / "items.csv").exists()

    def test_dataset_file_round_trip(self, tmp_path):
        data = tmp_path / "items.csv"
        with open(data, "w") as fh:
            write_items(synthetic_items(), fh)
        assert run(["--out", tmp_path / "out", "bc", "--repeats", "1",
                    "--dataset", data]) == 0

    def test_items_csv_reproduces_the_run_and_its_errors(self, tmp_path):
        first, again, report = (tmp_path / d for d in ("a", "b", "r"))
        assert run(["--seed", "2", "--out", first, "bc", "--repeats", "1"]) == 0
        items = first / "items.csv"
        with open(items) as fh:
            assert load_items(fh) == synthetic_items()
        assert run(["--seed", "2", "--out", again, "bc", "--repeats", "1",
                    "--dataset", items]) == 0
        for name in ("migration.log", "verdicts.tsv", "summary.txt"):
            assert (again / name).read_bytes() == (first / name).read_bytes()
        assert run(["--out", report, "report", "--log", first / "migration.log",
                    "--truth", items]) == 0
        bc_counts = (first / "summary.txt").read_text().split(": ")[-1]
        assert bc_counts.startswith("errors=")
        assert (report / "summary.txt").read_text().endswith(bc_counts)

    def test_items_csv_of_a_uci_run_is_the_converted_layout(self, tmp_path):
        raw = tmp_path / "wisconsin.data"
        lines = [f"{1000 + i},"
                 + ",".join(str(round(a * 10)) for a in it.attributes)
                 + f",{4 if it.true_class else 2}"
                 for i, it in enumerate(synthetic_items()[::10])]
        lines += [lines[0], "9999,1,?,1,1,1,1,1,1,1,2"]
        raw.write_text("\n".join(lines) + "\n")
        assert run(["--out", tmp_path / "out", "bc", "--repeats", "1",
                    "--uci", "--dataset", raw]) == 0
        with open(raw) as fh:
            converted = load_uci(fh)
        with open(tmp_path / "out" / "items.csv") as fh:
            assert load_items(fh) == converted
        assert converted[-1].id == "1000#1"

    @pytest.mark.parametrize("attribute,cls,message", [
        ("x", "1", "line 2: could not convert string to float: 'x'"),
        ("0.5", "7", "line 2: class must be 0 or 1"),
    ], ids=["attribute", "class"])
    def test_malformed_dataset_names_its_line(self, tmp_path, capsys,
                                              attribute, cls, message):
        data = tmp_path / "items.csv"
        data.write_text("a," + ",".join(["0.5"] * 9) + ",0\n"
                        f"b,{attribute}," + ",".join(["0.5"] * 8)
                        + f",{cls}\n")
        code, captured = run(["--out", tmp_path / "out", "bc",
                              "--dataset", data], capsys)
        assert code == 1
        assert captured.err == f"error: malformed dataset {data}: {message}\n"

    @pytest.mark.parametrize("rows,message", [
        ([("1e200",) + ("0.5",) * 8 + ("0",), ("0.1",) * 9 + ("1",)],
         "the spread of attribute 0 overflows a float"),
        ([("0.5",) * 9 + ("0",), ("0.5",) * 9 + ("1",)],
         "constant dataset: no attribute varies"),
        ([("0.1",) * 9 + ("1",), ("0.5",) * 9 + ("1",)],
         "both classes must be present"),
    ], ids=["overflow", "constant", "one-class"])
    def test_dataset_that_cannot_be_mapped_fails_before_any_output(
            self, tmp_path, capsys, rows, message):
        data = tmp_path / "items.csv"
        data.write_text("".join(f"i{k}," + ",".join(row) + "\n"
                                for k, row in enumerate(rows)))
        code, captured = run(["--out", tmp_path / "o", "bc",
                              "--dataset", data], capsys)
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "o" / "items.csv").exists()
        assert not (tmp_path / "o" / "manifest.txt").exists()

    def test_dataset_named_items_csv_in_out_is_not_overwritten(self, tmp_path):
        data = tmp_path / "items.csv"
        with open(data, "w") as fh:
            fh.write("# hand-written\n")
            write_items(synthetic_items(), fh)
        before = data.read_bytes()
        assert run(["--out", tmp_path, "bc", "--repeats", "1",
                    "--dataset", data]) == 0
        assert data.read_bytes() == before

    def test_missing_dataset_fails_cleanly(self, tmp_path, capsys):
        code, captured = run(["--out", tmp_path, "bc",
                              "--dataset", tmp_path / "nope.csv"], capsys)
        assert code == 1
        assert "cannot read dataset" in captured.err


@pytest.mark.parametrize("argv", [
    ["bc", "--repeats", "0"],
    ["bc", "--threshold", "2"],
    ["portscan", "--repeats", "1"],
    ["serve", "--expect-clients", "0"],
    ["--seed", "-1", "bc"],
])
def test_degenerate_run_settings_fail_before_running(tmp_path, capsys, argv):
    code, captured = run(["--out", tmp_path] + argv, capsys)
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "summary.txt").exists()
    assert not (tmp_path / "manifest.txt").exists()
    assert not (tmp_path / "items.csv").exists()


@pytest.mark.parametrize("argv", [
    ["bc", "--order", "bogus"],
    ["bc", "--bogus"],
    ["bc", "--repeats", "x"],
    ["replay"],
    ["report"],
    ["portscan", "--experiment", "9"],
    ["replay", "--log", "absent.log", "--rate", "0"],
    ["replay", "--log", "absent.log", "--endpoint", "nowhere"],
    ["serve", "--endpoint", "nowhere"],
    ["bc", "--sweep-migration", "7"],
], ids=["bad-choice", "unknown-flag", "bad-int", "replay-without-log",
        "report-without-log", "bad-experiment", "zero-rate",
        "replay-bad-endpoint", "serve-bad-endpoint", "bad-sweep"])
def test_usage_errors_end_in_one_error_line(tmp_path, capsys, argv):
    code, captured = run(["--out", tmp_path] + argv, capsys)
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "manifest.txt").exists()


GOOD_MIGRATION_LINE = "3\t7\tmature\ta\t1.0\t2.0\t3.0\n"
ITEM_LINE = "id1," + ",".join(["0.5"] * 9) + ",0\n"


@pytest.mark.parametrize("command,option,text,extra", [
    ("bc", "--dataset", ITEM_LINE * 2, {}),
    ("report", "--log", "3\t7\tmature\n", {}),
    ("replay", "--log", "garbage\n", {}),
    ("report", "--truth", "id1,0.5\n", {"--log": GOOD_MIGRATION_LINE}),
], ids=["bc-duplicate-id", "report-log", "replay-log", "report-truth"])
def test_malformed_input_fails_before_any_output(tmp_path, capsys, command,
                                                 option, text, extra):
    argv = ["--out", tmp_path / "o", command]
    for flag, content in {**extra, option: text}.items():
        path = tmp_path / flag.lstrip("-")
        path.write_text(content)
        argv += [flag, path]
    code, captured = run(argv, capsys)
    assert code == 1
    assert captured.err.startswith("error: malformed ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "o" / "manifest.txt").exists()


def test_cli_uses_public_argparse_only_and_every_help_prints(capsys):
    source = Path(cli.__file__).read_text()
    assert "argparse._" not in source
    assert "._actions" not in source
    assert len(cli.COMMANDS) == 6
    for argv in [[]] + [[command] for command in cli.COMMANDS]:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dca")


class TestConfigFile:
    def test_config_sets_subcommand_options(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# experiment settings\nseed = 5\norder = two-step\n"
                       "repeats = 1\n")
        code, captured = run(["--config", cfg, "--out", tmp_path / "out",
                              "bc"], capsys)
        assert code == 0
        assert "order=two-step repeats=1" in captured.out
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "seed = 5" in manifest

    def test_explicit_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order = two-step\nrepeats = 1\n")
        code, captured = run(["--config", cfg, "--out", tmp_path / "out",
                              "bc", "--order", "random"], capsys)
        assert code == 0
        assert "order=random" in captured.out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("velocity = 9\n")
        code, captured = run(["--config", cfg, "--out", tmp_path / "out",
                              "bc"], capsys)
        assert code == 1
        assert "unknown config keys: velocity" in captured.err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        code, captured = run(["--config", cfg, "--out", tmp_path / "out",
                              "bc"], capsys)
        assert code == 1
        assert "expected 'key = value'" in captured.err

    def test_undecodable_bytes_are_named_by_file_and_line(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 3\nrepeats = \xff2\n")
        code, captured = run(["--config", cfg, "--out", tmp_path / "out",
                              "bc"], capsys)
        assert code == 1
        assert captured.err.startswith(
            f"error: malformed config {cfg}: line 2: 'utf-8' codec can't "
            "decode byte 0xff")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @given(st.binary(max_size=60) | st.text(
        alphabet=st.sampled_from("ab =#\t\r\n-\x85\u2028"), max_size=30
    ).map(str.encode))
    @settings(max_examples=200)
    def test_any_config_loads_or_names_its_file_and_line(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_bytes(data)
            try:
                config = cli.read_config(cfg)
            except cli.CliError as exc:
                assert re.match(rf"malformed config {re.escape(str(cfg))}: "
                                r"line \d+: ", str(exc)), exc
            else:
                assert all(isinstance(v, str) for v in config.values())

    def test_value_outside_choices_fails_before_any_output(self, tmp_path,
                                                           capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order = bogus\n")
        code, captured = run(["--config", cfg, "--out", tmp_path / "out",
                              "bc"], capsys)
        assert code == 1
        assert captured.err.startswith("error: config key order: invalid")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_keys_that_are_not_options_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("command = bc\nconfig = run.cfg\nhelp = yes\n")
        code, captured = run(["--config", cfg, "--out", tmp_path / "out",
                              "bc"], capsys)
        assert code == 1
        assert captured.err == ("error: unknown config keys: "
                                "command, config, help\n")

    def test_flag_keys_take_yes_and_off(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("single_sample = yes\nuci = off\nrepeats = 1\n")
        assert run(["--config", cfg, "--out", tmp_path / "out", "bc"]) == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        assert "single_sample = True" in manifest
        assert "uci = False" in manifest

    @pytest.mark.parametrize("setting,message", [
        ("single_sample = ture", "config key single_sample: invalid value "
         "'ture' (expected one of 1, true, yes, on, 0, false, no, off)"),
        ("repeats = x", "config key repeats: invalid value 'x' "
         "(expected an integer >= 1)"),
        ("repeats = 0", "config key repeats: invalid value '0' "
         "(expected an integer >= 1)"),
        ("threshold = x", "config key threshold: invalid value 'x' "
         "(expected a number in [0, 1])"),
        ("seed = -2", "config key seed: invalid value '-2' "
         "(expected an integer >= 0)"),
        ("sweep_migration = 1,7", "config key sweep_migration: unknown "
         "sweep setting '7' (choose from 1, 5, 10, 15, var)"),
    ], ids=["flag-typo", "bad-int", "int-below-minimum", "bad-float",
            "negative-seed", "bad-sweep"])
    def test_bad_value_names_its_key_before_any_output(self, tmp_path, capsys,
                                                      setting, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n")
        code, captured = run(["--config", cfg, "--out", tmp_path / "out",
                              "bc"], capsys)
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_key_is_checked_as_the_chosen_commands_option(self, tmp_path):
        # portscan needs two repeats, bc one: `repeats = 1` suits bc
        cfg = tmp_path / "run.cfg"
        cfg.write_text("repeats = 1\n")
        assert run(["--config", cfg, "--out", tmp_path / "bc", "bc"]) == 0
        assert run(["--config", cfg, "--out", tmp_path / "ps",
                    "portscan"]) == 1

    @pytest.mark.parametrize("command,line", [
        ("replay", "0.5\tA\tx\tshell\n"),
        ("report", "3\t7\tmature\ta\t1.0\t2.0\t3.0\n"),
    ], ids=["replay", "report"])
    def test_config_log_satisfies_a_required_log(self, tmp_path, command,
                                                 line):
        log = tmp_path / "in.log"
        log.write_text(line)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"log = {log}\n")
        assert run(["--config", cfg, "--out", tmp_path / "out", command]) == 0
        out = tmp_path / "out"
        assert f"log = {log}" in (out / "manifest.txt").read_text()
        assert (out / "verdicts.txt").exists()
        assert (out / "verdicts.tsv").exists()

    @pytest.mark.parametrize("argv,setting", [
        (["portscan", "--experiment", "2"], "repeats = 3"),
        (["report"], "threshold = 0.3"),
    ], ids=["portscan", "report"])
    def test_config_reaches_every_subcommand_that_declares_a_key(
            self, tmp_path, argv, setting):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("repeats = 3\nthreshold = 0.3\n")
        if argv == ["report"]:
            log = tmp_path / "migration.log"
            log.write_text("3\t7\tmature\ta\t1.0\t2.0\t3.0\n")
            argv = argv + ["--log", log]
        assert run(["--config", cfg, "--out", tmp_path / "out"] + argv) == 0
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert setting in manifest.splitlines()


class TestPortscan:
    def test_single_experiment_outputs(self, tmp_path):
        assert run(["--out", tmp_path, "portscan", "--experiment", "2",
                    "--repeats", "2"]) == 0
        assert (tmp_path / "exp2_processes.txt").exists()
        assert (tmp_path / "exp2_processes.tsv").exists()
        assert "experiment 2:" in (tmp_path / "summary.txt").read_text()

    def test_invalid_experiment_number(self, tmp_path, capsys):
        code, captured = run(["--out", tmp_path, "portscan",
                              "--experiment", "9"], capsys)
        assert code == 1
        assert "argument --experiment: invalid choice: '9'" in captured.err
        assert not (tmp_path / "manifest.txt").exists()


class TestPipeline:
    def test_generate_replay_report_chain(self, tmp_path, capsys):
        log = tmp_path / "scenario.log"
        assert run(["--seed", "2", "--out", tmp_path / "g",
                    "generate", "--log", log]) == 0
        assert run(["--seed", "2", "--out", tmp_path / "r",
                    "replay", "--log", log]) == 0
        migration = tmp_path / "r" / "migration.log"
        assert migration.exists()
        code, captured = run(["--out", tmp_path / "p", "report",
                              "--log", migration], capsys)
        assert code == 0
        assert "records=" in captured.out
        assert (tmp_path / "p" / "verdicts.tsv").exists()

    def test_replay_at_max_rate_writes_what_a_paced_replay_writes(
            self, tmp_path, capsys):
        log = tmp_path / "scenario.log"
        assert run(["--seed", "3", "--out", tmp_path / "g",
                    "generate", "--log", log]) == 0
        capsys.readouterr()
        outputs = []
        for rate in ("max", "1e7"):
            out = tmp_path / f"r-{rate}"
            code, captured = run(["--seed", "3", "--out", out, "replay",
                                  "--log", log, "--rate", rate], capsys)
            assert code == 0
            outputs.append((captured.out,
                            (out / "migration.log").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_replay_missing_log_exits_one(self, tmp_path, capsys):
        code, captured = run(["--out", tmp_path, "replay",
                              "--log", tmp_path / "absent.log"], capsys)
        assert code == 1
        assert "cannot read log" in captured.err

    def test_report_missing_truth_exits_one(self, tmp_path, capsys):
        log = tmp_path / "migration.log"
        log.write_text("3\t7\tmature\ta\t1.0\t2.0\t3.0\n")
        code, captured = run(["--out", tmp_path / "p", "report", "--log", log,
                              "--truth", tmp_path / "absent.csv"], capsys)
        assert code == 1
        assert captured.err.startswith("error: cannot read truth")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "p" / "verdicts.tsv").exists()

    def test_report_truth_without_a_label_exits_one(self, tmp_path, capsys):
        log = tmp_path / "migration.log"
        log.write_text("3\t7\tmature\ta\t1.0\t2.0\t3.0\n")
        truth = tmp_path / "items.csv"
        with open(truth, "w") as fh:
            write_items(synthetic_items()[:2], fh)
        code, captured = run(["--out", tmp_path / "p", "report", "--log", log,
                              "--truth", truth], capsys)
        assert code == 1
        assert captured.err == "error: label 'a' missing from ground truth\n"

    def test_replay_too_slow_to_sleep_exits_one(self, tmp_path, capsys):
        log = tmp_path / "scenario.log"
        assert run(["--out", tmp_path / "g", "generate", "--log", log]) == 0
        code, captured = run(["--out", tmp_path / "r", "replay", "--log", log,
                              "--rate", "1e-12"], capsys)
        assert code == 1
        assert captured.err.startswith("error: replay rate 1e-12 makes a wait")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "r" / "migration.log").exists()

    def test_replay_malformed_log_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("garbage\n")
        code, captured = run(["--out", tmp_path, "replay", "--log", bad],
                             capsys)
        assert code == 1
        assert "malformed log" in captured.err

    def test_replay_of_a_timestamp_jump_exits_one(self, tmp_path, capsys):
        log = tmp_path / "jump.log"
        log.write_text("0.0\tS\t1\t1\t1\t1\n1e9\tA\tx\tp\n")
        code, captured = run(["--out", tmp_path / "r", "replay",
                              "--log", log], capsys)
        assert code == 1
        assert captured.err == (
            "error: event timestamp 1000000000.0 lies more than "
            f"{MAX_TICK_JUMP} ticks past the clock (0)\n")
        assert not (tmp_path / "r" / "migration.log").exists()

    def test_replay_reports_how_the_drain_ended(self, tmp_path, capsys):
        # no signals: the cell that samples the antigen never migrates
        log = tmp_path / "one.log"
        log.write_text("0.0\tA\tx\tp\n")
        code, captured = run(["--out", tmp_path / "r", "replay",
                              "--log", log], capsys)
        assert code == 0
        assert captured.out == (
            "replayed 1 events; 0 migrations; "
            f"unsettled after the {DRAIN_TICKS}-tick drain cap\n")
        # strong danger: cells migrate within a few ticks, presenting it
        log.write_text("0.0\tS\t0\t100\t0\t0\n0.0\tA\tx\tp\n")
        code, captured = run(["--out", tmp_path / "s", "replay",
                              "--log", log], capsys)
        assert code == 0
        assert re.fullmatch(r"replayed 2 events; \d+ migrations; "
                            r"settled after \d drain ticks\n", captured.out)

    def test_report_rejects_an_empty_antigen_label(self, tmp_path, capsys):
        log = tmp_path / "migration.log"
        log.write_text("3\t7\tmature\ta,,b\t1.0\t2.0\t3.0\n")
        code, captured = run(["--out", tmp_path / "p", "report",
                              "--log", log], capsys)
        assert code == 1
        assert captured.err == (f"error: malformed migration log {log}: "
                                "line 1: invalid antigens 'a,,b'\n")

    @pytest.mark.parametrize("command,first", [
        ("report", b"3\t7\tmature\ta\t1.0\t2.0\t3.0\n"),
        ("replay", b"0.5\tA\tx\tshell\n"),
    ], ids=["report", "replay"])
    def test_undecodable_log_line_is_named(self, tmp_path, capsys, command,
                                           first):
        log = tmp_path / "bad.log"
        log.write_bytes(first + b"\xff\xfe\n")
        code, captured = run(["--out", tmp_path / "o", command, "--log", log],
                             capsys)
        assert code == 1
        assert captured.err.count("\n") == 1
        assert (f"{log}: line 2: 'utf-8' codec can't decode byte 0xff in "
                "position 0") in captured.err

    def test_bad_endpoint_rejected(self, tmp_path, capsys):
        log = tmp_path / "s.log"
        assert run(["--out", tmp_path / "g", "generate", "--log", log]) == 0
        code, captured = run(["--out", tmp_path, "replay", "--log", log,
                              "--endpoint", "nowhere"], capsys)
        assert code == 1
        assert "invalid endpoint" in captured.err


class TestServe:
    """`dca serve` in a child process, so that its exit code and its
    whole stderr are the command's own."""

    @staticmethod
    def serve(out, work):
        """Run `dca serve` for one client while `work(port)` runs; return
        its exit code, stderr and the stdout after its listening line."""
        src = str(Path(dca.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "dca.cli", "--seed", "2", "--out", str(out),
             "serve", "--endpoint", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": src})
        try:
            listening = proc.stdout.readline()
            assert listening.startswith("listening on 127.0.0.1:"), listening
            work(int(listening.rsplit(":", 1)[1]))
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        return proc.returncode, err, out

    def test_served_outputs_equal_in_process_replay(self, tmp_path):
        log = tmp_path / "scenario.log"
        assert run(["--seed", "2", "--out", tmp_path / "g",
                    "generate", "--log", log]) == 0
        local, served = tmp_path / "local", tmp_path / "served"
        assert run(["--seed", "2", "--out", local, "replay", "--log", log]) == 0
        code, _, out = self.serve(served, lambda port: run(
            ["--out", tmp_path / "c", "replay", "--log", log,
             "--endpoint", f"127.0.0.1:{port}"]))
        assert code == 0
        assert re.fullmatch(r"served 1 client\(s\); \d+ migrations; "
                            r"settled after \d+ drain ticks\n", out), out
        for name in ("migration.log", "verdicts.txt", "verdicts.tsv"):
            assert (served / name).read_bytes() == (local / name).read_bytes()

    def test_dropped_client_fails_the_run(self, tmp_path):
        def send_undecodable(port):
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(b"\x00\x00\x00\x02\xff\xfe")

        code, err, _ = self.serve(tmp_path, send_undecodable)
        assert code == 1
        errors = [line for line in err.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1
        assert errors[0].startswith(
            "error: 1 of 1 client(s) dropped, no migration log written: "
            "client 0 ('utf-8' codec can't decode")
        assert not (tmp_path / "migration.log").exists()
        assert not (tmp_path / "verdicts.tsv").exists()


    def test_a_drop_is_reported_once(self, tmp_path):
        def send_undecodable(port):
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(b"\x00\x00\x00\x02\xff\xfe")

        code, err, _ = self.serve(tmp_path, send_undecodable)
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: 1 of 1 client(s) dropped")


class TestSetUpErrors:
    """Operator mistakes found while setting a run up end in one `error:`
    line and exit 1, not a traceback."""

    @staticmethod
    def assert_one_error_line(code, captured, text):
        assert code == 1
        assert captured.err.startswith(f"error: {text}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["serve", "replay"])
    def test_port_out_of_range_rejected(self, tmp_path, capsys, command):
        log = tmp_path / "s.log"
        log.write_text("0.5\tA\tx\tshell\n")
        argv = ["--out", tmp_path / "o", command,
                "--endpoint", "127.0.0.1:65536"]
        if command == "replay":
            argv += ["--log", log]
        code, captured = run(argv, capsys)
        self.assert_one_error_line(code, captured,
                                   "argument --endpoint: invalid endpoint")

    def test_out_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code, captured = run(["--out", tmp_path / "file" / "out", "bc",
                              "--repeats", "1"], capsys)
        self.assert_one_error_line(code, captured, "cannot write to --out")

    def test_output_in_a_missing_directory(self, tmp_path, capsys):
        code, captured = run(["--out", tmp_path / "o", "generate", "--log",
                              tmp_path / "absent" / "scenario.log"], capsys)
        self.assert_one_error_line(code, captured, "[Errno 2]")

    def test_serve_on_a_port_in_use(self, tmp_path, capsys):
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            code, captured = run(["--out", tmp_path, "serve", "--endpoint",
                                  f"127.0.0.1:{port}"], capsys)
        self.assert_one_error_line(code, captured, "cannot listen on")


class TestManifest:
    def test_manifest_lists_resolved_settings(self, tmp_path):
        assert run(["--seed", "8", "--out", tmp_path, "bc",
                    "--repeats", "1", "--order", "two-step"]) == 0
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "seed = 8" in manifest
        assert "order = two-step" in manifest
        assert "command = bc" in manifest
        assert "out =" not in manifest


def test_every_public_name_resolves():
    for name in dca.__all__:
        assert getattr(dca, name) is not None, name


def _scipy_loaded_after(probe: str) -> str:
    src = str(Path(dca.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", probe + "; print('scipy' in sys.modules)"],
        check=True, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": src})
    return out.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    """scipy takes about a second to import and no runtime code needs
    it, so the CLI never loads it."""
    assert _scipy_loaded_after("import sys, dca.cli") == "False"


def test_portscan_run_leaves_scipy_unloaded():
    """The paired t-test computes its p-value without scipy."""
    probe = ("import sys; from dca.streams import ScenarioConfig, "
             "run_portscan_experiment; "
             "run_portscan_experiment(ScenarioConfig(), 2, repeats=2)")
    assert _scipy_loaded_after(probe) == "False"
