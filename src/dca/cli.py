"""Command-line harness around the library.

Subcommands: `bc` (labelled-dataset experiments), `portscan` (the
scripted scan-detection experiment series), `generate` (write a
synthetic scenario log), `replay` (drive a local or remote tissue from
a log), `serve` (run a tissue server for remote clients), and `report`
(re-analyze a migration log). Every run writes a manifest with its
resolved settings so it can be reproduced exactly; equal seeds give
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Optional, Sequence

from . import __version__
from .analysis import (aggregate, classify, count_errors, presentations,
                       tally, write_process_table, write_verdict_table)
from .datasets import (DEFAULT_THRESHOLD, ExperimentResult, load_items,
                       load_uci, run_bc_experiment, select_attributes,
                       synthetic_items, write_items)
from .streams import (EventDrivenRunner, PORTSCAN_EXPERIMENTS, ScenarioConfig,
                      SinkDisconnected, StreamClient, TissueServer,
                      generate_scenario, read_log, replay,
                      run_portscan_experiment, write_log)
from .tissue import (PopulationConfig, Tissue, log_lines,
                     migration_log_batches, write_migration_log)

SWEEP_SETTINGS = {
    "1": ("fixed", 1.0),
    "5": ("fixed", 5.0),
    "10": ("fixed", 10.0),
    "15": ("fixed", 15.0),
    "var": ("uniform", 5.0, 15.0),
}

FLAG_WORDS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
              **dict.fromkeys(("0", "false", "no", "off"), False)}


class CliError(Exception):
    """Fatal operator-facing problem; message goes to stderr, exit 1."""


class _Parser(argparse.ArgumentParser):
    """Hands argparse's usage errors to `main` as a `CliError`."""

    def error(self, message: str):
        raise CliError(message)


def read_config(path: Path) -> dict[str, str]:
    """Parse a line-oriented `key = value` configuration file."""
    return _read(path, "config", _parse_config)


def _parse_config(fh: IO) -> dict[str, str]:
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(chain.from_iterable(log_lines(fh)),
                                  start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise ValueError(f"line {lineno}: duplicate key {key!r} "
                             f"(first on line {first})")
        out[key] = value.strip()
    return out


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool],
             rule: str) -> Callable[[str], Any]:
    """An option type that converts its text and checks the value, so that
    a bad flag or config value fails before any output is written."""
    def check(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"invalid value {text!r} (expected {rule})")
    return check


def _at_least(minimum: int) -> Callable[[str], Any]:
    return _checked(int, lambda v: v >= minimum, f"an integer >= {minimum}")


_fraction = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_flag_word = _checked(str.lower, FLAG_WORDS.__contains__,
                      "one of " + ", ".join(FLAG_WORDS))


def _split_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not (host and port.isascii() and port.isdigit()) or int(port) > 65535:
        raise argparse.ArgumentTypeError(
            f"invalid endpoint {text!r} (expected HOST:PORT, port 0-65535)")
    return host, int(port)


def _endpoint(text: str) -> str:
    _split_endpoint(text)  # checked here, split by the commands
    return text


def _sweep_keys(text: Optional[str]) -> list[str]:
    return [key.strip() for key in text.split(",")] if text else []


def _sweep_list(text: str) -> str:
    """The `--sweep-migration` type: every setting is checked, and the
    text is kept as given for the manifest."""
    for key in _sweep_keys(text):
        if key not in SWEEP_SETTINGS:
            raise argparse.ArgumentTypeError(
                f"unknown sweep setting {key!r} "
                f"(choose from {', '.join(SWEEP_SETTINGS)})")
    return text


Option = tuple[argparse.ArgumentParser, argparse.Action]


def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser], list[Option]]:
    """The `dca` parser, its subcommand parsers by name, and each option a
    config key may set together with the parser that owns it."""
    options: list[Option] = []

    def add(owner: argparse.ArgumentParser, *flags, **kwargs) -> None:
        options.append((owner, owner.add_argument(*flags, **kwargs)))

    parser = _Parser(prog="dca",
                     description="dendritic-cell anomaly detection harness")
    add(parser, "--seed", type=_at_least(0), default=0,
        help="master random seed (default 0)")
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value settings file (flags win)")
    add(parser, "--out", type=Path, default=Path("out"),
        help="output directory (default ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    bc = sub.add_parser("bc", help="labelled-dataset experiments")
    add(bc, "--dataset", type=Path, default=None,
        help="items CSV (default: built-in synthetic dataset)")
    add(bc, "--uci", action="store_true",
        help="dataset is in the raw UCI breast-cancer format")
    add(bc, "--order", choices=("one-step", "two-step", "random"),
        default="one-step")
    add(bc, "--repeats", type=_at_least(1), default=20)
    add(bc, "--threshold", type=_fraction, default=DEFAULT_THRESHOLD)
    add(bc, "--single-sample", action="store_true",
        help="sample each antigen once instead of 10 times")
    add(bc, "--sweep-migration", type=_sweep_list, default=None,
        metavar="LIST",
        help="comma list from {1,5,10,15,var}: run one "
             "experiment per migration-threshold setting")

    ps = sub.add_parser("portscan", help="scan-detection experiment series")
    add(ps, "--experiment", default="all",
        choices=("all", *map(str, PORTSCAN_EXPERIMENTS)),
        help="experiment number or 'all' (default)")
    add(ps, "--repeats", type=_at_least(2), default=10)

    gen = sub.add_parser("generate", help="write a synthetic scenario log")
    add(gen, "--log", type=Path, default=None,
        help="output path (default OUT/scenario.log)")

    rep = sub.add_parser("replay", help="replay an event log into a tissue")
    add(rep, "--log", type=Path, default=None, help="event log (required)")
    add(rep, "--rate", default="max", type=_checked(
        str, lambda v: v == "max" or 0.0 < float(v) < math.inf,
        "a positive number or 'max'"),
        help="replay speed multiplier or 'max' (default)")
    add(rep, "--endpoint", type=_endpoint, default=None, metavar="HOST:PORT",
        help="remote tissue server (default: run in-process)")

    srv = sub.add_parser("serve", help="run a tissue server for remote clients")
    add(srv, "--endpoint", type=_endpoint, default="127.0.0.1:0",
        metavar="HOST:PORT")
    add(srv, "--expect-clients", type=_at_least(1), default=1)

    rpt = sub.add_parser("report", help="re-analyze a migration log")
    add(rpt, "--log", type=Path, default=None, help="migration log (required)")
    add(rpt, "--threshold", type=_fraction, default=DEFAULT_THRESHOLD)
    add(rpt, "--truth", type=Path, default=None,
        help="items CSV supplying ground-truth classes")
    return parser, sub.choices, options


def _config_value(action: argparse.Action, value: str):
    """A config string converted and checked as the option's flag value
    would be; a bad value is a CliError that names the key."""
    try:
        if action.nargs == 0:  # a flag
            return FLAG_WORDS[_flag_word(value)]
        if action.type is not None:
            value = action.type(value)
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice {value!r} "
                f"(choose from {', '.join(action.choices)})")
    except argparse.ArgumentTypeError as exc:
        raise CliError(f"config key {action.dest}: {exc}") from None
    return value


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser, commands, options = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        config = read_config(args.config)
        unknown = set(config) - {action.dest for _, action in options}
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
        # a key such as `repeats` may belong to several subcommands; it
        # is checked and set as an option of the chosen one
        chosen = (parser, commands[args.command])
        for owner, action in options:
            if owner in chosen and action.dest in config:
                owner.set_defaults(**{action.dest: _config_value(
                    action, config[action.dest])})
        # re-parse so explicit flags keep precedence over config values
        args = parser.parse_args(argv)
    # checked after the merge, so that a config key can supply --log
    if args.command in ("replay", "report") and args.log is None:
        raise CliError(f"{args.command} needs --log (a flag or config key)")
    return args


def _write_manifest(args: argparse.Namespace, out: Path) -> None:
    skip = {"config", "out"}
    lines = [f"version = {__version__}"]
    for key in sorted(vars(args)):
        if key in skip:
            continue
        lines.append(f"{key} = {getattr(args, key)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _read(path: Path, what: str, parse: Callable):
    """Parse an input file, open in binary mode (every reader takes its
    lines from `log_lines`); an unreadable or malformed one ends the run."""
    try:
        with open(path, "rb") as fh:
            return parse(fh)
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"malformed {what} {path}: {exc}") from exc


def _read_inputs(args: argparse.Namespace) -> dict[str, Any]:
    """The command's input files, read and parsed, as keyword arguments
    of the command, so that a malformed one fails before any output."""
    if args.command == "bc":
        items = synthetic_items() if args.dataset is None else _read(
            args.dataset, "dataset", load_uci if args.uci else load_items)
        # a dataset that parses but cannot be mapped to signals raises here
        return {"items": items, "mapping": select_attributes(items)}
    if args.command == "replay":
        return {"events": _read(args.log, "log", read_log)}
    if args.command == "report":
        records, verdicts = _read(args.log, "migration log", _tally_log)
        return {"records": records, "verdicts": verdicts,
                "truth": None if args.truth is None else _read(
                    args.truth, "truth",
                    lambda fh: {it.id: it.true_class
                                for it in load_items(fh)})}
    return {}


def _tally_log(fh: IO) -> tuple[int, dict]:
    """The record count and the verdicts of a migration log, tallied while
    it is read a chunk at a time: no record list is built, so a report
    holds its verdicts and one chunk's records."""
    count = 0

    def pairs(batch: list) -> Iterator:
        nonlocal count
        count += len(batch)
        return presentations(batch)

    verdicts = tally(chain.from_iterable(map(pairs,
                                             migration_log_batches(fh))))
    return count, verdicts


def _write_table(write, table, out: Path, stem: str) -> None:
    """Write a table for people to STEM.txt and for programs to STEM.tsv."""
    for suffix, machine in ((".txt", False), (".tsv", True)):
        with open(out / f"{stem}{suffix}", "w") as fh:
            write(table, fh, machine=machine)


def _write_tissue_outputs(records, out: Path) -> None:
    """The migration log and verdict tables of one event-log tissue run,
    in-process or served."""
    with open(out / "migration.log", "w") as fh:
        write_migration_log(records, fh)
    verdicts = aggregate(records)
    classify(verdicts, DEFAULT_THRESHOLD)
    _write_table(write_verdict_table, verdicts, out, "verdicts")


def _write_summary(lines: list[str], out: Path) -> None:
    text = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(text)
    print(text, end="")


def _run_bc_once(items, mapping, args, threshold_mode) -> ExperimentResult:
    overrides = {"threshold_mode": threshold_mode}
    if args.single_sample:
        overrides["antigen_sample_multiplicity"] = 1
    cfg = PopulationConfig.breast_cancer(seed=args.seed, **overrides)
    return run_bc_experiment(items, args.order, cfg, repeats=args.repeats,
                             threshold=args.threshold, mapping=mapping)


def cmd_bc(args: argparse.Namespace, out: Path, items, mapping) -> int:
    sweep = _sweep_keys(args.sweep_migration)
    # the items this run used, in the native layout, so that the output
    # directory serves as `report --truth`; a --dataset that is this very
    # file is left as it is
    items_csv = out / "items.csv"
    if (args.dataset is None or not items_csv.exists()
            or not items_csv.samefile(args.dataset)):
        with open(items_csv, "w") as fh:
            write_items(items, fh)
    summary_lines = []
    if sweep:
        for key in sweep:
            summary = _run_bc_once(items, mapping, args,
                                   SWEEP_SETTINGS[key]).summary
            summary_lines.append(
                f"migration-threshold {key}: errors={summary.errors} "
                f"unseen={summary.unseen}")
    else:
        result = _run_bc_once(items, mapping, args, ("uniform", 5.0, 15.0))
        summary = result.summary
        summary_lines.append(
            f"order={args.order} repeats={args.repeats} "
            f"threshold={args.threshold}: errors={summary.errors} "
            f"unseen={summary.unseen}")
        _write_table(write_verdict_table, summary.verdicts, out, "verdicts")
        with open(out / "migration.log", "w") as fh:
            for records in result.records_per_repeat:
                write_migration_log(records, fh)
    _write_summary(summary_lines, out)
    return 0


def cmd_portscan(args: argparse.Namespace, out: Path) -> int:
    numbers = (sorted(PORTSCAN_EXPERIMENTS) if args.experiment == "all"
               else [int(args.experiment)])
    scenario = ScenarioConfig(noise_seed=args.seed)
    summary_lines = []
    for n in numbers:
        res = run_portscan_experiment(scenario, n, seed=args.seed,
                                      repeats=args.repeats)
        _write_table(write_process_table, res.process_table, out,
                     f"exp{n}_processes")
        tt = res.scanner_vs_transfer
        summary_lines.append(
            f"experiment {n}: scanner-transfer diff={tt.mean_difference:.4f} "
            f"p={tt.p_value:.3e} antigen/cell={res.antigen_per_cell:.4f}")
    _write_summary(summary_lines, out)
    return 0


def cmd_generate(args: argparse.Namespace, out: Path) -> int:
    events = generate_scenario(ScenarioConfig(noise_seed=args.seed))
    path = args.log if args.log is not None else out / "scenario.log"
    with open(path, "w") as fh:
        write_log(events, fh)
    print(f"wrote {len(events)} events to {path}")
    return 0


def cmd_replay(args: argparse.Namespace, out: Path, events) -> int:
    if args.endpoint is not None:
        try:
            with StreamClient(*_split_endpoint(args.endpoint)) as client:
                replay(events, args.rate, client)
        except (OSError, SinkDisconnected) as exc:
            raise CliError(f"replay to {args.endpoint} failed: {exc}") from exc
        print(f"delivered {len(events)} events to {args.endpoint}")
        return 0

    runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=args.seed)))
    if args.rate == "max":
        runner.run(events)  # in one call, so it hands over whole seconds
    else:
        replay(events, args.rate, runner)
    drained = runner.drain()
    records = runner.tissue.records
    _write_tissue_outputs(records, out)
    print(f"replayed {len(events)} events; {len(records)} migrations; "
          f"{_drain_outcome(drained, runner.tissue)}")
    return 0


def _drain_outcome(ticks: int, tissue: Tissue) -> str:
    """How the drain after the last event ended, for a closing line."""
    if tissue.settled:
        return f"settled after {ticks} drain ticks"
    return f"unsettled after the {ticks}-tick drain cap"


def cmd_serve(args: argparse.Namespace, out: Path) -> int:
    host, port = _split_endpoint(args.endpoint)
    runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=args.seed)))
    try:
        server = TissueServer(runner, expected_clients=args.expect_clients,
                              host=host, port=port)
    except OSError as exc:
        raise CliError(f"cannot listen on {args.endpoint}: {exc}") from exc
    with server:
        server.start()
        print(f"listening on {server.address[0]}:{server.address[1]}",
              flush=True)
        records = server.wait()
    if server.dropped:
        drops = "; ".join(f"client {index} ({reason})"
                          for index, reason in sorted(server.dropped))
        raise CliError(f"{len(server.dropped)} of {args.expect_clients} "
                       f"client(s) dropped, no migration log written: {drops}")
    _write_tissue_outputs(records, out)
    print(f"served {args.expect_clients} client(s); {len(records)} migrations; "
          f"{_drain_outcome(server.drain_ticks, runner.tissue)}")
    return 0


def cmd_report(args: argparse.Namespace, out: Path, records: int, verdicts,
               truth) -> int:
    classify(verdicts, args.threshold)
    _write_table(write_verdict_table, verdicts, out, "verdicts")
    lines = [f"records={records} antigens={len(verdicts)}"]
    if truth is not None:
        errors, unseen = count_errors(verdicts, truth)
        lines.append(f"errors={errors} unseen={unseen}")
    _write_summary(lines, out)
    return 0


COMMANDS = {
    "bc": cmd_bc,
    "portscan": cmd_portscan,
    "generate": cmd_generate,
    "replay": cmd_replay,
    "serve": cmd_serve,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(argv)
        inputs = _read_inputs(args)
        out = args.out
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_manifest(args, out)
        except OSError as exc:
            raise CliError(f"cannot write to --out {out}: {exc}") from exc
        return COMMANDS[args.command](args, out, **inputs)
    # library ValueErrors reaching here are bad settings or input files,
    # and an OSError is an output (or input) the command could not open
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
