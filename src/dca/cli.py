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
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .analysis import (aggregate, classify, count_errors, write_process_table,
                       write_verdict_table)
from .datasets import (load_items, load_uci, run_bc_experiment,
                       synthetic_items, write_items)
from .streams import (EventDrivenRunner, PORTSCAN_EXPERIMENTS, ScenarioConfig,
                      SinkDisconnected, StreamClient, StreamFormatError,
                      TissueServer, generate_scenario, read_log, replay,
                      run_portscan_experiment, write_log)
from .tissue import (PopulationConfig, Tissue, read_migration_log,
                     write_migration_log)

SWEEP_SETTINGS = {
    "1": ("fixed", 1.0),
    "5": ("fixed", 5.0),
    "10": ("fixed", 10.0),
    "15": ("fixed", 15.0),
    "var": ("uniform", 5.0, 15.0),
}


class CliError(Exception):
    """Fatal operator-facing problem; message goes to stderr, exit 1."""


def read_config(path: Path) -> dict[str, str]:
    """Parse a line-oriented `key = value` configuration file."""
    out: dict[str, str] = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dca", description="dendritic-cell anomaly detection harness")
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed (default 0)")
    parser.add_argument("--config", type=Path, default=None,
                        help="key = value settings file (flags win)")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    bc = sub.add_parser("bc", help="labelled-dataset experiments")
    bc.add_argument("--dataset", type=Path, default=None,
                    help="items CSV (default: built-in synthetic dataset)")
    bc.add_argument("--uci", action="store_true",
                    help="dataset is in the raw UCI breast-cancer format")
    bc.add_argument("--order", choices=("one-step", "two-step", "random"),
                    default="one-step")
    bc.add_argument("--repeats", type=int, default=20)
    bc.add_argument("--threshold", type=float, default=0.65)
    bc.add_argument("--single-sample", action="store_true",
                    help="sample each antigen once instead of 10 times")
    bc.add_argument("--sweep-migration", default=None, metavar="LIST",
                    help="comma list from {1,5,10,15,var}: run one "
                         "experiment per migration-threshold setting")

    ps = sub.add_parser("portscan", help="scan-detection experiment series")
    ps.add_argument("--experiment", default="all",
                    help="experiment number 1-4 or 'all' (default)")
    ps.add_argument("--repeats", type=int, default=10)

    gen = sub.add_parser("generate", help="write a synthetic scenario log")
    gen.add_argument("--log", type=Path, default=None,
                     help="output path (default OUT/scenario.log)")

    rep = sub.add_parser("replay", help="replay an event log into a tissue")
    rep.add_argument("--log", type=Path, required=True)
    rep.add_argument("--rate", default="max",
                     help="replay speed multiplier or 'max' (default)")
    rep.add_argument("--endpoint", default=None, metavar="HOST:PORT",
                     help="remote tissue server (default: run in-process)")

    srv = sub.add_parser("serve", help="run a tissue server for remote clients")
    srv.add_argument("--endpoint", default="127.0.0.1:0", metavar="HOST:PORT")
    srv.add_argument("--expect-clients", type=int, default=1)

    rpt = sub.add_parser("report", help="re-analyze a migration log")
    rpt.add_argument("--log", type=Path, required=True)
    rpt.add_argument("--threshold", type=float, default=0.65)
    rpt.add_argument("--truth", type=Path, default=None,
                     help="items CSV supplying ground-truth classes")
    return parser


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        config = read_config(args.config)
        # a key such as `repeats` or `threshold` may belong to several
        # subcommands, and sets the default of each one that declares it
        owners: dict[str, list[tuple[argparse.ArgumentParser,
                                     argparse.Action]]] = {}
        for action in parser._actions:
            owners.setdefault(action.dest, []).append((parser, action))
            if isinstance(action, argparse._SubParsersAction):
                for choice in action.choices.values():
                    for a in choice._actions:
                        owners.setdefault(a.dest, []).append((choice, a))
        unknown = set(config) - set(owners)
        if unknown:
            raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, raw in config.items():
            for owner, action in owners[key]:
                if isinstance(action, argparse._StoreTrueAction):
                    value = raw.lower() in ("1", "true", "yes", "on")
                elif action.type is not None:
                    try:
                        value = action.type(raw)
                    except ValueError as exc:
                        raise CliError(f"config key {key}: {exc}") from exc
                else:
                    value = raw
                owner.set_defaults(**{key: value})
        # re-parse so explicit flags keep precedence over config values
        args = parser.parse_args(argv)
    return args


def _write_manifest(args: argparse.Namespace, out: Path) -> None:
    skip = {"config", "out"}
    lines = [f"version = {__version__}"]
    for key in sorted(vars(args)):
        if key in skip:
            continue
        lines.append(f"{key} = {getattr(args, key)}")
    (out / "manifest.txt").write_text("\n".join(lines) + "\n")


def _load_dataset(args: argparse.Namespace):
    if args.dataset is None:
        return synthetic_items()
    try:
        with open(args.dataset) as fh:
            return load_uci(fh) if args.uci else load_items(fh)
    except OSError as exc:
        raise CliError(f"cannot read dataset: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"unparseable dataset {args.dataset}: {exc}") from exc


def _run_bc_once(items, args, threshold_mode) -> tuple[int, int, object]:
    overrides = {"threshold_mode": threshold_mode}
    if args.single_sample:
        overrides["antigen_sample_multiplicity"] = 1
    cfg = PopulationConfig.breast_cancer(seed=args.seed, **overrides)
    result = run_bc_experiment(items, args.order, cfg, repeats=args.repeats,
                               threshold=args.threshold)
    return result.summary.errors, result.summary.unseen, result


def cmd_bc(args: argparse.Namespace, out: Path) -> int:
    items = _load_dataset(args)
    # the items this run used, in the native layout, so that the output
    # directory serves as `report --truth`; a --dataset that is this very
    # file is left as it is
    items_csv = out / "items.csv"
    if (args.dataset is None or not items_csv.exists()
            or not items_csv.samefile(args.dataset)):
        with open(items_csv, "w") as fh:
            write_items(items, fh)
    summary_lines = []
    if args.sweep_migration:
        for key in args.sweep_migration.split(","):
            key = key.strip()
            if key not in SWEEP_SETTINGS:
                raise CliError(f"unknown sweep setting {key!r} "
                               f"(choose from {', '.join(SWEEP_SETTINGS)})")
            errors, unseen, _ = _run_bc_once(items, args, SWEEP_SETTINGS[key])
            summary_lines.append(
                f"migration-threshold {key}: errors={errors} unseen={unseen}")
    else:
        errors, unseen, result = _run_bc_once(
            items, args, ("uniform", 5.0, 15.0))
        summary_lines.append(
            f"order={args.order} repeats={args.repeats} "
            f"threshold={args.threshold}: errors={errors} unseen={unseen}")
        with open(out / "verdicts.txt", "w") as fh:
            write_verdict_table(result.summary.verdicts, fh)
        with open(out / "verdicts.tsv", "w") as fh:
            write_verdict_table(result.summary.verdicts, fh, machine=True)
        with open(out / "migration.log", "w") as fh:
            for records in result.records_per_repeat:
                write_migration_log(records, fh)
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    print("\n".join(summary_lines))
    return 0


def cmd_portscan(args: argparse.Namespace, out: Path) -> int:
    numbers = [n for n in sorted(PORTSCAN_EXPERIMENTS)
               if args.experiment in ("all", str(n))]
    if not numbers:
        raise CliError(f"invalid experiment {args.experiment!r}")
    scenario = ScenarioConfig(noise_seed=args.seed)
    summary_lines = []
    for n in numbers:
        res = run_portscan_experiment(scenario, n, seed=args.seed,
                                      repeats=args.repeats)
        with open(out / f"exp{n}_processes.txt", "w") as fh:
            write_process_table(res.process_table, fh)
        with open(out / f"exp{n}_processes.tsv", "w") as fh:
            write_process_table(res.process_table, fh, machine=True)
        tt = res.scanner_vs_transfer
        summary_lines.append(
            f"experiment {n}: scanner-transfer diff={tt.mean_difference:.4f} "
            f"p={tt.p_value:.3e} antigen/cell={res.antigen_per_cell:.4f}")
    (out / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    print("\n".join(summary_lines))
    return 0


def cmd_generate(args: argparse.Namespace, out: Path) -> int:
    events = generate_scenario(ScenarioConfig(noise_seed=args.seed))
    path = args.log if args.log is not None else out / "scenario.log"
    with open(path, "w") as fh:
        write_log(events, fh)
    print(f"wrote {len(events)} events to {path}")
    return 0


def _parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise CliError(f"invalid endpoint {text!r} (expected HOST:PORT)")
    if not 0 <= int(port) <= 65535:
        raise CliError(f"invalid endpoint {text!r} (port outside 0-65535)")
    return host, int(port)


def cmd_replay(args: argparse.Namespace, out: Path) -> int:
    try:
        with open(args.log) as fh:
            events = read_log(fh)
    except OSError as exc:
        raise CliError(f"cannot read log: {exc}") from exc
    except StreamFormatError as exc:
        raise CliError(f"malformed log {args.log}: {exc}") from exc

    if args.endpoint is not None:
        host, port = _parse_endpoint(args.endpoint)
        try:
            with StreamClient(host, port) as client:
                replay(events, args.rate, client)
        except (OSError, SinkDisconnected) as exc:
            raise CliError(f"replay to {args.endpoint} failed: {exc}") from exc
        print(f"delivered {len(events)} events to {args.endpoint}")
        return 0

    runner = EventDrivenRunner(Tissue(PopulationConfig.portscan(seed=args.seed)))
    replay(events, args.rate, runner)
    runner.drain()
    records = runner.tissue.records
    with open(out / "migration.log", "w") as fh:
        write_migration_log(records, fh)
    verdicts = aggregate(records)
    classify(verdicts, 0.65)
    with open(out / "verdicts.txt", "w") as fh:
        write_verdict_table(verdicts, fh)
    print(f"replayed {len(events)} events; {len(records)} migrations")
    return 0


def cmd_serve(args: argparse.Namespace, out: Path) -> int:
    host, port = _parse_endpoint(args.endpoint)
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
    with open(out / "migration.log", "w") as fh:
        write_migration_log(records, fh)
    print(f"served {args.expect_clients} client(s); {len(records)} migrations")
    return 0


def cmd_report(args: argparse.Namespace, out: Path) -> int:
    try:
        with open(args.log) as fh:
            records = read_migration_log(fh)
    except OSError as exc:
        raise CliError(f"cannot read log: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"malformed migration log {args.log}: {exc}") from exc
    truth = None
    if args.truth is not None:
        try:
            with open(args.truth) as fh:
                truth = {it.id: it.true_class for it in load_items(fh)}
        except OSError as exc:
            raise CliError(f"cannot read truth: {exc}") from exc
    verdicts = aggregate(records)
    classify(verdicts, args.threshold)
    with open(out / "verdicts.txt", "w") as fh:
        write_verdict_table(verdicts, fh)
    with open(out / "verdicts.tsv", "w") as fh:
        write_verdict_table(verdicts, fh, machine=True)
    lines = [f"records={len(records)} antigens={len(verdicts)}"]
    if truth is not None:
        errors, unseen = count_errors(verdicts, truth)
        lines.append(f"errors={errors} unseen={unseen}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
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
        out = args.out
        try:
            out.mkdir(parents=True, exist_ok=True)
            _write_manifest(args, out)
        except OSError as exc:
            raise CliError(f"cannot write to --out {out}: {exc}") from exc
        return COMMANDS[args.command](args, out)
    # library ValueErrors reaching here are bad settings or input files,
    # and an OSError is an output (or input) the command could not open
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
