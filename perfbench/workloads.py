"""The benchmark's three workloads: inputs, one session, checks, probes.

Every input is derived from the workload seed. Library functions are
looked up through their modules at call time (``datasets.run_bc_experiment``
rather than a name bound at import), so the traced run can patch them.

A workload object exposes:

- ``session(i)``: run session ``i`` and return a ``Session`` with its wall
  time, result latency, an output digest and the outcomes of its checks;
  equal ``i`` under an equal workload seed means equal inputs;
- ``final_checks(sessions)``: checks that need the whole run;
- ``clients`` per session (connections opened), for the failure count.

``PROBES`` holds the minimal call into each public function a workload
uses; ``probe.py`` runs it in a fresh interpreter to measure set-up time.
"""

from __future__ import annotations

import hashlib
import io
import logging
import math
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from dca import analysis, datasets, streams, tissue

import yardstick

BC_REPEATS = 2
BC_ORDERS = ("one-step", "two-step", "random")
PORTSCAN_REPEATS = 2          # paired_t_test needs at least two pairs
PORTSCAN_EXPERIMENTS = (1, 2, 3, 4)
WIRE_SCALE = 5                # every scenario phase lasts five times longer
WIRE_CELLS = 50
THRESHOLD = datasets.DEFAULT_THRESHOLD
SEED_STRIDE = 1009            # sessions of one run get distinct seeds
CLIENT_TIMEOUT_S = 60.0


@dataclass
class Session:
    index: int
    wall_s: float
    latency_s: float
    digest: str
    checks: dict[str, bool] = field(default_factory=dict)
    clients_failed: int = 0
    extra: dict = field(default_factory=dict)
    yardstick_s: float = math.nan   # host speed gauge around the session

    @property
    def speed(self) -> float:
        """Factor that turns this session's wall times into reference-host
        times (see ``yardstick.py``)."""
        return yardstick.REFERENCE_S / self.yardstick_s


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _session_seed(seed: int, i: int) -> int:
    return seed * SEED_STRIDE + i


class _WarningCounter(logging.Handler):
    """Counts the warnings ``dca.streams`` logs when it drops a client."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


class BcOrders:
    """`dca bc` then `dca report`, cycling through the stream orders."""

    name = "bc-orders"
    cycle = len(BC_ORDERS)
    clients = 0

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.repeats = 1 if tiny else BC_REPEATS
        self.items = datasets.synthetic_items(seed=seed)
        self.truth = {it.id: it.true_class for it in self.items}

    def session(self, i: int) -> Session:
        order = BC_ORDERS[i % len(BC_ORDERS)]
        cfg = tissue.PopulationConfig.breast_cancer(seed=_session_seed(self.seed, i))
        log_path = self.work / "migration.log"
        t0 = time.perf_counter()
        result = datasets.run_bc_experiment(self.items, order, cfg,
                                            repeats=self.repeats)
        t1 = time.perf_counter()
        with open(self.work / "verdicts.tsv", "w") as fh:
            analysis.write_verdict_table(result.summary.verdicts, fh, machine=True)
        with open(log_path, "w") as fh:
            for records in result.records_per_repeat:
                tissue.write_migration_log(records, fh)
        with open(log_path) as fh:
            records = tissue.read_migration_log(fh)
        verdicts = analysis.aggregate(records)
        analysis.classify(verdicts, THRESHOLD)
        errors, _ = analysis.count_errors(verdicts, self.truth)
        t2 = time.perf_counter()
        return Session(
            index=i, wall_s=t2 - t0, latency_s=t1 - t0,
            digest=_sha(log_path.read_bytes()),
            checks={"report_reproduces_errors": errors == result.summary.errors},
            extra={"order": order, "errors": result.summary.errors})

    def final_checks(self, sessions: list[Session]) -> dict[str, bool]:
        mean = {}
        for order in BC_ORDERS:
            counts = [s.extra["errors"] for s in sessions
                      if s.extra["order"] == order]
            mean[order] = sum(counts) / len(counts) if counts else math.nan
        return {"orders_rank_random_two_one":
                mean["random"] > mean["two-step"] > mean["one-step"]}


def _parse_process_table(text: str) -> dict[str, tuple[float, float, float]]:
    rows = text.splitlines()[1:]
    out = {}
    for row in rows:
        name, num, mean, std = row.split("\t")
        out[name] = (float(num), float(mean), float(std))
    return out


class PortscanSeries:
    """One `run_portscan_experiment` per session, cycling experiments 1-4."""

    name = "portscan-series"
    cycle = len(PORTSCAN_EXPERIMENTS)
    clients = 0

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.scenario = streams.ScenarioConfig(noise_seed=seed)
        self.repeats = PORTSCAN_REPEATS

    def session(self, i: int) -> Session:
        number = PORTSCAN_EXPERIMENTS[i % len(PORTSCAN_EXPERIMENTS)]
        t0 = time.perf_counter()
        res = streams.run_portscan_experiment(
            self.scenario, number, seed=_session_seed(self.seed, i),
            repeats=self.repeats)
        t1 = time.perf_counter()
        buf = io.StringIO()
        analysis.write_process_table(res.process_table, buf, machine=True)
        tt = res.scanner_vs_transfer
        buf.write(f"experiment {number}: scanner-transfer diff="
                  f"{tt.mean_difference!r} p={tt.p_value!r} "
                  f"antigen/cell={res.antigen_per_cell!r}\n")
        text = buf.getvalue()
        t2 = time.perf_counter()
        table_text = text.rsplit("experiment", 1)[0]
        return Session(
            index=i, wall_s=t2 - t0, latency_s=t1 - t0, digest=_sha(text.encode()),
            checks={
                "scanner_minus_transfer_over_0.2": tt.mean_difference > 0.2,
                "process_table_round_trip":
                    _parse_process_table(table_text) == res.process_table,
            })

    def final_checks(self, sessions: list[Session]) -> dict[str, bool]:
        return {}


class WireReplay:
    """A ten-times-longer scenario replayed over loopback into a server."""

    name = "wire-replay"
    cycle = 1
    clients = 1

    def __init__(self, seed: int, work: Path, tiny: bool = False):
        self.seed = seed
        self.work = work
        self.scale = 1 if tiny else WIRE_SCALE
        self.cells = WIRE_CELLS
        self._drops = _WarningCounter()
        logging.getLogger(streams.__name__).addHandler(self._drops)

    def scenario(self, i: int) -> streams.ScenarioConfig:
        base = streams.ScenarioConfig(noise_seed=_session_seed(self.seed, i))
        k = self.scale
        return replace(base, login_duration=base.login_duration * k,
                       scan_duration=base.scan_duration * k,
                       pause_duration=base.pause_duration * k,
                       transfer_duration=base.transfer_duration * k,
                       close_duration=base.close_duration * k)

    def population(self, i: int) -> tissue.PopulationConfig:
        return tissue.PopulationConfig.portscan(
            seed=_session_seed(self.seed, i), num_cells=self.cells)

    def session(self, i: int) -> Session:
        log_path = self.work / "scenario.log"
        mig_path = self.work / "migration.log"
        drops_before = self._drops.count
        t0 = time.perf_counter()
        events = streams.generate_scenario(self.scenario(i))
        with open(log_path, "w") as fh:
            streams.write_log(events, fh)
        with open(log_path) as fh:
            events = streams.read_log(fh)
        server = streams.TissueServer(
            streams.EventDrivenRunner(tissue.Tissue(self.population(i))))
        server.start()
        client = _ReplayClient(server.address, events)
        client.start()
        records = server.wait()
        t_result = time.perf_counter()
        with open(mig_path, "w") as fh:
            tissue.write_migration_log(records, fh)
        with open(mig_path) as fh:
            reread = tissue.read_migration_log(fh)
        verdicts = analysis.aggregate(reread)
        analysis.classify(verdicts, THRESHOLD)
        t2 = time.perf_counter()
        client.join(CLIENT_TIMEOUT_S)
        client_ok = (client.error is None and not client.is_alive()
                     and self._drops.count == drops_before)
        checks = {
            "report_reproduces_verdicts": _counts(verdicts) == _counts(
                analysis.aggregate(records)),
            "no_client_dropped": client_ok,
        }
        sent = client.last_sent if client.last_sent is not None else t_result
        return Session(index=i, wall_s=t2 - t0, latency_s=t_result - sent,
                       digest=_sha(mig_path.read_bytes()), checks=checks,
                       clients_failed=0 if client_ok else 1)

    def final_checks(self, sessions: list[Session]) -> dict[str, bool]:
        """The first session's server records against an untimed in-process
        run of the same events (transport transparency)."""
        first = next((s for s in sessions if s.index == 0), None)
        if first is None:
            return {}
        direct = streams.EventDrivenRunner(tissue.Tissue(self.population(0)))
        direct.run(streams.generate_scenario(self.scenario(0)))
        direct.drain()
        buf = io.StringIO()
        tissue.write_migration_log(direct.tissue.records, buf)
        return {"server_matches_in_process":
                _sha(buf.getvalue().encode()) == first.digest}


def _counts(verdicts) -> dict[str, tuple[int, int]]:
    return {k: (v.presented_mature, v.presented_semi) for k, v in verdicts.items()}


class _ReplayClient(threading.Thread):
    """The one client: replays every event at full rate, then disconnects.

    It records when its last frame was handed to the socket. If it cannot
    connect, it still opens and closes a bare connection so the server's
    accept loop, and with it ``TissueServer.wait``, can finish.
    """

    def __init__(self, address, events):
        super().__init__(daemon=True)
        self.address = address
        self.events = events
        self.last_sent = None
        self.error = None

    def run(self):
        try:
            client = streams.StreamClient(*self.address)
        except OSError as exc:
            self.error = exc
            try:
                socket.create_connection(self.address, timeout=5).close()
            except OSError:
                pass
            return
        try:
            with client:
                streams.replay(self.events, "max", client)
                self.last_sent = time.perf_counter()
        except Exception as exc:  # reported as a failed client
            self.error = exc


WORKLOADS = {w.name: w for w in (BcOrders, PortscanSeries, WireReplay)}


# --- set-up probes: one minimal call into each public function used ---------

def _probe_bc(seed: int) -> None:
    items = datasets.synthetic_items(seed=seed)
    mapping = datasets.select_attributes(items)
    datasets.item_to_signals(items[0], mapping)
    datasets.order_stream(items, "random", seed=seed)
    t = tissue.Tissue(tissue.PopulationConfig.breast_cancer(seed=seed))
    t.enqueue_antigen(items[0].id)
    t.set_signals(datasets.item_to_signals(items[0], mapping))
    t.tick()
    pair = [items[0], items[-1]]
    result = datasets.run_bc_experiment(
        pair, "one-step", tissue.PopulationConfig.breast_cancer(seed=seed),
        repeats=1, mapping=mapping, drain_ticks=1)
    analysis.write_verdict_table(result.summary.verdicts, io.StringIO(),
                                 machine=True)
    _probe_report(t.records, {it.id: it.true_class for it in pair})


def _probe_report(records, truth=None) -> None:
    buf = io.StringIO()
    tissue.write_migration_log(records, buf)
    buf.seek(0)
    verdicts = analysis.aggregate(tissue.read_migration_log(buf))
    analysis.classify(verdicts, THRESHOLD)
    if truth is not None:
        analysis.count_errors(verdicts, truth)


def _tiny_scenario(seed: int) -> streams.ScenarioConfig:
    return streams.ScenarioConfig(noise_seed=seed, login_duration=1,
                                  scan_duration=1, pause_duration=1,
                                  transfer_duration=1, close_duration=1)


def _probe_portscan(seed: int) -> None:
    events = streams.generate_scenario(_tiny_scenario(seed))
    runner = streams.EventDrivenRunner(tissue.Tissue(
        tissue.PopulationConfig.portscan(seed=seed)))
    runner.run(events)
    runner.drain(max_ticks=1)
    verdicts = analysis.aggregate(runner.tissue.records)
    analysis.process_mag(verdicts, streams.scenario_process_groups(events))
    analysis.paired_t_test([1.0, 2.0], [0.0, 0.5])
    analysis.write_process_table({"p": (1.0, 0.5, 0.0)}, io.StringIO(),
                                 machine=True)


def _probe_wire(seed: int) -> None:
    events = streams.generate_scenario(_tiny_scenario(seed))
    buf = io.StringIO()
    streams.write_log(events, buf)
    buf.seek(0)
    events = streams.read_log(buf)
    server = streams.TissueServer(streams.EventDrivenRunner(tissue.Tissue(
        tissue.PopulationConfig.portscan(seed=seed, num_cells=WIRE_CELLS))))
    server.start()
    with streams.StreamClient(*server.address) as client:
        streams.replay(events[:1], "max", client)
    _probe_report(server.wait())


PROBES = {"bc-orders": _probe_bc, "portscan-series": _probe_portscan,
          "wire-replay": _probe_wire}
