"""Shared tissue environment and the per-tick population scheduler.

The tissue compartment holds a fixed-capacity antigen slot array and the
current signal levels. A pool of dendritic cells samples the store once
per tick; migrated cells are logged and replaced so the pool size stays
constant. The pool is held as arrays with one entry per cell, so a tick
updates every cell's cytokines in one step. All randomness flows from one
seeded numpy generator, so equal seeds over equal input streams give
bit-identical migration logs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import (BinaryIO, Iterable, Iterator, NamedTuple, Optional,
                    TextIO, Union)

import numpy as np

from .core import Context, SignalVector, WeightMatrix, fuse_signals


@dataclass(frozen=True)
class PopulationConfig:
    """Tissue server parameter settings.

    `threshold_mode` is either ("fixed", value) or ("uniform", lo, hi);
    under uniform mode every fresh cell draws its own threshold.
    `antigen_overwrite` makes a full store overwrite a random slot instead
    of holding new antigen in a feed until a slot is free (flow control).
    """

    num_cells: int = 100
    cell_antigen_capacity: int = 50
    tissue_antigen_capacity: int = 1
    antigen_sampling_probability: float = 0.10
    antigen_sample_multiplicity: int = 10
    threshold_mode: tuple = ("uniform", 5.0, 15.0)
    weights: WeightMatrix = field(default_factory=WeightMatrix)
    seed: int = 0
    antigen_overwrite: bool = False

    def __post_init__(self):
        if min(self.num_cells, self.cell_antigen_capacity,
               self.tissue_antigen_capacity, self.antigen_sample_multiplicity) <= 0:
            raise ValueError("capacities and counts must be strictly positive")
        if not 0.0 <= self.antigen_sampling_probability <= 1.0:
            raise ValueError("sampling probability must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        mode = self.threshold_mode[0]
        if mode == "fixed":
            if self.threshold_mode[1] <= 0:
                raise ValueError("fixed threshold must be positive")
        elif mode == "uniform":
            lo, hi = self.threshold_mode[1], self.threshold_mode[2]
            if not 0 < lo <= hi:
                raise ValueError("uniform threshold range requires 0 < lo <= hi")
        else:
            raise ValueError(f"unknown threshold mode {mode!r}")

    @classmethod
    def breast_cancer(cls, seed: int = 0, **overrides) -> "PopulationConfig":
        """Defaults for the breast-cancer experiment column."""
        return cls(seed=seed, **overrides)

    @classmethod
    def portscan(cls, seed: int = 0, **overrides) -> "PopulationConfig":
        """Defaults for the portscan experiment column."""
        base = dict(
            num_cells=500,
            tissue_antigen_capacity=500,
            antigen_sampling_probability=1.0,
            antigen_sample_multiplicity=1,
            antigen_overwrite=True,
        )
        base.update(overrides)
        return cls(seed=seed, **base)


class MigrationRecord(NamedTuple):
    """One migration event: the cell's context, antigen and final cytokines.

    A tissue logs its migrations as arrays and builds these only when its
    log is read, many at a time (see `Tissue.records`)."""

    tick: int
    cell_id: int
    context: Context
    antigens: tuple[str, ...]
    csm: float
    semi: float
    mat: float


class TissueCompartment:
    """Fixed-capacity antigen store plus current signal levels.

    The store is a list of slot labels and an array of samples left per
    slot; a slot with none left is free. Deposits fill the first free
    slot when one exists; otherwise they overwrite a uniformly random
    slot (antigen overwriting). A deposit sets the slot's counter to the
    configured multiplicity, and the slot is cleared once exhausted.
    """

    def __init__(self, capacity: int, multiplicity: int,
                 rng: np.random.Generator):
        if capacity <= 0 or multiplicity <= 0:
            raise ValueError("capacity and multiplicity must be positive")
        self.capacity = capacity
        self.multiplicity = multiplicity
        self._rng = rng
        self._labels: list[Optional[str]] = [None] * capacity
        self._remaining = np.zeros(capacity, dtype=np.int64)
        self._occupied = 0
        self.signals = SignalVector()
        self.clock = 0

    @property
    def occupied(self) -> int:
        return self._occupied

    @property
    def slots(self) -> list[Optional[tuple[str, int]]]:
        """Snapshot of the store: (label, samples left) or None per slot."""
        return [None if label is None else (label, int(left))
                for label, left in zip(self._labels, self._remaining)]

    def is_occupied(self, slots: np.ndarray) -> np.ndarray:
        """Whether each of the given slot indices holds antigen."""
        return self._remaining[slots] > 0

    def deposit(self, label: str) -> None:
        if not label:
            raise ValueError("antigen label must be non-empty")
        if self._occupied < self.capacity:
            idx = int(self._remaining.argmin())  # the first free slot
            self._occupied += 1
        else:
            idx = int(self._rng.integers(self.capacity))
        self._labels[idx] = label
        self._remaining[idx] = self.multiplicity

    def set_signals(self, s: SignalVector) -> None:
        """Replace the current signal levels (100% decay: no blending)."""
        self.signals = s

    def sample_slot(self, slot: int) -> Optional[str]:
        """Take one sample from a drawn slot.

        Returns the slot's label and decrements its counter, clearing the
        slot at zero; returns None for an empty slot.
        """
        left = self._remaining[slot]
        if left == 0:
            return None
        label = self._labels[slot]
        self._remaining[slot] = left - 1
        if left == 1:
            self._labels[slot] = None
            self._occupied -= 1
        return label


class Tissue:
    """The compartment plus a constant-size dendritic cell pool.

    The pool is a set of arrays with one entry per cell (id, migration
    threshold, the three cytokine accumulators, the count of antigen
    held) plus one label list per cell. One `tick` exposes every cell to
    the current signals and, in freshly shuffled order, to a chance to
    sample the antigen store, then replaces migrated cells with fresh
    immature ones. Initial pool cells start with a random csm phase in
    [0, threshold) so that fixed-threshold pools do not migrate in
    lockstep cohorts.
    """

    def __init__(self, cfg: PopulationConfig):
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.compartment = TissueCompartment(
            cfg.tissue_antigen_capacity, cfg.antigen_sample_multiplicity, self.rng
        )
        self._records: list[MigrationRecord] = []
        self._pending: list[_TickLog] = []  # ticks not yet built into records
        self._migrations = 0
        self._feed: deque[str] = deque()
        n = cfg.num_cells
        self._id = np.arange(n)
        self._next_id = n
        self._threshold = self._draw_thresholds(n)
        # one row per cell: csm, semi, mat
        self._cytokines = np.zeros((n, 3))
        self._cytokines[:, 0] = self.rng.uniform(0.0, self._threshold)
        self._held = np.zeros(n, dtype=np.int64)
        self._labels: list[list[str]] = [[] for _ in range(n)]
        self._one_slot = np.zeros(n, dtype=np.int64)

    def _draw_thresholds(self, m: int) -> np.ndarray:
        mode = self.cfg.threshold_mode
        if mode[0] == "fixed":
            return np.full(m, float(mode[1]))
        return self.rng.uniform(mode[1], mode[2], m)

    @property
    def pool(self) -> "_PoolView":
        """The cells as a read-only sequence of `CellSnapshot`s."""
        return _PoolView(self)

    def enqueue_antigen(self, label: str) -> None:
        """The one antigen entry. Under flow control antigen is queued until
        a store slot is free, so no undersampled antigen is overwritten;
        under `antigen_overwrite` it is deposited at once."""
        if self.cfg.antigen_overwrite:
            self.compartment.deposit(label)
        else:
            self._feed.append(label)

    @property
    def feed_pending(self) -> int:
        return len(self._feed)

    @property
    def settled(self) -> bool:
        """Drain stop rule: no antigen in the feed, the store or a cell."""
        return (not self._feed and self.compartment.occupied == 0
                and not self._held.any())

    def _refill(self) -> None:
        while self._feed and self.compartment.occupied < self.compartment.capacity:
            self.compartment.deposit(self._feed.popleft())

    def set_signals(self, s: SignalVector) -> None:
        self.compartment.set_signals(s)

    @property
    def records(self) -> list[MigrationRecord]:
        """Every migration so far, in log order. The ticks logged since the
        last read are built into records in one pass and cached, so a read
        mid-run and a read at the end agree."""
        if self._pending:
            self._records.extend(_build_records(self._pending))
            self._pending = []
        return self._records

    @property
    def migrations(self) -> int:
        """The number of migrations so far; builds no record."""
        return self._migrations

    def records_with_antigen(self) -> list[MigrationRecord]:
        """The records of the migrated cells that held antigen, in log
        order. Only antigen reaches a verdict, so this is all `aggregate`
        needs; it builds no record for a migration without antigen."""
        return ([r for r in self._records if r.antigens]
                + _build_records(self._pending, antigen_only=True))

    def tick(self) -> Sequence[MigrationRecord]:
        """Run one cell cycle; returns the migrations it produced, as a
        sequence whose records are built when first read.

        The tick draws its randomness in fixed blocks, in this order: the
        tick order (a permutation of the pool), then for each position in
        that order a sampling coin and a store slot, then one threshold
        per fresh cell in tick order (uniform mode only). Sampling runs
        sequentially in tick order, since each sample can change the
        store; cytokines and migration are computed for the whole pool.
        """
        cfg = self.cfg
        comp = self.compartment
        n = cfg.num_cells
        order = self.rng.permutation(n)
        coins = self.rng.random(n)
        # numpy draws nothing for a one-slot range, so a one-slot store
        # skips the call without changing the stream
        slots = (self.rng.integers(comp.capacity, size=n)
                 if comp.capacity > 1 else self._one_slot)
        d_csm, d_semi, d_mat = fuse_signals(comp.signals, cfg.weights)
        self._refill()
        # Visiting only draws of occupied slots is exact: a non-empty feed
        # leaves every slot occupied after the refill, and an empty feed
        # cannot fill a slot mid-tick, so every skipped draw finds nothing.
        tries = ((coins < cfg.antigen_sampling_probability)
                 & (self._held[order] < cfg.cell_antigen_capacity)
                 & comp.is_occupied(slots))
        for cell, slot in zip(order[tries].tolist(), slots[tries].tolist()):
            label = comp.sample_slot(slot)
            if label is not None:
                self._labels[cell].append(label)
                self._held[cell] += 1
                if self._feed and comp.occupied < comp.capacity:
                    self._refill()
        self._cytokines += np.array((max(0.0, d_csm), d_semi, d_mat))
        migrated = order[(self._cytokines[:, 0] >= self._threshold)[order]]
        tick = comp.clock
        comp.clock += 1
        if not migrated.size:
            return ()
        logged = self._replace(tick, migrated)
        self._pending.append(logged)
        self._migrations += migrated.size
        return logged

    def _replace(self, tick: int, cells: np.ndarray) -> _TickLog:
        """Log the migrated cells, in tick order, and put fresh immature
        cells in their places. Each migrated cell's label list moves into
        the log, since its replacement starts with a new one."""
        labels = self._labels
        cell_list = cells.tolist()
        logged = _TickLog(tick, self._id[cells], self._cytokines[cells],
                          [labels[cell] for cell in cell_list])
        for cell in cell_list:
            labels[cell] = []
        count = cells.size
        self._id[cells] = np.arange(self._next_id, self._next_id + count)
        self._next_id += count
        self._threshold[cells] = self._draw_thresholds(count)
        self._cytokines[cells] = 0.0
        self._held[cells] = 0
        return logged


class _TickLog(Sequence):
    """The migrations of one tick, in tick order: the cells' ids, their
    cytokine rows (csm, semi, mat) and their label lists. As a sequence it
    holds the tick's records, built on first access."""

    __slots__ = ("tick", "ids", "cytokines", "labels", "_records")

    def __init__(self, tick: int, ids: np.ndarray, cytokines: np.ndarray,
                 labels: list[list[str]]):
        self.tick = tick
        self.ids = ids
        self.cytokines = cytokines
        self.labels = labels
        self._records: Optional[list[MigrationRecord]] = None

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, i):
        if self._records is None:
            self._records = _build_records((self,))
        return self._records[i]


_CONTEXTS = (Context.SEMI_MATURE, Context.MATURE)  # indexed by mat > semi


def _build_records(logged: Sequence[_TickLog],
                   antigen_only: bool = False) -> list[MigrationRecord]:
    """The records of the logged ticks, in log order, built one column at
    a time; with `antigen_only`, only those of cells that held antigen."""
    if not logged:
        return []
    # the records of one tick share its tick number object
    ticks = list(chain.from_iterable(repeat(m.tick, len(m.labels))
                                     for m in logged))
    ids = np.concatenate([m.ids for m in logged])
    cytokines = np.concatenate([m.cytokines for m in logged])
    labels = list(chain.from_iterable(m.labels for m in logged))
    if antigen_only:
        held = np.flatnonzero(np.fromiter(map(bool, labels), bool, len(labels)))
        rows = held.tolist()
        ticks = list(map(ticks.__getitem__, rows))
        labels = list(map(labels.__getitem__, rows))
        ids, cytokines = ids[held], cytokines[held]
    csm, semi, mat = cytokines.T.tolist()
    contexts = map(_CONTEXTS.__getitem__,
                   (cytokines[:, 2] > cytokines[:, 1]).tolist())
    return list(map(tuple.__new__, repeat(MigrationRecord), zip(
        ticks, ids.tolist(), contexts, map(tuple, labels), csm, semi, mat)))


class Cytokines(NamedTuple):
    """The three cytokine accumulators of one cell."""

    csm: float
    semi: float
    mat: float


class CellSnapshot(NamedTuple):
    """One cell of the pool at the moment it was read."""

    id: int
    migration_threshold: float
    cytokines: Cytokines
    antigen_store: list[str]


class _PoolView(Sequence):
    """A tissue's cells as a read-only sequence. Items are `CellSnapshot`s
    built on access; changing one does not change the tissue."""

    def __init__(self, tissue: Tissue):
        self._tissue = tissue

    def __len__(self) -> int:
        return self._tissue.cfg.num_cells

    def __getitem__(self, i: int) -> CellSnapshot:
        i = range(len(self))[i]
        t = self._tissue
        return CellSnapshot(int(t._id[i]), float(t._threshold[i]),
                            Cytokines(*t._cytokines[i].tolist()),
                            list(t._labels[i]))


# Migration log field order, stable across runs:
# tick <TAB> cell_id <TAB> context <TAB> comma-joined antigens <TAB> csm <TAB> semi <TAB> mat
def write_migration_log(records: Iterable[MigrationRecord], fh: TextIO) -> None:
    for r in records:
        fh.write(format_record(r) + "\n")


def format_record(r: MigrationRecord) -> str:
    antigens = ",".join(r.antigens)
    return "\t".join((
        str(r.tick), str(r.cell_id), r.context.value, antigens,
        repr(r.csm), repr(r.semi), repr(r.mat),
    ))


_CONTEXT_BY_VALUE = {c.value: c for c in Context}


def _parse_antigens(text: str) -> tuple[str, ...]:
    labels = tuple(text.split(",")) if text else ()
    if "" in labels:
        raise ValueError("empty antigen label")
    return labels


# the converter of each field, for naming the one that failed
_FIELD_PARSERS = {"tick": int, "cell_id": int,
                  "context": _CONTEXT_BY_VALUE.__getitem__,
                  "antigens": _parse_antigens,
                  "csm": float, "semi": float, "mat": float}


def log_lines(fh: Iterable[Union[str, bytes]],
              error: type[ValueError] = ValueError) -> Iterator[tuple[int, str]]:
    """Number the lines of a log from 1 and strip their line ends. The log
    may be open in binary mode: each line is then decoded as UTF-8 on its
    own, so bytes that do not decode raise `error` naming their line, not
    a byte offset into the file."""
    for lineno, line in enumerate(fh, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise error(f"line {lineno}: {exc}") from None
        yield lineno, line.rstrip("\r\n")


def read_migration_log(fh: Union[TextIO, BinaryIO]) -> list[MigrationRecord]:
    """Parse a migration log, open in text or binary mode. Every malformed
    line raises a `ValueError` whose message starts with `line N:`."""
    records = []
    for lineno, line in log_lines(fh):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise ValueError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        tick, cell_id, context, antigens, csm, semi, mat = parts
        try:
            records.append(MigrationRecord(
                tick=int(tick),
                cell_id=int(cell_id),
                context=_CONTEXT_BY_VALUE[context],
                antigens=_parse_antigens(antigens),
                csm=float(csm),
                semi=float(semi),
                mat=float(mat),
            ))
        except (KeyError, ValueError):
            raise _field_error(lineno, parts) from None
    return records


def _field_error(lineno: int, parts: list[str]) -> ValueError:
    """The error for the first field of a line that does not convert."""
    for name, text in zip(MigrationRecord._fields, parts):
        try:
            _FIELD_PARSERS[name](text)
        except (KeyError, ValueError):
            return ValueError(f"line {lineno}: invalid {name} {text!r}")
    return ValueError(f"line {lineno}: malformed record")
