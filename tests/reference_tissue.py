"""Sequential reference for `dca.tissue.Tissue`: one `DendriticCell` object
per cell, visited one at a time in tick order.

It spawns the same five child generators from
`numpy.random.SeedSequence(seed)` as the array tick, and draws from them
tick by tick where the array tick reads blocks: each tick a permutation
of the pool from the order child, a sampling coin per position in that
order from the coin child and a store slot per position from the slot
child. The event child draws the initial pool and, each tick, one
threshold per fresh cell in tick order; the overwrite child draws the
slot of each deposit that overwrites a full store. Every cell
in turn samples the store when its coin comes up and its own store has
room, then takes the tick's cytokine increments. Equal seeds and inputs
must give equal records and pool snapshots.

`DendriticCell` is the oracle's own per-cell model of the algorithm:
`update` accumulates fused signals and migrates the cell at its
threshold, `ingest` fills its bounded antigen store and `present` reads
out its context. The library keeps only the array form of the pool.
"""

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from dca.core import Context, SignalVector, WeightMatrix, fuse_signals
from dca.tissue import MigrationRecord


class CellState(Enum):
    IMMATURE = "immature"
    MIGRATED = "migrated"


class CellStateError(Exception):
    """Operation invoked on a cell in the wrong state."""


class AntigenStoreFull(Exception):
    """Ingestion attempted on a cell whose antigen store is at capacity."""


@dataclass
class CytokineState:
    """Cumulative cytokine levels of one cell."""

    csm: float = 0.0
    semi: float = 0.0
    mat: float = 0.0


@dataclass
class DendriticCell:
    """One dendritic cell of the sampling pool.

    The cell is mutable: `update` accumulates fused signals and flips the
    state to migrated once csm reaches the migration threshold; `ingest`
    appends antigen labels (a bounded multiset); `present` reads out the
    context and antigen of a migrated cell.
    """

    id: int
    migration_threshold: float
    antigen_capacity: int = 50
    state: CellState = CellState.IMMATURE
    cytokines: CytokineState = field(default_factory=CytokineState)
    antigen_store: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.migration_threshold <= 0:
            raise ValueError("migration threshold must be positive")
        if self.antigen_capacity <= 0:
            raise ValueError("antigen capacity must be positive")

    @property
    def is_migrated(self) -> bool:
        return self.state is CellState.MIGRATED

    @property
    def store_full(self) -> bool:
        return len(self.antigen_store) >= self.antigen_capacity

    def update(self, s: SignalVector, w: WeightMatrix) -> None:
        """Accumulate fused signals; migrate on threshold crossing.

        The per-update csm increment is floored at zero as defensive
        hygiene (never triggered by the default weights).
        """
        self.apply_deltas(fuse_signals(s, w))

    def apply_deltas(self, deltas: tuple[float, float, float]) -> None:
        """Accumulate pre-fused increments (shared per tick by the pool)."""
        if self.is_migrated:
            raise CellStateError("cannot update a migrated cell")
        d_csm, d_semi, d_mat = deltas
        self.cytokines.csm += max(0.0, d_csm)
        self.cytokines.semi += d_semi
        self.cytokines.mat += d_mat
        if self.cytokines.csm >= self.migration_threshold:
            self.state = CellState.MIGRATED

    def ingest(self, label: str) -> None:
        """Add one antigen label to the internal store (duplicates allowed)."""
        if not label:
            raise ValueError("antigen label must be non-empty")
        if self.is_migrated:
            raise CellStateError("migrated cells do not ingest antigen")
        if self.store_full:
            raise AntigenStoreFull(f"cell {self.id} store at capacity")
        self.antigen_store.append(label)

    def present(self) -> tuple[Context, list[str]]:
        """Read out the context and antigen store of a migrated cell.

        Context is mature iff the mature accumulator strictly exceeds
        the semi-mature one; ties resolve to semi-mature.
        """
        if not self.is_migrated:
            raise CellStateError("only migrated cells present antigen")
        if self.cytokines.mat > self.cytokines.semi:
            return Context.MATURE, list(self.antigen_store)
        return Context.SEMI_MATURE, list(self.antigen_store)



class ReferenceTissue:
    def __init__(self, cfg):
        self.cfg = cfg
        (self.order_rng, self.coin_rng, self.slot_rng, self.rng,
         self.overwrite_rng) = map(np.random.default_rng,
                                   np.random.SeedSequence(cfg.seed).spawn(5))
        self.slots = [None] * cfg.tissue_antigen_capacity  # [label, left]
        self.feed = deque()
        self.signals = SignalVector()
        self.clock = 0
        self.records = []
        self.next_id = 0
        thresholds = self._thresholds(cfg.num_cells)
        phases = self.rng.uniform(0.0, thresholds)
        self.pool = [self._fresh(thr) for thr in thresholds]
        for cell, phase in zip(self.pool, phases):
            cell.cytokines.csm = float(phase)

    def _thresholds(self, m):
        mode = self.cfg.threshold_mode
        if mode[0] == "fixed":
            return [float(mode[1])] * m
        return self.rng.uniform(mode[1], mode[2], m).tolist()

    def _fresh(self, thr):
        cell = DendriticCell(id=self.next_id, migration_threshold=float(thr),
                             antigen_capacity=self.cfg.cell_antigen_capacity)
        self.next_id += 1
        return cell

    def _deposit(self, label):
        free = [i for i, s in enumerate(self.slots) if s is None]
        idx = (free[0] if free
               else int(self.overwrite_rng.integers(len(self.slots))))
        self.slots[idx] = [label, self.cfg.antigen_sample_multiplicity]

    def _sample(self, idx):
        slot = self.slots[idx]
        if slot is None:
            return None
        slot[1] -= 1
        if slot[1] == 0:
            self.slots[idx] = None
        return slot[0]

    def _refill(self):
        while self.feed and None in self.slots:
            self._deposit(self.feed.popleft())

    def enqueue_antigen(self, label):
        if self.cfg.antigen_overwrite:
            self._deposit(label)
        else:
            self.feed.append(label)

    def set_signals(self, s):
        self.signals = s

    def tick(self):
        n = len(self.pool)
        order = self.order_rng.permuted(np.arange(n))
        coins = self.coin_rng.random(n)
        slots = self.slot_rng.integers(len(self.slots), size=n)
        deltas = fuse_signals(self.signals, self.cfg.weights)
        self._refill()
        new_records, migrated = [], []
        for j, idx in enumerate(order.tolist()):
            cell = self.pool[idx]
            if (not cell.store_full
                    and coins[j] < self.cfg.antigen_sampling_probability):
                label = self._sample(int(slots[j]))
                if label is not None:
                    cell.ingest(label)
                    self._refill()
            cell.apply_deltas(deltas)
            if cell.is_migrated:
                context, antigens = cell.present()
                c = cell.cytokines
                new_records.append(MigrationRecord(
                    self.clock, cell.id, context, tuple(antigens),
                    c.csm, c.semi, c.mat))
                migrated.append(idx)
        for idx, thr in zip(migrated, self._thresholds(len(migrated))):
            self.pool[idx] = self._fresh(thr)
        self.clock += 1
        self.records.extend(new_records)
        return new_records
