"""Shared tissue environment and the per-tick population scheduler.

The tissue compartment holds a fixed-capacity antigen slot array and the
current signal levels. A pool of dendritic cells samples the store once
per tick; migrated cells are logged and replaced so the pool size stays
constant. All randomness flows from one seeded generator, so equal seeds
over equal input streams give bit-identical migration logs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, TextIO

from .core import Context, DendriticCell, SignalVector, WeightMatrix, fuse_signals


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


@dataclass(frozen=True)
class MigrationRecord:
    """One migration event: the cell's context, antigen and final cytokines."""

    tick: int
    cell_id: int
    context: Context
    antigens: tuple[str, ...]
    csm: float
    semi: float
    mat: float


@dataclass
class _Slot:
    label: str
    remaining: int


class TissueCompartment:
    """Fixed-capacity antigen store plus current signal levels.

    Deposits fill a free slot when one exists; otherwise they overwrite a
    uniformly random occupied slot (antigen overwriting). Each slot
    carries a sample counter initialised to the configured multiplicity
    and is cleared once exhausted.
    """

    def __init__(self, capacity: int, multiplicity: int, rng: random.Random):
        if capacity <= 0 or multiplicity <= 0:
            raise ValueError("capacity and multiplicity must be positive")
        self.capacity = capacity
        self.multiplicity = multiplicity
        self._rng = rng
        self._slots: list[Optional[_Slot]] = [None] * capacity
        self._occupied = 0
        self.signals = SignalVector()
        self.clock = 0

    @property
    def occupied(self) -> int:
        return self._occupied

    def deposit(self, label: str) -> None:
        if not label:
            raise ValueError("antigen label must be non-empty")
        slot = _Slot(label, self.multiplicity)
        if self._occupied < self.capacity:
            idx = next(i for i, s in enumerate(self._slots) if s is None)
            self._slots[idx] = slot
            self._occupied += 1
        else:
            self._slots[self._rng.randrange(self.capacity)] = slot

    def set_signals(self, s: SignalVector) -> None:
        """Replace the current signal levels (100% decay: no blending)."""
        self.signals = s

    def sample_slot(self) -> Optional[str]:
        """Draw one uniformly random slot; take one sample if available.

        Returns the slot's label and decrements its counter, clearing the
        slot at zero; returns None for an empty or exhausted draw.
        """
        idx = self._rng.randrange(self.capacity)
        slot = self._slots[idx]
        if slot is None:
            return None
        slot.remaining -= 1
        if slot.remaining == 0:
            self._slots[idx] = None
            self._occupied -= 1
        return slot.label


class Tissue:
    """The compartment plus a constant-size dendritic cell pool.

    One `tick` exposes every immature cell (in freshly shuffled order) to
    the current signals and a chance to sample the antigen store, then
    replaces any migrated cells with fresh immature ones. Initial pool
    cells start with a random csm phase in [0, threshold) so that
    fixed-threshold pools do not migrate in lockstep cohorts.
    """

    def __init__(self, cfg: PopulationConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.compartment = TissueCompartment(
            cfg.tissue_antigen_capacity, cfg.antigen_sample_multiplicity, self.rng
        )
        self.records: list[MigrationRecord] = []
        self._next_id = 0
        self._feed: deque[str] = deque()
        self.pool: list[DendriticCell] = [
            self._fresh_cell(phase=True) for _ in range(cfg.num_cells)
        ]

    def _fresh_cell(self, phase: bool = False) -> DendriticCell:
        mode = self.cfg.threshold_mode
        if mode[0] == "fixed":
            thr = float(mode[1])
        else:
            thr = self.rng.uniform(mode[1], mode[2])
        cell = DendriticCell(
            id=self._next_id,
            migration_threshold=thr,
            antigen_capacity=self.cfg.cell_antigen_capacity,
        )
        if phase:
            cell.cytokines.csm = self.rng.uniform(0.0, thr)
        self._next_id += 1
        return cell

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
                and not any(c.antigen_store for c in self.pool))

    def _refill(self) -> None:
        while self._feed and self.compartment.occupied < self.compartment.capacity:
            self.compartment.deposit(self._feed.popleft())

    def set_signals(self, s: SignalVector) -> None:
        self.compartment.set_signals(s)

    def tick(self) -> list[MigrationRecord]:
        """Run one cell cycle; returns the migrations it produced."""
        order = list(range(len(self.pool)))
        self.rng.shuffle(order)
        deltas = fuse_signals(self.compartment.signals, self.cfg.weights)
        new_records: list[MigrationRecord] = []
        self._refill()
        for idx in order:
            cell = self.pool[idx]
            if (not cell.store_full
                    and self.rng.random() < self.cfg.antigen_sampling_probability):
                label = self.compartment.sample_slot()
                if label is not None:
                    cell.ingest(label)
                    self._refill()
            cell.apply_deltas(deltas)
            if cell.is_migrated:
                context, antigens = cell.present()
                new_records.append(MigrationRecord(
                    tick=self.compartment.clock,
                    cell_id=cell.id,
                    context=context,
                    antigens=tuple(antigens),
                    csm=cell.cytokines.csm,
                    semi=cell.cytokines.semi,
                    mat=cell.cytokines.mat,
                ))
                self.pool[idx] = self._fresh_cell()
        self.compartment.clock += 1
        self.records.extend(new_records)
        return new_records


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


def read_migration_log(fh: TextIO) -> list[MigrationRecord]:
    records = []
    for lineno, line in enumerate(fh, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 7:
            raise ValueError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        tick, cell_id, context, antigens, csm, semi, mat = parts
        records.append(MigrationRecord(
            tick=int(tick),
            cell_id=int(cell_id),
            context=Context(context),
            antigens=tuple(antigens.split(",")) if antigens else (),
            csm=float(csm),
            semi=float(semi),
            mat=float(mat),
        ))
    return records
