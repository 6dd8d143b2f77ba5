"""Shared tissue environment and the per-tick population scheduler.

The tissue holds a fixed-capacity antigen slot array, the current signal
levels and the clock. A pool of dendritic cells samples the store once
per tick; migrated cells are logged and replaced so the pool size stays
constant. The pool is held as arrays with one entry per cell, so a tick
updates every cell's cytokines in one step. All randomness flows from five
child generators of one seeded `numpy.random.SeedSequence`, so equal seeds
over equal input streams give bit-identical migration logs.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import IO, Iterable, Iterator, NamedTuple, Optional, TextIO, Union

import numpy as np

from .core import (Context, SignalVector, WeightMatrix, finite_numbers,
                   fuse_signals)

# the number of bounds each threshold mode takes
_THRESHOLD_BOUNDS = {"fixed": 1, "uniform": 2}

# A tick reads its order, coins and slots from blocks drawn once per
# BLOCK_TICKS ticks, and a block holds at most BLOCK_CELL_TICKS cell-ticks
# (never fewer than one tick), so a large pool draws shorter blocks. Fresh
# thresholds come in blocks of one tick block's cells. The draws do not
# depend on the block sizes, so neither does any output.
BLOCK_TICKS = 64
BLOCK_CELL_TICKS = 6400

# the characters (text mode) or bytes (binary mode) a reader of an input
# file asks for at a time: each read's lines are parsed as one batch
LOG_CHUNK = 65536

# characters that would split a field of the migration log, which joins a
# record's labels with commas, or of the event log (tab, line breaks)
_BAD_LABEL = re.compile("[,\t\n\r]")


def check_labels(labels: Sequence[str]) -> None:
    """The antigen-label rule, asked wherever a label enters: a label is
    non-empty and holds no comma, tab, CR or LF. Raise a `ValueError` for
    the first empty label, or else for the first with such a character."""
    if not all(labels):
        raise ValueError("antigen label must be non-empty")
    if _BAD_LABEL.search("".join(labels)):
        bad = next(filter(_BAD_LABEL.search, labels))
        raise ValueError(f"antigen label {bad!r} contains a comma, tab or "
                         "line break")


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
        mode, *bounds = self.threshold_mode or (None,)
        if mode not in _THRESHOLD_BOUNDS:
            raise ValueError(f"unknown threshold mode {mode!r}")
        if not finite_numbers(bounds, _THRESHOLD_BOUNDS[mode]):
            raise ValueError(f"{mode} threshold mode takes "
                             f"{_THRESHOLD_BOUNDS[mode]} finite number(s), "
                             f"got {tuple(bounds)!r}")
        if mode == "fixed":
            if bounds[0] <= 0:
                raise ValueError("fixed threshold must be positive")
        elif not 0 < bounds[0] <= bounds[1]:
            raise ValueError("uniform threshold range requires 0 < lo <= hi")

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


class Tissue:
    """The antigen store, the current signal levels and the clock, plus a
    constant-size dendritic cell pool.

    The store is a list of slot labels and an array of samples left per
    slot; a slot with none left is free. Deposits fill the first free
    slot when one exists; otherwise they overwrite a uniformly random
    slot (antigen overwriting). A deposit sets the slot's counter to the
    configured multiplicity; a slot whose counter is 0 is free, whatever
    label it still holds.

    The pool is a set of arrays with one entry per cell (id, migration
    threshold and the three cytokine accumulators) plus one label list
    per cell, which is the cell's antigen store. One `tick` exposes every
    cell to the current signals and, in freshly shuffled order, to a
    chance to sample the antigen store, then replaces migrated cells with
    fresh immature ones. Initial pool cells start with a random csm phase in
    [0, threshold) so that fixed-threshold pools do not migrate in
    lockstep cohorts.

    Input arrives one second at a time through `receive`: the second's
    last signal set and all of its antigen labels, in order, in one call
    (`set_signals` and `enqueue_antigen` are that call with one of each).
    Each tick that migrates cells appends its `_TickLog` to `log`, the one
    form in which the tissue keeps its migrations.

    Randomness comes from the five children of
    `SeedSequence(cfg.seed).spawn(5)`, one per purpose: the tick order,
    the sampling coins, the store slots, `rng` for the initial pool and
    fresh-cell thresholds, and a fifth child for the slots of deposits
    that overwrite a full store. The first three never depend on the
    tissue's state, so `tick` draws them many ticks at a time; fresh
    thresholds are read in tick order from blocks of one tick block's
    cells, which hold at least one tick's worth.
    """

    def __init__(self, cfg: PopulationConfig):
        self.cfg = cfg
        (self._order_rng, self._coin_rng, self._slot_rng, self.rng,
         self._overwrite_rng) = map(np.random.default_rng,
                                    np.random.SeedSequence(cfg.seed).spawn(5))
        # read on every deposit, so kept here rather than looked up in cfg
        self.capacity = cfg.tissue_antigen_capacity
        self.multiplicity = cfg.antigen_sample_multiplicity
        self._slot_labels: list[Optional[str]] = [None] * self.capacity
        self._slot_left = np.zeros(self.capacity, dtype=np.int64)
        self.occupied = 0
        self.signals = SignalVector()
        self.clock = 0
        self.log: list[_TickLog] = []  # every tick's migrations, in order
        self._migrations = 0
        self._feed: deque[str] = deque()
        n = cfg.num_cells
        self._id = np.arange(n)
        self._next_id = n
        mode = cfg.threshold_mode
        self._threshold = (np.full(n, float(mode[1])) if mode[0] == "fixed"
                           else self.rng.uniform(mode[1], mode[2], n))
        # one row per cell: csm, semi, mat
        self._cytokines = np.zeros((n, 3))
        self._cytokines[:, 0] = self.rng.uniform(0.0, self._threshold)
        self._labels: list[list[str]] = [[] for _ in range(n)]
        self._block = max(1, min(BLOCK_TICKS, BLOCK_CELL_TICKS // n))
        self._row = self._block  # the next tick draws a block
        self._fresh = np.empty(0)  # fresh thresholds drawn, not yet read
        self._fresh_read = 0

    def _fresh_thresholds(self, m: int) -> Union[float, np.ndarray]:
        """The next `m` (at most `num_cells`) fresh-cell thresholds: under
        uniform mode, read from the drawn block, to which one more block of
        `_block * num_cells` draws is added when it holds fewer than `m`
        unread."""
        mode = self.cfg.threshold_mode
        if mode[0] == "fixed":
            return float(mode[1])
        i = self._fresh_read
        if i + m > self._fresh.size:
            self._fresh = np.concatenate((self._fresh[i:], self.rng.uniform(
                mode[1], mode[2], self._block * self.cfg.num_cells)))
            i = 0
        self._fresh_read = i + m
        return self._fresh[i:i + m]

    @property
    def pool(self) -> "_PoolView":
        """The cells as a read-only sequence of `CellSnapshot`s."""
        return _PoolView(self)

    @property
    def slots(self) -> list[Optional[tuple[str, int]]]:
        """Snapshot of the store: (label, samples left) or None per slot."""
        return [(label, int(left)) if left else None
                for label, left in zip(self._slot_labels, self._slot_left)]

    def deposit(self, label: str) -> None:
        # the rule inline: a call per deposited label slows `portscan`
        if not label or _BAD_LABEL.search(label):
            check_labels((label,))  # raises the rule's message
        if self.occupied < self.capacity:
            idx = int(self._slot_left.argmin())  # the first free slot
            self.occupied += 1
        else:
            idx = int(self._overwrite_rng.integers(self.capacity))
        self._slot_labels[idx] = label
        self._slot_left[idx] = self.multiplicity

    def sample_slot(self, slot: int) -> Optional[str]:
        """Take one sample from a drawn slot: the step of a tick on a store
        of more than one slot (a one-slot store is walked in
        `_sample_one_slot` without it).

        Returns the slot's label and decrements its counter, which frees
        the slot at zero; returns None for a free slot.
        """
        left = self._slot_left.item(slot)
        if left == 0:
            return None
        self._slot_left[slot] = left - 1
        if left == 1:
            self.occupied -= 1
        return self._slot_labels[slot]

    def enqueue_antigen(self, label: str) -> None:
        """One antigen label: `receive` with no signal set."""
        self.receive(None, (label,))

    def receive(self, signals: Optional[SignalVector],
                labels: Sequence[str]) -> None:
        """The one input entry: a second's last signal set (None keeps the
        current one) and its antigen labels, in order. Under flow control
        the labels are queued until a store slot is free, so no
        undersampled antigen is overwritten; under `antigen_overwrite`
        each is deposited at once. A label that fails `check_labels` is
        rejected before anything changes."""
        check_labels(labels)
        if signals is not None:
            self.signals = signals
        if not self.cfg.antigen_overwrite:
            self._feed.extend(labels)
            return
        for label in labels:
            self.deposit(label)

    @property
    def feed_pending(self) -> int:
        return len(self._feed)

    @property
    def settled(self) -> bool:
        """Drain stop rule: no antigen in the feed, the store or a cell."""
        return not self._feed and self.occupied == 0 and not any(self._labels)

    def _refill(self) -> None:
        while self._feed and self.occupied < self.capacity:
            self.deposit(self._feed.popleft())

    def set_signals(self, s: SignalVector) -> None:
        """Replace the current signal levels (100% decay: no blending):
        `receive` with no antigen."""
        self.receive(s, ())

    @property
    def records(self) -> list[MigrationRecord]:
        """Every migration so far, in log order, built on each read."""
        return log_records(self.log)

    def record_columns(self) -> tuple[list, ...]:
        """Every migration so far as seven columns, one list per
        `MigrationRecord` field, in log order: field by field what
        `tuple(zip(*self.records))` gives, but read from the tick logs
        without building a record. With no migration, seven empty lists."""
        return tuple(map(list, _log_columns(self.log)))

    @property
    def migrations(self) -> int:
        """The number of migrations so far; builds no record."""
        return self._migrations

    def presentations(self) -> Iterator[tuple[bool, Sequence[str]]]:
        """`(mature, labels)` for each migration whose cell held antigen, in
        log order, as `analysis.tally` counts them; builds no record."""
        for m in self.log:
            for mature, labels in zip(_matured(m.cytokines), m.labels):
                if labels:
                    yield mature, labels

    def tick(self) -> Union[tuple[()], _TickLog]:
        """Run one cell cycle; returns the migrations it produced, as a
        sized iterable whose records are built each time it is iterated.

        Each tick takes a tick order (a permutation of the pool) and, for
        each position in that order, a sampling coin and a store slot,
        each from its own child generator. They are read from blocks drawn
        every few ticks (`_draw_block`); one block call gives exactly what
        the same number of per-tick calls would, so outputs do not depend
        on the block size. Sampling runs sequentially in tick order, since
        each sample can change the store: a one-slot store is sampled in
        one walk over the tick's coin winners (`_sample_one_slot`), and a
        larger store one draw at a time through `sample_slot`. Cytokines
        and migration are computed for the whole pool. Fresh cells'
        thresholds are read in tick order from blocks of
        `_block * num_cells` draws of `rng` (uniform mode only); like the
        tick blocks, they give what one draw per tick would.
        """
        cfg = self.cfg
        r = self._row
        if r == self._block:
            self._draw_block()
            r = 0
        self._row = r + 1
        order = self._orders[r]
        d_csm, d_semi, d_mat = fuse_signals(self.signals, cfg.weights)
        if self.capacity == 1:
            self._sample_one_slot(self._winners[r])
        else:
            self._refill()
            # Visiting only draws of occupied slots is exact: a non-empty
            # feed leaves every slot occupied after the refill, and an empty
            # feed cannot fill a slot mid-tick, so every skipped draw finds
            # nothing. A full cell is skipped before it draws on the store.
            # Only a cell's own sample grows its list, and it comes once in
            # the order.
            row = self._slots[r]
            tries = self._wins[r] & (self._slot_left[row] > 0)
            labels = self._labels
            cell_capacity = cfg.cell_antigen_capacity
            for cell, slot in zip(order[tries].tolist(), row[tries].tolist()):
                held = labels[cell]
                if len(held) >= cell_capacity:
                    continue
                label = self.sample_slot(slot)
                if label is not None:
                    held.append(label)
                    if self._feed and self.occupied < self.capacity:
                        self._refill()
        self._cytokines += np.array((max(0.0, d_csm), d_semi, d_mat))
        migrated = order[(self._cytokines[:, 0] >= self._threshold)[order]]
        tick = self.clock
        self.clock += 1
        if not migrated.size:
            return ()
        logged = self._replace(tick, migrated)
        self.log.append(logged)
        self._migrations += migrated.size
        return logged

    def _sample_one_slot(self, winners: list[int]) -> None:
        """One tick's sampling of a one-slot store, in one walk over the
        tick's coin winners, in tick order, that holds the slot's label and
        samples left as Python values. Each winner whose list is not full
        takes the label; a slot spent with antigen in the feed takes the
        next feed label at once, with a full count, as `_refill` would;
        the walk stops when slot and feed are both empty. The slot and
        `occupied` are written back once, at the end.

        This gives what `sample_slot` and `_refill` give one sample at a
        time. The walk pops the feed itself rather than refilling through
        `deposit`: a bc run refills about once per item, and a `deposit`
        call each time took back about a quarter of what the walk saves."""
        left = self._slot_left.item(0)
        label = self._slot_labels[0]
        feed = self._feed
        if not left:
            if not feed:
                return
            label = feed.popleft()
            left = self.multiplicity
        labels = self._labels
        cell_capacity = self.cfg.cell_antigen_capacity
        for cell in winners:
            held = labels[cell]
            if len(held) < cell_capacity:
                held.append(label)
                left -= 1
                if not left:
                    if not feed:
                        break
                    label = feed.popleft()
                    left = self.multiplicity
        self._slot_labels[0] = label
        self._slot_left[0] = left
        self.occupied = 1 if left else 0

    def _draw_block(self) -> None:
        """Draw the next block of ticks' orders, coins and slots, one row
        per tick. A one-slot store keeps no slots, and turns the coin
        winners into one list of cells per tick, in tick order."""
        b, n = self._block, self.cfg.num_cells
        orders = np.tile(np.arange(n), (b, 1))
        self._orders = self._order_rng.permuted(orders, axis=1, out=orders)
        wins = (self._coin_rng.random((b, n))
                < self.cfg.antigen_sampling_probability)
        if self.capacity == 1:
            cells = orders[wins].tolist()
            ends = np.count_nonzero(wins, axis=1).cumsum().tolist()
            self._winners = [cells[i:j] for i, j in zip([0] + ends, ends)]
        else:
            self._wins = wins
            self._slots = self._slot_rng.integers(self.capacity, size=(b, n))

    def _replace(self, tick: int, cells: np.ndarray) -> _TickLog:
        """Log the migrated cells, in tick order, and put fresh immature
        cells in their places. A migrated cell's labels are logged as a
        tuple, which the records built from the log share, and its list
        is emptied for the fresh cell."""
        labels = self._labels
        logged_labels: list[tuple[str, ...]] = []
        for cell in cells.tolist():
            held = labels[cell]
            logged_labels.append(tuple(held))
            held.clear()
        logged = _TickLog(tick, self._id[cells], self._cytokines[cells],
                          logged_labels)
        count = cells.size
        self._id[cells] = np.arange(self._next_id, self._next_id + count)
        self._next_id += count
        self._threshold[cells] = self._fresh_thresholds(count)
        self._cytokines[cells] = 0.0
        return logged


# the old name of the store's class: perfbench/tracer.py looks up
# `deposit` and `sample_slot` through it when imported
TissueCompartment = Tissue


class _TickLog:
    """The migrations of one tick, in tick order: the cells' ids, their
    cytokine rows (csm, semi, mat) and their label tuples. Iterating it
    builds the tick's records anew each time."""

    __slots__ = ("tick", "ids", "cytokines", "labels")

    def __init__(self, tick: int, ids: np.ndarray, cytokines: np.ndarray,
                 labels: list[tuple[str, ...]]):
        self.tick = tick
        self.ids = ids
        self.cytokines = cytokines
        self.labels = labels

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[MigrationRecord]:
        return iter(log_records((self,)))


def _matured(cytokines: np.ndarray) -> list[bool]:
    """The context rule, per (csm, semi, mat) row: mature when mat > semi,
    so a tie is semi-mature."""
    return (cytokines[:, 2] > cytokines[:, 1]).tolist()


_CONTEXTS = (Context.SEMI_MATURE, Context.MATURE)  # indexed by `_matured`


def _log_columns(logged: Sequence[_TickLog]) -> tuple[Iterable, ...]:
    """The seven record fields of the logged ticks, in log order, one
    iterable per `MigrationRecord` field: the one reader of the tick logs
    for `log_records` and `Tissue.record_columns`."""
    if not logged:
        return ((),) * 7
    counts = [len(m.labels) for m in logged]
    ids = np.concatenate([m.ids for m in logged])
    cytokines = np.concatenate([m.cytokines for m in logged])
    # the records of one tick share its tick number object
    ticks = chain.from_iterable(map(repeat, [m.tick for m in logged], counts))
    csm, semi, mat = cytokines.T.tolist()
    contexts = map(_CONTEXTS.__getitem__, _matured(cytokines))
    labels = chain.from_iterable(m.labels for m in logged)
    return ticks, ids.tolist(), contexts, labels, csm, semi, mat


def log_records(logged: Sequence[_TickLog]) -> list[MigrationRecord]:
    """The records of the logged ticks, in log order, built anew."""
    return records_from_columns(_log_columns(logged))


def records_from_columns(columns: Iterable) -> list[MigrationRecord]:
    """The one builder of records from columns: seven of them, in
    `MigrationRecord` field order, as `Tissue.record_columns` gives them."""
    return list(map(tuple.__new__, repeat(MigrationRecord), zip(*columns)))


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


def _parse_antigens(text: str, seen: dict[str, str]) -> tuple[str, ...]:
    """The labels of a migration log's antigens field. Equal labels share
    the string `seen` (the labels read so far, to which new ones are
    added) holds for them, and the labels go through `check_labels` only
    when one of them is new, so the rule is asked once per distinct label,
    not once per copy."""
    size = len(seen)
    labels = text.split(",") if text else ()
    labels = tuple(map(seen.setdefault, labels, labels))
    if len(seen) != size:
        check_labels(labels)
    return labels


# the converter of each field, for naming the one that failed
_FIELD_PARSERS = {"tick": int, "cell_id": int,
                  "context": _CONTEXT_BY_VALUE.__getitem__,
                  "antigens": lambda text: _parse_antigens(text, {}),
                  "csm": float, "semi": float, "mat": float}


def log_lines(fh: IO, error: type[ValueError] = ValueError
              ) -> Iterator[list[str]]:
    """The lines of a file open in either mode, as text mode reads them, one
    list per `LOG_CHUNK` read: the lines that read ends (a line longer than
    a chunk comes with the read that ends it). Lines end at LF, CR LF or a
    lone CR, across reads too: a CR that ends a read waits for the next,
    which tells whether an LF follows. Bytes are decoded as UTF-8 a block of
    whole lines at a time, so no character is split between two decodes.
    Undecodable bytes raise `error` naming their line, with that line's own
    `'utf-8' codec ...` message, after the lines before it are yielded."""
    lineno = 1
    for block in _line_blocks(fh):
        if isinstance(block, bytes):
            try:
                block = block.decode("utf-8")
            except UnicodeDecodeError:
                yield from _undecodable(block, lineno, error)
        if "\r" in block:  # replacing CR LF scans the text even if it finds none
            block = block.replace("\r\n", "\n").replace("\r", "\n")
        lines = block.split("\n")
        if not lines[-1]:
            lines.pop()  # the end of the block's last line
        lineno += len(lines)
        yield lines


def _line_blocks(fh: IO) -> Iterator[Union[str, bytes]]:
    """The input, read `LOG_CHUNK` at a time, in blocks that each end at a
    line end but the last: a read up to its last line end, after what the
    reads before it left over. A CR that ends a read is left over, since
    an LF may follow it."""
    held: list = []  # read, not yet in a block
    while chunk := fh.read(LOG_CHUNK):
        lf, cr = ("\n", "\r") if isinstance(chunk, str) else (b"\n", b"\r")
        end = max(chunk.rfind(lf), chunk.rfind(cr, 0, -1)) + 1
        if not end:
            held.append(chunk)
            continue
        held.append(chunk[:end])
        yield chunk[:0].join(held)
        held = [chunk[end:]]
    if any(held):
        yield held[0][:0].join(held)


def _undecodable(block: bytes, lineno: int,
                 error: type[ValueError]) -> Iterator[list[str]]:
    """The lines of a block that does not decode, numbered from `lineno`,
    up to its first line that does not decode alone; then `error` naming
    that line."""
    lines = block.splitlines()  # at LF, CR LF or a lone CR only
    for i, line in enumerate(lines):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            if i:
                yield [good.decode("utf-8") for good in lines[:i]]
            raise error(f"line {lineno + i}: {exc}") from None


def read_migration_log(fh: IO) -> list[MigrationRecord]:
    """The records of a migration log, from `migration_log_batches`."""
    return list(chain.from_iterable(migration_log_batches(fh)))


def migration_log_batches(fh: IO) -> Iterator[list[MigrationRecord]]:
    """Parse a migration log one `log_lines` chunk at a time, yielding each
    chunk's records. Equal labels share the first one's string, through
    one dict of the labels read so far (`_parse_antigens`), and a label
    that fails `check_labels` ends the read. Every malformed line, one
    with such a label included, raises a `ValueError` whose message
    starts with `line N:`; the first such line in line order is the one
    reported."""
    seen: dict[str, str] = {}
    lineno = 0
    for lines in log_lines(fh):
        records: list[MigrationRecord] = []
        append = records.append
        for line in lines:
            lineno += 1
            parts = line.split("\t")
            if len(parts) != 7:
                if parts == [""]:  # a blank line
                    continue
                raise ValueError(
                    f"line {lineno}: expected 7 fields, got {len(parts)}")
            tick, cell_id, context, antigens, csm, semi, mat = parts
            try:
                # positional, in `MigrationRecord._fields` order
                append(tuple.__new__(MigrationRecord, (
                    int(tick), int(cell_id), _CONTEXT_BY_VALUE[context],
                    _parse_antigens(antigens, seen), float(csm), float(semi),
                    float(mat))))
            except (KeyError, ValueError):
                raise _field_error(lineno, parts) from None
        yield records


def _field_error(lineno: int, parts: list[str]) -> ValueError:
    """The error for the first field of a line that does not convert."""
    for name, text in zip(MigrationRecord._fields, parts):
        try:
            _FIELD_PARSERS[name](text)
        except (KeyError, ValueError):
            return ValueError(f"line {lineno}: invalid {name} {text!r}")
    return ValueError(f"line {lineno}: malformed record")
