"""Breast-cancer data pipeline: loading, signal mapping and experiments.

Each data item carries nine attributes on a 0-1 scale (the usual 1-10
integer scale divided by 10) and a binary class. The attribute with the
largest standard deviation drives the PAMP and safe signals through its
deviation from the per-class means; the next three by standard deviation
form the danger signal. Items are streamed one per tick in a configurable
order as events, each entering its id as antigen alongside its signals.

The original UCI file is not redistributable here, so a deterministic
synthetic surrogate with the same shape (240 class-0 items, 460 class-1,
clump thickness on top of the std-dev ranking) is bundled; the loader
accepts the real breast-cancer-wisconsin.data format when available.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import is_, itemgetter
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

from .analysis import AntigenVerdict, RunSummary, classify, count_errors, tally
from .core import Context, SignalVector
from .streams import (ANTIGEN, DRAIN_TICKS, SIGNAL_SET, Event,
                      EventDrivenRunner, run_repeats)
from .tissue import MigrationRecord, PopulationConfig, Tissue, log_lines

DANGER_ATTRIBUTE_COUNT = 3
DEFAULT_THRESHOLD = 0.65
TARGET_CSM_RATE = 0.2  # mean per-tick csm increment set by the scale
CURVE_WINDOW = 21  # items per window of context_switch_curve
N_CLASS0, N_CLASS1 = 240, 460  # class sizes of the synthetic surrogate


@dataclass(frozen=True)
class LabelledItem:
    id: str
    attributes: tuple[float, ...]
    true_class: int

    def __post_init__(self):
        if not self.id:
            raise ValueError("empty item id")
        Event.antigen(0.0, self.id, "dataset")  # the id is its antigen label
        if len(self.attributes) != 9:
            raise ValueError("items carry exactly 9 attributes")
        if any(not math.isfinite(a) for a in self.attributes):
            raise ValueError("attributes must be finite")
        if self.true_class not in (0, 1):
            raise ValueError("class must be 0 or 1")


@dataclass(frozen=True)
class SignalMapping:
    """Attribute-to-signal assignment plus the calibrated scale. Pamp
    measures distance from the class-0 mean (so class-1-like items look
    dangerous) and safe measures distance from the class-1 mean."""

    danger_attributes: tuple[int, int, int]
    pamp_safe_attribute: int
    class_means: tuple[float, float]
    scale: float

    def __post_init__(self):
        idxs = set(self.danger_attributes) | {self.pamp_safe_attribute}
        if len(idxs) != 4 or any(not 0 <= i < 9 for i in idxs):
            raise ValueError("signal attribute indices must be 4 distinct in-range values")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def select_attributes(items: Sequence[LabelledItem]) -> SignalMapping:
    """Rank attributes by standard deviation and build the signal mapping.

    The top attribute feeds PAMP/safe, the next three feed danger. The
    scale is calibrated so the mean per-tick csm increment over the
    dataset equals TARGET_CSM_RATE under default weights.

    The calibration walks the top attribute's and the danger trio's
    columns once. For each item it forms the unscaled signals as
    `item_to_signals` does and the csm increment as `fuse_signals` does,
    in the same order of operations, and it keeps `sum()` over those
    increments, so the scale is bit for bit the one a call of both per
    item gives (from Python 3.12 a float `sum` is compensated, which a
    running `+=` would not match). An item whose signals `SignalVector`
    rejects raises through `SignalVector`, with its error.
    """
    if len(items) < 2:
        raise ValueError("need at least two items")
    n = len(items)
    columns = list(zip(*(it.attributes for it in items)))
    stds = []
    for a, vals in enumerate(columns):
        mean = sum(vals) / n
        try:
            stds.append(math.sqrt(sum((v - mean) ** 2 for v in vals)
                                  / (n - 1)))
        except OverflowError:
            raise ValueError(f"the spread of attribute {a} overflows a "
                             "float") from None
    if all(s == 0.0 for s in stds):
        raise ValueError("constant dataset: no attribute varies")
    ranked = sorted(range(9), key=lambda a: (-stds[a], a))
    top = ranked[0]
    danger = tuple(ranked[1:1 + DANGER_ATTRIBUTE_COUNT])

    xs = columns[top]
    by_class = ([x for x, it in zip(xs, items) if it.true_class == 0],
                [x for x, it in zip(xs, items) if it.true_class == 1])
    if not by_class[0] or not by_class[1]:
        raise ValueError("both classes must be present")
    mu0 = sum(by_class[0]) / len(by_class[0])
    mu1 = sum(by_class[1]) / len(by_class[1])

    # the csm row of `fuse_signals` at unit scale and no inflammation
    wp, wd, ws = _DEFAULT_WEIGHTS.csm
    den = abs(wp) + abs(ws) + abs(wd)
    ic_factor = (1.0 + 0.0) / 2.0
    increments = []
    for x, trio in zip(xs, zip(*(columns[a] for a in danger))):
        pamp = abs(x - mu0)
        danger_signal = sum(trio) / DANGER_ATTRIBUTE_COUNT
        safe = abs(x - mu1)
        if not (pamp < math.inf and 0 <= danger_signal < math.inf
                and safe < math.inf):  # NaN fails too
            SignalVector(pamp, danger_signal, safe)  # raises
        increments.append((wp * pamp + ws * safe + wd * danger_signal)
                          / den * ic_factor)
    csm_rate = sum(increments) / n
    if csm_rate <= 0:
        raise ValueError("dataset produces no csm signal; cannot calibrate")
    return SignalMapping(danger, top, (mu0, mu1),
                         scale=TARGET_CSM_RATE / csm_rate)


_DEFAULT_WEIGHTS = PopulationConfig().weights


def item_to_signals(item: LabelledItem, m: SignalMapping) -> SignalVector:
    """Map one item to signal concentrations (inflammation is unused).
    The danger trio is summed as a tuple, which `sum` walks faster than a
    generator, in the same order."""
    attrs = item.attributes
    trio = m.danger_attributes
    danger = m.scale * sum(itemgetter(*trio)(attrs)) / len(trio)
    x = attrs[m.pamp_safe_attribute]
    mu0, mu1 = m.class_means
    return SignalVector(m.scale * abs(x - mu0), danger,
                        m.scale * abs(x - mu1), 0.0)


def order_stream(items: Sequence[LabelledItem], order: str,
                 seed: int = 0) -> list[LabelledItem]:
    """Arrange the stream: one-step, two-step or seeded random order."""
    class0 = [it for it in items if it.true_class == 0]
    class1 = [it for it in items if it.true_class == 1]
    if order == "one-step":
        return class0 + class1
    if order == "two-step":
        half = math.ceil(len(class0) / 2)
        return class0[:half] + class1 + class0[half:]
    if order == "random":
        shuffled = list(items)
        random.Random(seed).shuffle(shuffled)
        return shuffled
    raise ValueError(f"unknown order {order!r}")


@dataclass
class ExperimentResult:
    summary: RunSummary
    records_per_repeat: list[list[MigrationRecord]]
    orderings: list[list[str]] = field(default_factory=list)


def run_bc_experiment(items: Sequence[LabelledItem], order: str,
                      cfg: PopulationConfig, repeats: int = 20,
                      threshold: float = DEFAULT_THRESHOLD,
                      mapping: Optional[SignalMapping] = None,
                      drain_ticks: int = DRAIN_TICKS) -> ExperimentResult:
    """Stream the dataset `repeats` times and classify the pooled verdicts.

    Each repeat runs the items' events (one tick each), then drains so
    tail-of-stream items still present. Presentations are pooled across
    repeats before the mean context is thresholded and errors counted.
    The repeats may run in forked workers (see `streams.run_repeats`).
    A repeat sends its records back as the seven columns that
    `Tissue.record_columns` reads from the tick logs, one list per record
    field, without building a record: a worker's reply then pickles seven
    flat lists, where a list of named tuples pickles record by record,
    through a Python-level `__getnewargs__` call each. The caller tallies
    the verdicts from each repeat's context and label columns, and builds
    the records of `records_per_repeat` once, from the columns.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if drain_ticks < 0:
        raise ValueError(f"drain_ticks must be non-negative, got {drain_ticks}")
    if mapping is None:
        mapping = select_attributes(items)
    truth = {it.id: it.true_class for it in items}
    # each item's signals, computed once and looked up by the item itself
    signals = {id(it): item_to_signals(it, mapping) for it in items}

    def run_one(r: int) -> tuple[tuple[list, ...], list[str]]:
        """The records of repeat `r`, as columns, and its item ordering."""
        stream = order_stream(items, order, seed=cfg.seed * 7919 + r)
        runner = EventDrivenRunner(
            Tissue(replace(cfg, seed=cfg.seed * 1_000_003 + r)))
        # item k sets its signals and enters its id as antigen at second k;
        # `LabelledItem` checked each id as an antigen label, so these
        # events skip `Event.__new__`
        runner.run(e for k, it in enumerate(stream) for e in (
            tuple.__new__(Event, (float(k), SIGNAL_SET, signals[id(it)],
                                  None, None)),
            tuple.__new__(Event, (float(k), ANTIGEN, None, it.id,
                                  "dataset"))))
        runner.drain(max_ticks=drain_ticks)
        return runner.tissue.record_columns(), [it.id for it in stream]

    runs = run_repeats(run_one, repeats)
    # each migration's context and antigens, as `aggregate` reads a record
    verdicts = tally(chain.from_iterable(
        zip(map(is_, contexts, repeat(Context.MATURE)), antigens)
        for (_, _, contexts, antigens, *_), _ in runs))
    classify(verdicts, threshold)
    errors, unseen = count_errors(verdicts, truth)
    all_records = [list(map(tuple.__new__, repeat(MigrationRecord),
                            zip(*columns))) for columns, _ in runs]
    orderings = [ordering for _, ordering in runs]
    return ExperimentResult(RunSummary(verdicts, errors=errors, unseen=unseen),
                            all_records, orderings)


def context_switch_curve(ordered_ids: Sequence[str],
                         verdicts: dict[str, AntigenVerdict]
                         ) -> list[Optional[float]]:
    """Rolling mean of per-position mean context along a stream ordering.

    Positions whose antigen was never presented contribute nothing to
    the window; a window with no presented antigen yields None.
    """
    values = [verdicts[i].mean_context if i in verdicts else None
              for i in ordered_ids]
    half = CURVE_WINDOW // 2
    out: list[Optional[float]] = []
    for pos in range(len(values)):
        lo, hi = max(0, pos - half), min(len(values), pos + half + 1)
        seen = [v for v in values[lo:hi] if v is not None]
        out.append(sum(seen) / len(seen) if seen else None)
    return out


# --- file formats -----------------------------------------------------------

def _rows(fh: Iterable[Union[str, bytes]]
          ) -> Iterator[tuple[int, list[str]]]:
    """Line number and the 11 comma-separated fields of each line, skipping
    blank and `#` comment lines; shared by both dataset formats, open in
    text or binary mode (see `log_lines`)."""
    for lineno, line in log_lines(fh):
        line = line.strip()
        if line and not line.startswith("#"):
            parts = line.split(",")
            if len(parts) != 11:
                raise ValueError(f"line {lineno}: expected 11 fields, got {len(parts)}")
            yield lineno, parts


def load_items(fh: Iterable[Union[str, bytes]]) -> list[LabelledItem]:
    """Read the native format: id, 9 attribute values, class per line.
    Ids are unique. Every malformed line raises a `ValueError` whose
    message starts with `line N:`."""
    items = []
    first_line: dict[str, int] = {}
    for lineno, parts in _rows(fh):
        try:
            items.append(LabelledItem(
                parts[0], tuple(map(float, parts[1:10])), int(parts[10])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        first = first_line.setdefault(parts[0], lineno)
        if first != lineno:
            raise ValueError(f"line {lineno}: duplicate id {parts[0]!r} "
                             f"(first on line {first})")
    return items


def write_items(items: Iterable[LabelledItem], fh: TextIO) -> None:
    for it in items:
        attrs = ",".join(repr(a) for a in it.attributes)
        fh.write(f"{it.id},{attrs},{it.true_class}\n")


def load_uci(fh: Iterable[Union[str, bytes]]) -> list[LabelledItem]:
    """Read the UCI breast-cancer-wisconsin format.

    Lines are: sample code number, 9 attributes on the 1-10 integer
    scale, class 2 (benign) or 4 (malignant). Attributes are divided by
    10; records with missing values ('?') are dropped. The smaller class
    becomes class 0 (class 2 on a tie). Duplicate sample codes are
    disambiguated with a suffix so every antigen label stays unique.
    Every malformed line raises a `ValueError` whose message starts with
    `line N:`.
    """
    raw = []
    for lineno, parts in _rows(fh):
        if "?" in parts[1:10]:
            continue
        try:
            cls = int(parts[10])
            attrs = tuple(int(p) / 10.0 for p in parts[1:10])
        except (ValueError, OverflowError) as exc:  # too large for a float
            raise ValueError(f"line {lineno}: {exc}") from None
        if cls not in (2, 4):
            raise ValueError(f"line {lineno}: class must be 2 or 4, got {cls}")
        raw.append((lineno, parts[0], attrs, cls))
    n4 = sum(cls == 4 for _, _, _, cls in raw)
    class_zero_value = 4 if n4 < len(raw) - n4 else 2
    seen: dict[str, int] = {}
    taken: set[str] = set()
    items = []
    for lineno, code, attrs, cls in raw:
        n = seen.get(code, 0)
        label = code if n == 0 else f"{code}#{n}"
        while label in taken:  # a code that looks like a suffixed one
            n += 1
            label = f"{code}#{n}"
        seen[code] = n + 1
        taken.add(label)
        try:
            items.append(LabelledItem(
                label, attrs, 0 if cls == class_zero_value else 1))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return items


# --- synthetic surrogate ----------------------------------------------------

def synthetic_items(seed: int = 97) -> list[LabelledItem]:
    """Deterministic Wisconsin-like surrogate dataset.

    Attribute 0 (clump thickness) separates the classes most strongly
    and tops the std-dev ranking; attributes 2, 5 and 7 (cell shape,
    bare nuclei, normal nucleoli) come next and form the danger trio.
    Values live on the 1-10 integer scale divided by 10.
    """
    rng = random.Random(seed)
    # (class0 mean, class1 mean, within-class std) per attribute
    profile = [
        (0.20, 0.85, 0.08),  # clump thickness: widest spread
        (0.30, 0.45, 0.08),
        (0.20, 0.65, 0.10),  # cell shape
        (0.30, 0.40, 0.08),
        (0.35, 0.45, 0.07),
        (0.20, 0.65, 0.10),  # bare nuclei
        (0.30, 0.42, 0.08),
        (0.20, 0.65, 0.10),  # normal nucleoli
        (0.15, 0.25, 0.06),
    ]

    def draw(cls: int) -> tuple[float, ...]:
        attrs = []
        for mu0, mu1, sd in profile:
            v = rng.gauss(mu1 if cls else mu0, sd)
            grid = min(10, max(1, round(v * 10)))
            attrs.append(grid / 10.0)
        return tuple(attrs)

    items = [LabelledItem(f"bc-{i:04d}", draw(0), 0) for i in range(N_CLASS0)]
    items += [LabelledItem(f"bc-{N_CLASS0 + i:04d}", draw(1), 1)
              for i in range(N_CLASS1)]
    return items
