"""Post-hoc aggregation of migration records into per-antigen verdicts.

Every antigen copy inside every migration record counts as one
presentation under that record's context. The mean context value of a
label is its fraction of mature presentations, in [0, 1]; labels are
classified anomalous when that fraction strictly exceeds a threshold.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, TextIO

from .core import Context
from .tissue import MigrationRecord


class TruthMismatch(ValueError):
    """A verdict label is missing from the ground-truth map."""


@dataclass
class AntigenVerdict:
    label: str
    presented_mature: int = 0
    presented_semi: int = 0
    decided_class: Optional[int] = None

    @property
    def total(self) -> int:
        return self.presented_mature + self.presented_semi

    @property
    def mean_context(self) -> Optional[float]:
        """Fraction of mature presentations; None if never presented."""
        if self.total == 0:
            return None
        return self.presented_mature / self.total


@dataclass
class RunSummary:
    verdicts: dict[str, AntigenVerdict]
    errors: Optional[int] = None
    unseen: int = 0


def tally(presentations: Iterable[tuple[bool, Iterable[str]]]
          ) -> dict[str, AntigenVerdict]:
    """Count presentations per label from `(mature, labels)` pairs, one
    per migration: every label copy counts once under that context
    (multiplicity counts)."""
    verdicts: dict[str, AntigenVerdict] = {}
    get = verdicts.get
    for mature, labels in presentations:
        for label in labels:
            v = get(label)
            if v is None:
                v = verdicts[label] = AntigenVerdict(label)
            if mature:
                v.presented_mature += 1
            else:
                v.presented_semi += 1
    return verdicts


def aggregate(records: Iterable[MigrationRecord]) -> dict[str, AntigenVerdict]:
    """Count presentations per label across all records (multiplicity counts)."""
    return tally((r.context is Context.MATURE, r.antigens) for r in records)


def classify(verdicts: Mapping[str, AntigenVerdict], threshold: float) -> None:
    """Decide each presented label's class in place.

    mean_context strictly over the threshold means class 1 (anomalous);
    never-presented labels keep decided_class None.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    for v in verdicts.values():
        # `mean_context`, from the two counts at once
        mature = v.presented_mature
        total = mature + v.presented_semi
        if total == 0:
            v.decided_class = None
        else:
            v.decided_class = 1 if mature / total > threshold else 0


def count_errors(verdicts: Mapping[str, AntigenVerdict],
                 truth: Mapping[str, int]) -> tuple[int, int]:
    """Errors against ground truth, plus the never-presented count.

    Never-presented labels count as errors and are reported separately
    as the second element. A verdict label absent from the truth map is
    a dataset defect and aborts.
    """
    errors = 0
    unseen = 0
    for label, v in verdicts.items():
        if label not in truth:
            raise TruthMismatch(f"label {label!r} missing from ground truth")
        if v.decided_class is None:
            unseen += 1
            errors += 1
        elif v.decided_class != truth[label]:
            errors += 1
    # labels in truth that never produced a verdict at all
    for label in truth:
        if label not in verdicts:
            unseen += 1
            errors += 1
    return errors, unseen


def process_mag(verdicts: Mapping[str, AntigenVerdict],
                process_groups: Mapping[str, set[str]]) -> dict[str, Optional[float]]:
    """Per-group fraction of mature presentations over all member labels.

    Groups with zero presentations map to None (undefined).
    """
    if not process_groups:
        raise ValueError("process groups must be non-empty")
    out: dict[str, Optional[float]] = {}
    for name, labels in process_groups.items():
        mature = sum(verdicts[l].presented_mature for l in labels if l in verdicts)
        total = sum(verdicts[l].total for l in labels if l in verdicts)
        out[name] = mature / total if total > 0 else None
    return out


@dataclass(frozen=True)
class PairedTTestResult:
    mean_difference: float
    p_value: float
    exact_tie: bool = False


def paired_t_test(xs: Sequence[float], ys: Sequence[float]) -> PairedTTestResult:
    """Two-tailed paired t-test on the differences xs - ys.

    The p-value is the Student t tail with n - 1 degrees of freedom, the
    same test as `scipy.stats.ttest_rel`. Zero-variance differences are
    degenerate: a zero mean difference is an exact tie (p = 1); a
    constant nonzero shift is flagged exact_tie with p = 0 since no
    sampling variation exists to test against.
    """
    if len(xs) != len(ys):
        raise ValueError("paired samples must have equal length")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two pairs")
    for v in (*xs, *ys):
        if not math.isfinite(v):
            raise ValueError(f"paired samples must be finite, got {v!r}")
    diffs = [x - y for x, y in zip(xs, ys)]
    mean_diff = sum(diffs) / n
    deviations = [d - mean_diff for d in diffs]
    # The deviations are scaled by a power of two near the largest before
    # they are squared, so tiny ones do not underflow. Scaling by a power
    # of two is exact and a product rounds correctly, so t is the same at
    # any scale where the unscaled squares would stay normal.
    _, exp = math.frexp(max(map(abs, deviations)))
    scaled = [math.ldexp(d, -exp) for d in deviations]
    spread = sum(d * d for d in scaled)
    try:
        math.ldexp(spread, 2 * exp)  # the unscaled sum of squares
    except OverflowError:
        spread = math.inf
    if not (math.isfinite(mean_diff) and math.isfinite(spread)):
        raise ValueError("the mean or the spread of the paired differences "
                         "overflows a float")
    if spread == 0.0:
        if mean_diff == 0.0:
            return PairedTTestResult(0.0, 1.0, exact_tie=True)
        return PairedTTestResult(mean_diff, 0.0, exact_tie=True)
    t = math.ldexp(mean_diff, -exp) / math.sqrt(spread / (n * (n - 1)))
    return PairedTTestResult(mean_diff, _student_t_two_tailed(t, n - 1))


def _student_t_two_tailed(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom.

    That is I_x(df/2, 1/2), the regularized incomplete beta function at
    x = df / (df + t^2). Both x and 1 - x are formed without
    subtraction, so a tail near 0 or near 1 keeps its relative accuracy.
    """
    t2 = t * t
    x = df / (df + t2)
    if x == 0.0:
        return 0.0
    return _incomplete_beta(df / 2, 0.5, x, t2 / (df + t2))


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b), with y = 1 - x given by the
    caller. The continued fraction converges fast only for
    x < (a + 1) / (a + b + 2); on the other side it uses the symmetry
    I_x(a, b) = 1 - I_y(b, a)."""
    if y == 0.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, y) / b


_FRACTION_TINY = 1e-300
_FRACTION_MAX_TERMS = 10_000


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function, evaluated by
    the modified Lentz method (Numerical Recipes, section 6.4). It needs
    O(sqrt(max(a, b))) terms."""

    def guard(v: float) -> float:
        return v if abs(v) > _FRACTION_TINY else _FRACTION_TINY

    c = 1.0
    d = 1.0 / guard(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, _FRACTION_MAX_TERMS + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((a - 1 + m2) * (a + m2))
        d = 1.0 / guard(1.0 + even * d)
        c = guard(1.0 + even / c)
        h *= d * c
        odd = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2))
        d = 1.0 / guard(1.0 + odd * d)
        c = guard(1.0 + odd / c)
        step = d * c
        h *= step
        if abs(step - 1.0) <= sys.float_info.epsilon:
            return h
    raise ArithmeticError(
        f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def mean_and_std(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and standard deviation (ddof=1; std 0 for n=1)."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


def write_verdict_table(verdicts: Mapping[str, AntigenVerdict], fh: TextIO,
                        machine: bool = False) -> None:
    """One row per antigen: label, presentations, mean context, class."""
    rows = sorted(verdicts.values(), key=lambda v: v.label)
    if machine:
        fh.write("label\tpresentations\tmean_context\tclass\n")
        for v in rows:
            mc = v.mean_context
            mc = "" if mc is None else repr(mc)
            cls = "" if v.decided_class is None else str(v.decided_class)
            fh.write(f"{v.label}\t{v.total}\t{mc}\t{cls}\n")
        return
    fh.write(f"{'label':<24}{'presented':>10}{'mean_ctx':>10}{'class':>7}\n")
    for v in rows:
        mc = v.mean_context
        mc = "unseen" if mc is None else f"{mc:.3f}"
        cls = "-" if v.decided_class is None else str(v.decided_class)
        fh.write(f"{v.label:<24}{v.total:>10}{mc:>10}{cls:>7}\n")


def write_process_table(rows: Mapping[str, tuple[float, float, float]], fh: TextIO,
                        machine: bool = False) -> None:
    """One row per process group: name, antigen count, mean %mAg, std dev.

    `rows` maps group name to (num_antigen, mean_mag, std_mag).
    """
    if machine:
        fh.write("process\tnum_antigen\tmean_mag\tstd_mag\n")
        for name, (num, mean, std) in rows.items():
            fh.write(f"{name}\t{repr(num)}\t{repr(mean)}\t{repr(std)}\n")
        return
    fh.write(f"{'process':<20}{'antigen':>10}{'mean %mAg':>12}{'std dev':>10}\n")
    for name, (num, mean, std) in rows.items():
        fh.write(f"{name:<20}{num:>10.1f}{mean:>12.3f}{std:>10.3f}\n")
