"""Signal mathematics of the dendritic cell algorithm.

A dendritic cell fuses four tissue signals (PAMP, danger, safe,
inflammation) into three cytokine accumulators via a weighted sum,
collects antigen labels while immature, and migrates once its
costimulatory (csm) accumulator crosses an individual threshold.
Migrated cells present their antigen store under a binary context
decided by comparing the mature and semi-mature accumulators. The cell
pool itself lives in `dca.tissue`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class Context(Enum):
    MATURE = "mature"
    SEMI_MATURE = "semi-mature"


class InvalidWeights(ValueError):
    """Weight row whose absolute-value sum is zero (normalization undefined)."""


class _SignalFields(NamedTuple):
    pamp: float = 0.0
    danger: float = 0.0
    safe: float = 0.0
    inflammation: float = 0.0


class SignalVector(_SignalFields):
    """Signal concentrations at one instant.

    pamp, danger and safe are non-negative concentrations (nominal range
    0-100); inflammation is a context amplifier in [0, 2]. An immutable
    named tuple, equal and hashed by value; every way of building one
    (the constructor, `_make`, `_replace`) checks the ranges.
    """

    __slots__ = ()

    def __new__(cls, pamp: float = 0.0, danger: float = 0.0,
                safe: float = 0.0, inflammation: float = 0.0):
        if pamp < 0 or danger < 0 or safe < 0:
            raise ValueError("pamp, danger and safe must be non-negative")
        if not 0.0 <= inflammation <= 2.0:
            raise ValueError("inflammation must lie in [0, 2]")
        return tuple.__new__(cls, (pamp, danger, safe, inflammation))

    @classmethod
    def _make(cls, iterable):
        # the inherited _make, which _replace calls, skips __new__
        return cls(*iterable)


@dataclass(frozen=True)
class WeightMatrix:
    """Fusion weights, one (P, D, S) triple per output accumulator.

    Defaults are the empirically derived values: csm (2, 1, 2),
    semi (0, 0, 3), mat (2, 1, -3).
    """

    csm: tuple[float, float, float] = (2.0, 1.0, 2.0)
    semi: tuple[float, float, float] = (0.0, 0.0, 3.0)
    mat: tuple[float, float, float] = (2.0, 1.0, -3.0)

    def __post_init__(self):
        for name in ("csm", "semi", "mat"):
            row = getattr(self, name)
            if sum(abs(w) for w in row) == 0.0:
                raise InvalidWeights(f"{name} weight row has zero absolute sum")

    def with_safe_mat_weight(self, weight: float) -> "WeightMatrix":
        """Return a copy with the safe-to-mature weight replaced.

        This is the cell patched by the portscan experiment series
        (default -3, overridden to -1 or -2).
        """
        p, d, _ = self.mat
        return WeightMatrix(csm=self.csm, semi=self.semi, mat=(p, d, weight))


def fuse_signals(s: SignalVector, w: WeightMatrix) -> tuple[float, float, float]:
    """Fuse one signal vector into per-accumulator increments.

    For each output row: (Wp*P + Ws*S + Wd*D) / (|Wp| + |Ws| + |Wd|),
    scaled by (1 + inflammation) / 2. The denominator uses absolute
    values so the mixed-sign mat row stays well defined.
    """
    ic_factor = (1.0 + s.inflammation) / 2.0
    out = []
    for wp, wd, ws in (w.csm, w.semi, w.mat):
        num = wp * s.pamp + ws * s.safe + wd * s.danger
        den = abs(wp) + abs(ws) + abs(wd)
        out.append(num / den * ic_factor)
    return out[0], out[1], out[2]

