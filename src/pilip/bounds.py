"""The certified bracket returned by every estimator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

__all__ = ["BoundReport"]


@dataclass(frozen=True)
class BoundReport:
    """A bracket [certified_lower, certified_upper] on the reported quantity.

    Both ends are mathematically guaranteed bounds; `method` names how they were
    obtained and flags an upper end that is only a restricted/heuristic estimate
    (the summing norms' LP constant).  Construction clamps the ends into
    0 <= certified_lower <= certified_upper.
    """

    certified_lower: float
    certified_upper: float
    method: str = ""
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        lo = float(self.certified_lower)
        hi = float(self.certified_upper)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("bounds must not be NaN")
        hi = max(hi, 0.0)
        lo = min(max(0.0, lo), hi)
        object.__setattr__(self, "certified_lower", lo)
        object.__setattr__(self, "certified_upper", hi)

    @property
    def heuristic_lower(self) -> float:
        """Read-only alias of `certified_lower`, kept in `to_dict` (docs/formats.md)."""
        return self.certified_lower

    @property
    def width(self) -> float:
        return self.certified_upper - self.certified_lower

    def contains(self, value: float, slack: float = 0.0) -> bool:
        """True when `value` lies in the bracket inflated by `slack` (relative)."""
        pad = slack * max(abs(value), 1e-30)
        return self.certified_lower - pad <= value <= self.certified_upper + pad

    def to_dict(self) -> dict[str, Any]:
        return {
            "certified_lower": self.certified_lower,
            "heuristic_lower": self.heuristic_lower,
            "certified_upper": self.certified_upper,
            "method": self.method,
            "detail": self.detail,
        }
