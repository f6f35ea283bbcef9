"""Per-bank DRAM state: the row buffer and its open-row policy.

Each bank has one row buffer.  Under the open-row policy (Table 3) the
row stays open after an access, so the next access to the same row is a
*row hit*; an access to a different row is a *row conflict* (precharge +
activate); an access to an idle bank with no open row is *row closed*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class RowOutcome(enum.Enum):
    """Classification of one access against the bank's row buffer."""

    HIT = "hit"
    CLOSED = "closed"
    CONFLICT = "conflict"


@dataclass
class BankStats:
    """Per-bank access counters (drives RBL reporting)."""

    accesses: int = 0
    row_hits: int = 0
    row_closed: int = 0
    row_conflicts: int = 0

    @property
    def row_hit_rate(self) -> float:
        """The bank's row-buffer locality."""
        return self.row_hits / self.accesses if self.accesses else 0.0

    def add(self, other: "BankStats") -> None:
        """Fold another bank's counters into this one (aggregation
        across banks for the ``dram.banks`` stat group)."""
        self.accesses += other.accesses
        self.row_hits += other.row_hits
        self.row_closed += other.row_closed
        self.row_conflicts += other.row_conflicts


@dataclass
class Bank:
    """One DRAM bank: open row, busy horizon, counters.

    Plain state: :meth:`repro.dram.system.DramSystem.access_completes`
    classifies each access against ``open_row`` and advances both.
    """

    open_row: Optional[int] = None
    busy_until: float = 0.0
    stats: BankStats = field(default_factory=BankStats)
