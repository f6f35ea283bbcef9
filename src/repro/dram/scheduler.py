"""FR-FCFS request scheduling (Table 3: FR-FCFS [84]).

First-Ready, First-Come-First-Served: among queued requests, those that
would *hit the open row* of a ready bank are served first (in arrival
order); if none is ready, the oldest request is served.  FR-FCFS is
what makes row-buffer locality pay off under interleaved access
streams -- requests to an open row jump the queue.

The scheduler owns a request queue and drives a :class:`DramSystem`.
The CPU engine uses the one-at-a-time ``DramSystem.access`` path (its
window already issues requests in order); the scheduler is used by the
DRAM-focused benchmarks and tests, and exposes the reordering behaviour
explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dram.system import DramResult, DramSystem
from repro.testing import checks as _checks


@dataclass(frozen=True)
class Request:
    """One memory request presented to the scheduler."""

    paddr: int
    arrival: float
    is_write: bool = False
    req_id: int = 0


@dataclass
class SchedulerStats:
    """FR-FCFS service counters."""

    serviced: int = 0
    reordered: int = 0

    @property
    def reorder_rate(self) -> float:
        """Fraction of requests served out of arrival order (0.0 for
        an idle scheduler -- guarded against zero serviced)."""
        if not self.serviced:
            return 0.0
        return self.reordered / self.serviced


@dataclass
class Completion:
    """A serviced request with its DRAM outcome."""

    request: Request
    result: DramResult

    @property
    def latency(self) -> float:
        """Arrival-to-data latency."""
        return self.result.completes_at - self.request.arrival


class FRFCFSScheduler:
    """Greedy FR-FCFS over an explicit request list."""

    #: Age cap: once the oldest pending request has been bypassed this
    #: many times by younger row-hit requests, it is served regardless
    #: (real FR-FCFS implementations bound starvation the same way --
    #: a sustained stream of row hits could otherwise hold a conflict
    #: request back indefinitely).  The oldest request always has the
    #: highest bypass count (any service that bypasses a request also
    #: bypasses everything older), so capping the front bounds every
    #: request.  ``REPRO_CHECK=1`` verifies the bound holds.
    starvation_cap = 64

    def __init__(self, dram: DramSystem) -> None:
        self.dram = dram
        self.stats = SchedulerStats()
        self._check = _checks.enabled()

    @property
    def reordered(self) -> int:
        """Requests served out of arrival order (compat alias)."""
        return self.stats.reordered

    def stat_groups(self):
        """StatGroup protocol: the scheduler and its DRAM system."""
        yield "scheduler", self.stats
        yield from self.dram.stat_groups()

    def service(self, requests: List[Request]) -> List[Completion]:
        """Drain ``requests`` FR-FCFS and return completions in service
        order."""
        pending = sorted(requests, key=lambda r: (r.arrival, r.req_id))
        completions: List[Completion] = []
        clock = 0.0
        check = self._check
        cap = self.starvation_cap
        bypasses: dict = {}
        while pending:
            arrived = [r for r in pending if r.arrival <= clock]
            if not arrived:
                clock = pending[0].arrival
                arrived = [r for r in pending if r.arrival <= clock]
            front = arrived[0]
            if bypasses.get(id(front), 0) >= cap:
                # Age cap reached: the oldest request is served next no
                # matter what row hits are available.
                choice = front
            else:
                choice = self._first_ready(arrived) or front
            self.stats.serviced += 1
            if choice is not front:
                self.stats.reordered += 1
                # Every arrived request older than the choice was
                # bypassed once more.
                for req in arrived:
                    if req is choice:
                        break
                    count = bypasses.get(id(req), 0) + 1
                    bypasses[id(req)] = count
                    if check:
                        _checks.check_scheduler_bypass(count, cap, req)
            bypasses.pop(id(choice), None)
            pending.remove(choice)
            result = self.dram.access(choice.paddr,
                                      max(clock, choice.arrival),
                                      choice.is_write)
            completions.append(Completion(choice, result))
            # The command issue occupies the scheduler briefly; data
            # bursts overlap across banks.
            clock = max(clock, choice.arrival) + self.dram.timing.t_burst
        return completions

    def _first_ready(self, arrived: List[Request]) -> Optional[Request]:
        """The oldest arrived request that would hit an open row of a
        currently idle bank."""
        for req in arrived:
            if self.dram.row_ready(req.paddr, req.arrival):
                return req
        return None
