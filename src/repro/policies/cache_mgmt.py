"""Use Case 1: XMem-driven cache management (Section 5.2).

The cache controller runs a greedy pinning algorithm every time the set
of active atoms changes:

1. collect the active atoms, sorted by their expressed reuse
   (descending);
2. walk the list, pinning each atom whose data still fits under the
   pinning budget (75% of the LLC);
3. insert lines of pinned atoms with the highest priority; everything
   else uses the default insertion policy;
4. on a change of the active-atom list, *age* the previously pinned
   lines so the default replacement policy can reclaim them;
5. arm the XMem prefetcher with the pattern + physical spans of every
   pinned atom, so a demand miss to a pinned atom prefetches the rest
   of its working set.

The controller is an observer: it registers itself as an XMemLib
listener and consults the AMU for address-to-atom resolution, exactly
the query interface of Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.pat import translate_for_prefetcher
from repro.core.xmemlib import XMemLib
from repro.mem.cache import Cache
from repro.mem.prefetch import XMemPrefetcher

#: The paper's pinning budget: "we use 75% of the cache size so the
#: cache still has space to handle other data".
PIN_FRACTION = 0.75


@dataclass
class ControllerStats:
    """Decisions the controller has taken."""

    refreshes: int = 0
    atoms_pinned: int = 0
    atoms_skipped_budget: int = 0
    lines_aged: int = 0


class CacheController:
    """The Section 5.2 greedy pinning controller for one LLC."""

    def __init__(self, xmemlib: XMemLib, llc: Cache,
                 prefetcher: Optional[XMemPrefetcher] = None,
                 pin_fraction: float = PIN_FRACTION) -> None:
        self.xmemlib = xmemlib
        self.process = xmemlib.process
        self.llc = llc
        self.prefetcher = prefetcher
        self.pin_fraction = pin_fraction
        self._pinned_ids: Set[int] = set()
        #: atom id -> the physical spans of its *pinned* portion.
        self._pin_spans: Dict[int, List[Tuple[int, int]]] = {}
        self.stats = ControllerStats()
        xmemlib.listeners.append(self.refresh)
        self.refresh()

    # -- The greedy algorithm -------------------------------------------

    def refresh(self) -> None:
        """Re-run the pinning decision (active-atom list changed).

        Atoms are considered in decreasing reuse order.  An atom whose
        working set fits in the remaining budget is pinned whole; when
        the active working set exceeds the available space, *part* of
        it is pinned (a prefix, up to the budget) and the prefetcher
        covers the rest -- "the cache mitigates thrashing by pinning
        part of the working set and then prefetches the rest".
        """
        self.stats.refreshes += 1
        budget = int(self.llc.size_bytes * self.pin_fraction)
        chunk = self.process.amu.aam.config.chunk_bytes
        chosen: Dict[int, List[Tuple[int, int]]] = {}
        atoms = sorted(
            (a for a in self.process.active_atoms() if a.reuse > 0),
            key=lambda a: a.reuse,
            reverse=True,
        )
        for atom in atoms:
            # Budget in AAM-chunk space: that is the granularity the
            # pin predicate (and hence cache occupancy) works at.
            spans = physical_spans(self.process.amu.aam, atom.atom_id)
            size = sum(e - s for s, e in spans)
            if size == 0:
                continue
            take = min(size, budget)
            if take < chunk:
                self.stats.atoms_skipped_budget += 1
                continue
            chosen[atom.atom_id] = prefix_spans(spans, take)
            budget -= take
        if chosen != self._pin_spans:
            # Section 5.2(3): age high-priority lines only when the
            # active-atom list changes.
            self.stats.lines_aged += self.llc.unpin_all()
            self._pin_spans = chosen
            self._pinned_ids = set(chosen)
            self.stats.atoms_pinned = len(chosen)
        self._arm_prefetcher()

    def _arm_prefetcher(self) -> None:
        """Arm the semantic prefetcher for *partially* pinned atoms.

        An atom whose whole working set is pinned needs no prefetching
        -- it becomes resident on first touch and stays.  Prefetching
        exists to cover "the rest" of a working set that exceeds the
        available space (Section 5.1), so only atoms with an unpinned
        remainder are armed.
        """
        if self.prefetcher is None:
            return
        entries = {}
        for atom_id in self._pinned_ids:
            attrs = self.process.gat.get(atom_id)
            if attrs is None:
                continue
            spans = physical_spans(self.process.amu.aam, atom_id)
            full = sum(e - s for s, e in spans)
            pinned = sum(e - s for s, e in self._pin_spans[atom_id])
            if pinned >= full:
                continue
            prims = translate_for_prefetcher(attrs)
            entries[atom_id] = XMemPrefetcher.entry(prims, spans)
        self.prefetcher.set_pinned_atoms(entries)

    # -- Hooks for the memory system -----------------------------------

    def pin_predicate(self, line_paddr: int) -> bool:
        """Whether a line being filled belongs to a pinned atom.

        This is the LLC fill-path hook; it resolves the address through
        the AMU (ALB-cached), the same ATOM_LOOKUP any component uses.
        Hot on the fill path, so the span scan is a plain loop.
        """
        if not self._pinned_ids:
            return False
        atom_id = self.process.amu.lookup(line_paddr)
        spans = self._pin_spans.get(atom_id)
        if not spans:
            return False
        for s, e in spans:
            if s <= line_paddr < e:
                return True
        return False

    def pinned_bytes(self) -> int:
        """Total bytes currently designated for pinning."""
        return sum(e - s for spans in self._pin_spans.values()
                   for s, e in spans)

    @property
    def pinned_atom_ids(self) -> Set[int]:
        """The currently pinned atom IDs (a copy)."""
        return set(self._pinned_ids)

    def install(self, hierarchy) -> None:
        """Attach the pin predicate to a cache hierarchy."""
        hierarchy.pin_predicate = self.pin_predicate


def physical_spans(aam, atom_id: int) -> List[Tuple[int, int]]:
    """Coalesced physical (start, end) spans of an atom, from the AAM's
    chunks."""
    chunk_bytes = aam.config.chunk_bytes
    spans: List[Tuple[int, int]] = []
    for c in sorted(aam.mapped_chunks(atom_id)):
        start = c * chunk_bytes
        if spans and spans[-1][1] == start:
            spans[-1] = (spans[-1][0], start + chunk_bytes)
        else:
            spans.append((start, start + chunk_bytes))
    return spans


def prefix_spans(spans: List[Tuple[int, int]],
                 budget: int) -> List[Tuple[int, int]]:
    """The leading ``budget`` bytes of a span list."""
    out: List[Tuple[int, int]] = []
    remaining = budget
    for start, end in spans:
        if remaining <= 0:
            break
        take = min(end - start, remaining)
        out.append((start, start + take))
        remaining -= take
    return out
