"""Prefetchers.

Two engines:

* :class:`MultiStridePrefetcher` -- the baseline's L3 prefetcher
  (Table 3: "Multi-stride prefetcher [33] at L3, 16 strides").  It
  tracks up to 16 concurrent streams, detects a stable stride after two
  confirmations, and issues ``degree`` line prefetches ahead.
* :class:`XMemPrefetcher` -- Use Case 1's semantic prefetcher (Section
  5.2(4)): it holds the translated access pattern and the mapped ranges
  of every *pinned* atom in its PAT, and on a demand miss to a pinned
  atom prefetches the next line(s) along the expressed stride, never
  crossing the atom's mapped range.

Both return lists of line addresses to fetch; the memory system decides
what to do with them (fill L3, consume bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.pat import PrefetcherPrimitives
from repro.core.attributes import PatternType


@dataclass(slots=True)
class _Stream:
    """One tracked access stream of the multi-stride engine."""

    last_addr: int
    stride: int = 0
    confirmations: int = 0


@dataclass
class PrefetchStats:
    """Issue counters for a prefetcher."""

    issued: int = 0
    stream_allocations: int = 0


@dataclass
class XMemPrefetchStats(PrefetchStats):
    """Issue counters plus PAT coverage for the semantic prefetcher."""

    #: LLC-miss lookups presented to the PAT.
    pat_lookups: int = 0
    #: Lookups that resolved to a PAT-resident pinned atom.
    pat_hits: int = 0

    @property
    def pat_hit_rate(self) -> float:
        """Fraction of miss lookups the PAT could act on (0.0 when no
        lookup happened -- guarded for empty runs)."""
        if not self.pat_lookups:
            return 0.0
        return self.pat_hits / self.pat_lookups


class MultiStridePrefetcher:
    """Stride detector with a fixed number of stream slots.

    Streams are keyed by 4 KB region (a common PC-less organization).
    A slot confirms a stride when two consecutive deltas match; once
    confirmed, each access issues up to ``degree`` prefetches ahead.
    When all slots are taken, a new region replaces the least recently
    used stream: the stream dict is kept in recency order (a touched
    stream is re-inserted), so the victim is its first key -- O(1)
    instead of a scan over the slots.
    """

    def __init__(self, streams: int = 16, degree: int = 2,
                 line_bytes: int = 64, region_bytes: int = 4096) -> None:
        self.max_streams = streams
        self.degree = degree
        self.line_bytes = line_bytes
        self.region_bytes = region_bytes
        # Shift form of the per-access region split (None when
        # region_bytes is not a power of two).
        self._region_shift = (region_bytes.bit_length() - 1
                              if not (region_bytes & (region_bytes - 1))
                              else None)
        #: region -> stream, least recently used first.
        self._streams: Dict[int, _Stream] = {}
        self.stats = PrefetchStats()

    def observe(self, addr: int) -> List[int]:
        """Train on a demand access; return line addresses to prefetch."""
        region = (addr >> self._region_shift
                  if self._region_shift is not None
                  else addr // self.region_bytes)
        streams = self._streams
        stream = streams.get(region)
        if stream is None:
            self._allocate(region, addr)
            return []
        del streams[region]             # touch: now most recently used
        streams[region] = stream
        delta = addr - stream.last_addr
        if delta == 0:
            return []
        if delta == stream.stride:
            stream.confirmations += 1
        else:
            stream.stride = delta
            stream.confirmations = 1
        stream.last_addr = addr
        if stream.confirmations < 2:
            return []
        out = []
        for i in range(1, self.degree + 1):
            target = addr + stream.stride * i
            if target < 0:
                break
            line = target - (target % self.line_bytes)
            if line not in out:
                out.append(line)
        self.stats.issued += len(out)
        return out

    def _allocate(self, region: int, addr: int) -> None:
        if len(self._streams) >= self.max_streams:
            del self._streams[next(iter(self._streams))]
        self._streams[region] = _Stream(last_addr=addr)
        self.stats.stream_allocations += 1

    @property
    def active_streams(self) -> int:
        """Number of currently tracked streams."""
        return len(self._streams)


@dataclass
class _PinnedAtomEntry:
    """PAT-resident state for one pinned atom (Section 5.2(4))."""

    primitives: PrefetcherPrimitives
    #: (start, end) physical spans of the atom's mapping.
    spans: List[tuple]


class XMemPrefetcher:
    """Semantic prefetcher driven by atom attributes.

    "The prefetcher uses a PAT to keep the access pattern (stride) and
    address ranges for all pinned atoms.  When an access to one of these
    atoms misses the cache, it prefetches the next cache line(s) based
    on the access pattern."

    ``lookup_atom`` is the AMU hook mapping a physical address to an
    active atom ID (or None).
    """

    def __init__(self, lookup_atom: Callable[[int], Optional[int]],
                 degree: int = 4, line_bytes: int = 64) -> None:
        self._lookup_atom = lookup_atom
        self.degree = degree
        self.line_bytes = line_bytes
        self._pat: Dict[int, _PinnedAtomEntry] = {}
        self.stats = XMemPrefetchStats()

    # -- Controller interface ------------------------------------------------

    def set_pinned_atoms(self, entries: Dict[int, _PinnedAtomEntry]) -> None:
        """Replace the pinned-atom PAT (on active-atom changes)."""
        self._pat = dict(entries)

    @staticmethod
    def entry(primitives: PrefetcherPrimitives,
              spans: List[tuple]) -> _PinnedAtomEntry:
        """Build a PAT entry (exposed for the cache controller)."""
        return _PinnedAtomEntry(primitives=primitives, spans=list(spans))

    # -- Miss hook -------------------------------------------------------------

    def on_demand_miss(self, addr: int) -> List[int]:
        """Demand miss at the LLC: prefetch along the atom's pattern."""
        self.stats.pat_lookups += 1
        atom_id = self._lookup_atom(addr)
        if atom_id is None:
            return []
        entry = self._pat.get(atom_id)
        if entry is None:
            return []
        self.stats.pat_hits += 1
        prims = entry.primitives
        if prims.pattern is PatternType.REGULAR and prims.stride_bytes:
            step = prims.stride_bytes
            # Prefetch whole lines: advance at least one line per step.
            step = max(abs(step), self.line_bytes) * (1 if step > 0 else -1)
            out = []
            for i in range(1, self.degree + 1):
                target = addr + step * i
                if not self._inside(entry, target):
                    break
                line = target - (target % self.line_bytes)
                if line not in out:
                    out.append(line)
            self.stats.issued += len(out)
            return out
        if prims.pattern is PatternType.IRREGULAR:
            # Irregular-but-repeated data (e.g., graph edge lists): stream
            # sequential lines within the mapped range.
            out = []
            for i in range(1, self.degree + 1):
                target = addr + self.line_bytes * i
                if not self._inside(entry, target):
                    break
                out.append(target - (target % self.line_bytes))
            self.stats.issued += len(out)
            return out
        return []

    @staticmethod
    def _inside(entry: _PinnedAtomEntry, addr: int) -> bool:
        # Hot on the LLC miss path; a plain loop avoids the generator
        # frame per call.
        for s, e in entry.spans:
            if s <= addr < e:
                return True
        return False
