"""Set-associative cache model.

Write-back, write-allocate, physically addressed.  The model tracks
tags, dirty bits, and a per-line ``pinned`` flag used by Use Case 1:
the cache never selects a pinned line as victim while a non-pinned
candidate exists, and the cache controller (``repro.policies.
cache_mgmt``) bounds pinning to 75% of the ways per set and ages pins
when the active-atom list changes (Section 5.2(3)).

Line state is stored columnar -- per-set parallel lists of tags, dirty
bits, and pin bits -- rather than as per-line objects.  The tag match
on the access path is then a single C-speed ``list.index`` instead of
a Python loop over line objects; with one access per trace event this
is the difference between the cache model and the interpreter loop
dominating a run.  An invalid way holds tag ``-1`` (physical tags are
non-negative), so validity needs no separate column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.errors import ConfigurationError
from repro.mem.replacement import (
    DRRIPPolicy,
    ReplacementPolicy,
    make_policy,
)
from repro.testing import checks as _checks

#: Tag stored in an invalid way (no physical tag is negative).
INVALID_TAG = -1


@dataclass
class CacheStats:
    """Per-cache counters."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0
    pinned_fills: int = 0
    pin_refusals: int = 0

    @property
    def hit_rate(self) -> float:
        """Hit fraction over demand accesses."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Miss fraction over demand accesses."""
        return 1.0 - self.hit_rate if self.accesses else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of prefetched fills that saw a demand hit (0.0
        when nothing was prefetched -- guarded for empty runs)."""
        if not self.prefetch_fills:
            return 0.0
        return self.prefetch_hits / self.prefetch_fills

    @property
    def writeback_rate(self) -> float:
        """Writebacks per demand access (0.0 for an untouched cache)."""
        if not self.accesses:
            return 0.0
        return self.writebacks / self.accesses


@dataclass
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: Physical line address written back to the next level (if any).
    writeback_addr: Optional[int] = None
    #: True when the hit line had been brought in by a prefetch.
    was_prefetched: bool = False


#: Shared immutable results for the three demand-access outcomes --
#: one access per trace event makes per-access allocation measurable.
_HIT = AccessResult(hit=True)
_HIT_PREFETCHED = AccessResult(hit=True, was_prefetched=True)
_MISS = AccessResult(hit=False)


class Cache:
    """A single cache level.

    ``pin_quota`` is the maximum fraction of ways per set that may hold
    pinned lines; fills requesting ``pinned=True`` beyond the quota
    degrade to normal fills (counted in ``stats.pin_refusals``).  The
    paper pins at most 75% of the cache (Section 5.2(2)).
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
        policy: str = "lru",
        pin_quota: float = 0.75,
    ) -> None:
        if line_bytes & (line_bytes - 1):
            raise ConfigurationError(
                f"{name}: line size {line_bytes} is not a power of two")
        if size_bytes % (ways * line_bytes):
            raise ConfigurationError(
                f"{name}: size {size_bytes} not divisible by "
                f"{ways} ways x {line_bytes}B lines"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ConfigurationError(
                f"{name}: number of sets ({self.num_sets}) must be a "
                f"power of two"
            )
        self.policy: ReplacementPolicy = make_policy(
            policy, self.num_sets, ways
        )
        self._policy_is_drrip = isinstance(self.policy, DRRIPPolicy)
        # Bound-method hoists for the per-access hooks (the policy is
        # fixed after construction).
        self._policy_on_hit = self.policy.on_hit
        self._policy_on_fill = self.policy.on_fill
        self._policy_victim = self.policy.victim
        self._policy_on_invalidate = self.policy.on_invalidate
        # Address decomposition is on every access path: precompute
        # shift/mask forms (line size and set count are powers of two,
        # both asserted above).
        self._line_shift = line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        self._tag_shift = self._line_shift + self.num_sets.bit_length() - 1
        self.pin_quota = pin_quota
        self._max_pinned_ways = max(0, int(ways * pin_quota))
        # Columnar line state: parallel per-set lists.
        self._tags: List[List[int]] = [
            [INVALID_TAG] * ways for _ in range(self.num_sets)
        ]
        self._dirty: List[List[bool]] = [
            [False] * ways for _ in range(self.num_sets)
        ]
        self._pinned: List[List[bool]] = [
            [False] * ways for _ in range(self.num_sets)
        ]
        # Per-set occupancy caches so the allocate path need not scan:
        # number of valid lines (skip the free-way search once a set is
        # full -- the steady state) and number of pinned lines (skip
        # building a candidate list while nothing is pinned).
        self._valid_counts: List[int] = [0] * self.num_sets
        self._pinned_counts: List[int] = [0] * self.num_sets
        self._all_ways: List[int] = list(range(ways))
        #: Prefetch tags remembered until first demand hit, for stats.
        self._prefetched_tags = set()
        self.stats = CacheStats()
        if _checks.enabled():
            self._install_checks()

    def _install_checks(self) -> None:
        """``REPRO_CHECK=1``: shadow the mutating entry points with
        checked wrappers that re-derive the maintained occupancy state
        after every operation.  Instance attributes win over bound
        methods, so every caller picks the wrappers up; a disabled
        run never reaches this method and pays nothing per access.
        """
        access_inner = self.access
        fill_inner = self.fill
        fill_absent_inner = self.fill_absent
        unpin_inner = self.unpin_all
        invalidate_inner = self.invalidate_all

        def access(addr: int, is_write: bool) -> "AccessResult":
            result = access_inner(addr, is_write)
            _checks.check_cache_set(self, self._index(addr))
            return result

        def fill(addr: int, *, dirty: bool = False, pinned: bool = False,
                 prefetch: bool = False) -> Optional[int]:
            result = fill_inner(addr, dirty=dirty, pinned=pinned,
                                prefetch=prefetch)
            _checks.check_cache_set(self, self._index(addr))
            return result

        def fill_absent(addr: int, *, dirty: bool = False,
                        pinned: bool = False, prefetch: bool = False
                        ) -> Optional[int]:
            result = fill_absent_inner(addr, dirty=dirty, pinned=pinned,
                                       prefetch=prefetch)
            _checks.check_cache_set(self, self._index(addr))
            return result

        def unpin_all() -> int:
            result = unpin_inner()
            _checks.check_cache_all(self)
            return result

        def invalidate_all() -> int:
            result = invalidate_inner()
            _checks.check_cache_all(self)
            return result

        self.access = access            # type: ignore[method-assign]
        self.fill = fill                # type: ignore[method-assign]
        self.fill_absent = fill_absent  # type: ignore[method-assign]
        self.unpin_all = unpin_all      # type: ignore[method-assign]
        self.invalidate_all = invalidate_all  # type: ignore[method-assign]

    def stat_groups(self):
        """StatGroup protocol: this level under its own (lower) name."""
        yield self.name.lower(), self.stats

    # -- Address helpers ---------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """The line-aligned address containing ``addr``."""
        return addr & -self.line_bytes

    def _index(self, addr: int) -> int:
        return (addr >> self._line_shift) & self._set_mask

    def _tag(self, addr: int) -> int:
        return addr >> self._tag_shift

    # -- Lookup / fill ------------------------------------------------------

    def _find(self, set_idx: int, tag: int) -> Optional[int]:
        try:
            return self._tags[set_idx].index(tag)
        except ValueError:
            return None

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no stats, no policy update)."""
        return self._tag(addr) in self._tags[self._index(addr)]

    def access(self, addr: int, is_write: bool) -> AccessResult:
        """A demand access.  On a miss the caller is responsible for
        fetching the line from the next level and calling :meth:`fill`.

        The returned :class:`AccessResult` is a shared immutable
        instance on the common paths -- callers must treat it as
        read-only (they all do: it is consumed immediately).
        """
        stats = self.stats
        stats.accesses += 1
        set_idx = (addr >> self._line_shift) & self._set_mask
        tag = addr >> self._tag_shift
        tags = self._tags[set_idx]
        # Membership test before index: both scans run in C, and the
        # miss path (the majority at L2/L3) avoids raising ValueError.
        if tag not in tags:
            stats.misses += 1
            if self._policy_is_drrip:
                self.policy.record_miss(set_idx)
            return _MISS
        way = tags.index(tag)
        stats.hits += 1
        if is_write:
            self._dirty[set_idx][way] = True
        self._policy_on_hit(set_idx, way)
        if self._prefetched_tags:
            key = (set_idx, tag)
            if key in self._prefetched_tags:
                stats.prefetch_hits += 1
                self._prefetched_tags.discard(key)
                return _HIT_PREFETCHED
        return _HIT

    def fill(self, addr: int, *, dirty: bool = False,
             pinned: bool = False, prefetch: bool = False
             ) -> Optional[int]:
        """Install the line holding ``addr``.

        Returns the line address of a dirty victim that must be written
        back to the next level, or None.  If the line is already
        present, the flags are merged instead (a prefetch racing a
        demand fill, or a writeback landing on a resident copy).
        """
        set_idx = (addr >> self._line_shift) & self._set_mask
        tag = addr >> self._tag_shift
        way = self._find(set_idx, tag)
        if way is not None:
            if dirty:
                self._dirty[set_idx][way] = True
            if pinned and not self._pinned[set_idx][way] \
                    and self._pin_ok(set_idx):
                self._pinned[set_idx][way] = True
                self._pinned_counts[set_idx] += 1
            return None
        return self.fill_absent(addr, dirty=dirty, pinned=pinned,
                                prefetch=prefetch)

    def fill_absent(self, addr: int, *, dirty: bool = False,
                    pinned: bool = False, prefetch: bool = False
                    ) -> Optional[int]:
        """:meth:`fill` for a line the caller knows is not resident.

        The demand-fill path always qualifies: the memory system only
        fills a level after that level reported a miss for the same line
        (and a prefetch only after :meth:`probe` found it absent), so
        the presence re-scan :meth:`fill` starts with is pure overhead
        there.  Behaviour is otherwise identical to :meth:`fill`, and
        :meth:`fill` delegates here once absence is established.
        """
        set_idx = (addr >> self._line_shift) & self._set_mask
        tag = addr >> self._tag_shift
        # Allocation is fused in (one call per miss adds up): free way
        # first, else evict a victim among the non-pinned ways.
        tags = self._tags[set_idx]
        writeback = None
        if self._valid_counts[set_idx] < self.ways:
            # First invalid way, exactly like the historical scan.
            way = tags.index(INVALID_TAG)
            self._valid_counts[set_idx] += 1
        else:
            pinned_row = self._pinned[set_idx]
            if self._pinned_counts[set_idx]:
                candidates = [w for w in self._all_ways
                              if not pinned_row[w]]
                if not candidates:
                    # Quota guarantees this cannot happen with quota
                    # < 1.0, but a controller bug must degrade
                    # gracefully, not deadlock.
                    candidates = self._all_ways
            else:
                candidates = self._all_ways
            way = self._policy_victim(set_idx, candidates)
            self.stats.evictions += 1
            victim_tag = tags[way]
            if self._dirty[set_idx][way]:
                self.stats.writebacks += 1
                writeback = self._victim_addr(set_idx, victim_tag)
            if self._prefetched_tags:
                self._prefetched_tags.discard((set_idx, victim_tag))
            if pinned_row[way]:
                pinned_row[way] = False
                self._pinned_counts[set_idx] -= 1
            self._policy_on_invalidate(set_idx, way)
        tags[way] = tag
        self._dirty[set_idx][way] = dirty
        want_pin = pinned and self._pin_ok(set_idx)
        if pinned and not want_pin:
            self.stats.pin_refusals += 1
        self._pinned[set_idx][way] = want_pin
        if want_pin:
            self.stats.pinned_fills += 1
            self._pinned_counts[set_idx] += 1
        if prefetch:
            self.stats.prefetch_fills += 1
            self._prefetched_tags.add((set_idx, tag))
        self._policy_on_fill(set_idx, way, high_priority=want_pin)
        return writeback

    def _pin_ok(self, set_idx: int) -> bool:
        return self._pinned_counts[set_idx] < self._max_pinned_ways

    def _victim_addr(self, set_idx: int, tag: int) -> int:
        return (tag * self.num_sets + set_idx) * self.line_bytes

    # -- Pinning control (Use Case 1 controller hooks) ----------------------

    def unpin_all(self) -> int:
        """Age every pinned line back to normal priority.

        Called when the active-atom list changes (Section 5.2(3): "only
        then does the cache age the high-priority lines so they can be
        evicted by the default replacement policy").  Returns the number
        of lines unpinned.
        """
        count = 0
        for set_idx, pinned_count in enumerate(self._pinned_counts):
            if pinned_count:
                self._pinned[set_idx] = [False] * self.ways
                self._pinned_counts[set_idx] = 0
                count += pinned_count
        return count

    @property
    def pinned_lines(self) -> int:
        """Number of currently pinned lines (maintained count)."""
        return sum(self._pinned_counts)

    # -- Maintenance ---------------------------------------------------------

    def invalidate_all(self) -> int:
        """Drop every line (no writebacks -- test helper)."""
        count = 0
        for set_idx, tags in enumerate(self._tags):
            for way in range(self.ways):
                if tags[way] != INVALID_TAG:
                    tags[way] = INVALID_TAG
                    self.policy.on_invalidate(set_idx, way)
                    count += 1
            self._dirty[set_idx] = [False] * self.ways
            self._pinned[set_idx] = [False] * self.ways
            self._valid_counts[set_idx] = 0
            self._pinned_counts[set_idx] = 0
        self._prefetched_tags.clear()
        return count

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently resident (maintained count)."""
        return sum(self._valid_counts)

    def __repr__(self) -> str:
        return (f"Cache({self.name}, {self.size_bytes // 1024}KB, "
                f"{self.ways}w, {self.policy.name})")
