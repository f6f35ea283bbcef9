"""Cache replacement policies.

The baseline system of the paper (Table 3) uses DRRIP [83] at L2/L3 and
LRU at L1; this module implements those plus BRRIP, the bimodal
insertion DRRIP duels against SRRIP's (DRRIP's own set-0 leaders).

A policy manages per-set metadata and exposes four hooks the cache
calls:

* ``on_hit(set_idx, way)``       -- a lookup hit way ``way``;
* ``on_fill(set_idx, way, ...)`` -- a new line was installed;
* ``victim(set_idx, candidates)``-- choose a way to evict among
  ``candidates`` (the cache excludes pinned ways before calling);
* ``on_invalidate(set_idx, way)``-- a line was removed.

Policies are deliberately ignorant of pinning: Use Case 1's pinning is a
*cache-controller* behaviour (Section 5.2(3)) layered on top, in
:mod:`repro.policies.cache_mgmt` and the cache's candidate filtering.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.errors import ConfigurationError

#: RRIP counter width used by SRRIP/BRRIP/DRRIP (2 bits, as in [83]).
RRPV_BITS = 2
RRPV_MAX = (1 << RRPV_BITS) - 1          # 3: re-reference far in future
RRPV_LONG = RRPV_MAX - 1                 # 2: long re-reference interval


class ReplacementPolicy:
    """Interface; concrete policies subclass and fill in the hooks."""

    name = "abstract"

    def __init__(self, num_sets: int, ways: int) -> None:
        if num_sets <= 0 or ways <= 0:
            raise ConfigurationError(
                f"bad geometry: {num_sets} sets x {ways} ways"
            )
        self.num_sets = num_sets
        self.ways = ways

    def on_hit(self, set_idx: int, way: int) -> None:
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int,
                high_priority: bool = False) -> None:
        raise NotImplementedError

    def victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        raise NotImplementedError

    def on_invalidate(self, set_idx: int, way: int) -> None:
        """Default: nothing to clean up."""


class LRUPolicy(ReplacementPolicy):
    """Classic least-recently-used, as in the paper's L1 (Table 3)."""

    name = "lru"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        # Per-set recency stamp per way; larger = more recent.
        self._stamp = [[0] * ways for _ in range(num_sets)]
        self._clock = 0

    # on_hit/on_fill run once per cache access/fill: the stamp update
    # is written out in both rather than shared through a helper call.

    def on_hit(self, set_idx: int, way: int) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def on_fill(self, set_idx: int, way: int,
                high_priority: bool = False) -> None:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock

    def victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        # list.__getitem__ as the key stays in C; a lambda here shows
        # up as the single most-called Python frame of a whole run.
        return min(candidates, key=self._stamp[set_idx].__getitem__)

    def on_invalidate(self, set_idx: int, way: int) -> None:
        self._stamp[set_idx][way] = 0


class _RRIPBase(ReplacementPolicy):
    """Shared RRPV machinery for the RRIP family [83].

    Each line carries a 2-bit re-reference prediction value (RRPV).
    Victims are lines with RRPV == 3; if none, all RRPVs age up until
    one reaches 3.  Hits promote to RRPV 0.  ``high_priority`` fills
    insert at RRPV 0 (the XMem pinned-insertion path); default fills
    insert per the concrete policy.
    """

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._rrpv = [[RRPV_MAX] * ways for _ in range(num_sets)]

    def on_hit(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx][way] = 0

    def victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        # One aging step per candidate instead of per (gap x candidate):
        # the historical scan-and-increment loop always terminates after
        # aging every candidate by the same shared deficiency, so the
        # deficiency is applied in one pass.  Victim choice and final
        # RRPV values are identical.
        rrpv = self._rrpv[set_idx]
        highest = max(map(rrpv.__getitem__, candidates))
        if highest < RRPV_MAX:
            bump = RRPV_MAX - highest
            for way in candidates:
                rrpv[way] += bump
        for way in candidates:
            if rrpv[way] >= RRPV_MAX:
                return way

    def on_invalidate(self, set_idx: int, way: int) -> None:
        self._rrpv[set_idx][way] = RRPV_MAX

    def _insert_rrpv(self, set_idx: int) -> int:
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int,
                high_priority: bool = False) -> None:
        self._rrpv[set_idx][way] = (
            0 if high_priority else self._insert_rrpv(set_idx)
        )


class BRRIPPolicy(_RRIPBase):
    """Bimodal RRIP: insert at RRPV 3 mostly, RRPV 2 rarely (1/32).

    Thrash-resistant: most lines are immediately evictable, so a
    too-large working set cannot flush the whole cache.
    """

    name = "brrip"
    LONG_INTERVAL_PERIOD = 32

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._fill_count = 0

    def _insert_rrpv(self, set_idx: int) -> int:
        self._fill_count += 1
        if self._fill_count % self.LONG_INTERVAL_PERIOD == 0:
            return RRPV_LONG
        return RRPV_MAX


class DRRIPPolicy(_RRIPBase):
    """Dynamic RRIP: set-dueling between SRRIP and BRRIP [83].

    A few leader sets always use SRRIP, a few always BRRIP; a saturating
    counter (PSEL) tracks which leader group misses less, and follower
    sets adopt the winner.  This is the paper's baseline policy for L2
    and L3 (Table 3).
    """

    name = "drrip"
    #: One leader set of each flavour every DUEL_PERIOD sets.
    DUEL_PERIOD = 32
    PSEL_BITS = 10

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._psel = (1 << self.PSEL_BITS) // 2
        self._psel_max = (1 << self.PSEL_BITS) - 1
        self._psel_half = self._psel_max // 2
        self._brrip = BRRIPPolicy(num_sets, ways)

    def _leader(self, set_idx: int) -> Optional[str]:
        phase = set_idx % self.DUEL_PERIOD
        if phase == 0:
            return "srrip"
        if phase == 1:
            return "brrip"
        return None

    # record_miss and _insert_rrpv fire on every miss/fill of an L2/L3
    # access: both spell out the leader phase instead of going through
    # _leader/_use_brrip (kept above as the readable specification).

    def record_miss(self, set_idx: int) -> None:
        """Called by the cache on a miss, to train the duel."""
        phase = set_idx % self.DUEL_PERIOD
        if phase == 0:
            # SRRIP leader missed: vote toward BRRIP.
            if self._psel < self._psel_max:
                self._psel += 1
        elif phase == 1:
            if self._psel > 0:
                self._psel -= 1

    def _use_brrip(self, set_idx: int) -> bool:
        leader = self._leader(set_idx)
        if leader == "srrip":
            return False
        if leader == "brrip":
            return True
        return self._psel > self._psel_half

    def _insert_rrpv(self, set_idx: int) -> int:
        phase = set_idx % self.DUEL_PERIOD
        if phase == 1 or (phase != 0 and self._psel > self._psel_half):
            brrip = self._brrip
            brrip._fill_count += 1
            if brrip._fill_count % brrip.LONG_INTERVAL_PERIOD == 0:
                return RRPV_LONG
            return RRPV_MAX
        return RRPV_LONG


POLICIES = {
    "lru": LRUPolicy,
    "brrip": BRRIPPolicy,
    "drrip": DRRIPPolicy,
}


def make_policy(name: str, num_sets: int, ways: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {name!r}; "
            f"choices: {sorted(POLICIES)}"
        ) from None
    return cls(num_sets, ways)
