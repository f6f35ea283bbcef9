"""Tests for replacement policies (repro.mem.replacement)."""

import pytest

from repro.core.errors import ConfigurationError
from repro.mem.replacement import (
    BRRIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    RRPV_LONG,
    RRPV_MAX,
    make_policy,
)


class TestFactory:
    def test_known_policies(self):
        for name in ("lru", "brrip", "drrip"):
            assert make_policy(name, 4, 4).name == name

    def test_unknown_policy(self):
        # "random" and a standalone "srrip" are gone: no machine the
        # engines accept used them.
        for name in ("clairvoyant", "random", "srrip"):
            with pytest.raises(ConfigurationError):
                make_policy(name, 4, 4)

    def test_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            LRUPolicy(0, 4)


class TestLRU:
    def test_evicts_least_recent(self):
        p = LRUPolicy(1, 4)
        for way in range(4):
            p.on_fill(0, way)
        p.on_hit(0, 0)  # way 0 is now most recent; way 1 is LRU
        assert p.victim(0, [0, 1, 2, 3]) == 1

    def test_respects_candidates(self):
        p = LRUPolicy(1, 4)
        for way in range(4):
            p.on_fill(0, way)
        # Way 0 is LRU overall but excluded (e.g., pinned).
        assert p.victim(0, [2, 3]) == 2

    def test_per_set_independence(self):
        p = LRUPolicy(2, 2)
        p.on_fill(0, 0)
        p.on_fill(1, 1)
        p.on_fill(0, 1)
        assert p.victim(0, [0, 1]) == 0
        assert p.victim(1, [0, 1]) == 0  # untouched way in set 1


def _srrip(ways):
    """SRRIP as DRRIP runs it: a one-set DRRIP, whose set 0 is an SRRIP
    leader (it inserts at the long interval whatever PSEL says)."""
    return DRRIPPolicy(1, ways)


class TestSRRIP:
    def test_insert_long_interval(self):
        p = _srrip(4)
        p.on_fill(0, 0)
        assert p._rrpv[0][0] == RRPV_LONG

    def test_high_priority_insert_at_zero(self):
        p = _srrip(4)
        p.on_fill(0, 0, high_priority=True)
        assert p._rrpv[0][0] == 0

    def test_hit_promotes(self):
        p = _srrip(4)
        p.on_fill(0, 0)
        p.on_hit(0, 0)
        assert p._rrpv[0][0] == 0

    def test_victim_prefers_rrpv_max(self):
        p = _srrip(4)
        for way in range(4):
            p.on_fill(0, way)
        p._rrpv[0][2] = RRPV_MAX
        assert p.victim(0, [0, 1, 2, 3]) == 2

    def test_aging_when_no_max(self):
        p = _srrip(2)
        p.on_fill(0, 0, high_priority=True)   # rrpv 0
        p.on_fill(0, 1)                       # rrpv 2
        # No way at 3: aging happens; way 1 reaches 3 first.
        assert p.victim(0, [0, 1]) == 1

    def test_recent_high_priority_survives(self):
        p = _srrip(4)
        p.on_fill(0, 0, high_priority=True)
        for way in (1, 2, 3):
            p.on_fill(0, way)
        assert p.victim(0, [0, 1, 2, 3]) != 0


class TestBRRIP:
    def test_mostly_distant_inserts(self):
        p = BRRIPPolicy(1, 4)
        distant = 0
        for i in range(64):
            p.on_fill(0, i % 4)
            if p._rrpv[0][i % 4] == RRPV_MAX:
                distant += 1
        # 1-in-32 fills at long interval -> ~62 of 64 distant.
        assert distant >= 56


class TestDRRIP:
    def test_leader_sets_fixed(self):
        p = DRRIPPolicy(64, 4)
        assert p._leader(0) == "srrip"
        assert p._leader(1) == "brrip"
        assert p._leader(2) is None
        assert p._leader(32) == "srrip"

    def test_psel_moves_on_leader_misses(self):
        p = DRRIPPolicy(64, 4)
        start = p._psel
        p.record_miss(0)     # SRRIP leader miss -> toward BRRIP
        assert p._psel == start + 1
        p.record_miss(1)     # BRRIP leader miss -> back
        p.record_miss(1)
        assert p._psel == start - 1

    def test_followers_adopt_winner(self):
        p = DRRIPPolicy(64, 4)
        # Hammer the SRRIP leaders with misses: BRRIP should win.
        for _ in range(600):
            p.record_miss(0)
        assert p._use_brrip(2)
        # Now hammer BRRIP leaders: SRRIP wins again.
        for _ in range(1200):
            p.record_miss(1)
        assert not p._use_brrip(2)

    def test_psel_saturates(self):
        p = DRRIPPolicy(64, 4)
        for _ in range(5000):
            p.record_miss(0)
        assert p._psel == p._psel_max
        for _ in range(10000):
            p.record_miss(1)
        assert p._psel == 0
