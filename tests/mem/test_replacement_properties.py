"""Property tests for the replacement policies over random strings.

Satellite of the differential-testing subsystem: the policies are
driven directly (no cache around them) with seeded random access
strings -- 1000 seeds each -- against executable oracles:

* LRU against Python dict ordering (``dict`` preserves insertion
  order; re-inserting moves a key to the back, exactly LRU's MRU
  promotion), and
* the RRIP family against its structural invariants: RRPVs stay in
  [0, RRPV_MAX], a victim always has RRPV_MAX at selection time, hits
  promote to 0, and DRRIP's PSEL stays within its saturating bounds.
"""

import random

import pytest

from repro.mem.replacement import (
    RRPV_MAX,
    DRRIPPolicy,
    LRUPolicy,
    make_policy,
)

WAYS = 4
SEEDS = range(1000)


class DictLRUOracle:
    """LRU via dict ordering: first key = least recently used."""

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self._d = {}

    def touch(self, way: int) -> None:
        self._d.pop(way, None)
        self._d[way] = True

    def evict(self, candidates) -> int:
        allowed = set(candidates)
        for way in self._d:
            if way in allowed:
                del self._d[way]
                return way
        raise AssertionError("no candidate resident in the oracle")


def drive_lru(seed: int, ways: int = WAYS, steps: int = 40):
    """One random access string through LRUPolicy and the dict oracle."""
    rng = random.Random(seed)
    policy = LRUPolicy(1, ways)
    oracle = DictLRUOracle(ways)
    filled = set()
    for step in range(steps):
        if len(filled) < ways:
            way = rng.choice([w for w in range(ways) if w not in filled])
            policy.on_fill(0, way)
            oracle.touch(way)
            filled.add(way)
        elif rng.random() < 0.7:
            way = rng.choice(sorted(filled))
            policy.on_hit(0, way)
            oracle.touch(way)
        else:
            candidates = sorted(
                rng.sample(sorted(filled), rng.randint(1, len(filled))))
            got = policy.victim(0, candidates)
            want = oracle.evict(candidates)
            assert got == want, (
                f"seed {seed} step {step}: LRU victim {got}, "
                f"dict-order oracle says {want} (candidates {candidates})"
            )
            policy.on_invalidate(0, got)
            filled.discard(got)


def test_lru_matches_dict_ordering_oracle():
    for seed in SEEDS:
        drive_lru(seed)


@pytest.mark.parametrize("ways", [1, 2, 8])
def test_lru_other_geometries(ways):
    for seed in range(100):
        drive_lru(seed, ways=ways)


def drive_rrip(policy, seed: int, num_sets: int, ways: int,
               steps: int = 60) -> None:
    """Random fills/hits/evictions; structural invariants at each step."""
    rng = random.Random(seed)
    is_drrip = isinstance(policy, DRRIPPolicy)
    for step in range(steps):
        set_idx = rng.randrange(num_sets)
        roll = rng.random()
        if roll < 0.4:
            policy.on_fill(set_idx, rng.randrange(ways),
                           high_priority=rng.random() < 0.2)
        elif roll < 0.7:
            policy.on_hit(set_idx, rng.randrange(ways))
        elif roll < 0.85:
            candidates = sorted(
                rng.sample(range(ways), rng.randint(1, ways)))
            victim = policy.victim(set_idx, candidates)
            assert victim in candidates
            assert policy._rrpv[set_idx][victim] == RRPV_MAX, (
                f"seed {seed} step {step}: victim way {victim} has "
                f"RRPV {policy._rrpv[set_idx][victim]}, not {RRPV_MAX}"
            )
            policy.on_invalidate(set_idx, victim)
        elif is_drrip:
            policy.record_miss(set_idx)
        for row in policy._rrpv:
            assert all(0 <= v <= RRPV_MAX for v in row), (
                f"seed {seed} step {step}: RRPV out of bounds in {row}"
            )
        if is_drrip:
            assert 0 <= policy._psel <= policy._psel_max, (
                f"seed {seed} step {step}: PSEL {policy._psel} outside "
                f"[0, {policy._psel_max}]"
            )


def test_drrip_rrpv_and_psel_bounds():
    # 64 sets spans both leader flavours (DUEL_PERIOD=32) plus
    # followers, so the duel machinery is exercised, not just SRRIP.
    for seed in SEEDS:
        drive_rrip(DRRIPPolicy(64, WAYS), seed, 64, WAYS, steps=30)


def test_srrip_rrpv_bounds():
    # A one-set DRRIP is SRRIP: its set 0 is an SRRIP leader.
    for seed in range(200):
        drive_rrip(DRRIPPolicy(1, WAYS), seed, 1, WAYS)


def test_hit_promotes_to_zero():
    policy = DRRIPPolicy(1, WAYS)
    policy.on_fill(0, 2)
    policy.on_hit(0, 2)
    assert policy._rrpv[0][2] == 0


def test_high_priority_fill_inserts_at_zero():
    for name in ("brrip", "drrip"):
        policy = make_policy(name, 4, WAYS)
        policy.on_fill(1, 3, high_priority=True)
        assert policy._rrpv[1][3] == 0, name
