"""``REPRO_CHECK``: runtime invariant checking for the hot-path models.

The optimized models maintain derived state (per-set occupancy counts,
heap-backed MSHR files, greedy scheduler queues) that the simple
semantics they implement never needed.  With ``REPRO_CHECK=1`` in the
environment, each model installs per-operation checkers on itself at
construction time that re-derive that state the slow way and compare:

* :class:`repro.mem.cache.Cache` -- after every access/fill, the
  touched set's maintained valid/pinned counts must match the actual
  tag/pin columns, pinned lines must be valid and within the pin quota
  (<= 75% of the ways by default), and no valid tag may be duplicated;
* :class:`repro.mem.mshr.MSHRFile` -- a reservation may never leave
  more than ``entries`` misses outstanding, nor start in the past;
* single-core runs -- end-of-run statistics must be mutually
  consistent (stalls within cycles, retirement no faster than the
  issue width allows) and the window must drain;
* :class:`repro.dram.scheduler.FRFCFSScheduler` -- no request may be
  bypassed by younger row-hit requests more than ``starvation_cap``
  times.

The engines inline the cache and MSHR operations, so they call the
same checkers themselves: the split interpreter's front-end
(:mod:`repro.cpu.vector_engine`, both engines) after every L2 fill
(:func:`checked_fill`) and at every chunk end on the L1 and L2 sets it
probed and on the L1's fill conservation
(:func:`check_fill_conservation`), the L1's line-to-way index
(:func:`check_line_index`) and its folded MRU runs
(:func:`check_lru_fold`); the shared LLC builder
(``vector_engine._llc_ops``, both engines) after every LLC fill and
victim ripple; the single-core back-end at every chunk end on the LLC
sets it probed and on its MSHR heap, and at the end of every run; the
co-run interleaver (:mod:`repro.sim.corun`) on the LLC set of every
yield point and after every MSHR reservation.

The flag is read once per component construction and once per engine
run, so a disabled run pays nothing per event.  Checkers raise
:class:`CheckError` (an ``AssertionError`` subclass, so plain
``pytest`` machinery and ``python -O`` semantics treat it as an
assertion).

This module must stay dependency-free within the package: the
production models import it at module load, and any import back into
``repro.mem``/``repro.cpu`` would be circular.
"""

from __future__ import annotations

import os

#: The environment flag. Any value other than empty/"0" enables checks.
ENV_VAR = "REPRO_CHECK"


def enabled() -> bool:
    """Whether invariant checking is switched on (read per call)."""
    return os.environ.get(ENV_VAR, "0") not in ("", "0")


class CheckError(AssertionError):
    """An internal invariant of an optimized model was violated."""


# ---------------------------------------------------------------------------
# Cache invariants
# ---------------------------------------------------------------------------

def check_cache_set(cache, set_idx: int) -> None:
    """Re-derive one set's occupancy state and compare to the columns."""
    tags = cache._tags[set_idx]
    pinned = cache._pinned[set_idx]
    dirty = cache._dirty[set_idx]
    valid = [w for w, t in enumerate(tags) if t >= 0]
    if len(valid) != cache._valid_counts[set_idx]:
        raise CheckError(
            f"{cache.name} set {set_idx}: maintained valid count "
            f"{cache._valid_counts[set_idx]} != actual {len(valid)}"
        )
    valid_tags = [tags[w] for w in valid]
    if len(set(valid_tags)) != len(valid_tags):
        raise CheckError(
            f"{cache.name} set {set_idx}: duplicate valid tags {tags}"
        )
    pin_ways = [w for w, p in enumerate(pinned) if p]
    if len(pin_ways) != cache._pinned_counts[set_idx]:
        raise CheckError(
            f"{cache.name} set {set_idx}: maintained pinned count "
            f"{cache._pinned_counts[set_idx]} != actual {len(pin_ways)}"
        )
    for w in pin_ways:
        if tags[w] < 0:
            raise CheckError(
                f"{cache.name} set {set_idx}: way {w} pinned but invalid"
            )
    if len(pin_ways) > cache._max_pinned_ways:
        raise CheckError(
            f"{cache.name} set {set_idx}: {len(pin_ways)} pinned ways "
            f"exceed the quota of {cache._max_pinned_ways} "
            f"(pin_quota={cache.pin_quota})"
        )
    for w, d in enumerate(dirty):
        if d and tags[w] < 0:
            raise CheckError(
                f"{cache.name} set {set_idx}: way {w} dirty but invalid"
            )


def checked_fill(fill, cache, by_line: bool = False):
    """``fill`` -- one of an engine's inlined fill paths -- followed by
    a re-derivation of the set it touched.  Its first argument is a
    line address when ``by_line``, else the set index."""
    def checked(key, *args):
        result = fill(key, *args)
        check_cache_set(cache, cache._index(key) if by_line else key)
        return result
    return checked


def valid_lines(cache) -> int:
    """The valid lines in ``cache``, counted from its tag columns."""
    return sum(1 for tags in cache._tags for t in tags if t >= 0)


def check_fill_conservation(cache, valid0: int, misses: int,
                            evictions: int) -> None:
    """Every miss since a count of ``valid0`` valid lines filled one way
    -- an invalid one unless it counted an eviction -- and nothing
    invalidated a line.  Catches a wrong valid count that a later fill
    of the same set mended before its set was re-derived."""
    actual = valid_lines(cache)
    if actual != valid0 + misses - evictions:
        raise CheckError(
            f"{cache.name}: actual valid count {actual} breaks fill "
            f"conservation ({valid0} + {misses} misses - {evictions} "
            f"evictions)"
        )


def check_lru_fold(cache, clock0: int, lines) -> None:
    """One front-end chunk over the LRU ``cache``, whose clock read
    ``clock0`` before it: the clock advanced by exactly the chunk's
    memory accesses (``lines``, -1 on Work rows), and in every set they
    touched the way holding the set's last-accessed line holds the
    set's largest stamp, which is that access's clock.  Catches a
    folded MRU run stamped or clocked other than access by access."""
    policy = cache.policy
    last = {}
    clock = clock0
    for line in lines:
        if line >= 0:
            clock += 1
            last[cache._index(line)] = (line, clock)
    if policy._clock != clock:
        raise CheckError(
            f"{cache.name}: LRU clock {policy._clock} after a chunk of "
            f"{clock - clock0} accesses from {clock0}")
    for set_idx, (line, clock) in last.items():
        tags = cache._tags[set_idx]
        stamps = policy._stamp[set_idx]
        tag = cache._tag(line)
        if tag not in tags:
            raise CheckError(
                f"{cache.name} set {set_idx}: last-accessed line "
                f"{line:#x} is not resident")
        way = tags.index(tag)
        if stamps[way] != clock or any(
                s >= clock for w, s in enumerate(stamps) if w != way):
            raise CheckError(
                f"{cache.name} set {set_idx}: last-accessed line "
                f"{line:#x} in way {way} has stamp {stamps[way]}, not "
                f"its clock {clock} as the set's largest: {stamps}")


def check_line_index(cache, where: dict) -> None:
    """``where`` -- an engine's map of ``cache``'s resident lines to
    their ways -- equals the map re-derived from the tag columns."""
    actual = {(tag * cache.num_sets + set_idx) * cache.line_bytes: way
              for set_idx, tags in enumerate(cache._tags)
              for way, tag in enumerate(tags) if tag >= 0}
    if where != actual:
        wrong = sorted(set(where.items()) ^ set(actual.items()))[:4]
        raise CheckError(
            f"{cache.name}: the line-to-way index disagrees with the "
            f"tags at {[(f'{line:#x}', way) for line, way in wrong]}")


def check_cache_all(cache) -> None:
    """Every set, plus the cache-wide maintained aggregates."""
    for set_idx in range(cache.num_sets):
        check_cache_set(cache, set_idx)
    resident = valid_lines(cache)
    if resident != cache.resident_lines:
        raise CheckError(
            f"{cache.name}: resident_lines {cache.resident_lines} "
            f"!= actual {resident}"
        )
    pinned = sum(
        1 for row in cache._pinned for p in row if p
    )
    if pinned != cache.pinned_lines:
        raise CheckError(
            f"{cache.name}: pinned_lines {cache.pinned_lines} "
            f"!= actual {pinned}"
        )
    for set_idx, tag in cache._prefetched_tags:
        if tag not in cache._tags[set_idx]:
            raise CheckError(
                f"{cache.name}: prefetched tag {tag:#x} of set "
                f"{set_idx} is not resident"
            )


# ---------------------------------------------------------------------------
# MSHR invariants
# ---------------------------------------------------------------------------

def check_mshr(mshr, now: float, start: float) -> None:
    """Post-``reserve`` state: no more than ``entries`` misses
    outstanding, no time travel."""
    if len(mshr._completions) > mshr.entries:
        raise CheckError(
            f"MSHR over capacity: {len(mshr._completions)} outstanding "
            f"misses in a {mshr.entries}-entry file"
        )
    if start < now:
        raise CheckError(
            f"MSHR reservation started at {start} before now={now}"
        )


# ---------------------------------------------------------------------------
# Engine invariants
# ---------------------------------------------------------------------------

def check_engine_run(engine, stats) -> None:
    """End-of-run consistency of one :class:`EngineStats`."""
    if stats.cycles < 0 or stats.stall_cycles < 0:
        raise CheckError(f"negative time in {stats}")
    if stats.stall_cycles > stats.cycles + 1e-9:
        raise CheckError(
            f"stall cycles {stats.stall_cycles} exceed total cycles "
            f"{stats.cycles}"
        )
    if stats.mem_accesses + stats.xmem_instructions > stats.instructions:
        raise CheckError(
            f"memory + xmem instructions exceed total instructions: "
            f"{stats}"
        )
    if stats.misses_to_memory > stats.mem_accesses:
        raise CheckError(
            f"more memory misses than memory accesses: {stats}"
        )
    # Retirement cannot beat the issue width (small float slack: the
    # per-event 1/width additions accumulate rounding).
    floor = stats.instructions / engine.issue_width
    if stats.instructions and stats.cycles + 1e-6 * max(1.0, floor) < floor:
        raise CheckError(
            f"{stats.instructions} instructions retired in "
            f"{stats.cycles} cycles at width {engine.issue_width}"
        )
    if engine.mshr.outstanding:
        raise CheckError(
            f"window not drained at end of run: "
            f"{engine.mshr.outstanding} misses outstanding"
        )


# ---------------------------------------------------------------------------
# Scheduler invariants
# ---------------------------------------------------------------------------

def check_scheduler_bypass(count: int, cap: int, request) -> None:
    """A pending request's bypass count must stay under the cap."""
    if count > cap:
        raise CheckError(
            f"FR-FCFS starvation: request {request} bypassed "
            f"{count} times (cap {cap})"
        )
