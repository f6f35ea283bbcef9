"""Physical memory: the frame pool, and the DRAM banks a frame touches.

The OS's lever for Use Case 2 is the virtual-to-physical mapping: by
choosing *which frame* backs a page, it chooses which DRAM bank(s) the
page's data lives in.  The pool keeps the free frames; a placement-
capable allocator asks :meth:`FramePool.frame_banks` which banks a
candidate frame touches under the memory controller's address mapping,
and a randomized allocation never consults the mapping.

A frame's banks are read off the mapping's compiled
:class:`~repro.dram.mapping.BitLayout` by shift and mask -- the same
fields the DRAM system's access path uses -- when first asked for.
A page spans several banks when a channel- or bank-interleaved scheme
puts such fields below the page offset; it is then sampled at the
interleave granularity, and otherwise once.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.errors import AllocationError, ConfigurationError
from repro.dram.mapping import AddressMapping, DramGeometry

#: Conventional page size.
PAGE_BYTES = 4096

#: Interleave granularity: mapping schemes rotate fields no finer than
#: the col_low group (8 lines = 512 B), so sampling a frame at this
#: step finds every bank it touches.
SCAN_STEP_BYTES = 512

BankKey = Tuple[int, int, int]


class FramePool:
    """All physical frames of the machine and which of them are free."""

    def __init__(self, geometry: DramGeometry, mapping: AddressMapping,
                 page_bytes: int = PAGE_BYTES, seed: int = 0) -> None:
        if page_bytes <= 0 or page_bytes % geometry.line_bytes:
            raise ConfigurationError(
                f"page size {page_bytes} must be a positive multiple of "
                f"the line size"
            )
        self.geometry = geometry
        self.mapping = mapping
        self.page_bytes = page_bytes
        self.num_frames = geometry.capacity_bytes // page_bytes
        self._rng = random.Random(seed)
        self._free: Set[int] = set(range(self.num_frames))
        self._banks_of: Dict[int, FrozenSet[BankKey]] = {}
        self._seq_next = 0
        # A power-of-two page is sampled once when all its lines share
        # the base's bank: no channel, rank or bank bit, nor a row bit
        # the permutation XORs into the bank, lies below its offset.
        f = mapping.fields
        lines = page_bytes >> f.line_shift
        one_bank = not lines & (lines - 1) and all(
            not mask or 1 << shift >= lines for shift, mask in (
                f.channel, f.rank, f.bank, (f.row[0], f.row[1] & f.bank_xor)))
        self._step = page_bytes if one_bank \
            else min(SCAN_STEP_BYTES, page_bytes)

    # -- Bank discovery ----------------------------------------------------

    def frame_banks(self, frame: int) -> FrozenSet[BankKey]:
        """The banks frame ``frame`` touches under the controller map:
        each sample's ``(channel, rank, bank)`` by shift and mask over
        the mapping's bit layout (a permutation scheme's row XOR
        included), as ``decompose(addr).bank_key``."""
        banks = self._banks_of.get(frame)
        if banks is None:
            line_shift, (ch_s, ch_m), (rk_s, rk_m), (bk_s, bk_m), \
                (rw_s, rw_m), _, _, bank_xor = self.mapping.fields
            base = frame * self.page_bytes
            banks = self._banks_of[frame] = frozenset([
                ((line >> ch_s) & ch_m, (line >> rk_s) & rk_m,
                 ((line >> bk_s) & bk_m) ^ ((line >> rw_s) & rw_m & bank_xor))
                for line in [(base + off) >> line_shift
                             for off in range(0, self.page_bytes,
                                              self._step)]])
        return banks

    # -- Queries ------------------------------------------------------------

    @property
    def free_frames(self) -> int:
        """Number of currently unallocated frames."""
        return len(self._free)

    @property
    def all_banks(self) -> List[BankKey]:
        """Every bank key of the machine, in a stable order."""
        g = self.geometry
        return [(c, r, b)
                for c in range(g.channels)
                for r in range(g.ranks_per_channel)
                for b in range(g.banks_per_rank)]

    def bank_groups(self, sample: int = 1024) -> List[FrozenSet[BankKey]]:
        """Partition banks into minimal page-placement units.

        Under channel- or bank-interleaved mappings a single frame can
        span several banks; placement can then only steer data at the
        granularity of the *group* of banks that co-occur within
        frames.  Computed by union-find over a sample of frames spread
        across the whole capacity.
        """
        parent: Dict[BankKey, BankKey] = {b: b for b in self.all_banks}

        def find(b: BankKey) -> BankKey:
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            return b

        def union(a: BankKey, b: BankKey) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        step = max(1, self.num_frames // sample)
        for frame in range(0, self.num_frames, step):
            banks = list(self.frame_banks(frame))
            for other in banks[1:]:
                union(banks[0], other)
        groups: Dict[BankKey, Set[BankKey]] = {}
        for b in self.all_banks:
            groups.setdefault(find(b), set()).add(b)
        return sorted((frozenset(g) for g in groups.values()),
                      key=lambda g: sorted(g))

    # -- Allocation -------------------------------------------------------------

    def alloc_any(self, randomize: bool = False) -> int:
        """Allocate an arbitrary frame (lowest-numbered, or random)."""
        if not self._free:
            raise AllocationError("out of physical frames")
        if randomize:
            # Probe random frame numbers instead of materializing the
            # (large) free set; falls back to an arbitrary free frame.
            frame = None
            for _ in range(64):
                probe = self._rng.randrange(self.num_frames)
                if probe in self._free:
                    frame = probe
                    break
            if frame is None:
                frame = next(iter(self._free))
        else:
            frame = self._lowest_free()
        self._free.discard(frame)
        return frame

    def _lowest_free(self) -> int:
        """The lowest free frame, tracked by a rising watermark."""
        while (self._seq_next < self.num_frames
               and self._seq_next not in self._free):
            self._seq_next += 1
        if self._seq_next < self.num_frames:
            return self._seq_next
        return min(self._free)  # only frees below the watermark remain

    #: Random probes attempted before falling back to a linear scan.
    PROBE_ATTEMPTS = 512

    def alloc_in_banks(self, banks: Sequence[BankKey],
                       randomize: bool = False) -> Optional[int]:
        """Allocate a frame confined to ``banks``; None if impossible.

        Prefers frames *entirely* inside the bank set (so the placement
        decision is not diluted); falls back to frames merely touching
        it.  The randomized path probes uniformly over the whole
        capacity, so allocations stay spread across the machine even
        when the controller mapping places whole channels in distinct
        halves of the physical address space.
        """
        bankset = set(banks)
        if randomize:
            for _ in range(self.PROBE_ATTEMPTS):
                frame = self._rng.randrange(self.num_frames)
                if frame in self._free and \
                        self.frame_banks(frame) <= bankset:
                    self._free.discard(frame)
                    return frame
        # Deterministic (or post-probe) path: full scan for a pure
        # frame, then for any frame touching the set.
        pure = impure = None
        for frame in range(self.num_frames):
            if frame not in self._free:
                continue
            fb = self.frame_banks(frame)
            if fb <= bankset:
                pure = frame
                break
            if impure is None and fb & bankset:
                impure = frame
        frame = pure if pure is not None else impure
        if frame is not None:
            self._free.discard(frame)
        return frame

    def free(self, frame: int) -> None:
        """Return a frame to the pool."""
        if not 0 <= frame < self.num_frames:
            raise AllocationError(f"bogus frame {frame}")
        if frame in self._free:
            raise AllocationError(f"double free of frame {frame}")
        self._free.add(frame)
