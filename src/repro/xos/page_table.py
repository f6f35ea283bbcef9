"""Per-process page table: the virtual-to-physical mapping.

Besides ``translate`` (one address), the table offers
``translate_range``, which splits a virtual range into the physical
ranges backing it -- the MMU service the AMU uses when executing
``ATOM_MAP`` (Section 4.1.3).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.core.errors import TranslationError
from repro.core.ranges import AddressRange


class PageTable:
    """A flat vpage -> pframe map (the model of a radix page table)."""

    def __init__(self, page_bytes: int = 4096) -> None:
        self.page_bytes = page_bytes
        self._map: Dict[int, int] = {}

    def map_page(self, vpage: int, pframe: int) -> None:
        """Install a translation (overwrites an existing one)."""
        self._map[vpage] = pframe

    def unmap_page(self, vpage: int) -> Optional[int]:
        """Remove a translation; returns the frame it held, if any."""
        return self._map.pop(vpage, None)

    def frame_of(self, vpage: int) -> Optional[int]:
        """The frame backing ``vpage``, or None."""
        return self._map.get(vpage)

    def is_mapped(self, vaddr: int) -> bool:
        """Whether ``vaddr`` has a translation."""
        return (vaddr // self.page_bytes) in self._map

    def translate(self, vaddr: int) -> int:
        """VA -> PA; raises :class:`TranslationError` when unmapped."""
        frame = self._map.get(vaddr // self.page_bytes)
        if frame is None:
            raise TranslationError(vaddr)
        return frame * self.page_bytes + (vaddr % self.page_bytes)

    def translate_range(self, rng: AddressRange
                        ) -> Tuple[AddressRange, ...]:
        """Split a VA range into the PA ranges backing it.

        Unmapped pages inside the range raise; the AMU treats that as a
        skip (hints never fault the program).
        """
        return tuple(self._iter_pa_ranges(rng))

    def _iter_pa_ranges(self, rng: AddressRange) -> Iterator[AddressRange]:
        if rng.size == 0:
            return
        page = self.page_bytes
        va = rng.start
        run_start: Optional[int] = None
        run_end = 0
        while va < rng.end:
            page_end = min((va // page + 1) * page, rng.end)
            pa = self.translate(va)
            size = page_end - va
            if run_start is not None and pa == run_end:
                run_end += size
            else:
                if run_start is not None:
                    yield AddressRange(run_start, run_end)
                run_start = pa
                run_end = pa + size
            va = page_end
        if run_start is not None:
            yield AddressRange(run_start, run_end)

    def items(self) -> Iterator[Tuple[int, int]]:
        """(vpage, pframe) pairs, sorted by vpage."""
        return iter(sorted(self._map.items()))
