"""Atom Address Map (AAM) -- Section 4.2, component (1).

The AAM answers "which atom (if any) does this *physical* address map
to?".  Exact per-byte tracking would be prohibitively large, so the AAM
stores one atom ID per fixed-size *address-range unit* (chunk).  The
system default is 8 cache lines = 512 B, giving 0.2% storage overhead
with 8-bit atom IDs; a 1 KB unit with 6-bit IDs gives 0.07%.

Because XMem is hint-based, this approximation can cause optimization
inaccuracy at chunk boundaries but never affects correctness.

The table is indexed by physical page: entry ``p`` holds the atom IDs
of every chunk inside physical page ``p``.  We model it as a dict from
page index to that row, a tuple of ``chunks_per_page`` atom IDs (None
for an unmapped chunk), sparse -- only pages with a mapped chunk are
stored -- while the *storage overhead model* accounts for the dense
table the hardware would provision.  A row is the ALB's fill unit, so
:meth:`AtomAddressMap.lookup_page` returns the stored row itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.core.atom import resolve_overlap
from repro.core.errors import ConfigurationError
from repro.core.ranges import AddressRange

#: Paper default: 8 cache lines of 64 B.
DEFAULT_CHUNK_BYTES = 512
#: Paper default: 8-bit atom IDs.
DEFAULT_ATOM_ID_BITS = 8


@dataclass(frozen=True)
class AAMConfig:
    """Geometry of the Atom Address Map."""

    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    atom_id_bits: int = DEFAULT_ATOM_ID_BITS
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0 or self.chunk_bytes & (self.chunk_bytes - 1):
            raise ConfigurationError(
                f"chunk_bytes must be a positive power of two, "
                f"got {self.chunk_bytes}"
            )
        if not 1 <= self.atom_id_bits <= 16:
            raise ConfigurationError(
                f"atom_id_bits must be in [1, 16], got {self.atom_id_bits}"
            )
        if self.page_bytes % self.chunk_bytes:
            raise ConfigurationError(
                f"page size {self.page_bytes} not a multiple of chunk size "
                f"{self.chunk_bytes}"
            )

    @property
    def max_atom_id(self) -> int:
        """Largest representable atom ID."""
        return (1 << self.atom_id_bits) - 1

    @property
    def chunks_per_page(self) -> int:
        """Number of address-range units per physical page."""
        return self.page_bytes // self.chunk_bytes

    def storage_overhead_fraction(self) -> float:
        """Fraction of physical memory the dense AAM consumes.

        One atom ID (``atom_id_bits`` bits) per ``chunk_bytes`` bytes.
        With the defaults this is 8 bits / 512 B = 0.195% -- the paper's
        "0.2% storage overhead"; 6 bits / 1 KB gives 0.073% ("0.07%").
        """
        return self.atom_id_bits / 8 / self.chunk_bytes

    def storage_bytes(self, phys_memory_bytes: int) -> int:
        """Dense AAM size in bytes for a given physical memory size."""
        chunks = phys_memory_bytes // self.chunk_bytes
        return (chunks * self.atom_id_bits + 7) // 8


class AtomAddressMap:
    """The physical-address -> atom-ID map.

    ``map_range``/``unmap_range`` are invoked by the AMU when the CPU
    executes ``ATOM_MAP``/``ATOM_UNMAP``; ``lookup`` serves
    ``ATOM_LOOKUP`` requests from hardware components (through the AMU's
    atom lookaside buffer).
    """

    def __init__(self, config: Optional[AAMConfig] = None) -> None:
        self.config = config or AAMConfig()
        #: physical page index -> its row (sparse model of the dense
        #: table; no row is all None).
        self._pages: Dict[int, Tuple[Optional[int], ...]] = {}
        #: The row of a page with no mapped chunk.
        self._empty: Tuple[Optional[int], ...] = \
            (None,) * self.config.chunks_per_page
        #: Chunks with a live mapping, over every row.
        self._mapped = 0

    def _rows(self, pa_range: AddressRange
              ) -> Iterator[Tuple[int, int, int]]:
        """``(page, lo, hi)`` for every page ``pa_range`` touches: the
        page's chunks ``[lo, hi)`` are the ones it covers."""
        if pa_range.size == 0:
            return
        chunk, cpp = self.config.chunk_bytes, self.config.chunks_per_page
        first = pa_range.start // chunk
        end = (pa_range.end - 1) // chunk + 1
        for page in range(first // cpp, (end - 1) // cpp + 1):
            base = page * cpp
            yield page, max(first - base, 0), min(end - base, cpp)

    # -- Updates (from the AMU) ----------------------------------------

    def map_range(self, pa_range: AddressRange, atom_id: int) -> int:
        """Associate every chunk touched by ``pa_range`` with ``atom_id``.

        Returns the number of chunk entries written.  A chunk already
        owned by another atom is overwritten: the many-to-one invariant
        says the latest mapping wins (:func:`resolve_overlap`).
        """
        if not 0 <= atom_id <= self.config.max_atom_id:
            raise ConfigurationError(
                f"atom id {atom_id} exceeds {self.config.atom_id_bits}-bit "
                f"AAM encoding"
            )
        pages = self._pages
        written = 0
        for page, lo, hi in self._rows(pa_range):
            row = pages.get(page, self._empty)
            old = row[lo:hi]
            self._mapped += old.count(None)
            pages[page] = row[:lo] + tuple(
                [resolve_overlap(a, atom_id) for a in old]) + row[hi:]
            written += hi - lo
        return written

    def unmap_range(self, pa_range: AddressRange,
                    atom_id: Optional[int] = None) -> int:
        """Clear chunks touched by ``pa_range``.

        If ``atom_id`` is given, only chunks currently owned by that atom
        are cleared (so unmapping atom A does not destroy a later mapping
        of the same bytes to atom B).  Returns chunks cleared.
        """
        pages = self._pages
        cleared = 0
        for page, lo, hi in self._rows(pa_range):
            row = pages.get(page)
            if row is None:
                continue
            old = row[lo:hi]
            kept = tuple([None if atom_id is None or a == atom_id else a
                          for a in old])
            count = kept.count(None) - old.count(None)
            if not count:
                continue
            row = row[:lo] + kept + row[hi:]
            if row == self._empty:
                del pages[page]
            else:
                pages[page] = row
            cleared += count
        self._mapped -= cleared
        return cleared

    def clear(self) -> None:
        """Drop every mapping (e.g., on process teardown)."""
        self._pages.clear()
        self._mapped = 0

    # -- Lookups (from components, via the AMU/ALB) --------------------

    def lookup(self, paddr: int) -> Optional[int]:
        """Atom ID owning the chunk containing ``paddr``, or None."""
        page, at = divmod(paddr // self.config.chunk_bytes,
                          self.config.chunks_per_page)
        row = self._pages.get(page)
        return None if row is None else row[at]

    def lookup_page(self, page_index: int) -> Tuple[Optional[int], ...]:
        """All chunk entries of one physical page (the ALB fill unit).

        The ALB caches whole pages: its tag is the physical page index
        and its data is this tuple, the stored row.
        """
        return self._pages.get(page_index, self._empty)

    def mapped_chunks(self, atom_id: int) -> Iterable[int]:
        """Chunk indices currently owned by ``atom_id`` (for tests)."""
        cpp = self.config.chunks_per_page
        return (page * cpp + i for page, row in self._pages.items()
                for i, a in enumerate(row) if a == atom_id)

    @property
    def mapped_chunk_count(self) -> int:
        """Number of chunks with a live atom mapping."""
        return self._mapped

    def footprint_bytes(self, atom_id: int) -> int:
        """Bytes of physical memory currently mapped to ``atom_id``.

        Measured at chunk granularity, since that is all the hardware
        table knows.
        """
        count = sum(row.count(atom_id) for row in self._pages.values())
        return count * self.config.chunk_bytes
