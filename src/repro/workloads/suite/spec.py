"""Synthetic multi-data-structure workload models (Use Case 2).

The paper evaluates DRAM placement on 27 memory-intensive workloads
from SPEC CPU2006, Rodinia, and Parboil.  Those binaries and inputs are
not reproducible here, so each workload is modelled by what Use Case 2
actually consumes: its *data structures* and their access semantics --
how large each structure is, whether it is streamed (high row-buffer
locality) or accessed irregularly, and how hot it is relative to the
others.  The access interleaving is generated deterministically from
the workload name.

Each structure becomes one atom; the access generator interleaves
structures proportionally to their intensities, producing exactly the
kind of bank interference that randomized page placement suffers from
and atom-aware placement removes.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.attributes import PatternType, RWChar
from repro.core.errors import ConfigurationError, TranslationError
from repro.cpu.trace import (
    META_COUNT_SHIFT,
    META_WRITE_BIT,
    TraceBuilder,
    TraceEvent,
)
from repro.xos.phys import PAGE_BYTES

#: Cache-line granularity of generated accesses.
LINE = 64

#: Non-memory instructions modelled between consecutive accesses.
#: Chosen so the suite sits in the paper's memory-intensive regime
#: (heavy MPKI) without being purely bus-saturated: both latency and
#: bandwidth effects remain visible.
WORK_PER_ACCESS = 24

#: :meth:`SuiteWorkload.pack_into`'s per-pattern address rule.
_KIND = {PatternType.REGULAR: 0, PatternType.IRREGULAR: 1,
         PatternType.NON_DET: 2}


@dataclass(frozen=True)
class StructureSpec:
    """One data structure of a workload."""

    name: str
    size_bytes: int
    pattern: PatternType
    #: Stride for REGULAR structures (bytes); ignored otherwise.
    stride_bytes: int = LINE
    #: Relative hotness, 1..255 (the atom's AccessIntensity).
    intensity: int = 100
    rw: RWChar = RWChar.READ_WRITE
    #: Fraction of this structure's accesses that are writes.
    write_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.size_bytes < LINE:
            raise ConfigurationError(
                f"{self.name}: structure smaller than a line"
            )
        if not 1 <= self.intensity <= 255:
            raise ConfigurationError(
                f"{self.name}: intensity must be 1..255"
            )

    @property
    def atom_stride(self) -> Optional[int]:
        """The stride expressed in the atom (None for non-regular)."""
        return self.stride_bytes if self.pattern is PatternType.REGULAR \
            else None

    @property
    def expressed_rw(self) -> RWChar:
        """The RWChar the program expresses for this structure.

        Structures written on at least half their accesses express the
        paper-anticipated ``WRITE_HEAVY`` degree, which the placement
        algorithm uses to keep their writeback traffic spread out.
        """
        if self.rw is RWChar.READ_WRITE and self.write_fraction >= 0.5:
            return RWChar.WRITE_HEAVY
        return self.rw


@dataclass(frozen=True)
class SuiteWorkload:
    """One of the 27 Use-Case-2 workload models."""

    name: str
    structures: Tuple[StructureSpec, ...]
    accesses: int = 120_000
    description: str = ""

    def __post_init__(self) -> None:
        if not self.structures:
            raise ConfigurationError(f"{self.name}: needs structures")
        names = [s.name for s in self.structures]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"{self.name}: duplicate structures")

    @property
    def footprint(self) -> int:
        """Total bytes across all structures."""
        return sum(s.size_bytes for s in self.structures)

    def instantiate(self, proc) -> Dict[str, int]:
        """Create atoms, allocate memory, map and activate.

        ``proc`` is a :class:`repro.xos.loader.Process`.  Follows the
        paper's load-time order: atoms are created (compile time), the
        OS plans placement from the GAT (load time), and only then is
        memory allocated through the augmented ``malloc``.

        Returns structure name -> base VA.
        """
        lib = proc.xmemlib
        atom_ids = {}
        for s in self.structures:
            atom_ids[s.name] = lib.create_atom(
                f"{self.name}.{s.name}",
                pattern=s.pattern,
                stride_bytes=s.atom_stride,
                rw=s.expressed_rw,
                access_intensity=s.intensity,
            )
        # Load-time placement, when the OS supports it: the placement
        # algorithm reads the freshly filled GAT before any allocation.
        from repro.xos.allocator import BankTargetAllocator
        if (isinstance(proc.allocator, BankTargetAllocator)
                and proc.os is not None):
            proc.os.apply_placement(proc)
        bases = {}
        for s in self.structures:
            va = proc.malloc(s.size_bytes, atom_id=atom_ids[s.name])
            lib.atom_map(atom_ids[s.name], va, s.size_bytes)
            lib.atom_activate(atom_ids[s.name])
            bases[s.name] = va
        return bases

    def trace(self, bases: Dict[str, int],
              seed: Optional[int] = None) -> Iterator[TraceEvent]:
        """Deterministic interleaved access stream, as event objects.

        ``bases`` maps structure names to base virtual addresses (from
        :meth:`instantiate`, or any synthetic layout in tests).  The
        stream is :meth:`pack_into`'s, unpacked.
        """
        out = TraceBuilder()
        self.pack_into(out, bases, seed=seed)
        yield from out.build().events()

    def pack_into(self, out: TraceBuilder, bases: Dict[str, int],
                  frames: Optional[Dict[int, int]] = None,
                  page_bytes: int = PAGE_BYTES,
                  accesses: Optional[int] = None,
                  seed: Optional[int] = None) -> None:
        """Append the access stream to ``out``'s ``vaddr``/``meta``
        arrays, one entry per access and no event object.

        The stream is a function of the workload name (or ``seed``): a
        weighted 512-slot schedule of the structures, one shuffled line
        order per IRREGULAR structure, then per access the structure's
        next address and, unless it is read-only, a write draw.
        ``frames`` (virtual page -> physical frame of ``page_bytes``
        pages: a page table's map) translates the stream
        (:func:`translate_stream`), raising :class:`TranslationError`
        for an unmapped page.  ``accesses`` keeps only the stream's
        first that many.
        """
        rng = random.Random(seed if seed is not None
                            else _name_seed(self.name))
        structures = self.structures
        # Repeatable irregular sequences: one shuffled line order per
        # IRREGULAR structure.
        orders: List[Optional[List[int]]] = []
        for s in structures:
            if s.pattern is PatternType.IRREGULAR:
                lines = list(range(s.size_bytes // LINE))
                rng.shuffle(lines)
                orders.append(lines)
            else:
                orders.append(None)
        # A fixed-length weighted interleaving of the structures.
        schedule = rng.choices(range(len(structures)),
                               weights=[s.intensity for s in structures],
                               k=512)
        base = [0] * len(structures)
        for k in set(schedule):
            base[k] = bases[structures[k].name]
            if base[k] < 0:
                raise ConfigurationError(
                    f"{self.name}.{structures[k].name}: negative base "
                    f"address {base[k]:#x}")
        kind = [_KIND[s.pattern] for s in structures]
        size = [s.size_bytes for s in structures]
        stride = [s.stride_bytes for s in structures]
        lines_in = [s.size_bytes // LINE for s in structures]
        writes = [s.rw is not RWChar.READ_ONLY for s in structures]
        write_fraction = [s.write_fraction for s in structures]
        cursor = [0] * len(structures)
        read_meta = WORK_PER_ACCESS << META_COUNT_SHIFT
        write_meta = read_meta | META_WRITE_BIT
        # Reading a column expands the builder's pending segments, so
        # this stream lands after them.
        vaddr = out.vaddr
        start = len(vaddr)
        append_addr = vaddr.append
        append_meta = out.meta.append
        draw = rng.random
        randrange = rng.randrange
        n_sched = len(schedule)
        count = self.accesses if accesses is None \
            else min(accesses, self.accesses)
        for i in range(count):
            k = schedule[i % n_sched]
            pattern = kind[k]
            if pattern == 0:        # REGULAR
                c = (cursor[k] + stride[k]) % size[k]
                cursor[k] = c
                addr = base[k] + c
            elif pattern == 1:      # IRREGULAR
                order = orders[k]
                c = cursor[k]
                addr = base[k] + order[c % len(order)] * LINE
                cursor[k] = c + 1
            else:                   # NON_DET
                addr = base[k] + randrange(lines_in[k]) * LINE
            append_addr(addr)
            append_meta(write_meta if writes[k]
                        and draw() < write_fraction[k] else read_meta)
        if frames is not None:
            vaddr[start:] = translate_stream(vaddr[start:], frames.get,
                                             page_bytes)


#: Accesses :func:`translate_stream` translates at once: bounds its
#: numpy temporaries (a whole stream's would raise a run's peak memory).
TRANSLATE_CHUNK = 8192


def translate_stream(vaddr: array, frame_of: Callable[[int], Optional[int]],
                     page_bytes: int = PAGE_BYTES) -> array:
    """``vaddr`` translated page by page: each address's frame
    ``frame_of(page)`` (a page table's :meth:`frame_of`, or a map's
    ``get``) times ``page_bytes``, plus its page offset.  Looks up each
    distinct page of a :data:`TRANSLATE_CHUNK` once; raises
    :class:`TranslationError` naming the first address whose page
    ``frame_of`` leaves unmapped.
    """
    out = array("q")
    column = np.frombuffer(vaddr, dtype=np.int64)
    for begin in range(0, len(column), TRANSLATE_CHUNK):
        va = column[begin:begin + TRANSLATE_CHUNK]
        pages, where = np.unique(va // page_bytes, return_inverse=True)
        frames = [frame_of(page) for page in pages.tolist()]
        if None in frames:
            unmapped = pages[[f is None for f in frames]]
            raise TranslationError(int(va[np.isin(va // page_bytes,
                                                  unmapped).argmax()]))
        physical = np.array(frames, dtype=np.int64)[where] * page_bytes
        physical += va % page_bytes
        out.frombytes(physical.tobytes())
    return out


def _name_seed(name: str) -> int:
    """Stable per-workload seed (independent of PYTHONHASHSEED)."""
    return sum((i + 1) * ord(ch) for i, ch in enumerate(name))
