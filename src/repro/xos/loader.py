"""Processes and the operating system.

:class:`OperatingSystem` owns the physical frame pool and creates
:class:`Process` objects, each wiring together

* a page table (the MMU the AMU consults for ``ATOM_MAP``),
* an atom-aware heap (:mod:`repro.xos.vmalloc`),
* a per-process XMem view (GAT + AMU + PATs), and
* the frame-allocation policy (baseline randomized, or the Use-Case-2
  bank-targeting allocator fed by the placement algorithm).

``load_program`` models the Section 3.5.2 load path: read the binary's
atom segment, fill the GAT, run the Attribute Translator, and -- when a
placement-capable allocator is active -- run the Section 6.2 placement
algorithm over the freshly loaded attributes.
"""

from __future__ import annotations

import weakref
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.core.segment import AtomSegment, load_segment
from repro.core.xmemlib import XMemLib, XMemProcess
from repro.dram.mapping import DramGeometry, make_mapping
from repro.xos.allocator import (
    ALLOCATORS,
    BankTargetAllocator,
    FrameAllocator,
)
from repro.xos.page_table import PageTable
from repro.xos.phys import FramePool, PAGE_BYTES
from repro.xos.placement import PlacementDecision, plan_from_gat
from repro.xos.vmalloc import HeapAllocator


class Process:
    """One running program: address space + heap + XMem state."""

    def __init__(self, pid: int, allocator: FrameAllocator,
                 page_bytes: int = PAGE_BYTES,
                 max_atoms: int = 256) -> None:
        self.pid = pid
        self.page_table = PageTable(page_bytes)
        self.allocator = allocator
        self.xmem = XMemProcess(
            max_atoms=max_atoms,
            translate=self.page_table.translate_range,
        )
        self.xmemlib = XMemLib(self.xmem)
        page_table = self.page_table

        def back_page(vpage: int, atom_id: Optional[int]) -> None:
            page_table.map_page(vpage, allocator.allocate(atom_id))

        # A closure, not a bound method: the heap would hold the process
        # in a reference cycle, freed only by the cyclic collector.
        self.heap = HeapAllocator(back_page, page_bytes)
        self.placement: Optional[PlacementDecision] = None
        #: Back-reference to the owning OS (set by ``create_process``).
        self.os: Optional["OperatingSystem"] = None

    # -- The augmented allocation API (Section 4.1.2) ------------------

    def malloc(self, size: int, atom_id: Optional[int] = None) -> int:
        """``A = malloc(size, atomID)``: atom-aware allocation."""
        return self.heap.malloc(size, atom_id)

    def malloc_mapped(self, size: int, atom_id: int) -> int:
        """The compiler's combined idiom: malloc + AtomMap + Activate."""
        va = self.heap.malloc(size, atom_id)
        self.xmemlib.atom_map(atom_id, va, size)
        self.xmemlib.atom_activate(atom_id)
        return va

    def translate(self, vaddr: int) -> int:
        """MMU translation for the execution engine."""
        return self.page_table.translate(vaddr)


class OperatingSystem:
    """The machine-wide OS: frame pool + process management."""

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        mapping: str = "scheme2",
        allocator: str = "randomized",
        page_bytes: int = PAGE_BYTES,
        seed: int = 0,
    ) -> None:
        self.geometry = geometry or DramGeometry()
        self.mapping = make_mapping(mapping, self.geometry)
        self.pool = FramePool(self.geometry, self.mapping,
                              page_bytes=page_bytes, seed=seed)
        if allocator not in ALLOCATORS:
            raise ConfigurationError(
                f"unknown allocator {allocator!r}; "
                f"choices: {sorted(ALLOCATORS)}"
            )
        self.allocator_name = allocator
        self.page_bytes = page_bytes
        self._next_pid = 1
        #: Held weakly: a process holds its OS (``Process.os``), so a
        #: strong map back would make every OS a reference cycle.
        self.processes: "weakref.WeakValueDictionary[int, Process]" = (
            weakref.WeakValueDictionary())

    def _make_allocator(self) -> FrameAllocator:
        cls = ALLOCATORS[self.allocator_name]
        return cls(self.pool)

    def create_process(self, max_atoms: int = 256) -> Process:
        """Spawn a process with a fresh address space."""
        proc = Process(self._next_pid, self._make_allocator(),
                       page_bytes=self.page_bytes, max_atoms=max_atoms)
        proc.os = self
        self.processes[proc.pid] = proc
        self._next_pid += 1
        return proc

    def load_program(self, proc: Process,
                     segment: AtomSegment) -> int:
        """The load-time path: atom segment -> GAT -> PATs -> placement.

        Returns the number of atoms loaded.
        """
        loaded = load_segment(segment, proc.xmem.gat)
        proc.xmem.retranslate()
        if loaded and isinstance(proc.allocator, BankTargetAllocator):
            self.apply_placement(proc)
        return loaded

    def apply_placement(self, proc: Process) -> PlacementDecision:
        """Run the Section 6.2 algorithm and arm the allocator with it.

        Requires the process to use a :class:`BankTargetAllocator`.
        """
        if not isinstance(proc.allocator, BankTargetAllocator):
            raise ConfigurationError(
                "placement needs the bank_target allocator; "
                f"process uses {proc.allocator.name!r}"
            )
        footprints = {atom.atom_id: atom.working_set_bytes
                      for atom in proc.xmem.atoms.values()}
        decision = plan_from_gat(proc.xmem.gat, footprints,
                                 self.pool.all_banks,
                                 groups=self.pool.bank_groups())
        proc.placement = decision
        atom_ids = [atom_id for atom_id, _ in proc.xmem.gat]
        proc.allocator.assignments.update(
            decision.as_assignments(atom_ids)
        )
        return decision
