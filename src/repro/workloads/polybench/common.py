"""Shared infrastructure for the Polybench kernel traces.

The paper evaluates Use Case 1 on Polybench kernels statically tiled by
PLUTO (Section 5.3).  We reproduce the kernels as *trace generators*:
each kernel walks its (tiled) loop nest and emits the memory accesses
the compiled loop nest would issue, at cache-line granularity --
consecutive same-line element accesses are folded into one
:class:`MemAccess` whose ``work`` field carries the elided arithmetic
instructions.  This preserves the cache-visible access stream exactly
while keeping traces tractable.

XMem instrumentation follows the Section 5.2 idiom: one atom describes
the *current high-reuse tile*; when the kernel moves to the next tile it
remaps the same atom (`atom_remap`), and the cache controller re-runs
its pinning decision.

Kernels generate **packed** traces: each ``Kernel.trace`` callable
appends into a :class:`repro.cpu.trace.TraceBuilder` (no per-event
objects), and ``Kernel.build_packed`` returns the finished
:class:`~repro.cpu.trace.PackedTrace`.  The hot path of trace
generation is the builder's segment table: :func:`pack_row` appends a
row segment as one ``(start, end, work_per_elem, write)`` row,
:func:`pack_col` a column walk as a run of one-element rows, and
:func:`pack_mm_block` the whole ``(kt, jt)`` block of a tiled product
(gemm, 2mm, 3mm, doitgen) as one broadcast table.  The builder splits
the table into cache lines with numpy (see :mod:`repro.cpu.trace`);
the per-line loop it replaces is the reference emitter in
:mod:`repro.testing.oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from repro.core.errors import ConfigurationError
from repro.cpu.trace import (
    ELEM,
    FLUSH_LINES,
    LINE,
    MemAccess,
    META_WRITE_BIT,
    PackedTrace,
    TraceBuilder,
    XMemOp,
)

# Elements are double-precision floats throughout Polybench (ELEM, 8
# bytes); LINE is the cache-line size of line-granular emission.
#: Elements per cache line.
EPL = LINE // ELEM

#: Arithmetic instructions modelled per elided element access (a
#: multiply-add plus loop overhead).
WORK_PER_ELEM = 3


@dataclass
class Array:
    """One dense array of the kernel, laid out row-major."""

    name: str
    base: int
    rows: int
    cols: int

    @property
    def bytes(self) -> int:
        """Footprint in bytes."""
        return self.rows * self.cols * ELEM

    def addr(self, i: int, j: int = 0) -> int:
        """Virtual address of element [i][j]."""
        return self.base + (i * self.cols + j) * ELEM


class Layout:
    """Bump allocator for kernel arrays (page-aligned, gap-padded)."""

    def __init__(self, base: int = 0x10_0000) -> None:
        self._next = base
        self.arrays: List[Array] = []

    def array(self, name: str, rows: int, cols: int = 1) -> Array:
        """Allocate a rows x cols array."""
        arr = Array(name, self._next, rows, cols)
        size = arr.bytes
        # Page-align the next array and leave a guard page so distinct
        # arrays never share an AAM chunk.
        self._next += (size + 8191) // 4096 * 4096
        self.arrays.append(arr)
        return arr


def pack_row(out: TraceBuilder, arr: Array, i: int, j0: int, width: int,
             write: bool = False,
             work_per_elem: int = WORK_PER_ELEM) -> None:
    """Append elements [i][j0 : j0+width) at line granularity: one
    segment row, expanded by the builder."""
    start = arr.base + (i * arr.cols + j0) * ELEM
    out.segment(start, start + width * ELEM, work_per_elem, write)


def pack_col(out: TraceBuilder, arr: Array, j: int, i0: int, height: int,
             write: bool = False,
             work_per_elem: int = WORK_PER_ELEM) -> None:
    """Append a column walk: one access per element, as a run of
    one-element segments."""
    starts = arr.addr(i0, j) + np.arange(height) * (arr.cols * ELEM)
    table = np.empty((height, 4), dtype=np.int64)
    table[:, 0] = starts
    table[:, 1] = starts + ELEM
    table[:, 2] = work_per_elem
    table[:, 3] = META_WRITE_BIT if write else 0
    out.segments(table)


def pack_mm_block(out: TraceBuilder, a: Array, b: Array, c: Array,
                  rows: int, kt: range, jt: range) -> None:
    """Append one ``(kt, jt)`` block of a tiled ``C += A.B``.

    For each row ``i`` in ``range(rows)``: ``A[i][kt]`` (a redundant
    per-block re-read, no work), then for each ``k`` in ``kt`` the
    reused tile row ``B[k][jt]`` and the update ``C[i][jt]``.  The
    block's ``rows x (1 + 2 len(kt))`` segments are built by one
    broadcast, in chunks of at most :data:`FLUSH_LINES` segments.
    """
    per_row = 1 + 2 * len(kt)
    a_len = len(kt) * ELEM
    bc_len = len(jt) * ELEM
    b_start = b.base + (np.arange(kt.start, kt.stop) * b.cols
                        + jt.start) * ELEM
    step = max(1, FLUSH_LINES // per_row)
    for r0 in range(0, rows, step):
        i = np.arange(r0, min(r0 + step, rows))
        table = np.zeros((len(i), per_row, 4), dtype=np.int64)
        a_start = a.base + (i * a.cols + kt.start) * ELEM
        table[:, 0, 0] = a_start
        table[:, 0, 1] = a_start + a_len
        table[:, 1::2, 0] = b_start
        table[:, 1::2, 1] = b_start + bc_len
        c_start = (c.base + (i * c.cols + jt.start) * ELEM)[:, None]
        table[:, 2::2, 0] = c_start
        table[:, 2::2, 1] = c_start + bc_len
        table[:, 2::2, 3] = META_WRITE_BIT
        table[:, 1:, 2] = WORK_PER_ELEM
        out.segments(table.reshape(-1, 4))


def row_segment(arr: Array, i: int, j0: int, width: int,
                write: bool = False,
                work_per_elem: int = WORK_PER_ELEM
                ) -> Iterator[MemAccess]:
    """Stream elements [i][j0 : j0+width) as :class:`MemAccess` objects
    (compat/debug shim over :func:`pack_row`)."""
    out = TraceBuilder()
    pack_row(out, arr, i, j0, width, write, work_per_elem)
    return out.build().events()


def col_segment(arr: Array, j: int, i0: int, height: int,
                write: bool = False,
                work_per_elem: int = WORK_PER_ELEM
                ) -> Iterator[MemAccess]:
    """Walk a column as :class:`MemAccess` objects (compat/debug shim
    over :func:`pack_col`)."""
    out = TraceBuilder()
    pack_col(out, arr, j, i0, height, write, work_per_elem)
    return out.build().events()


def tiles(n: int, tile: int) -> Iterator[range]:
    """Split [0, n) into tile-sized chunks."""
    for t0 in range(0, n, tile):
        yield range(t0, min(t0 + tile, n))


def check_params(n: int, tile: int) -> None:
    """Validate the (N, tile) pair of a kernel invocation."""
    if n <= 0:
        raise ConfigurationError(f"kernel size must be > 0: {n}")
    if tile <= 0 or tile > n:
        raise ConfigurationError(
            f"tile must be in [1, {n}], got {tile}"
        )


def map_tile_2d(atom_id: int, arr: Array, i0: int, j0: int,
                height: int, width: int) -> XMemOp:
    """Remap an atom onto a 2-D tile of ``arr``.

    Uses the AtomMap2D form of Table 2: width/row-length in bytes.
    """
    return XMemOp(
        "atom_remap_2d", atom_id,
        arr.addr(i0, j0), width * ELEM, height, arr.cols * ELEM,
    )


def map_range(atom_id: int, arr: Array, i0: int, rows: int) -> XMemOp:
    """Remap an atom onto a contiguous band of rows of ``arr``."""
    return XMemOp("atom_remap", atom_id, arr.addr(i0, 0),
                  rows * arr.cols * ELEM)


@dataclass
class Kernel:
    """Registry record of one Polybench kernel."""

    name: str
    #: setup(lib) -> dict of atom ids (None lib: returns {} -- baseline)
    setup: callable
    #: trace(n, tile, atoms, out) -> None; appends into TraceBuilder out
    trace: callable
    #: Arrays touched, as a footprint estimator: footprint(n) -> bytes.
    footprint: callable
    description: str = ""

    def build_packed(self, n: int, tile: int, lib=None) -> PackedTrace:
        """Set up atoms (when a lib is present) and pack the trace."""
        check_params(n, tile)
        atoms = self.setup(lib) if lib is not None else {}
        out = TraceBuilder()
        self.trace(n, tile, atoms, out)
        return out.build()


#: Global kernel registry, filled by the kernel modules at import time.
KERNELS: Dict[str, Kernel] = {}


def register(kernel: Kernel) -> Kernel:
    """Add a kernel to the registry (import-time side effect)."""
    if kernel.name in KERNELS:
        raise ConfigurationError(f"duplicate kernel {kernel.name!r}")
    KERNELS[kernel.name] = kernel
    return kernel
