"""Symmetric/triangular kernels: syrk, syr2k, trmm.

syrk computes C += A.A^T: blocked over (j, k) tiles, the transposed
operand tile ``A[jt][kt]`` is the reused working set.  syr2k reuses two
tiles (one of A, one of B) and therefore expresses *two* atoms --
exercising multi-atom pinning.  trmm is the triangular variant: the
amount of reuse per tile shrinks toward the matrix edge, but the tile
atom semantics are identical.

Scalar accesses are one-element :func:`pack_row` segments with no
work: the same single access, appended to the builder's segment table
instead of forcing it to be expanded.  trmm's triangular block is one
ragged broadcast table (:func:`_pack_trmm_block`), like
:func:`~repro.workloads.polybench.common.pack_mm_block`'s.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.attributes import PatternType
from repro.cpu.trace import FLUSH_LINES, META_WRITE_BIT, TraceBuilder
from repro.workloads.polybench.common import (
    ELEM,
    WORK_PER_ELEM,
    Array,
    Kernel,
    Layout,
    map_tile_2d,
    pack_row,
    register,
    tiles,
)


def _setup_syrk(lib) -> Dict[str, int]:
    if lib is None:
        return {}
    atom = lib.create_atom(
        "syrk_tile", pattern=PatternType.REGULAR, stride_bytes=ELEM,
        reuse=255,
    )
    lib.atom_activate(atom)
    return {"tile": atom}


def _setup_two_atoms(lib) -> Dict[str, int]:
    if lib is None:
        return {}
    ta = lib.create_atom(
        "syr2k_tileA", pattern=PatternType.REGULAR, stride_bytes=ELEM,
        reuse=255,
    )
    tb = lib.create_atom(
        "syr2k_tileB", pattern=PatternType.REGULAR, stride_bytes=ELEM,
        reuse=254,
    )
    lib.atom_activate(ta)
    lib.atom_activate(tb)
    return {"tileA": ta, "tileB": tb}


def _syrk_trace(n: int, tile: int, atoms: Dict[str, int],
                out: TraceBuilder) -> None:
    lay = Layout()
    a = lay.array("A", n, n)
    c = lay.array("C", n, n)
    atom = atoms.get("tile")
    for jt in tiles(n, tile):
        for kt in tiles(n, tile):
            # The transposed operand A[jt][kt] is reused by every i.
            if atom is not None:
                out.op(map_tile_2d(atom, a, jt.start, kt.start,
                                   len(jt), len(kt)))
            for i in range(n):
                # Redundant per-block re-read: no arithmetic work.
                pack_row(out, a, i, kt.start, len(kt), work_per_elem=0)
                for j in jt:
                    pack_row(out, a, j, kt.start, len(kt))
                    pack_row(out, c, i, j, 1, write=True,
                             work_per_elem=0)


def _syr2k_trace(n: int, tile: int, atoms: Dict[str, int],
                 out: TraceBuilder) -> None:
    lay = Layout()
    a = lay.array("A", n, n)
    b = lay.array("B", n, n)
    c = lay.array("C", n, n)
    ta = atoms.get("tileA")
    tb = atoms.get("tileB")
    for jt in tiles(n, tile):
        for kt in tiles(n, tile):
            if ta is not None:
                out.op(map_tile_2d(ta, a, jt.start, kt.start,
                                   len(jt), len(kt)))
            if tb is not None:
                out.op(map_tile_2d(tb, b, jt.start, kt.start,
                                   len(jt), len(kt)))
            for i in range(n):
                pack_row(out, a, i, kt.start, len(kt), work_per_elem=0)
                pack_row(out, b, i, kt.start, len(kt), work_per_elem=0)
                for j in jt:
                    # C[i][j] += A[i][k]B[j][k] + B[i][k]A[j][k]
                    pack_row(out, a, j, kt.start, len(kt))
                    pack_row(out, b, j, kt.start, len(kt))
                    pack_row(out, c, i, j, 1, write=True,
                             work_per_elem=0)


def _pack_trmm_block(out: TraceBuilder, a: Array, b: Array, n: int,
                     kt: range, jt: range) -> None:
    """Append one ``(kt, jt)`` block of the triangular ``B = A.B``.

    For each row ``i`` in ``[kt.start, n)`` only the ``r_i = min(i -
    kt.start + 1, len(kt))`` columns ``k < i + 1`` of ``kt``
    contribute: ``A[i][kt.start : kt.start + r_i]`` (a redundant
    re-read, no work), then for each such ``k`` the tile row
    ``B[k][jt]`` and the update ``B[i][jt]``.  The block's ragged
    ``1 + 2 r_i`` segments per row are built by one broadcast, in
    chunks of whole rows of at most about :data:`FLUSH_LINES`
    segments.
    """
    bc_len = len(jt) * ELEM
    step = max(1, FLUSH_LINES // (1 + 2 * len(kt)))
    for r0 in range(kt.start, n, step):
        i = np.arange(r0, min(r0 + step, n))
        r = np.minimum(i - kt.start + 1, len(kt))
        per_row = 1 + 2 * r
        first = np.cumsum(per_row) - per_row
        table = np.zeros((int(per_row.sum()), 4), dtype=np.int64)
        a_start = a.base + (i * a.cols + kt.start) * ELEM
        table[first, 0] = a_start
        table[first, 1] = a_start + r * ELEM
        # Pair p of its row is (k, B[i][jt]) with k = kt.start + p.
        row = np.repeat(np.arange(len(i)), r)
        pair = np.arange(len(row)) - np.repeat(np.cumsum(r) - r, r)
        at = first[row] + 1 + 2 * pair
        b_k = b.base + ((kt.start + pair) * b.cols + jt.start) * ELEM
        table[at, 0] = b_k
        table[at, 1] = b_k + bc_len
        b_i = b.base + (i[row] * b.cols + jt.start) * ELEM
        table[at + 1, 0] = b_i
        table[at + 1, 1] = b_i + bc_len
        table[at + 1, 3] = META_WRITE_BIT
        table[at, 2] = table[at + 1, 2] = WORK_PER_ELEM
        out.segments(table)


def _trmm_trace(n: int, tile: int, atoms: Dict[str, int],
                out: TraceBuilder) -> None:
    lay = Layout()
    a = lay.array("A", n, n)  # lower triangular
    b = lay.array("B", n, n)
    atom = atoms.get("tile")
    for kt in tiles(n, tile):
        for jt in tiles(n, tile):
            if atom is not None:
                out.op(map_tile_2d(atom, b, kt.start, jt.start,
                                   len(kt), len(jt)))
            # Triangular: only rows i >= k contribute.
            _pack_trmm_block(out, a, b, n, kt, jt)


SYRK = register(Kernel(
    name="syrk",
    setup=_setup_syrk,
    trace=_syrk_trace,
    footprint=lambda n: 2 * n * n * ELEM,
    description="C += A.A^T; atom on the transposed-operand tile",
))

SYR2K = register(Kernel(
    name="syr2k",
    setup=_setup_two_atoms,
    trace=_syr2k_trace,
    footprint=lambda n: 3 * n * n * ELEM,
    description="C += A.B^T + B.A^T; two tile atoms pinned together",
))

TRMM = register(Kernel(
    name="trmm",
    setup=_setup_syrk,
    trace=_trmm_trace,
    footprint=lambda n: 2 * n * n * ELEM,
    description="triangular B = A.B; tile reuse shrinks at the edge",
))
