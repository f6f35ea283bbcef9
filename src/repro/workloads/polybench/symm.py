"""Symmetric/triangular kernels: syrk, syr2k, trmm.

syrk computes C += A.A^T: blocked over (j, k) tiles, the transposed
operand tile ``A[jt][kt]`` is the reused working set.  syr2k reuses two
tiles (one of A, one of B) and therefore expresses *two* atoms --
exercising multi-atom pinning.  trmm is the triangular variant: the
amount of reuse per tile shrinks toward the matrix edge, but the tile
atom semantics are identical.

Scalar accesses are one-element :func:`pack_row` segments with no
work: the same single access, appended to the builder's segment table
instead of forcing it to be expanded.
"""

from __future__ import annotations

from typing import Dict

from repro.core.attributes import PatternType
from repro.cpu.trace import TraceBuilder
from repro.workloads.polybench.common import (
    ELEM,
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
            for i in range(kt.start, n):
                hi = min(i + 1, kt.stop)
                if hi <= kt.start:
                    continue
                pack_row(out, a, i, kt.start, hi - kt.start,
                         work_per_elem=0)
                for k in range(kt.start, hi):
                    pack_row(out, b, k, jt.start, len(jt))
                    pack_row(out, b, i, jt.start, len(jt), write=True)


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
