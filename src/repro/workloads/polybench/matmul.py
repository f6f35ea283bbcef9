"""Matrix-multiplication kernels: gemm, 2mm, 3mm.

All three follow the PLUTO tiling of C = A.B: the loop nest is blocked
over (k, j) tiles so the B tile ``B[kt][jt]`` is reused by *every* row
``i`` -- that tile is the high-reuse working set the XMem atom
describes (reuse 255, regular stride).  2mm and 3mm chain two / three
such products, remapping the same atom across phases (the paper's
"data can be easily remapped to a different atom ... as the program
moves into a different phase").
"""

from __future__ import annotations

from typing import Dict

from repro.core.attributes import PatternType
from repro.cpu.trace import TraceBuilder
from repro.workloads.polybench.common import (
    Array,
    ELEM,
    Kernel,
    Layout,
    map_tile_2d,
    pack_mm_block,
    register,
    tiles,
)

#: Reuse value expressed for the blocked tile: maximal -- it is touched
#: by every iteration of the outer loop.
TILE_REUSE = 255


def _setup_one_atom(lib) -> Dict[str, int]:
    """One sliding tile atom, created at its static call site."""
    if lib is None:
        return {}
    atom = lib.create_atom(
        "mm_tile", pattern=PatternType.REGULAR, stride_bytes=ELEM,
        reuse=TILE_REUSE,
    )
    lib.atom_activate(atom)
    return {"tile": atom}


def _gemm_pass(a: Array, b: Array, c: Array, n: int, tile: int,
               atoms: Dict[str, int], out: TraceBuilder) -> None:
    """One tiled C += A.B product."""
    atom = atoms.get("tile")
    for kt in tiles(n, tile):
        for jt in tiles(n, tile):
            if atom is not None:
                out.op(map_tile_2d(atom, b, kt.start, jt.start,
                                   len(kt), len(jt)))
            # Per row i: A[i][kt], re-read once per (jt) block -- a
            # redundant load, so it carries no arithmetic work (the
            # FMAs are attributed to the B/C segments, keeping total
            # work identical across tile sizes, as the paper ensures)
            # -- then B[k][jt] (the reused tile) and C[i][jt] per k.
            pack_mm_block(out, a, b, c, n, kt, jt)


def _gemm_trace(n: int, tile: int, atoms: Dict[str, int],
                out: TraceBuilder) -> None:
    lay = Layout()
    a = lay.array("A", n, n)
    b = lay.array("B", n, n)
    c = lay.array("C", n, n)
    _gemm_pass(a, b, c, n, tile, atoms, out)


def _mm2_trace(n: int, tile: int, atoms: Dict[str, int],
               out: TraceBuilder) -> None:
    lay = Layout()
    a = lay.array("A", n, n)
    b = lay.array("B", n, n)
    tmp = lay.array("tmp", n, n)
    c = lay.array("C", n, n)
    d = lay.array("D", n, n)
    _gemm_pass(a, b, tmp, n, tile, atoms, out)   # tmp = A.B
    _gemm_pass(tmp, c, d, n, tile, atoms, out)   # D = tmp.C


def _mm3_trace(n: int, tile: int, atoms: Dict[str, int],
               out: TraceBuilder) -> None:
    lay = Layout()
    a = lay.array("A", n, n)
    b = lay.array("B", n, n)
    e = lay.array("E", n, n)
    c = lay.array("C", n, n)
    d = lay.array("D", n, n)
    f = lay.array("F", n, n)
    g = lay.array("G", n, n)
    _gemm_pass(a, b, e, n, tile, atoms, out)     # E = A.B
    _gemm_pass(c, d, f, n, tile, atoms, out)     # F = C.D
    _gemm_pass(e, f, g, n, tile, atoms, out)     # G = E.F

GEMM = register(Kernel(
    name="gemm",
    setup=_setup_one_atom,
    trace=_gemm_trace,
    footprint=lambda n: 3 * n * n * ELEM,
    description="C = A.B, PLUTO-tiled over (k, j); atom on the B tile",
))

MM2 = register(Kernel(
    name="2mm",
    setup=_setup_one_atom,
    trace=_mm2_trace,
    footprint=lambda n: 5 * n * n * ELEM,
    description="D = (A.B).C as two tiled products sharing one atom",
))

MM3 = register(Kernel(
    name="3mm",
    setup=_setup_one_atom,
    trace=_mm3_trace,
    footprint=lambda n: 7 * n * n * ELEM,
    description="G = (A.B).(C.D) as three tiled products",
))
