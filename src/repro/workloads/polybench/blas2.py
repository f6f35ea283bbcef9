"""BLAS-2-ish kernels: mvt, gemver, doitgen.

These kernels stream a large matrix while reusing small vectors (mvt,
gemver) or a small coefficient matrix (doitgen).  The XMem atom maps
the reused vector/coefficient *tile*; the matrix itself is expressed as
a zero-reuse streaming atom, letting the cache deprioritize it -- the
"bypassing data that has no reuse" benefit of Table 1.

Scalar accesses are one-element :func:`pack_row` segments with no
work: the same single access, appended to the builder's segment table
instead of forcing it to be expanded.
"""

from __future__ import annotations

from typing import Dict

from repro.core.attributes import PatternType
from repro.cpu.trace import TraceBuilder, XMemOp
from repro.workloads.polybench.common import (
    ELEM,
    Kernel,
    Layout,
    map_range,
    map_tile_2d,
    pack_mm_block,
    pack_row,
    register,
    tiles,
)


def _setup_vec(lib) -> Dict[str, int]:
    if lib is None:
        return {}
    vec = lib.create_atom(
        "vec_tile", pattern=PatternType.REGULAR, stride_bytes=ELEM,
        reuse=255,
    )
    stream = lib.create_atom(
        "matrix_stream", pattern=PatternType.REGULAR, stride_bytes=ELEM,
        reuse=0,
    )
    lib.atom_activate(vec)
    lib.atom_activate(stream)
    return {"vec": vec, "stream": stream}


def _mvt_trace(n: int, tile: int, atoms: Dict[str, int],
               out: TraceBuilder) -> None:
    lay = Layout()
    a = lay.array("A", n, n)
    x1 = lay.array("x1", n)
    y1 = lay.array("y1", n)
    x2 = lay.array("x2", n)
    y2 = lay.array("y2", n)
    vec = atoms.get("vec")
    stream = atoms.get("stream")
    if stream is not None:
        out.op(XMemOp("atom_map", stream, a.base, a.bytes))
    # Phase 1: x1 += A . y1, blocked over columns so y1[jt] is reused.
    for jt in tiles(n, tile):
        if vec is not None:
            out.op(map_range(vec, y1, jt.start, len(jt)))
        for i in range(n):
            pack_row(out, a, i, jt.start, len(jt))
            # Vector re-reads and the accumulator update are redundant
            # per-block traffic: no arithmetic work attached.
            pack_row(out, y1, 0, jt.start, len(jt), work_per_elem=0)
            pack_row(out, x1, 0, i, 1, write=True, work_per_elem=0)
    # Phase 2: x2 += A^T . y2 -- a column walk of A.
    for jt in tiles(n, tile):
        if vec is not None:
            out.op(map_range(vec, y2, jt.start, len(jt)))
        for i in range(n):
            # A[i][jt] feeds x2[jt]: row segment again, but the
            # accumulators x2[jt] are the reused band.
            pack_row(out, a, i, jt.start, len(jt))
            pack_row(out, y2, 0, jt.start, len(jt), work_per_elem=0)
            pack_row(out, x2, 0, jt.start, len(jt), write=True,
                     work_per_elem=0)


def _gemver_trace(n: int, tile: int, atoms: Dict[str, int],
                  out: TraceBuilder) -> None:
    lay = Layout()
    a = lay.array("A", n, n)
    u1 = lay.array("u1", n)
    v1 = lay.array("v1", n)
    u2 = lay.array("u2", n)
    v2 = lay.array("v2", n)
    x = lay.array("x", n)
    y = lay.array("y", n)
    w = lay.array("w", n)
    z = lay.array("z", n)
    vec = atoms.get("vec")
    stream = atoms.get("stream")
    if stream is not None:
        out.op(XMemOp("atom_map", stream, a.base, a.bytes))
    # Phase 1: A += u1.v1^T + u2.v2^T, blocked over columns.
    for jt in tiles(n, tile):
        if vec is not None:
            out.op(map_range(vec, v1, jt.start, len(jt)))
        for i in range(n):
            pack_row(out, u1, 0, i, 1, work_per_elem=0)
            pack_row(out, u2, 0, i, 1, work_per_elem=0)
            pack_row(out, v1, 0, jt.start, len(jt), work_per_elem=0)
            pack_row(out, v2, 0, jt.start, len(jt), work_per_elem=0)
            pack_row(out, a, i, jt.start, len(jt), write=True)
    # Phase 2: x = beta . A^T . y + z, blocked over columns of A.
    for jt in tiles(n, tile):
        if vec is not None:
            out.op(map_range(vec, x, jt.start, len(jt)))
        for i in range(n):
            pack_row(out, y, 0, i, 1, work_per_elem=0)
            pack_row(out, a, i, jt.start, len(jt))
            pack_row(out, x, 0, jt.start, len(jt), write=True,
                     work_per_elem=0)
    # Phase 3: w = alpha . A . x, row-streaming with x reused whole.
    for jt in tiles(n, tile):
        if vec is not None:
            out.op(map_range(vec, x, jt.start, len(jt)))
        for i in range(n):
            pack_row(out, a, i, jt.start, len(jt))
            pack_row(out, x, 0, jt.start, len(jt), work_per_elem=0)
            pack_row(out, w, 0, i, 1, write=True, work_per_elem=0)


def _doitgen_trace(n: int, tile: int, atoms: Dict[str, int],
                   out: TraceBuilder) -> None:
    """sum[r][q][p] = sum_s A[r][q][s] * C4[s][p].

    The coefficient matrix C4 (n x n) is reused by every (r, q) pair;
    the blocked loop slides an atom over C4's (s, p) tiles.
    """
    lay = Layout()
    a = lay.array("A", n * n, n)   # flattened (r, q) x s
    c4 = lay.array("C4", n, n)
    s_out = lay.array("sum", n * n, n)
    vec = atoms.get("vec")
    stream = atoms.get("stream")
    if stream is not None:
        out.op(XMemOp("atom_map", stream, a.base, a.bytes))
    for st in tiles(n, tile):
        for pt in tiles(n, tile):
            if vec is not None:
                out.op(map_tile_2d(vec, c4, st.start, pt.start,
                                   len(st), len(pt)))
            # Per (r, q) row: A[rq][st], then C4[s][pt] and
            # sum[rq][pt] per s -- a tiled product over n*n rows.
            pack_mm_block(out, a, c4, s_out, n * n, st, pt)


MVT = register(Kernel(
    name="mvt",
    setup=_setup_vec,
    trace=_mvt_trace,
    footprint=lambda n: (n * n + 4 * n) * ELEM,
    description="x1 = A.y1; x2 = A^T.y2; atoms on the vector tiles",
))

GEMVER = register(Kernel(
    name="gemver",
    setup=_setup_vec,
    trace=_gemver_trace,
    footprint=lambda n: (n * n + 8 * n) * ELEM,
    description="rank-2 update + two mat-vecs; vector tiles reused",
))

DOITGEN = register(Kernel(
    name="doitgen",
    setup=_setup_vec,
    trace=_doitgen_trace,
    footprint=lambda n: (2 * n * n * n + n * n) * ELEM,
    description="tensor contraction; atom slides over the C4 tile",
))
