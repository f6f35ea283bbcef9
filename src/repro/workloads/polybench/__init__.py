"""Polybench kernels as tiled trace generators (Use Case 1).

Importing this package populates :data:`KERNELS` with the 12 kernels
the Figure 4-6 experiments sweep.
"""

from repro.workloads.polybench.common import (
    Array,
    ELEM,
    EPL,
    KERNELS,
    Kernel,
    LINE,
    Layout,
    WORK_PER_ELEM,
    col_segment,
    map_range,
    map_tile_2d,
    pack_col,
    pack_mm_block,
    pack_row,
    register,
    row_segment,
    tiles,
)

# Import for registration side effects.
from repro.workloads.polybench import (  # noqa: F401,E402
    blas2,
    matmul,
    stencil,
    symm,
)

#: The 12 kernels of the Figure 4 sweep, in presentation order.
FIGURE4_KERNELS = (
    "gemm", "2mm", "3mm", "syrk", "syr2k", "trmm",
    "mvt", "gemver", "doitgen", "jacobi2d", "seidel2d", "fdtd2d",
)

__all__ = [
    "Array",
    "ELEM",
    "EPL",
    "FIGURE4_KERNELS",
    "KERNELS",
    "Kernel",
    "LINE",
    "Layout",
    "WORK_PER_ELEM",
    "col_segment",
    "map_range",
    "map_tile_2d",
    "pack_col",
    "pack_mm_block",
    "pack_row",
    "register",
    "row_segment",
    "tiles",
]
