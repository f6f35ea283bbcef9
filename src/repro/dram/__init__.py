"""DRAM substrate: banks, row buffers, FR-FCFS, address mapping."""

from repro.dram.mapping import (
    ALL_SCHEMES,
    AddressMapping,
    BitLayout,
    DramAddress,
    DramGeometry,
    FieldOrderMapping,
    PermutationMapping,
    make_mapping,
)
from repro.dram.scheduler import Completion, FRFCFSScheduler, Request
from repro.dram.system import DramResult, DramStats, DramSystem, RowOutcome
from repro.dram.timing import DramTiming, ddr3_1066

__all__ = [
    "ALL_SCHEMES",
    "AddressMapping",
    "BitLayout",
    "Completion",
    "DramAddress",
    "DramGeometry",
    "DramResult",
    "DramStats",
    "DramSystem",
    "DramTiming",
    "FRFCFSScheduler",
    "FieldOrderMapping",
    "PermutationMapping",
    "Request",
    "RowOutcome",
    "ddr3_1066",
    "make_mapping",
]
