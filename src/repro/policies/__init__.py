"""The paper's two evaluated use cases as pluggable policies."""

from repro.policies.cache_mgmt import (
    CacheController,
    ControllerStats,
    PIN_FRACTION,
)
from repro.policies.dram_placement import (
    bank_occupancy,
    placement_report,
)

__all__ = [
    "CacheController",
    "ControllerStats",
    "PIN_FRACTION",
    "bank_occupancy",
    "placement_report",
]
