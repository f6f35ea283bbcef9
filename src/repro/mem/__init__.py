"""Cache-hierarchy substrate: caches, replacement, prefetchers, MSHRs,
plus the Table-1 component models (compression, DRAM cache, NUCA,
approximate memory)."""

from repro.mem.approx import ApproxConfig, ApproximateMemory
from repro.mem.cache import AccessResult, Cache, CacheStats
from repro.mem.compression import (
    BaseDeltaCompressor,
    CompressedLine,
    CompressionStats,
    FloatCompressor,
    SemanticCompressionEngine,
    SparseCompressor,
    ZeroLineCompressor,
)
from repro.mem.dram_cache import DramCache, SemanticDramCachePolicy
from repro.mem.nuca import (
    NucaCandidate,
    NucaMachine,
    hashed_placement,
    mean_latency,
    plan_nuca_placement,
)
from repro.mem.hierarchy import CacheHierarchy, LevelConfig
from repro.mem.mshr import MSHRFile, MSHRStats
from repro.mem.prefetch import (
    MultiStridePrefetcher,
    PrefetchStats,
    XMemPrefetcher,
)
from repro.mem.replacement import (
    BRRIPPolicy,
    DRRIPPolicy,
    LRUPolicy,
    POLICIES,
    ReplacementPolicy,
    make_policy,
)

__all__ = [
    "AccessResult",
    "ApproxConfig",
    "ApproximateMemory",
    "BRRIPPolicy",
    "BaseDeltaCompressor",
    "CompressedLine",
    "CompressionStats",
    "DramCache",
    "FloatCompressor",
    "NucaCandidate",
    "NucaMachine",
    "SemanticCompressionEngine",
    "SemanticDramCachePolicy",
    "SparseCompressor",
    "ZeroLineCompressor",
    "hashed_placement",
    "mean_latency",
    "plan_nuca_placement",
    "Cache",
    "CacheHierarchy",
    "CacheStats",
    "DRRIPPolicy",
    "LRUPolicy",
    "LevelConfig",
    "MSHRFile",
    "MSHRStats",
    "MultiStridePrefetcher",
    "POLICIES",
    "PrefetchStats",
    "ReplacementPolicy",
    "XMemPrefetcher",
    "make_policy",
]
