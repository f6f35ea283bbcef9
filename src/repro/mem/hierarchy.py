"""Multi-level cache hierarchy (Table 3: L1 / L2 / L3).

A :class:`CacheHierarchy` is the level list of one core's caches: the
:class:`~repro.mem.cache.Cache` per level, their lookup latencies, the
LLC's pin predicate, and the stats tree.  The walk over the levels --
hits, fills, the dirty-victim ripple, prefetch fills -- is
:class:`repro.sim.system.MemorySystem`'s (``access`` and
``_prefetch``), which also layers the timing (latencies, DRAM service)
on top.

Policy hooks:

* ``pin_predicate(line_addr) -> bool`` -- consulted on LLC fills; when
  True the line is installed pinned/high-priority (Use Case 1).  The
  default pins nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.core.errors import ConfigurationError
from repro.mem.cache import Cache


@dataclass(frozen=True)
class LevelConfig:
    """Geometry + latency of one cache level."""

    name: str
    size_bytes: int
    ways: int
    latency: int                  # lookup latency, CPU cycles
    policy: str = "lru"


def _never_pin(addr: int) -> bool:
    """Default pin predicate: nothing is pinned.

    A module-level function (not a per-instance lambda) so fast paths
    can recognize the default by identity and skip the call entirely.
    """
    return False


class CacheHierarchy:
    """An inclusive-by-fill (non-enforced) write-back hierarchy."""

    def __init__(self, levels: Sequence[LevelConfig],
                 line_bytes: int = 64) -> None:
        if not levels:
            raise ConfigurationError("hierarchy needs at least one level")
        self.line_bytes = line_bytes
        self.levels: List[Cache] = [
            Cache(cfg.name, cfg.size_bytes, cfg.ways,
                  line_bytes=line_bytes, policy=cfg.policy)
            for cfg in levels
        ]
        self.latencies: List[int] = [cfg.latency for cfg in levels]
        self.pin_predicate: Callable[[int], bool] = _never_pin

    @property
    def llc(self) -> Cache:
        """The last-level cache."""
        return self.levels[-1]

    def stat_groups(self):
        """StatGroup protocol: every level under ``cache.<name>``."""
        for cache in self.levels:
            for sub, group in cache.stat_groups():
                yield f"cache.{sub}", group

    def __repr__(self) -> str:
        return "CacheHierarchy(" + ", ".join(map(repr, self.levels)) + ")"
