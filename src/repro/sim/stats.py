"""Measurement and observability: the stats tree, run manifests,
speedups, geometric means.

Every simulated component keeps its counters in a small dataclass
(:class:`~repro.mem.cache.CacheStats`, :class:`~repro.dram.system.
DramStats`, ...) that the hot paths increment directly -- cheap, and
unchanged by this layer.  What this module adds is the *unified view*
over those objects:

* :class:`StatsRegistry` -- a dotted-path tree of stat groups.  A
  system's components register themselves once (``SystemHandle.
  stats_registry()`` builds the full tree); ``snapshot()`` then
  freezes every counter and derived rate into one nested, JSON-ready
  dict, and ``query("cache.l3.miss_rate")`` reads a single value.
  Snapshots from different runs flatten, diff, and merge with the
  module functions below -- the substrate for the ``repro diff``
  regression gate.
* **Run manifests** -- provenance for one sweep point: the full
  ``SimConfig``, the trace-cache key and where the recording came
  from, every ``REPRO_*`` environment knob, and wall-time / peak-RSS
  per phase (:class:`PhaseTimer`).  A manifest plus the per-system
  snapshots form the one-JSON-document-per-point output of
  ``repro sweep --stats-json``.
"""

from __future__ import annotations

import math
import os
import resource
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.stats import (
    Histogram,
    StatValue,
    iter_stat_groups,
    stat_values,
)

__all__ = [
    "Histogram",
    "PhaseTimer",
    "StatsRegistry",
    "amean",
    "collect_repro_env",
    "diff_stats",
    "flatten_stats",
    "format_table",
    "geomean",
    "merge_stats",
    "slowdown",
    "speedup",
    "stat_values",
]

#: Nested snapshot type: group path -> {counter -> value}.
Snapshot = Dict[str, Dict[str, StatValue]]


# ---------------------------------------------------------------------------
# The stats tree
# ---------------------------------------------------------------------------

class StatsRegistry:
    """A queryable, mergeable tree of named stat groups.

    Groups are registered under dotted paths (``cache.l3``,
    ``dram.banks``) and are *live*: the registry holds references, not
    copies, so one registration at build time observes the whole run.
    ``snapshot()`` freezes the tree into plain data.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, object] = {}

    def register(self, path: str, group: object) -> None:
        """Register one stat group under ``path``.

        ``group`` follows the StatGroup protocol of
        :func:`repro.core.stats.stat_values`: a counter dataclass, a
        mapping, or a zero-argument callable returning one.
        """
        if not path:
            raise ValueError("stat group path must be non-empty")
        if path in self._groups:
            raise ValueError(f"stat group {path!r} already registered")
        self._groups[path] = group

    def register_provider(self, path: str, provider: object) -> None:
        """Register every ``(sub_path, group)`` a provider exposes.

        A provider implements ``stat_groups()`` (see
        :mod:`repro.core.stats`); a bare group registers under
        ``path`` itself.
        """
        for full, group in iter_stat_groups(provider, path):
            self.register(full, group)

    def paths(self) -> List[str]:
        """Registered group paths, sorted."""
        return sorted(self._groups)

    def group(self, path: str) -> Dict[str, StatValue]:
        """The current values of one group."""
        return stat_values(self._groups[path])

    def snapshot(self) -> Snapshot:
        """Freeze every group into a nested, JSON-ready dict."""
        return {path: stat_values(self._groups[path])
                for path in sorted(self._groups)}

    def query(self, dotted: str):
        """One value by full dotted path (``cache.l3.miss_rate``).

        The group prefix is resolved longest-first, so nested group
        names (``dram`` vs ``dram.banks``) never shadow each other.
        """
        for path in sorted(self._groups, key=len, reverse=True):
            if dotted.startswith(path + "."):
                name = dotted[len(path) + 1:]
                values = stat_values(self._groups[path])
                if name in values:
                    return values[name]
        raise KeyError(f"no stat {dotted!r}; groups: {self.paths()}")


def flatten_stats(snapshot: Mapping[str, Mapping[str, StatValue]]
                  ) -> Dict[str, float]:
    """One flat ``path.counter -> number`` dict from a snapshot.

    Histogram sub-dicts flatten as ``path.counter.bucket``.
    """
    flat: Dict[str, float] = {}
    for path, values in snapshot.items():
        for name, value in values.items():
            if isinstance(value, Mapping):
                for bucket, count in value.items():
                    flat[f"{path}.{name}.{bucket}"] = count
            else:
                flat[f"{path}.{name}"] = value
    return flat


def diff_stats(a: Mapping[str, Mapping[str, StatValue]],
               b: Mapping[str, Mapping[str, StatValue]],
               tolerance: float = 0.0
               ) -> List[Tuple[str, float, float]]:
    """Counter-level deltas between two snapshots.

    Returns ``(flat_key, value_a, value_b)`` for every key whose
    values differ by more than ``tolerance`` (missing keys compare as
    0).  An empty list means the runs are statistically identical --
    the ``repro diff`` determinism gate.
    """
    fa, fb = flatten_stats(a), flatten_stats(b)
    out = []
    for key in sorted(set(fa) | set(fb)):
        va, vb = fa.get(key, 0), fb.get(key, 0)
        if va != vb and abs(vb - va) > tolerance:
            out.append((key, va, vb))
    return out


def merge_stats(snapshots: Iterable[Mapping[str, Mapping[str, StatValue]]]
                ) -> Snapshot:
    """Sum counters across snapshots (derived rates sum too -- merge
    raw counters and recompute rates yourself when aggregating).

    Histogram sub-dicts merge bucket-wise except ``mean``, which is
    recomputed from the merged count/sum.
    """
    merged: Snapshot = {}
    for snap in snapshots:
        for path, values in snap.items():
            dst = merged.setdefault(path, {})
            for name, value in values.items():
                if isinstance(value, Mapping):
                    sub = dst.setdefault(name, {})
                    for bucket, count in value.items():
                        if bucket == "mean":
                            continue
                        sub[bucket] = sub.get(bucket, 0) + count
                    if sub.get("count"):
                        sub["mean"] = sub["sum"] / sub["count"]
                    else:
                        sub["mean"] = 0.0
                else:
                    dst[name] = dst.get(name, 0) + value
    return merged


# ---------------------------------------------------------------------------
# Run-manifest helpers
# ---------------------------------------------------------------------------

def collect_repro_env() -> Dict[str, str]:
    """Every ``REPRO_*`` environment knob, for run provenance."""
    return {k: v for k, v in sorted(os.environ.items())
            if k.startswith("REPRO_")}


def peak_rss_kb() -> int:
    """The process's peak resident set size so far, in KiB.

    ``ru_maxrss`` is a high-water mark: per-phase values are the peak
    *up to the end of that phase*, not the phase's own footprint.
    """
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class PhaseTimer:
    """Wall-time + peak-RSS bookkeeping for the phases of one run."""

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, float]] = {}
        self._t0: Optional[float] = None
        self._name: Optional[str] = None

    def start(self, name: str) -> None:
        """Begin a phase (closing any phase still open)."""
        if self._name is not None:
            self.stop()
        self._name = name
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        """Close the open phase, recording wall seconds and peak RSS."""
        if self._name is None:
            return
        self.record(self._name, time.perf_counter() - self._t0)
        self._name = None
        self._t0 = None

    def record(self, name: str, wall_s: float) -> None:
        """Record a phase timed elsewhere (``wall_s`` seconds), with
        the peak RSS so far."""
        self.phases[name] = {"wall_s": wall_s,
                             "peak_rss_kb": peak_rss_kb()}


# ---------------------------------------------------------------------------
# Speedup arithmetic
# ---------------------------------------------------------------------------

def speedup(baseline_cycles: float, other_cycles: float) -> float:
    """Classic speedup: baseline time / other time.

    A non-positive ``other_cycles`` is a measurement bug (no real run
    takes zero cycles), and the old ``inf`` return poisoned downstream
    aggregates silently (``geomean`` propagated ``log(inf)``); it is
    now an explicit error at the boundary.
    """
    if other_cycles <= 0:
        raise ValueError(
            f"speedup: other_cycles must be > 0, got {other_cycles!r}"
        )
    return baseline_cycles / other_cycles


def slowdown(reference_cycles: float, other_cycles: float) -> float:
    """How much slower ``other`` is than ``reference`` (1.0 = equal)."""
    if reference_cycles <= 0:
        raise ValueError(
            f"slowdown: reference_cycles must be > 0, "
            f"got {reference_cycles!r}"
        )
    return other_cycles / reference_cycles


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the conventional speedup aggregate)."""
    vals = [v for v in values]
    if not vals:
        return 0.0
    if any(v <= 0 or not math.isfinite(v) for v in vals):
        raise ValueError("geomean requires positive finite values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def amean(values: Iterable[float]) -> float:
    """Arithmetic mean."""
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


# ---------------------------------------------------------------------------
# Table formatting
# ---------------------------------------------------------------------------

def format_table(headers: List[str], rows: List[List[object]],
                 title: Optional[str] = None) -> str:
    """Fixed-width text table for experiment output.

    Rows shorter than ``headers`` are padded with empty cells (a
    partial row is printable data); rows *longer* than ``headers``
    would silently drop cells and are rejected.
    """
    ncols = len(headers)
    str_rows = []
    for row in rows:
        cells = [_fmt(c) for c in row]
        if len(cells) > ncols:
            raise ValueError(
                f"row has {len(cells)} cells but only {ncols} headers: "
                f"{row!r}"
            )
        cells.extend("" for _ in range(ncols - len(cells)))
        str_rows.append(cells)
    widths = [max([len(h)] + [len(r[i]) for r in str_rows])
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def format_matrix(row_names: Sequence[str], col_names: Sequence[str],
                  cell: Callable[[str, str], object],
                  corner: str = "", title: Optional[str] = None) -> str:
    """A labelled row x column matrix as a fixed-width table.

    ``cell(row, col)`` supplies each entry (None renders empty -- the
    diagonal of an interference matrix, say).  Built on
    :func:`format_table`, so matrix tables format exactly like the
    experiment tables around them.
    """
    headers = [corner] + list(col_names)
    rows = []
    for r in row_names:
        cells = [cell(r, c) for c in col_names]
        rows.append([r] + ["" if v is None else v for v in cells])
    return format_table(headers, rows, title=title)
