"""Stat-group primitives shared by every simulated component.

The observability layer (:mod:`repro.sim.stats`) assembles one
queryable tree out of the per-component counter objects.  The pieces
the *components themselves* need live here, at the bottom of the
import graph, so ``repro.mem`` / ``repro.dram`` / ``repro.cpu`` can
use them without importing the simulation package:

* :class:`Histogram` -- a power-of-two-bucketed latency histogram.
  It takes one sample at a time (:meth:`Histogram.record`) or a whole
  logged run of them (:meth:`Histogram.record_all`); the DRAM system
  logs its latencies on the access path and folds them in on read.
* :func:`stat_values` -- the **StatGroup protocol**: any dataclass of
  numeric counters (plus numeric ``@property`` derived rates) *is* a
  stat group; this function extracts its name -> value mapping.  A
  plain mapping or a zero-argument callable returning one also
  qualifies (used for lazily aggregated groups, e.g. per-bank DRAM
  totals).

Composite components additionally implement ``stat_groups()`` yielding
``(relative_path, group)`` pairs, which is how they register their
sub-trees into a :class:`repro.sim.stats.StatsRegistry`.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Dict, Iterator, Mapping, Tuple, Union

import numpy as np

#: What a stat group flattens to: plain counters, or one nested level
#: (histogram buckets).
StatValue = Union[int, float, Dict[str, Union[int, float]]]


class Histogram:
    """Power-of-two-bucketed histogram of non-negative samples.

    Each sample lands in the smallest bucket ``2**k`` that is >= its
    value (minimum bucket 1).  The bucket dict stays small (one entry
    per occupied power of two), updates are O(1), and two histograms
    merge by adding bucket counts -- the properties the stats tree
    needs from a latency histogram.
    """

    __slots__ = ("buckets", "count", "total")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0

    #: Samples :meth:`record_all` folds per numpy pass, bounding its
    #: temporaries (a few arrays of this many elements).
    FOLD_SLICE = 1 << 14

    def record(self, value: float) -> None:
        """Add one sample (negative values clamp to the first bucket).

        The bucket is chosen from the sample truncated toward zero, so
        ``record(8.5)`` lands in ``le_8``.
        """
        v = int(value)
        bound = 1 if v <= 1 else 1 << (v - 1).bit_length()
        buckets = self.buckets
        buckets[bound] = buckets.get(bound, 0) + 1
        self.count += 1
        self.total += value

    def record_all(self, values: array) -> None:
        """Add an ``array('d')`` of samples: the same buckets, count
        and total, bit for bit, as :meth:`record` on each in order.

        Per slice, ``frexp`` of the truncated sample minus one is the
        bit length :meth:`record` takes, and the total is a running sum
        in sample order (``np.add.accumulate``, neither pairwise nor
        compensated).  A slice with a sample at or above ``2**53``
        (where ``trunc(x) - 1`` rounds) or a non-finite one goes
        through :meth:`record` itself.
        """
        buckets = self.buckets
        view = np.frombuffer(values, dtype=np.float64)
        for start in range(0, len(view), self.FOLD_SLICE):
            chunk = view[start:start + self.FOLD_SLICE]
            if not -np.inf < chunk.min() <= chunk.max() < 2.0 ** 53:
                for value in chunk.tolist():
                    self.record(value)
                continue
            lengths = np.frexp(np.maximum(np.trunc(chunk) - 1.0, 0.0))[1]
            for k, n in enumerate(np.bincount(lengths).tolist()):
                if n:
                    buckets[1 << k] = buckets.get(1 << k, 0) + n
            self.count += len(chunk)
            running = np.empty(len(chunk) + 1)
            running[0] = self.total
            running[1:] = chunk
            self.total = float(np.add.accumulate(running)[-1])

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's samples into this one."""
        for bound, n in other.buckets.items():
            self.buckets[bound] = self.buckets.get(bound, 0) + n
        self.count += other.count
        self.total += other.total

    @property
    def mean(self) -> float:
        """Mean of the recorded samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Union[int, float]]:
        """JSON-ready form: count, sum, mean, and sorted buckets."""
        out: Dict[str, Union[int, float]] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
        }
        for bound in sorted(self.buckets):
            out[f"le_{bound}"] = self.buckets[bound]
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.buckets == other.buckets
                and self.count == other.count
                and self.total == other.total)

    def __repr__(self) -> str:
        return (f"Histogram(count={self.count}, mean={self.mean:.1f}, "
                f"buckets={len(self.buckets)})")


def _numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def stat_values(group: object) -> Dict[str, StatValue]:
    """Extract the name -> value mapping of one stat group.

    Accepts, in order of preference:

    * a zero-argument callable returning a mapping (lazy aggregate);
    * a mapping of names to numbers;
    * a dataclass instance: every numeric field is a counter, every
      :class:`Histogram` field expands to its bucket dict, and every
      numeric ``@property`` on the class is a derived rate.

    Field order follows the dataclass declaration; derived properties
    follow, sorted by name -- deterministic output for byte-stable
    JSON documents.
    """
    if callable(group) and not dataclasses.is_dataclass(group):
        group = group()
    if isinstance(group, Mapping):
        return dict(group)
    if not dataclasses.is_dataclass(group) or isinstance(group, type):
        raise TypeError(
            f"not a stat group (dataclass/mapping/callable): {group!r}"
        )
    out: Dict[str, StatValue] = {}
    for f in dataclasses.fields(group):
        value = getattr(group, f.name)
        if isinstance(value, Histogram):
            out[f.name] = value.to_dict()
        elif isinstance(value, bool):
            out[f.name] = int(value)
        elif _numeric(value):
            out[f.name] = value
        # Non-numeric fields (params dicts, names) are not counters.
    derived = {}
    for klass in type(group).__mro__:
        for name, attr in vars(klass).items():
            if isinstance(attr, property) and name not in derived:
                value = getattr(group, name)
                if _numeric(value):
                    derived[name] = value
    for name in sorted(derived):
        out[name] = derived[name]
    return out


def iter_stat_groups(provider: object,
                     prefix: str = "") -> Iterator[Tuple[str, object]]:
    """Yield ``(path, group)`` for a provider, prefixing sub-paths.

    A *provider* implements ``stat_groups()``; a bare stat group is
    yielded as itself under ``prefix``.
    """
    groups = getattr(provider, "stat_groups", None)
    if groups is None:
        yield prefix, provider
        return
    for sub, group in groups():
        if prefix and sub:
            yield f"{prefix}.{sub}", group
        else:
            yield prefix or sub, group
