"""Property/differential testing for the optimized memory system.

The hot paths of this reproduction (packed traces, the split engine
interpreter, the columnar cache, the flattened MSHR/scheduler paths)
each have a second, simpler way to compute the same answer.  This
package holds that second way and the machinery to compare the two:

* :mod:`repro.testing.checks` -- the ``REPRO_CHECK=1`` runtime
  invariant checks the cache/MSHR/scheduler install on themselves and
  the engines call (zero-cost when disabled);
* :mod:`repro.testing.oracles` -- executable reference models: a
  dict-of-lists LRU cache, a naive in-order miss engine, a FIFO
  open-row DRAM model, and a seeded toy memory for reference-engine
  tests;
* :mod:`repro.testing.generators` -- seeded random trace/request
  generators (strided, pointer-chase-like, hot-set, atom churn);
* :mod:`repro.testing.shrink` -- the greedy delta-debugging shrinker;
* :mod:`repro.testing.fuzz` -- the differential lanes behind
  ``repro fuzz``: optimized vs. reference, failing cases shrunk to
  minimal reproducers and written to a corpus directory;
* :mod:`repro.testing.faults` -- the crash/stall fault injection the
  serve tests and fuzz lane substitute into the worker pool.

This ``__init__`` is deliberately import-light: production modules
import :mod:`repro.testing.checks` at module load, and anything
heavier here would create an import cycle back into ``repro.mem``.
"""

from __future__ import annotations

_SUBMODULES = ("checks", "oracles", "generators", "shrink", "fuzz",
               "faults")


def __getattr__(name: str):
    if name in _SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.testing.{name}")
    raise AttributeError(f"module 'repro.testing' has no attribute {name!r}")
