"""Running traces on single-core machines: one exact path per trace.

:func:`run_tiers` hands the machines of one point to
:func:`repro.cpu.vector_engine.run_shared`, which sends each machine
one of two ways:

* a machine of the shipped shape (:func:`repro.cpu.vector_engine.
  eligible`) runs on the split interpreter -- a front-end over L1, L2
  and stride training, run once for every machine of a point whose
  private levels are equal, and a per-machine back-end over the LLC,
  DRAM, prefetch issue, the MSHR file and time;
* any other machine -- ``REPRO_CHECK`` hooks, wrapped or unrecognized
  components, other policies or depths, non-power-of-two issue widths
  -- runs through the scalar :meth:`TraceEngine.run_packed` loop, with
  the same statistics.

Both are pinned against the textbook
:class:`repro.testing.oracles.ReferenceEngine`.  Object event streams
are packed first.  :func:`run_tier` runs one machine
(:meth:`SystemHandle.run` and the Use Case 2 runner); :func:`run_tiers`
runs the machines of one point in one call
(:func:`repro.sim.system.run_machines`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cpu.engine import EngineStats, TraceEngine
from repro.cpu.trace import PackedTrace


def run_tier(engine: TraceEngine, trace) -> EngineStats:
    """Execute ``trace`` on ``engine``.

    Object traces (iterables of events) are packed first, so callers
    may pass either form.
    """
    from repro.cpu.vector_engine import run_vector
    if not isinstance(trace, PackedTrace):
        trace = PackedTrace.from_events(trace)
    return run_vector(engine, trace)


def run_tiers(engines: Sequence[TraceEngine], traces: Sequence,
              seconds: Optional[List[float]] = None) -> List[EngineStats]:
    """Execute ``traces[k]`` on ``engines[k]`` for every ``k``: the
    machines of one point, in one
    :func:`repro.cpu.vector_engine.run_shared` call, so machines that
    share their private levels share one pass over them; each result
    equals ``run_tier(engines[k], traces[k])``.  ``seconds``
    (optional, ``len(engines) + 1`` floats) accumulates each machine's
    own wall seconds and, last, the shared front-end's.
    """
    from repro.cpu.vector_engine import run_shared
    traces = [t if isinstance(t, PackedTrace) else PackedTrace.from_events(t)
              for t in traces]
    return run_shared(engines, traces, seconds)
