"""Engine-tier selection: one model, two evaluation strategies.

The simulator has a single memory-system model and two ways to drive a
trace through it:

``packed``
    The exact tier: the fused columnar interpreter,
    :func:`repro.cpu.vector_engine.run_shared`, over
    :class:`PackedTrace` columns -- chunked numpy probing of the first
    cache level, run-length fast-forwarding of pure-hit stretches, and
    the machine split in two: a front-end over L1, L2 and stride
    training, run once for every machine of a point whose private
    levels are equal, and a per-machine back-end over the LLC, DRAM,
    prefetch issue, the MSHR file and time.
    Machine shapes outside its verified domain
    (:func:`repro.cpu.vector_engine.eligible`) -- ``REPRO_CHECK``
    hooks, wrapped or unrecognized components, non-power-of-two issue
    widths -- run through the scalar :meth:`TraceEngine.run_packed`
    loop instead, with the same statistics.  Both are pinned against
    the textbook :class:`repro.testing.oracles.ReferenceEngine`.
``analytical``
    :func:`repro.sim.analytical.estimate_packed`: a one-pass
    stack-distance estimator producing *estimated* EngineStats without
    evolving the machine.  Not exact -- see the module's error model;
    committed tables must never be produced on this tier.

Object event streams are packed first on either tier.  The active tier
is an explicit argument -- the experiment runner passes the one its
:class:`~repro.sim.runner.RunContext` resolved -- or, when a caller
names none, the ``REPRO_ENGINE`` environment variable; ``packed`` is
the default.  :func:`run_tier` runs one machine (:meth:`SystemHandle.run`
and the Use Case 2 runner); :func:`run_tiers` runs the machines of one
point in one call (:func:`repro.sim.system.run_machines`).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import List, Optional, Sequence

from repro.core.errors import ConfigurationError
from repro.cpu.engine import EngineStats, TraceEngine
from repro.cpu.trace import PackedTrace

#: Recognized tiers: the exact one first, then the estimate.
ENGINE_TIERS = ("packed", "analytical")

_ENV_VAR = "REPRO_ENGINE"


def resolve_engine_tier(explicit: Optional[str] = None) -> str:
    """The active tier: ``explicit`` if given, else ``$REPRO_ENGINE``,
    else ``packed``.  Unknown names raise (typos must not silently run
    a different interpreter).

    The value is stripped before matching, like every other ``REPRO_*``
    knob (``REPRO_JOBS`` strips before parsing): ``REPRO_ENGINE="packed "``
    from a shell export or an HTTP request must select ``packed``, not
    raise.
    """
    tier = (explicit or os.environ.get(_ENV_VAR) or "packed").strip()
    if not tier:
        tier = "packed"
    if tier not in ENGINE_TIERS:
        raise ConfigurationError(
            f"unknown engine tier {tier!r}; choices: {ENGINE_TIERS}"
        )
    return tier


def run_tier(engine: TraceEngine, trace,
             tier: Optional[str] = None) -> EngineStats:
    """Execute ``trace`` on ``engine`` with the selected tier.

    Object traces (iterables of events) are packed first, so tier
    selection never changes what a caller may pass.
    """
    tier = resolve_engine_tier(tier)
    if not isinstance(trace, PackedTrace):
        trace = PackedTrace.from_events(trace)
    if tier == "packed":
        from repro.cpu.vector_engine import run_vector
        return run_vector(engine, trace)
    from repro.sim.analytical import estimate_packed
    return estimate_packed(engine, trace)


def run_tiers(engines: Sequence[TraceEngine], traces: Sequence,
              tier: Optional[str] = None,
              seconds: Optional[List[float]] = None) -> List[EngineStats]:
    """Execute ``traces[k]`` on ``engines[k]`` for every ``k``: the
    machines of one point.

    On the ``packed`` tier this is one
    :func:`repro.cpu.vector_engine.run_shared` call, so machines that
    share their private levels share one pass over them; each result
    equals ``run_tier(engines[k], traces[k], tier)``.  ``seconds``
    (optional, ``len(engines) + 1`` floats) accumulates each machine's
    own wall seconds and, last, the shared front-end's.
    """
    tier = resolve_engine_tier(tier)
    traces = [t if isinstance(t, PackedTrace) else PackedTrace.from_events(t)
              for t in traces]
    if seconds is None:
        seconds = [0.0] * (len(engines) + 1)
    if tier == "packed":
        from repro.cpu.vector_engine import run_shared
        return run_shared(engines, traces, seconds)
    from repro.sim.analytical import estimate_packed
    results = []
    for k, (engine, trace) in enumerate(zip(engines, traces)):
        t0 = perf_counter()
        results.append(estimate_packed(engine, trace))
        seconds[k] += perf_counter() - t0
    return results
