"""Engine-tier selection: one model, three evaluation strategies.

The simulator has a single memory-system model, but several ways to
drive a trace through it:

``object``
    :meth:`TraceEngine.run`, the interpreter over a Python event
    stream.  Slowest; the reference the others are pinned against.
``packed``
    The fused columnar interpreter,
    :func:`repro.cpu.vector_engine.run_vector`, over
    :class:`PackedTrace` columns: chunked numpy probing of the first
    cache level, run-length fast-forwarding of pure-hit stretches, and
    one loop body for the engine, caches, prefetchers and DRAM.
    Bit-identical to ``object``.  Machine shapes outside its verified
    domain (:func:`repro.cpu.vector_engine.eligible`) -- address
    translation on the engine, ``REPRO_CHECK`` hooks, wrapped or
    unrecognized components -- run through the scalar
    :meth:`TraceEngine.run_packed` loop instead, with the same
    statistics.
``analytical``
    :func:`repro.sim.analytical.estimate_packed`: a one-pass
    stack-distance estimator producing *estimated* EngineStats without
    evolving the machine.  Not exact -- see the module's error model;
    committed tables must never be produced on this tier.

The active tier comes from the ``REPRO_ENGINE`` environment variable
(so it propagates to sweep worker processes) or an explicit argument;
``packed`` is the default.  :func:`run_tier` is the single dispatch
point used by :meth:`SystemHandle.run` and the Use Case 2 runner.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.errors import ConfigurationError
from repro.cpu.engine import EngineStats, TraceEngine
from repro.cpu.trace import PackedTrace

#: Recognized tiers, exact first.  ``object``/``packed`` are
#: interchangeable on results; ``analytical`` is an estimate.
ENGINE_TIERS = ("object", "packed", "analytical")

#: Tiers whose EngineStats are bit-identical to the reference model.
EXACT_TIERS = ("object", "packed")

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


def corun_tier(explicit: Optional[str] = None) -> str:
    """The co-run engine's two-tier view of the selector.

    ``object`` keeps the legacy per-event interleaver as the
    differential oracle; every other tier maps to ``packed`` -- the
    heap-scheduled batched interleaver (there is no separate
    analytical co-run variant, and both co-run tiers are exact).
    """
    tier = resolve_engine_tier(explicit)
    return "object" if tier == "object" else "packed"


def run_tier(engine: TraceEngine, trace,
             tier: Optional[str] = None) -> EngineStats:
    """Execute ``trace`` on ``engine`` with the selected tier.

    Object traces (iterables of events) are accepted by every tier:
    the columnar tiers pack them first, so tier selection never changes
    what a caller may pass.
    """
    tier = resolve_engine_tier(tier)
    if tier == "object":
        if isinstance(trace, PackedTrace):
            trace = trace.events()
        return engine.run(trace)
    if not isinstance(trace, PackedTrace):
        trace = PackedTrace.from_events(trace)
    if tier == "packed":
        from repro.cpu.vector_engine import run_vector
        return run_vector(engine, trace)
    # analytical
    from repro.sim.analytical import estimate_packed
    return estimate_packed(engine, trace)
