"""Engine-tier selection: one model, two evaluation strategies.

The simulator has a single memory-system model and two ways to drive a
trace through it:

``packed``
    The exact tier: the fused columnar interpreter,
    :func:`repro.cpu.vector_engine.run_vector`, over
    :class:`PackedTrace` columns -- chunked numpy probing of the first
    cache level, run-length fast-forwarding of pure-hit stretches, and
    one loop body for the engine, caches, prefetchers and DRAM.
    Machine shapes outside its verified domain
    (:func:`repro.cpu.vector_engine.eligible`) -- ``REPRO_CHECK``
    hooks, wrapped or unrecognized components, non-power-of-two issue
    widths -- run through the scalar :meth:`TraceEngine.run_packed`
    loop instead, with the same statistics.  Both are pinned against the textbook
    :class:`repro.testing.oracles.ReferenceEngine`.
``analytical``
    :func:`repro.sim.analytical.estimate_packed`: a one-pass
    stack-distance estimator producing *estimated* EngineStats without
    evolving the machine.  Not exact -- see the module's error model;
    committed tables must never be produced on this tier.

Object event streams are packed first on either tier.  The active tier
is an explicit argument -- the experiment runner passes the one its
:class:`~repro.sim.runner.RunContext` resolved -- or, when a caller
names none, the ``REPRO_ENGINE`` environment variable; ``packed`` is
the default.  :func:`run_tier` is the single dispatch point used by
:meth:`SystemHandle.run` and the Use Case 2 runner.
"""

from __future__ import annotations

import os
from typing import Optional

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
