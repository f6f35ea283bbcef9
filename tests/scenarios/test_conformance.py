"""Spec-driven conformance: every shipped example spec round-trips
through compile -> PackedTrace -> object stream against the reference
engine, and the trace-cache key pins exactly the spec's content.

This is the harness ISSUE 9 asks for: examples are discovered from the
package, so adding a spec file *is* adding its conformance coverage.
"""

import copy
import dataclasses
import json

import pytest

from repro.cpu.trace import PackedTrace, strip_xmem
from repro.scenarios import (
    canonical_json,
    canonicalize,
    compile_canonical,
    example_names,
    get_example,
    spec_hash,
)
from repro.core.errors import ScenarioError
from repro.sim import build_baseline, scaled_config
from repro.sim.config import CpuConfig
from repro.sim.runner import scenario_trace_key
from repro.testing.oracles import with_reference_engine

EXAMPLES = example_names()


def test_examples_shipped():
    assert {"streamgrid", "chase-mix", "hotcold",
            "lackey-sample"} <= set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
class TestExampleConformance:
    def test_canonical_and_compile_deterministic(self, name):
        a = get_example(name)
        b = get_example(name)
        assert a == b
        assert canonicalize(a) == a
        rec_a = compile_canonical(a)
        rec_b = compile_canonical(b)
        assert rec_a.setup == rec_b.setup
        assert rec_a.packed == rec_b.packed
        assert len(rec_a.packed) > 0

    def test_object_stream_equivalence(self, name):
        """Packed columns == reconstructed object stream == naive
        reference, on twin baseline machines (the differential
        oracle)."""
        recording = compile_canonical(get_example(name))
        baseline = recording.packed.without_xmem()
        events = list(baseline.events())
        cfg = dataclasses.replace(scaled_config(32),
                                  cpu=CpuConfig(issue_width=2, window=4))
        on_packed, on_events = build_baseline(cfg), build_baseline(cfg)
        ref = with_reference_engine(build_baseline(cfg))
        packed_stats = on_packed.run(baseline)
        object_stats = on_events.run(events)
        want = ref.engine.run(events)
        assert packed_stats == want
        assert object_stats == want
        assert on_packed.stats_snapshot() == ref.stats_snapshot()

    def test_packed_round_trips_through_events(self, name):
        packed = compile_canonical(get_example(name)).packed
        assert PackedTrace.from_events(list(packed.events())) == packed

    def test_identical_specs_share_cache_key(self, name):
        a = get_example(name)
        b = canonicalize(json.loads(canonical_json(a)))
        assert scenario_trace_key(spec_hash(a)) \
            == scenario_trace_key(spec_hash(b))


def _scalar_paths(node, prefix=()):
    """Every (path, value) scalar leaf of a canonical spec."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _scalar_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _scalar_paths(value, prefix + (i,))
    elif node is not None:
        yield prefix, node


def _mutate(canonical, path, value):
    mutated = copy.deepcopy(canonical)
    node = mutated
    for step in path[:-1]:
        node = node[step]
    if isinstance(value, bool):
        node[path[-1]] = not value
    elif isinstance(value, int):
        node[path[-1]] = value + 1
    elif isinstance(value, float):
        node[path[-1]] = value + 0.03125 if value + 0.03125 <= 1.0 \
            else value - 0.03125
    elif isinstance(value, str):
        node[path[-1]] = value + "x"
    return mutated


@pytest.mark.parametrize("name", EXAMPLES)
def test_any_field_mutation_changes_cache_key(name):
    """Walk every scalar leaf of the canonical spec, nudge it, and pin
    that any mutation surviving validation lands on a different
    content hash (hence a different trace-cache key).  Mutations that
    validation rejects (bad enum, broken reference, checksum
    mismatch) are exactly the ones that must never reach the cache.
    """
    canonical = get_example(name)
    base_hash = spec_hash(canonical)
    tested = 0
    for path, value in _scalar_paths(canonical):
        mutated = _mutate(canonical, path, value)
        try:
            remade = canonicalize(mutated)
        except ScenarioError:
            continue
        tested += 1
        assert spec_hash(remade) != base_hash, \
            f"mutation at {path} did not change the spec hash"
        assert scenario_trace_key(spec_hash(remade)) \
            != scenario_trace_key(base_hash)
    # The walk must not be vacuous: plenty of single-field nudges are
    # valid specs.
    assert tested >= 5, f"only {tested} mutations survived validation"
