"""The differential fuzz loop: lanes, shrinking, corpus, canaries."""

import json
from pathlib import Path

import pytest

from repro.cpu.trace import MemAccess, Work, XMemOp
from repro.mem.replacement import LRUPolicy
from repro.testing.fuzz import (
    LANES,
    case_rng,
    event_from_json,
    event_to_json,
    load_reproducer,
    replay,
    run_case,
    run_fuzz,
    shrink_failure,
    write_reproducer,
)


class TestEventJson:
    @pytest.mark.parametrize("ev", [
        MemAccess(0x1000, False, 0),
        MemAccess(0x2040, True, 3),
        Work(7),
        XMemOp("atom_activate", 2),
        XMemOp("atom_map", 1, 0x4000, 1024),
    ])
    def test_round_trip(self, ev):
        data = json.loads(json.dumps(event_to_json(ev)))
        assert event_from_json(data) == ev

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            event_from_json(["?", 1])


class TestLaneContracts:
    @pytest.mark.parametrize("name", sorted(LANES))
    def test_make_is_deterministic(self, name):
        lane = LANES[name]
        params_a, items_a = lane.make(case_rng(0, 3), 80)
        params_b, items_b = lane.make(case_rng(0, 3), 80)
        assert params_a == params_b
        assert items_a == items_b

    @pytest.mark.parametrize("name", sorted(LANES))
    def test_items_json_round_trip(self, name):
        lane = LANES[name]
        _, items = lane.make(case_rng(1, 5), 60)
        data = json.loads(json.dumps(lane.to_json(items)))
        assert lane.from_json(data) == items

    @pytest.mark.parametrize("name", sorted(LANES))
    def test_clean_case_passes(self, name):
        lane = LANES[name]
        params, items = lane.make(case_rng(2, 9), 80)
        assert lane.fail(params, items) is None


class TestRunFuzz:
    def test_small_sweep_clean(self):
        report = run_fuzz(cases=10, seed=0, length=80)
        assert report.ok
        assert report.cases == 10
        assert sum(report.per_lane.values()) == 10
        assert set(report.per_lane) == set(LANES)

    def test_lane_filter(self):
        report = run_fuzz(cases=4, seed=1, length=60, lanes=["cache"])
        assert report.per_lane == {"cache": 4}

    def test_unknown_lane_rejected(self):
        with pytest.raises(ValueError, match="unknown lanes"):
            run_fuzz(cases=1, lanes=["nope"])

    def test_run_case_deterministic(self):
        lane = LANES["dram"]
        a = run_case(lane, seed=0, case_index=2, length=60)
        b = run_case(lane, seed=0, case_index=2, length=60)
        assert a == b  # both None: the models agree


def _break_lru(mp):
    """The CI mutation canary, in-process: evict MRU instead of LRU."""

    def broken_victim(self, set_idx, candidates):
        return max(candidates, key=self._stamp[set_idx].__getitem__)

    mp.setattr(LRUPolicy, "victim", broken_victim)


class TestMutationCanary:
    def test_cache_lane_catches_broken_lru(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            _break_lru(mp)
            report = run_fuzz(cases=20, seed=0, length=200,
                              lanes=["cache"], corpus_dir=tmp_path)
            assert not report.ok
            # Every reproducer shrinks to a readable handful of ops.
            assert all(len(f.items) <= 32 for f in report.failures)
            assert all(len(f.items) < f.original_size
                       for f in report.failures)
            assert report.corpus_paths
            # While the mutant is live the reproducer still fails...
            assert replay(report.corpus_paths[0]) is not None
        # ...and with the real LRU restored it passes (regression mode).
        assert replay(report.corpus_paths[0]) is None

    def test_packed_lane_catches_engine_skew(self):
        """A production-engine-only off-by-one diverges from the
        reference."""
        from repro.cpu.engine import TraceEngine

        real = TraceEngine.run

        def skewed(self, trace):
            stats = real(self, trace)
            stats.instructions += 1
            return stats

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TraceEngine, "run", skewed)
            report = run_fuzz(cases=4, seed=0, length=80,
                              lanes=["packed"])
            assert not report.ok

    def test_vector_lane_catches_vector_drift(self):
        """A counter skew in the split interpreter (``vector_engine``)
        diverges from the reference engine in the packed lane, and
        trips no lane that does not run it."""
        from repro.cpu import vector_engine

        real = vector_engine.run_trace

        def skewed(engine, trace):
            stats = real(engine, trace)
            stats.misses_to_memory += 1
            return stats

        with pytest.MonkeyPatch.context() as mp:
            # TraceEngine.run resolves run_trace through the module
            # attribute at call time, so patching the module works.
            mp.setattr(vector_engine, "run_trace", skewed)
            report = run_fuzz(cases=4, seed=0, length=80,
                              lanes=["packed"])
            assert not report.ok
            assert all(f.lane == "packed" for f in report.failures)
            assert all(f.error.startswith("packed stats diverged")
                       for f in report.failures)
            clean = run_fuzz(cases=2, seed=0, length=80,
                             lanes=["cache"])
            assert clean.ok
        assert run_fuzz(cases=2, seed=0, length=80,
                        lanes=["packed"]).ok

    def test_reference_dram_catches_timing_drift(self):
        """Perturbing the bank busy horizon trips the DRAM lane."""
        from repro.dram.system import DramSystem

        lane = LANES["dram"]
        params, items = lane.make(case_rng(0, 3), 120)
        real = DramSystem.access_completes

        def drifted(self, paddr, now, is_write=False):
            done = real(self, paddr, now, is_write)
            self._busy_until[self.locate(paddr)[0]] += 0.5
            return done

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DramSystem, "access_completes", drifted)
            assert lane.fail(params, items) is not None
        assert lane.fail(params, items) is None


class TestCheckedInCorpus:
    """Every committed reproducer must replay clean: each documents a
    historical (or synthetic) divergence whose fix must not regress."""

    CORPUS = Path(__file__).parent / "corpus"

    def test_corpus_exists(self):
        assert sorted(self.CORPUS.glob("*.json"))

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parent / "corpus").glob("*.json")),
        ids=lambda p: p.name)
    def test_replays_clean(self, path):
        assert replay(path) is None


class TestShrinkAndCorpus:
    def _failure(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            _break_lru(mp)
            for i in range(40):
                failure = run_case(LANES["cache"], seed=0, case_index=i,
                                   length=200)
                if failure is not None:
                    return shrink_failure(failure)
        pytest.fail("broken LRU never diverged in 40 cases")

    def test_reproducer_document_schema(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            _break_lru(mp)
            failure = self._failure(tmp_path)
            path = write_reproducer(tmp_path, failure)
            doc = json.loads(path.read_text())
        assert sorted(doc) == ["case_index", "error", "items", "lane",
                               "original_size", "params"]
        assert doc["lane"] == "cache"
        assert doc["original_size"] >= len(doc["items"])

    def test_load_round_trips(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            _break_lru(mp)
            failure = self._failure(tmp_path)
            path = write_reproducer(tmp_path, failure)
            lane, params, items = load_reproducer(path)
        assert lane.name == "cache"
        assert params == failure.params
        assert items == failure.items
