"""Integration tests for the Use-Case-2 runner (Section 6)."""

import hashlib
import json

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.usecase2 import (
    BASELINE_MAPPING_CANDIDATES,
    pick_baseline_mapping,
    run_figure7,
    run_system,
    usecase2_config,
)
from repro.workloads.suite import BY_NAME

#: Truncated runs keep these tests fast while exercising every path.
FAST = 15_000


class TestRunSystem:
    def test_unknown_system(self):
        with pytest.raises(ConfigurationError):
            run_system(BY_NAME["sc"], "oracle")

    def test_baseline_produces_record(self):
        r = run_system(BY_NAME["sc"], "baseline", accesses=FAST)
        assert r.record.system == "baseline"
        assert r.record.cycles > 0
        assert r.record.dram_read_latency > 0
        assert r.placement_report is None

    def test_xmem_reports_placement(self):
        r = run_system(BY_NAME["lbm"], "xmem", accesses=FAST)
        assert r.placement_report is not None
        assert "isolated" in r.placement_report

    def test_ideal_has_perfect_rbl(self):
        r = run_system(BY_NAME["lbm"], "ideal", accesses=FAST)
        assert r.record.dram_row_hit_rate == pytest.approx(1.0)

    def test_mapping_honoured(self):
        r = run_system(BY_NAME["sc"], "baseline", mapping="scheme5",
                       accesses=FAST)
        assert r.mapping == "scheme5"
        assert r.record.params["mapping"] == "scheme5"


class TestEngineTiers:
    """Use Case 2 runs on the split interpreter, translated while
    packing."""

    SYSTEMS = ("baseline", "xmem", "ideal")
    SMALL = 3_000

    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("name", ["lbm", "mcf"])
    def test_object_and_packed_tiers_bit_identical(self, monkeypatch,
                                                   name, system):
        """The object-event reference interpreter and the production
        engine: the same run record and the same full stats
        snapshot."""
        from repro.sim import usecase2
        from repro.testing.oracles import ReferenceEngine

        packed = run_system(BY_NAME[name], system, accesses=self.SMALL,
                            collect=True)
        with monkeypatch.context() as mp:
            mp.setattr(usecase2, "TraceEngine", ReferenceEngine)
            mp.setattr(usecase2, "run_tier",
                       lambda engine, trace: engine.run(trace))
            reference = run_system(BY_NAME[name], system,
                                   accesses=self.SMALL, collect=True)
        assert reference.stats == packed.stats
        assert reference.record == packed.record

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_machine_shape_is_fused(self, monkeypatch, system):
        """Every Use Case 2 machine passes the split interpreter's
        gate and runs on it as a one-machine group."""
        from repro.cpu import vector_engine

        seen = []
        real = vector_engine._run_lockstep

        def spy(engines, traces, checking):
            seen.append(len(engines))
            return real(engines, traces, checking)

        monkeypatch.setattr(vector_engine, "_run_lockstep", spy)
        run_system(BY_NAME["mcf"], system, accesses=500)
        assert seen == [1]

    def test_one_translation_per_access(self, monkeypatch):
        """Each access is translated once, while the stream is packed:
        the engine runs exactly the virtual stream's accesses, each
        through the process's page map."""
        from repro.cpu.trace import TraceBuilder
        from repro.sim import usecase2
        from repro.workloads.suite.spec import SuiteWorkload

        packed, ran = [], []
        real_pack = SuiteWorkload.pack_into
        real_run = usecase2.run_tier

        def pack_spy(workload, out, bases, **kw):
            packed.append((workload, bases, kw))
            return real_pack(workload, out, bases, **kw)

        def run_spy(engine, trace):
            ran.append(trace)
            return real_run(engine, trace)

        monkeypatch.setattr(SuiteWorkload, "pack_into", pack_spy)
        monkeypatch.setattr(usecase2, "run_tier", run_spy)
        r = run_system(BY_NAME["lbm"], "baseline", accesses=700,
                       collect=True)
        (workload, bases, kw), = packed
        virtual = TraceBuilder()
        real_pack(workload, virtual, bases, accesses=kw["accesses"])
        frames, page = kw["frames"], kw["page_bytes"]
        assert list(ran[0].vaddr) == [
            frames[va // page] * page + va % page for va in virtual.vaddr]
        assert len(ran[0].vaddr) == r.stats["engine"]["mem_accesses"] \
            == 700


def stats_digest(stats) -> str:
    """sha256 of a stats tree in canonical (sorted-key) JSON."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class TestMappingPins:
    """Use Case 2 stats under each candidate mapping stay what they were.

    The mapping decides the frames the OS hands out and the DRAM bank
    and row of every access; the engine and its reference share it, so
    only fixed digests can see it drift.
    """

    BASELINE = {
        "scheme2": "c97907d0d70bdbd0ad89e62db099e5c6"
                   "8fa8ae36dd08e2fa2a7e0e181d687aea",
        "scheme5": "b037c388b49727563cdc5a86b6bc8eee"
                   "ac2edcd4c275d72d16418a341d347930",
        "minimalist_open": "4b5894ae0fa87343b5fa4f42b78f28dd"
                           "c8c65445bd0e0075ac3c22c1549d6bb1",
        "permutation": "705d4935c82a9dc4b2f3d73982e195d6"
                       "07a6ef94755bb87d0ef99c880a06a5e3",
        "xmem_interleaved": "61e801ba853aed2db4d25a01e661549e"
                            "53036cfbea1cc836005eafcf9de68f23",
    }
    XMEM = ("c24c1165857b944bccbe2a2448a906d4"
            "4dad435f7321caa92c2ef00ea92428de")
    ACCESSES = 3_000

    def test_pins_cover_every_candidate(self):
        assert set(BASELINE_MAPPING_CANDIDATES) | {"xmem_interleaved"} \
            == set(self.BASELINE)

    @pytest.mark.parametrize("mapping", sorted(BASELINE))
    def test_baseline_stats_pinned(self, mapping):
        r = run_system(BY_NAME["sc"], "baseline", mapping=mapping,
                       accesses=self.ACCESSES, collect=True)
        assert stats_digest(r.stats) == self.BASELINE[mapping]

    def test_xmem_stats_pinned(self):
        r = run_system(BY_NAME["sc"], "xmem", accesses=self.ACCESSES,
                       collect=True)
        assert stats_digest(r.stats) == self.XMEM


class TestFigure7Shape:
    def test_ideal_beats_baseline_on_streaming(self):
        res = {
            s: run_system(BY_NAME["GemsFDTD"], s, accesses=40_000)
            for s in ("baseline", "ideal")
        }
        assert res["ideal"].cycles < res["baseline"].cycles

    def test_xmem_between_baseline_and_ideal_streaming(self):
        w = BY_NAME["lbm"]
        base = run_system(w, "baseline", accesses=60_000)
        xmem = run_system(w, "xmem", accesses=60_000)
        # The multi-stream workload must benefit from isolation.
        assert xmem.cycles < base.cycles
        # And the gain is driven by lower read latency.
        assert xmem.record.dram_read_latency < \
            base.record.dram_read_latency

    def test_low_headroom_workload_near_parity(self):
        w = BY_NAME["sc"]
        base = run_system(w, "baseline", accesses=40_000)
        xmem = run_system(w, "xmem", accesses=40_000)
        ratio = base.cycles / xmem.cycles
        assert 0.9 < ratio < 1.1


class TestMappingPick:
    def test_pick_returns_candidate(self):
        m = pick_baseline_mapping(BY_NAME["sc"], probe_accesses=4_000)
        assert m in BASELINE_MAPPING_CANDIDATES

    def test_run_figure7_all_three(self):
        w = BY_NAME["histo"]
        cfg = usecase2_config()
        import dataclasses
        # Shrink the trace through the workload for speed.
        small = dataclasses.replace(w, accesses=10_000)
        res = run_figure7(small, config=cfg, pick_mapping=False)
        assert set(res) == {"baseline", "xmem", "ideal"}
        for r in res.values():
            assert r.record.cycles > 0
