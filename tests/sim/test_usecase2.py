"""Integration tests for the Use-Case-2 runner (Section 6)."""

import hashlib
import json

import pytest

from repro.core.errors import ConfigurationError
from repro.sim.runner import UC2Point, run_point
from repro.sim.usecase2 import (
    BASELINE_MAPPING_CANDIDATES,
    SYSTEMS,
    pick_baseline_mapping,
    run_system,
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
        assert r.run.system == "baseline"
        assert r.run.cycles > 0
        assert r.run.dram_read_latency > 0
        assert r.placement_report is None

    def test_xmem_reports_placement(self):
        r = run_system(BY_NAME["lbm"], "xmem", accesses=FAST)
        assert r.placement_report is not None
        assert "isolated" in r.placement_report

    def test_ideal_has_perfect_rbl(self):
        r = run_system(BY_NAME["lbm"], "ideal", accesses=FAST)
        assert r.run.dram_row_hit_rate == pytest.approx(1.0)

    def test_mapping_honoured(self):
        r = run_system(BY_NAME["sc"], "baseline", mapping="scheme5",
                       accesses=FAST)
        assert r.mapping == "scheme5"


class TestEngineTiers:
    """Use Case 2 runs on the split interpreter, over a stream
    translated before the run."""

    SYSTEMS = ("baseline", "xmem", "ideal")
    SMALL = 3_000

    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("name", ["lbm", "mcf"])
    def test_object_and_packed_tiers_bit_identical(self, monkeypatch,
                                                   name, system):
        """The object-event reference interpreter and the production
        engine: the same run record and the same full stats snapshot,
        for the system run alone and run with the point's other
        systems (ideal replays baseline's front-end)."""
        from repro.sim import usecase2
        from repro.testing.oracles import (ReferenceEngine,
                                           with_reference_engine)

        packed = run_system(BY_NAME[name], system, accesses=self.SMALL,
                            collect=True)
        point = run_point(UC2Point(name, self.SMALL), collect=True)
        build, built = usecase2.build_baseline, []

        def build_reference(cfg):
            built.append(with_reference_engine(build(cfg)))
            return built[-1]

        with monkeypatch.context() as mp:
            mp.setattr(usecase2, "build_baseline", build_reference)
            reference = run_system(BY_NAME[name], system,
                                   accesses=self.SMALL, collect=True)
        (handle,) = built
        assert type(handle.engine) is ReferenceEngine
        assert handle.engine.last_stats == reference.run.stats
        assert reference.stats == packed.stats == point.stats[system]
        assert reference.run == packed.run == point.runs[system]

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_machine_shape_is_fused(self, monkeypatch, system):
        """Every Use Case 2 machine passes the split interpreter's
        gate and runs on it, computing its front-end."""
        from repro.sim import runner
        monkeypatch.setattr(runner, "_MEMO", {})
        seen = _spy_passes(monkeypatch)
        run_system(BY_NAME["mcf"], system, accesses=500)
        assert len(seen) == 1

    @pytest.mark.parametrize("pick", [False, True])
    def test_point_shares_baseline_and_ideal(self, monkeypatch, pick):
        """Baseline and ideal run one stream: the point computes its
        front-end once (ideal replays it) and xmem's once.  The mapping
        probes run one stream too, and at 500 accesses their 20,000-
        access truncation is the baseline's whole stream over the same
        page map: the first probe computes the front-end that the other
        probes, baseline and ideal replay."""
        from repro.cpu import vector_engine
        from repro.sim import runner
        monkeypatch.setattr(runner, "_MEMO", {})
        seen = _spy_passes(monkeypatch)
        asked = []
        real = vector_engine.recorded_front_end

        def ask_spy(*args, **kw):
            asked.append(id(args[4].vaddr))
            return real(*args, **kw)

        monkeypatch.setattr(vector_engine, "recorded_front_end", ask_spy)
        result = run_point(UC2Point("mcf", 500, pick_mapping=pick),
                           collect=True)
        assert len(asked) == (4 if pick else 0) + 3
        assert len(seen) == 2
        assert seen == [asked[0], asked[-2]]    # baseline's, xmem's
        assert seen[0] != seen[1]
        assert result.stats["ideal"]["cache.l1"] \
            == result.stats["baseline"]["cache.l1"]

    def test_one_translation_per_access(self, monkeypatch):
        """The virtual stream is drawn once and each access is
        translated once, through the process's page map: the engine
        runs exactly the virtual stream's accesses, each at its
        frame plus its page offset."""
        from repro.cpu import tiers
        from repro.sim import runner, usecase2
        from repro.workloads.suite.spec import SuiteWorkload

        packed, translated, ran = [], [], []
        real_pack = SuiteWorkload.pack_into
        real_translate = usecase2.translate_stream
        real_run = tiers.run_tier

        def pack_spy(workload, out, bases, **kw):
            packed.append(kw)
            return real_pack(workload, out, bases, **kw)

        def translate_spy(vaddr, frame_of, page_bytes):
            translated.append((list(vaddr), frame_of, page_bytes))
            return real_translate(vaddr, frame_of, page_bytes)

        def run_spy(engine, trace):
            ran.append(trace)
            return real_run(engine, trace)

        monkeypatch.setattr(runner, "_MEMO", {})
        monkeypatch.setattr(SuiteWorkload, "pack_into", pack_spy)
        monkeypatch.setattr(usecase2, "translate_stream", translate_spy)
        monkeypatch.setattr(tiers, "run_tier", run_spy)
        r = run_system(BY_NAME["lbm"], "baseline", accesses=700,
                       collect=True)
        assert packed == [{"accesses": 700}]    # drawn, untranslated
        (virtual, frame_of, page), = translated
        assert list(ran[0].vaddr) == [
            frame_of(va // page) * page + va % page for va in virtual]
        assert len(ran[0].vaddr) == r.stats["engine"]["mem_accesses"] \
            == 700


def _spy_passes(monkeypatch):
    """Record the dense stream (its ``vaddr`` column's id) of every
    front-end pass the split interpreter computes rather than
    replays."""
    from repro.cpu import vector_engine

    seen = []
    real = vector_engine._record

    def spy(l1, l2, stride, line_bytes, trace, *rest):
        seen.append(id(trace.vaddr))
        return real(l1, l2, stride, line_bytes, trace, *rest)

    monkeypatch.setattr(vector_engine, "_record", spy)
    return seen


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
        assert xmem.run.dram_read_latency < base.run.dram_read_latency

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

    def test_uc2point_runs_all_three(self):
        res = run_point(UC2Point("histo", 10_000), collect=True)
        assert tuple(res.runs) == tuple(res.stats) == SYSTEMS
        for r in res.runs.values():
            assert r.cycles > 0
        manifest = res.manifest
        assert manifest["kind"] == "uc2point"
        assert manifest["point"] == {"workload": "histo",
                                     "accesses": 10_000,
                                     "pick_mapping": False}
        assert manifest["mappings"] == dict.fromkeys(SYSTEMS, "scheme2")
        assert "isolated" in manifest["placement"]
