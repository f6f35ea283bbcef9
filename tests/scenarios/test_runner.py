"""Scenario points through the runner: caching, manifests, co-run
tenancy, and the sweep dispatch."""

import json

import pytest

import repro.sim.runner as runner_mod
from repro.core.errors import ConfigurationError
from repro.scenarios import canonical_json, get_example, spec_hash
from repro.sim.runner import (
    CorunPoint,
    RunContext,
    ScenarioPoint,
    SimPoint,
    TraceCache,
    UC2Point,
    run_point,
    scenario_trace_key,
    sweep,
)


@pytest.fixture(autouse=True)
def clean_memo():
    """Each test starts with an empty in-process recording memo."""
    runner_mod._MEMO.clear()
    yield
    runner_mod._MEMO.clear()


@pytest.fixture
def disk_cache(tmp_path):
    return TraceCache(root=tmp_path / "traces")


def example_point(name="hotcold", **over):
    spec = canonical_json(get_example(name))
    return ScenarioPoint(spec_json=spec, **over)


class TestScenarioPoint:
    def test_properties(self):
        point = example_point()
        assert point.name == "hotcold"
        assert point.scenario_hash == spec_hash(get_example("hotcold"))

    def test_runs_both_systems_deterministically(self, disk_cache):
        first = run_point(example_point(), cache=disk_cache)
        second = run_point(example_point(), cache=disk_cache)
        assert set(first.runs) == {"baseline", "xmem"}
        for system in first.runs:
            assert first.runs[system].stats \
                == second.runs[system].stats

    def test_manifest_provenance(self, disk_cache):
        point = example_point()
        result = run_point(point, cache=disk_cache, collect=True)
        manifest = result.manifest
        assert manifest["kind"] == "scenariopoint"
        assert manifest["point"]["scenario"] == "hotcold"
        assert manifest["point"]["hash"] == point.scenario_hash
        assert "spec_json" not in manifest["point"]
        scn = manifest["scenario"]
        assert scn["kind"] == "workload"
        assert scn["events"] > 0 and scn["setup_calls"] > 0
        assert manifest["trace"]["key"] \
            == scenario_trace_key(point.scenario_hash)
        assert manifest["trace"]["source"] == "generated"

    def test_import_manifest_carries_format_and_sha(self, disk_cache):
        point = example_point("lackey-sample")
        manifest = run_point(point, cache=disk_cache,
                             collect=True).manifest
        scn = manifest["scenario"]
        assert scn["kind"] == "import"
        assert scn["format"] == "lackey-v1"
        assert scn["sha256"] \
            == get_example("lackey-sample")["sha256"]

    def test_cold_then_hot_cache(self, disk_cache):
        point = example_point()
        cold = run_point(point, cache=disk_cache, collect=True)
        runner_mod._MEMO.clear()
        hot = run_point(point, cache=disk_cache, collect=True)
        assert cold.manifest["trace"]["source"] == "generated"
        assert hot.manifest["trace"]["source"] == "disk"
        assert cold.stats == hot.stats

    def test_run_point_dispatch(self, disk_cache):
        direct = example_point().run(RunContext.from_env(),
                                     cache=disk_cache)
        routed = run_point(example_point(), cache=disk_cache)
        for system in direct.runs:
            assert direct.runs[system].stats \
                == routed.runs[system].stats
        with pytest.raises(ConfigurationError, match="not a runnable"):
            run_point(object())

    def test_unknown_system_rejected(self, disk_cache):
        point = example_point(systems=("warp",))
        with pytest.raises(ConfigurationError, match="unknown system"):
            run_point(point, cache=disk_cache)

    def test_document_name(self, disk_cache):
        point = example_point()
        name = point.document_name(3)
        assert name == f"003_scn_hotcold_{point.scenario_hash[:8]}.json"


class TestScenarioTenants:
    def test_corun_with_scenario_tenant(self, disk_cache):
        point = CorunPoint(tenants=("scenario:hotcold", "mcf"),
                           accesses=800, scale=16)
        first = run_point(point, cache=disk_cache, collect=True)
        second = run_point(point, cache=disk_cache)
        assert set(first.runs) == {"baseline", "xmem"}
        for mode in first.runs:
            assert first.runs[mode] == second.runs[mode]
        tenants = first.manifest["trace"]["tenants"]
        assert [t["workload"] for t in tenants] \
            == ["scenario:hotcold", "mcf"]
        scn_hash = spec_hash(get_example("hotcold"))
        assert tenants[0]["key"] == scenario_trace_key(scn_hash)

    def test_access_budget_truncates_in_memory(self, disk_cache):
        """Different budgets share one cached compilation; the budget
        is applied via PackedTrace.truncated, not a recompile."""
        small = CorunPoint(tenants=("scenario:hotcold",), accesses=200,
                           scale=16, modes=("baseline",))
        large = CorunPoint(tenants=("scenario:hotcold",), accesses=900,
                           scale=16, modes=("baseline",))
        a = run_point(small, cache=disk_cache, collect=True)
        b = run_point(large, cache=disk_cache, collect=True)
        assert a.manifest["trace"]["tenants"][0]["key"] \
            == b.manifest["trace"]["tenants"][0]["key"]
        assert b.manifest["trace"]["tenants"][0]["source"] == "memo"
        assert a.runs["baseline"][0].mem_accesses \
            <= small.accesses
        assert b.runs["baseline"][0].mem_accesses \
            > a.runs["baseline"][0].mem_accesses

    def test_footprint_div_rejected_for_scenarios(self, disk_cache):
        point = CorunPoint(tenants=("scenario:hotcold",),
                           accesses=200, footprint_div=4)
        with pytest.raises(ConfigurationError, match="footprint_div"):
            run_point(point, cache=disk_cache)

    def test_unknown_ref_is_configuration_error(self, disk_cache):
        point = CorunPoint(tenants=("scenario:nope",), accesses=200)
        with pytest.raises(ConfigurationError):
            run_point(point, cache=disk_cache)


class TestMixedSweep:
    def test_serial_parallel_identical(self, disk_cache, monkeypatch):
        """Every point kind runs through the one run_point and the one
        sweep, serial or over two workers, with the same results."""
        monkeypatch.setattr(runner_mod, "TraceCache",
                            lambda root=None, disabled=False: disk_cache)
        points = [SimPoint(kernel="mvt", n=12, tile=4),
                  example_point(scale=16),
                  CorunPoint(tenants=("mcf", "lbm"), accesses=400,
                             scale=16, footprint_div=256),
                  UC2Point(workload="lbm", accesses=1500)]
        direct = [run_point(p, collect=True) for p in points]
        serial = sweep(points, jobs=1, collect_stats=True)
        parallel = sweep(points, jobs=2, collect_stats=True)
        assert len(serial) == len(parallel) == len(points)
        for d, s, p in zip(direct, serial, parallel):
            assert d.point == s.point == p.point
            assert d.stats == s.stats == p.stats
            assert d.runs == s.runs == p.runs
