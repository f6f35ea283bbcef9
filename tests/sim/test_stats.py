"""Tests for the unified stats layer: registry, histograms, snapshot
diff/merge, run manifests, and the edge-case guards in the stats
helpers."""

import json
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stats import Histogram, iter_stat_groups, stat_values
from repro.cpu.trace import MemAccess
from repro.sim.config import scaled_config
from repro.sim.corun import CorunSystem
from repro.sim.runner import (
    SimPoint,
    TraceCache,
    point_document,
    run_point,
    write_point_documents,
)
from repro.sim.stats import (
    PhaseTimer,
    StatsRegistry,
    collect_repro_env,
    diff_stats,
    flatten_stats,
    format_table,
    merge_stats,
    peak_rss_kb,
)
from repro.sim.system import build_baseline, build_xmem


def stream_trace(lines, passes=1, line_bytes=64):
    for _ in range(passes):
        for i in range(lines):
            yield MemAccess(vaddr=i * line_bytes)


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for v in (1, 2, 3, 100):
            h.record(v)
        d = h.to_dict()
        assert d["count"] == 4
        assert d["sum"] == 106
        assert d["mean"] == pytest.approx(26.5)
        assert d["le_1"] == 1
        assert d["le_2"] == 1
        assert d["le_4"] == 1
        assert d["le_128"] == 1

    def test_empty_mean_guarded(self):
        assert Histogram().mean == 0.0
        assert Histogram().to_dict()["mean"] == 0.0

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.record(2)
        b.record(2)
        b.record(500)
        a.merge(b)
        d = a.to_dict()
        assert d["count"] == 3
        assert d["le_2"] == 2
        assert d["le_512"] == 1


#: Samples at the bucket rule's edges: zero, negatives, powers of two
#: and quarter steps above them (``record`` truncates, so 8.5 lands in
#: ``le_8``), and plain non-dyadic latencies.
_EDGE_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, -0.25, -1.0, -3.5, -1e9, 0.5, 1.0, 1.5]),
    st.builds(lambda k, frac: 2.0 ** k + frac,
              st.integers(0, 40), st.sampled_from([0.0, 0.25, 0.5, 0.75])),
    st.floats(-1e6, 1e12, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 1 / 3, 52.37, 71.1, 1e-300, 2.0 ** 53 - 1]),
)


def _recorded(values, start=()):
    h = Histogram()
    for v in list(start) + list(values):
        h.record(v)
    return h


def _same(a, b):
    """Bit for bit: buckets, count, and the total's exact float."""
    assert a.buckets == b.buckets
    assert a.count == b.count
    assert a.total.hex() == b.total.hex()


class TestRecordAll:
    """``record_all`` folds a logged run of samples; it must give what
    ``record`` on each sample in order gives (today's truncating rule,
    and a running sum in sample order)."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_EDGE_SAMPLES, max_size=60),
           st.lists(_EDGE_SAMPLES, max_size=5),
           st.sampled_from([1, 2, 7, 1 << 14]))
    def test_matches_record_in_order(self, values, start, fold_slice):
        folded = _recorded([], start)
        with mock.patch.object(Histogram, "FOLD_SLICE", fold_slice):
            folded.record_all(array("d", values))
        _same(folded, _recorded(values, start))

    def test_truncating_rule_pinned(self):
        h = Histogram()
        h.record_all(array("d", [8.5, 8.0, 9.0, 1.75, -2.0, 0.0, 2.25]))
        assert h.buckets == {8: 2, 16: 1, 1: 3, 2: 1}

    def test_large_and_non_finite_samples_take_record(self):
        values = [3.0, 2.0 ** 53, 2.0 ** 60 + 2.0 ** 8, 5.5]
        folded = Histogram()
        folded.record_all(array("d", values))
        _same(folded, _recorded(values))
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises((OverflowError, ValueError)):
                Histogram().record_all(array("d", [1.0, bad]))

    def test_sum_is_sequential_not_pairwise(self):
        # A pairwise or compensated sum rounds this differently.
        values = [1.0] + [2.0 ** -53] * 4096
        folded = Histogram()
        folded.record_all(array("d", values))
        assert folded.total == 1.0
        _same(folded, _recorded(values))


# ---------------------------------------------------------------------------
# StatGroup protocol + registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_register_and_query(self):
        from repro.mem.cache import CacheStats
        reg = StatsRegistry()
        stats = CacheStats()
        reg.register("cache.l3", stats)
        stats.accesses = 4
        stats.hits = 3
        stats.misses = 1
        # Live reference: mutation after registration is observed.
        assert reg.query("cache.l3.hits") == 3
        assert reg.query("cache.l3.miss_rate") == pytest.approx(0.25)

    def test_collision_and_empty_path_rejected(self):
        reg = StatsRegistry()
        reg.register("a", {"x": 1})
        with pytest.raises(ValueError):
            reg.register("a", {"y": 2})
        with pytest.raises(ValueError):
            reg.register("", {"y": 2})

    def test_callable_group_is_lazy(self):
        calls = []

        def group():
            calls.append(1)
            return {"n": len(calls)}

        reg = StatsRegistry()
        reg.register("lazy", group)
        assert not calls
        assert reg.query("lazy.n") == 1
        assert reg.snapshot()["lazy"]["n"] == 2

    def test_provider_registration(self):
        class Provider:
            def stat_groups(self):
                yield "inner", {"v": 7}

        reg = StatsRegistry()
        reg.register_provider("outer", Provider())
        assert reg.paths() == ["outer.inner"]
        assert reg.query("outer.inner.v") == 7

    def test_bare_group_provider(self):
        paths = [p for p, _ in iter_stat_groups({"v": 1}, "bare")]
        assert paths == ["bare"]

    def test_system_tree(self):
        h = build_xmem(scaled_config(8))
        h.run(stream_trace(256, passes=2))
        reg = h.stats_registry()
        snap = reg.snapshot()
        for path in ("engine", "engine.mshr", "memory", "cache.l1",
                     "cache.l3", "dram", "dram.banks",
                     "prefetch.stride", "prefetch.xmem", "amu",
                     "amu.alb"):
            assert path in snap, path
        # Registry reads agree with the component counters.
        assert reg.query("cache.l3.miss_rate") == h.llc.stats.miss_rate
        assert reg.query("dram.reads") == h.dram.stats.reads
        # The whole snapshot is JSON-serializable.
        json.dumps(snap)

    def test_registry_built_before_run_folds_at_snapshot(self):
        """The ``dram`` group is the fold, not a copy: a registry built
        before a run reads the same values as one built after it."""
        h = build_baseline(scaled_config(8))
        before = h.stats_registry()
        h.run(stream_trace(512, passes=2))
        snap = before.snapshot()
        assert snap["dram"]["reads"] > 0
        assert snap == h.stats_registry().snapshot()

    def test_corun_registry_built_before_run_folds_at_snapshot(self):
        sys_ = CorunSystem(scaled_config(16), 2)
        before = sys_.stats_registry()
        sys_.run([stream_trace(256), stream_trace(256)])
        snap = before.snapshot()
        assert snap["dram"]["reads"] > 0
        assert snap == sys_.stats_registry().snapshot()

    def test_longest_prefix_wins(self):
        h = build_baseline(scaled_config(8))
        h.run(stream_trace(64))
        reg = h.stats_registry()
        # "dram.banks" must not be shadowed by group "dram".
        banks = reg.query("dram.banks.banks_touched")
        assert banks >= 1


# ---------------------------------------------------------------------------
# stat_values coverage
# ---------------------------------------------------------------------------

def test_stat_values_histogram_and_properties():
    from repro.dram.system import DramStats
    s = DramStats()
    s.reads = 2
    s.read_latency_sum = 10.0
    s.read_latency_hist.record(5)
    vals = stat_values(s)
    assert vals["reads"] == 2
    assert vals["avg_read_latency"] == 5.0
    assert vals["read_latency_hist"]["count"] == 1


# ---------------------------------------------------------------------------
# flatten / diff / merge
# ---------------------------------------------------------------------------

class TestDiffMerge:
    def test_flatten_histogram_keys(self):
        snap = {"dram": {"reads": 2,
                         "hist": {"count": 2, "le_4": 2}}}
        flat = flatten_stats(snap)
        assert flat["dram.reads"] == 2
        assert flat["dram.hist.le_4"] == 2

    def test_diff_identical_is_empty(self):
        snap = {"a": {"x": 1, "h": {"count": 1}}}
        assert diff_stats(snap, snap) == []

    def test_diff_reports_deltas_and_missing(self):
        a = {"g": {"x": 1}}
        b = {"g": {"x": 3, "y": 2}}
        deltas = diff_stats(a, b)
        assert ("g.x", 1, 3) in deltas
        assert ("g.y", 0, 2) in deltas

    def test_diff_tolerance(self):
        a = {"g": {"x": 1.0}}
        b = {"g": {"x": 1.05}}
        assert diff_stats(a, b, tolerance=0.1) == []
        assert diff_stats(a, b) != []

    def test_merge_counters_and_histograms(self):
        a = {"g": {"n": 1,
                   "h": {"count": 1, "sum": 4, "mean": 4.0, "le_4": 1}}}
        b = {"g": {"n": 2,
                   "h": {"count": 1, "sum": 8, "mean": 8.0, "le_8": 1}}}
        m = merge_stats([a, b])
        assert m["g"]["n"] == 3
        assert m["g"]["h"]["count"] == 2
        assert m["g"]["h"]["mean"] == pytest.approx(6.0)
        assert m["g"]["h"]["le_4"] == 1
        assert m["g"]["h"]["le_8"] == 1


# ---------------------------------------------------------------------------
# Derived-rate guards (empty machine / empty trace)
# ---------------------------------------------------------------------------

class TestZeroDivisionGuards:
    def test_fresh_system_snapshot_is_all_finite(self):
        # An untouched machine must snapshot without ZeroDivisionError
        # and with every derived rate at 0.0.
        h = build_xmem(scaled_config(8))
        snap = h.stats_snapshot()
        assert snap["cache.l3"]["miss_rate"] == 0.0
        assert snap["cache.l3"]["prefetch_accuracy"] == 0.0
        assert snap["cache.l3"]["writeback_rate"] == 0.0
        assert snap["dram"]["avg_read_latency"] == 0.0
        assert snap["dram"]["avg_write_latency"] == 0.0
        assert snap["dram"]["row_hit_rate"] == 0.0
        assert snap["dram.banks"]["row_hit_rate"] == 0.0
        assert snap["engine.mshr"]["full_stall_rate"] == 0.0
        assert snap["prefetch.xmem"]["pat_hit_rate"] == 0.0
        assert snap["amu"]["chunks_per_map"] == 0.0
        assert snap["amu.alb"]["hit_rate"] == 0.0

    def test_empty_trace_run(self):
        h = build_baseline(scaled_config(8))
        stats = h.run(iter(()))
        assert stats.instructions == 0
        snap = h.stats_snapshot()
        assert snap["dram"]["avg_read_latency"] == 0.0
        assert snap["cache.l3"]["miss_rate"] == 0.0

    def test_scheduler_reorder_rate_guarded(self):
        from repro.dram.scheduler import SchedulerStats
        assert SchedulerStats().reorder_rate == 0.0


# ---------------------------------------------------------------------------
# format_table ragged rows
# ---------------------------------------------------------------------------

class TestFormatTableRagged:
    def test_short_row_padded(self):
        text = format_table(["a", "b", "c"], [[1, 2, 3], ["x"]])
        lines = text.splitlines()
        assert len(lines) == 4
        # Every rendered line has the same width.
        assert len({len(line) for line in lines}) == 1

    def test_long_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

class TestManifest:
    def test_phase_timer(self):
        t = PhaseTimer()
        t.start("a")
        t.stop()
        t.start("b")
        t.start("c")  # implicitly closes b
        t.stop()
        assert set(t.phases) == {"a", "b", "c"}
        for phase in t.phases.values():
            assert phase["wall_s"] >= 0.0
            assert phase["peak_rss_kb"] > 0

    def test_phase_timer_records_external_time(self):
        t = PhaseTimer()
        t.record("run:x", 1.5)
        assert t.phases["run:x"]["wall_s"] == 1.5
        assert t.phases["run:x"]["peak_rss_kb"] > 0

    def test_peak_rss_positive(self):
        assert peak_rss_kb() > 0

    def test_collect_repro_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "x")
        monkeypatch.setenv("NOT_REPRO", "y")
        env = collect_repro_env()
        assert env["REPRO_TEST_KNOB"] == "x"
        assert "NOT_REPRO" not in env

    def test_point_document_roundtrip(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        point = SimPoint(kernel="gemm", n=24, tile=12)
        res = run_point(point, cache=cache, collect=True)
        doc = point_document(res)
        m = doc["manifest"]
        assert m["schema"] == 1
        assert m["point"]["kernel"] == "gemm"
        assert m["config"]["line_bytes"] == 64
        assert m["trace"]["source"] in ("memo", "disk", "generated",
                                        "regenerated")
        assert m["trace"]["format_version"] >= 2
        assert "trace" in m["phases"]
        assert "run:baseline" in m["phases"]
        # One phase per machine plus the shared front-end passes.
        assert {"front-end", "run:baseline", "run:xmem"} <= set(m["phases"])
        assert set(doc["stats"]) == {"baseline", "xmem"}
        paths = write_point_documents(tmp_path / "docs", [res])
        loaded = json.loads(paths[0].read_text())
        assert loaded == json.loads(json.dumps(doc))

    def test_plain_run_has_no_manifest(self, tmp_path):
        res = run_point(SimPoint(kernel="gemm", n=24, tile=12),
                        cache=TraceCache(tmp_path / "cache"))
        assert res.stats is None and res.manifest is None
        with pytest.raises(Exception):
            point_document(res)

    def test_collect_does_not_change_measurement(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        point = SimPoint(kernel="gemm", n=24, tile=12)
        plain = run_point(point, cache=cache)
        collected = run_point(point, cache=cache, collect=True)
        for system in point.systems:
            assert (plain.runs[system].cycles
                    == collected.runs[system].cycles)
            assert (plain.runs[system].llc_miss_rate
                    == collected.runs[system].llc_miss_rate)


# ---------------------------------------------------------------------------
# The run record through the registry
# ---------------------------------------------------------------------------

def test_run_record_reads_registry():
    """The run record reads the counters the stats documents hold."""
    from repro.sim.runner import SystemRun
    h = build_baseline(scaled_config(8))
    stats = h.run(stream_trace(512, passes=2))
    run = SystemRun.of("baseline", h, stats)
    registry = h.stats_registry()
    llc = f"cache.{h.llc.name.lower()}"
    assert run.llc_miss_rate == registry.query(f"{llc}.miss_rate")
    assert run.llc_accesses == registry.query(f"{llc}.accesses")
    assert run.dram_reads == registry.query("dram.reads")
    assert run.dram_read_latency == registry.query("dram.avg_read_latency")
    assert run.dram_write_latency == \
        registry.query("dram.avg_write_latency")
    assert run.dram_row_hit_rate == registry.query("dram.row_hit_rate")
    assert run.dram_reads > 0 and run.dram_read_latency > 0