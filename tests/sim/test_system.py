"""Tests for configuration and full-system composition."""

import pytest

from repro.core.attributes import PatternType
from repro.core.errors import ConfigurationError
from repro.cpu.trace import MemAccess, XMemOp
from repro.sim.config import scaled_config, table3_config
from repro.sim.runner import SystemRun
from repro.sim.stats import (
    amean,
    format_table,
    geomean,
    slowdown,
    speedup,
)
from repro.sim.system import build_baseline, build_xmem, build_xmem_pref


class TestConfig:
    def test_table3_values(self):
        cfg = table3_config()
        assert cfg.cpu.ghz == 3.6
        assert cfg.cpu.issue_width == 4
        l1, l2, l3 = cfg.levels
        assert (l1.size_bytes, l1.ways, l1.latency) == (32 * 1024, 8, 4)
        assert (l2.size_bytes, l2.policy) == (128 * 1024, "drrip")
        assert (l3.size_bytes, l3.ways, l3.latency, l3.policy) == \
            (1024 * 1024, 16, 27, "drrip")
        assert cfg.prefetcher.streams == 16
        assert cfg.dram_geometry.channels == 2
        assert cfg.dram_geometry.banks_per_rank == 8

    def test_scaled_preserves_ratios(self):
        cfg = scaled_config(8)
        base = table3_config()
        for lvl, ref in zip(cfg.levels, base.levels):
            assert lvl.size_bytes == ref.size_bytes // 8
            assert lvl.ways == ref.ways
            assert lvl.latency == ref.latency

    def test_scaled_bad_factor(self):
        with pytest.raises(ConfigurationError):
            scaled_config(0)

    def test_with_llc(self):
        cfg = table3_config().with_llc(2 * 1024 * 1024)
        assert cfg.llc_bytes == 2 * 1024 * 1024
        assert cfg.levels[0].size_bytes == 32 * 1024  # untouched

    def test_with_bandwidth(self):
        cfg = table3_config().with_bandwidth(0.5)
        assert cfg.timing().t_burst == pytest.approx(
            table3_config().timing().t_burst * 2
        )


def stream_trace(lines, passes=2, work=2):
    for _ in range(passes):
        for i in range(lines):
            yield MemAccess(i * 64, False, work=work)


class TestBuilders:
    def test_baseline_has_no_xmem(self):
        h = build_baseline(scaled_config(8))
        assert h.xmemlib is None
        assert h.memory.xmem_prefetcher is None
        assert h.memory.stride_prefetcher is not None

    def test_xmem_has_controller_installed(self):
        h = build_xmem(scaled_config(8))
        assert h.controller is not None
        assert h.memory.hierarchy.pin_predicate == h.controller.pin_predicate

    def test_xmem_pref_has_no_pinning(self):
        h = build_xmem_pref(scaled_config(8))
        assert h.controller is not None
        # Pin predicate NOT installed: the default pins nothing.
        assert not h.memory.hierarchy.pin_predicate(0)

    def test_baseline_strips_xmem_ops(self):
        h = build_baseline(scaled_config(8))
        stats = h.run([XMemOp("atom_activate", 0), MemAccess(0)])
        # The op is dropped before the engine sees it.
        assert stats.xmem_instructions == 0
        assert stats.mem_accesses == 1

    def test_run_accumulates_stats(self):
        h = build_baseline(scaled_config(8))
        stats = h.run(stream_trace(64))
        assert stats.cycles > 0
        assert h.llc.stats.accesses > 0
        assert h.dram.stats.reads > 0


class TestEndToEndUseCase1:
    def test_pinning_beats_baseline_on_thrash(self):
        cfg = scaled_config(8)
        lines = 2 * cfg.llc_bytes // 64  # WS 2x the LLC

        base = build_baseline(cfg)
        b = base.run(stream_trace(lines, passes=4))

        xmem = build_xmem(cfg)
        atom = xmem.xmemlib.create_atom(
            "ws", pattern=PatternType.REGULAR, stride_bytes=64, reuse=200
        )
        def xtrace():
            yield XMemOp("atom_map", atom, 0, lines * 64)
            yield XMemOp("atom_activate", atom)
            yield from stream_trace(lines, passes=4)
        x = xmem.run(xtrace())

        assert x.cycles < b.cycles * 0.9
        assert xmem.dram.stats.reads < base.dram.stats.reads

    def test_fitting_working_set_no_harm(self):
        cfg = scaled_config(8)
        lines = cfg.llc_bytes // (4 * 64)  # WS fits easily

        base = build_baseline(cfg)
        b = base.run(stream_trace(lines, passes=6))

        xmem = build_xmem(cfg)
        atom = xmem.xmemlib.create_atom(
            "ws", pattern=PatternType.REGULAR, stride_bytes=64, reuse=200
        )
        def xtrace():
            yield XMemOp("atom_map", atom, 0, lines * 64)
            yield XMemOp("atom_activate", atom)
            yield from stream_trace(lines, passes=6)
        x = xmem.run(xtrace())
        # Within 10% of baseline when there is nothing to fix.
        assert x.cycles <= b.cycles * 1.1

    def test_prefetch_timeliness_charged(self):
        # Under severe bandwidth starvation, prefetches arrive late and
        # demand hits on them must wait: cycles grow superlinearly.
        cfg = scaled_config(8)
        fast = build_baseline(cfg)
        slow = build_baseline(cfg.with_bandwidth(0.1))
        lines = 2 * cfg.llc_bytes // 64
        f = fast.run(stream_trace(lines, passes=2))
        s = slow.run(stream_trace(lines, passes=2))
        assert s.cycles > f.cycles * 1.5


class TestStatsHelpers:
    def test_speedup_slowdown(self):
        assert speedup(200, 100) == 2.0
        assert slowdown(100, 150) == 1.5
        # Degenerate cycle counts are measurement bugs, surfaced as
        # explicit errors instead of an inf that geomean propagated.
        with pytest.raises(ValueError):
            speedup(1, 0)
        with pytest.raises(ValueError):
            speedup(1, -3)
        with pytest.raises(ValueError):
            slowdown(0, 100)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        with pytest.raises(ValueError):
            geomean([1.0, -1.0])

    def test_amean(self):
        assert amean([1, 2, 3]) == 2.0
        assert amean([]) == 0.0

    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", "y"]],
                            title="T")
        assert "T" in text
        assert "2.500" in text
        lines = text.splitlines()
        assert len(lines) == 5

    def test_run_record_from_handle(self):
        h = build_baseline(scaled_config(8))
        stats = h.run(stream_trace(32))
        run = SystemRun.of("baseline", h, stats)
        assert run.system == "baseline"
        assert run.stats is stats
        assert run.cycles == stats.cycles
