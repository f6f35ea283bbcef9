"""The REPRO_CHECK invariant hooks: installation, firing, zero cost."""

import pytest

from repro.testing import checks
from repro.testing.checks import CheckError
from repro.testing.generators import GenConfig, generate_trace
from repro.testing.oracles import ToyMemory


@pytest.fixture
def checked(monkeypatch):
    monkeypatch.setenv(checks.ENV_VAR, "1")


@pytest.fixture
def unchecked(monkeypatch):
    monkeypatch.delenv(checks.ENV_VAR, raising=False)


class TestEnabled:
    def test_default_off(self, unchecked):
        assert not checks.enabled()

    def test_zero_off(self, monkeypatch):
        monkeypatch.setenv(checks.ENV_VAR, "0")
        assert not checks.enabled()

    def test_one_on(self, checked):
        assert checks.enabled()


class TestCacheHooks:
    def make(self):
        from repro.mem.cache import Cache

        return Cache("T", 4096, 4)

    def test_wrappers_installed_only_when_enabled(self, checked):
        cache = self.make()
        assert "access" in cache.__dict__
        assert "fill" in cache.__dict__
        assert "fill_absent" in cache.__dict__
        assert "unpin_all" in cache.__dict__
        assert "invalidate_all" in cache.__dict__

    def test_no_wrappers_when_disabled(self, unchecked):
        cache = self.make()
        assert "access" not in cache.__dict__
        assert "fill" not in cache.__dict__

    def test_clean_operation_passes(self, checked):
        cache = self.make()
        for i in range(200):
            addr = (i * 7 % 40) * 64
            if not cache.access(addr, i % 3 == 0).hit:
                cache.fill(addr, dirty=i % 3 == 0, pinned=i % 5 == 0)
        cache.unpin_all()
        cache.invalidate_all()

    def test_corrupt_valid_count_fires(self, checked):
        cache = self.make()
        cache.fill(0)
        cache._valid_counts[0] += 1
        with pytest.raises(CheckError, match="valid count"):
            cache.access(0, False)

    def test_corrupt_pinned_count_fires(self, checked):
        cache = self.make()
        cache.fill(0, pinned=True)
        cache._pinned_counts[0] += 1
        with pytest.raises(CheckError, match="pinned count"):
            cache.access(0, False)

    def test_duplicate_tag_fires(self, checked):
        cache = self.make()
        cache.fill(0)
        cache._tags[0][1] = cache._tags[0][0]
        cache._valid_counts[0] = 2
        with pytest.raises(CheckError, match="duplicate"):
            cache.access(0, False)

    def test_quota_violation_fires(self, checked):
        cache = self.make()
        cache.fill(0)
        # Pin all four ways behind the quota's back (quota allows 3).
        for way in range(4):
            cache._pinned[0][way] = True
            cache._tags[0][way] = way + 1
        cache._valid_counts[0] = 4
        cache._pinned_counts[0] = 4
        with pytest.raises(CheckError, match="quota"):
            cache.access(64 * 0, False)

    def test_aggregate_check_on_unpin(self, checked):
        cache = self.make()
        cache.fill(0, pinned=True)
        assert cache.unpin_all() == 1


class TestMshrHooks:
    def make(self, entries=4):
        from repro.mem.mshr import MSHRFile

        return MSHRFile(entries)

    def test_wrapper_installed_only_when_enabled(self, checked):
        assert "reserve" in self.make().__dict__

    def test_no_wrapper_when_disabled(self, unchecked):
        assert "reserve" not in self.make().__dict__

    def test_clean_operation_passes(self, checked):
        mshr = self.make(2)
        assert mshr.reserve(0.0, 100.0) == 0.0
        assert mshr.reserve(0.0, 200.0) == 0.0
        # Full: the third reservation stalls to the oldest completion.
        assert mshr.reserve(0.0, 300.0) == 100.0

    def test_over_capacity_fires(self, checked):
        mshr = self.make(2)
        # Overfill behind reserve's back: one pop cannot restore the
        # bound, so the checker must trip.
        mshr._completions.extend([50.0, 60.0, 70.0])
        with pytest.raises(CheckError, match="over capacity"):
            mshr.reserve(0.0, 80.0)


class TestEngineHooks:
    def make_engine(self, **kw):
        from repro.cpu.engine import TraceEngine

        return TraceEngine(ToyMemory(0), **kw)

    def test_flag_follows_env(self, checked):
        assert self.make_engine()._check

    def test_flag_off_by_default(self, unchecked):
        assert not self.make_engine()._check

    def test_clean_runs_pass_object_and_packed(self, checked):
        events, packed = generate_trace(GenConfig(seed=1, length=200))
        self.make_engine(window=2).run(list(events))
        self.make_engine(window=2).run(packed)

    def test_inconsistent_stats_fire(self):
        from repro.cpu.engine import EngineStats

        engine = self.make_engine()
        bad = EngineStats(cycles=10.0, instructions=4, mem_accesses=3,
                          xmem_instructions=2)
        with pytest.raises(CheckError, match="exceed total"):
            checks.check_engine_run(engine, bad)

    def test_too_fast_retirement_fires(self):
        from repro.cpu.engine import EngineStats

        engine = self.make_engine(issue_width=4)
        bad = EngineStats(cycles=1.0, instructions=1000)
        with pytest.raises(CheckError, match="retired"):
            checks.check_engine_run(engine, bad)


class TestDefaultTierChecks:
    """``REPRO_CHECK=1`` keeps per-operation checks on the production
    path: checked machines take the scalar loop, whose cache calls go
    through the checked wrappers."""

    def test_corrupt_count_fires_during_the_run(self, checked):
        from repro.cpu.trace import TraceBuilder
        from repro.sim import build_baseline, scaled_config

        handle = build_baseline(scaled_config(32))
        l1 = handle.memory.hierarchy.levels[0]
        out = TraceBuilder()
        line = l1.line_bytes
        for i in range(64):
            out.access(0x10000 + (i % 8) * line * l1.num_sets)
        l1._valid_counts[l1._index(0x10000)] += 1
        with pytest.raises(CheckError, match="valid count"):
            handle.run(out.build())
        # Caught at the first access to the corrupted set, long before
        # any end-of-run check could see it.
        assert l1.stats.accesses == 1


class TestSchedulerHooks:
    def make(self):
        from repro.dram.scheduler import FRFCFSScheduler
        from repro.dram.system import DramSystem

        return FRFCFSScheduler(DramSystem())

    def test_flag_follows_env(self, checked):
        assert self.make()._check

    def test_clean_service_passes(self, checked):
        from repro.dram.scheduler import Request
        from repro.testing.generators import generate_requests

        reqs = [Request(paddr=p, arrival=a, is_write=w, req_id=i)
                for i, (p, a, w) in enumerate(
                    generate_requests(GenConfig(seed=6), count=150))]
        completions = self.make().service(reqs)
        assert len(completions) == 150

    def test_bypass_cap_fires(self):
        with pytest.raises(CheckError, match="starvation"):
            checks.check_scheduler_bypass(65, 64, None)

    def test_bypass_under_cap_passes(self):
        checks.check_scheduler_bypass(64, 64, None)

    def test_age_cap_forces_front_service(self, checked):
        """An adversarial row-hit picker cannot starve the oldest
        request past the cap -- and the armed checker agrees."""
        from repro.dram.scheduler import Request

        sched = self.make()
        sched.starvation_cap = 5
        sched._first_ready = (
            lambda arrived: arrived[-1] if len(arrived) > 1 else None)
        reqs = [Request(paddr=i * 64, arrival=0.0, req_id=i)
                for i in range(20)]
        order = [c.request.req_id for c in sched.service(reqs)]
        assert order.index(0) == 5
