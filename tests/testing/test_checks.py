"""The REPRO_CHECK invariant hooks: installation, firing, zero cost."""

import pytest

from repro.testing import checks
from repro.testing.checks import CheckError
from repro.testing.generators import GenConfig, generate_trace


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
        import dataclasses

        from repro.sim import build_baseline, scaled_config
        from repro.sim.config import CpuConfig

        cfg = dataclasses.replace(scaled_config(32), cpu=CpuConfig(**kw))
        return build_baseline(cfg).engine

    def checking_of_a_run(self, monkeypatch):
        """The ``checking`` flag one run hands the front-end pass it
        computes."""
        from repro.cpu import vector_engine

        flags = []
        real = vector_engine._record

        def spy(l1, l2, stride, line_bytes, trace, checking, *rest):
            flags.append(checking)
            return real(l1, l2, stride, line_bytes, trace, checking, *rest)

        monkeypatch.setattr(vector_engine, "_record", spy)
        _, packed = generate_trace(GenConfig(seed=1, length=50))
        self.make_engine().run(packed)
        return flags

    def test_flag_follows_env(self, checked, monkeypatch):
        assert self.checking_of_a_run(monkeypatch) == [True]

    def test_flag_off_by_default(self, unchecked, monkeypatch):
        assert self.checking_of_a_run(monkeypatch) == [False]

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
    """``REPRO_CHECK=1`` checks the production path itself: the split
    interpreter re-derives every cache set it touched at each chunk
    end."""

    def test_corrupt_count_fires_during_the_run(self, checked,
                                                monkeypatch):
        from repro.cpu import vector_engine
        from repro.cpu.trace import TraceBuilder
        from repro.sim import build_baseline, scaled_config

        monkeypatch.setattr(vector_engine, "CHUNK", 4)
        handle = build_baseline(scaled_config(32))
        l1 = handle.memory.hierarchy.levels[0]
        out = TraceBuilder()
        line = l1.line_bytes
        for i in range(64):
            out.access(0x10000 + (i % 8) * line * l1.num_sets)
        l1._valid_counts[l1._index(0x10000)] += 1
        with pytest.raises(CheckError, match="valid count"):
            handle.run(out.build())
        # Caught at the end of the first chunk, long before the end of
        # the run, where the counters are flushed.
        assert l1.stats.accesses == 0

    def test_stale_lru_stamp_fires_during_the_run(self, checked):
        """A stamp above the clock in an L1 set breaks the fold check:
        after a chunk, the set's last-accessed line must hold the
        set's largest stamp."""
        from repro.cpu.trace import TraceBuilder
        from repro.sim import build_baseline, scaled_config

        handle = build_baseline(scaled_config(32))
        l1 = handle.memory.hierarchy.levels[0]
        out = TraceBuilder()
        for _ in range(3):
            out.access(0x10000)
        l1.policy._stamp[l1._index(0x10000)][l1.ways - 1] = 10 ** 9
        with pytest.raises(CheckError, match="largest"):
            handle.run(out.build())


class TestFoldChecks:
    """The front-end's MRU-run fold and L1 line index checks, on a
    cache driven access by access through its methods."""

    def drive(self):
        from repro.mem.cache import Cache

        cache = Cache("T", 4096, 4, 64, policy="lru")
        lines = []
        for i in range(60):
            line = (i // 3 % 7) * 64 * cache.num_sets + (i % 2) * 64
            if not cache.access(line, i % 5 == 0).hit:
                cache.fill(line, dirty=i % 5 == 0)
            lines.append(line)
            if i % 4 == 0:
                lines.append(-1)         # a Work row
        return cache, lines

    def test_access_by_access_passes(self):
        cache, lines = self.drive()
        checks.check_lru_fold(cache, 0, lines)

    def test_wrong_clock_fires(self):
        cache, lines = self.drive()
        cache.policy._clock += 1
        with pytest.raises(CheckError, match="LRU clock"):
            checks.check_lru_fold(cache, 0, lines)

    def test_early_stamp_fires(self):
        """A run's leader stamped with its own clock, one access before
        the last of its run."""
        cache, lines = self.drive()
        last = lines[-1] if lines[-1] >= 0 else lines[-2]
        si = cache._index(last)
        way = cache._tags[si].index(cache._tag(last))
        cache.policy._stamp[si][way] -= 1
        with pytest.raises(CheckError, match="stamp"):
            checks.check_lru_fold(cache, 0, lines)

    def test_line_index(self):
        cache, _ = self.drive()
        where = {(tag * cache.num_sets + si) * 64: way
                 for si, row in enumerate(cache._tags)
                 for way, tag in enumerate(row) if tag >= 0}
        checks.check_line_index(cache, where)
        where[next(iter(where)) + 64 * cache.num_sets * 100] = 0
        with pytest.raises(CheckError, match="line-to-way index"):
            checks.check_line_index(cache, where)


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
