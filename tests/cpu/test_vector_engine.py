"""The split interpreter: equivalence, the one gate, and the scalar path.

The load-bearing property mirrors ``test_packed_trace.py`` one level
up: for **every** registered polybench kernel, ``run_vector`` (the
split interpreter) over the packed columns produces bit-for-bit the
same :class:`EngineStats` -- and the same full stats snapshot, every
cache/DRAM/prefetch counter -- as the scalar ``run_packed`` loop, on
both baseline and XMem machines.  The split path's correctness domain
is guarded by :func:`eligible`; every machine the runner, Use Case 2
and serve build must pass it, and anything outside it must run on the
scalar loop rather than answer wrongly.
"""

import pytest

from repro.cpu.tiers import run_tier
from repro.cpu.trace import MemAccess, PackedTrace, Work, XMemOp
from repro.cpu.vector_engine import eligible, run_vector
from repro.sim.config import scaled_config
from repro.sim.system import build_baseline, build_xmem
from repro.workloads.polybench import KERNELS

N = 16
TILE = 8


def mixed_events():
    """A small stream exercising every event shape and op position."""
    return [
        XMemOp("atom_map", 1, 0x1000, 64),
        MemAccess(0x1000, False, 3),
        Work(7),
        XMemOp("atom_activate", 1),
        XMemOp("atom_deactivate", 1),
        MemAccess(0x1040, True, 0),
        Work(1),
        XMemOp("atom_unmap", 1, 0x1000, 64),
    ]


def _pair(kernel, system_builder, with_lib, fused=True):
    """(run_packed handle+stats, run_vector handle+stats) on twin
    machines; ``fused`` says whether the split path must be taken."""
    cfg = scaled_config(32)
    h_pk = system_builder(cfg)
    packed_a = kernel.build_packed(N, TILE, lib=h_pk.xmemlib)
    trace_a = packed_a if with_lib else packed_a.without_xmem()
    pk_stats = h_pk.engine.run_packed(trace_a)

    h_vec = system_builder(cfg)
    packed_b = kernel.build_packed(N, TILE, lib=h_vec.xmemlib)
    trace_b = packed_b if with_lib else packed_b.without_xmem()
    assert eligible(h_vec.engine, trace_b) is fused
    vec_stats = run_vector(h_vec.engine, trace_b)
    return h_pk, pk_stats, h_vec, vec_stats


# ---------------------------------------------------------------------------
# Equivalence pins: every kernel, both systems, full snapshots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(KERNELS))
def test_vector_equals_packed_baseline(name):
    h_pk, pk_stats, h_vec, vec_stats = _pair(
        KERNELS[name], build_baseline, with_lib=False)
    assert vec_stats == pk_stats
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_vector_equals_packed_xmem(name):
    h_pk, pk_stats, h_vec, vec_stats = _pair(
        KERNELS[name], build_xmem, with_lib=True)
    assert vec_stats == pk_stats
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


def test_vector_equals_packed_checked_mode(monkeypatch):
    """REPRO_CHECK=1 sends runs to the scalar loop, where the
    per-operation checks live (and every invariant hook holds)."""
    monkeypatch.setenv("REPRO_CHECK", "1")
    h_pk, pk_stats, h_vec, vec_stats = _pair(
        KERNELS["gemm"], build_xmem, with_lib=True, fused=False)
    assert vec_stats == pk_stats
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


def test_vector_mixed_events():
    bare = PackedTrace.from_events(mixed_events()).without_xmem()
    cfg = scaled_config(32)
    h_pk = build_baseline(cfg)
    pk = h_pk.engine.run_packed(bare)
    h_vec = build_baseline(cfg)
    vec = run_vector(h_vec.engine, bare)
    assert vec == pk
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


@pytest.mark.parametrize("system", ["baseline", "xmem"])
@pytest.mark.parametrize("kernel,tile", [
    ("gemm", 12), ("gemm", 48), ("mvt", 12), ("mvt", 48)])
def test_sweep_points_match_reference(kernel, tile, system):
    """CI's sweep points (``repro sweep --kernels gemm,mvt --n 48
    --tiles 12,48``), built as the runner builds them: the production
    engine and the object-event reference engine give the same
    EngineStats and the same full stats snapshot."""
    from repro.cpu.trace import strip_xmem
    from repro.sim.runner import SYSTEM_BUILDERS, SimPoint, record_trace
    from repro.testing.oracles import with_reference_engine

    point = SimPoint(kernel, 48, tile)
    cfg = point.config()
    recording = record_trace(kernel, 48, tile)
    h_pk = SYSTEM_BUILDERS[system](cfg)
    pk = h_pk.run(recording.replay(h_pk.xmemlib))
    h_ref = with_reference_engine(SYSTEM_BUILDERS[system](cfg))
    trace = recording.replay(h_ref.xmemlib)
    ref = h_ref.engine.run(trace if h_ref.xmemlib is not None
                           else strip_xmem(trace))
    assert pk == ref
    assert h_pk.stats_snapshot() == h_ref.stats_snapshot()


# ---------------------------------------------------------------------------
# The one gate and the scalar path
# ---------------------------------------------------------------------------

#: Every (scale, LLC bytes, bandwidth) the runner builds machines at
#: for the committed tables, the perf bench and serve's defaults:
#: scale 32 (SimPoint and serve), 16 (ablation), 8 (Use Case 2's
#: base); Fig. 5's three LLC sizes and Fig. 6's bandwidth scales.
PRODUCTION_SHAPES = (
    [(scale, None, 1.0) for scale in (8, 16, 32)]
    + [(32, llc, 1.0) for llc in (64 * 1024, 32 * 1024, 16 * 1024)]
    + [(32, None, bw) for bw in (0.5, 0.25)]
)


class TestEligibility:
    def _handle(self):
        h = build_baseline(scaled_config(32))
        return h, KERNELS["gemm"].build_packed(N, TILE).without_xmem()

    def test_baseline_machine_is_eligible(self):
        h, trace = self._handle()
        assert eligible(h.engine, trace)

    def test_object_stream_is_not(self):
        h, trace = self._handle()
        assert not eligible(h.engine, list(trace.events()))

    def test_perfect_row_buffer_is_eligible(self):
        h, trace = self._handle()
        h.dram.perfect_rbl = True
        assert eligible(h.engine, trace)

    @pytest.mark.parametrize("component", ["cache", "mshr"])
    def test_installed_checks_fall_back(self, component):
        """Checked components take the scalar loop, even when the
        engine itself was built with checks off."""
        h, trace = self._handle()
        if component == "cache":
            h.memory.hierarchy.levels[1]._install_checks()
        else:
            h.engine.mshr._install_checks()
        assert not eligible(h.engine, trace)

    def test_non_pow2_issue_width_falls_back(self):
        h, trace = self._handle()
        h.engine.issue_width = 3
        assert not eligible(h.engine, trace)

    def test_prefetch_log_hook_falls_back(self):
        h, trace = self._handle()
        h.memory._prefetch_log = []
        assert not eligible(h.engine, trace)

    @pytest.mark.parametrize("scale,llc,bandwidth", PRODUCTION_SHAPES)
    def test_every_production_machine_passes_the_gate(self, scale, llc,
                                                      bandwidth):
        """Every machine the runner builds (each ``SYSTEM_BUILDERS``
        system, with the point's LLC and bandwidth variants) takes the
        split interpreter: a new production shape must not drop
        silently to the scalar loop."""
        from repro.sim.runner import SYSTEM_BUILDERS, SimPoint

        cfg = SimPoint("gemm", N, TILE, scale=scale, llc_bytes=llc,
                       bandwidth=bandwidth).config()
        trace = KERNELS["gemm"].build_packed(N, TILE)
        for build in SYSTEM_BUILDERS.values():
            h = build(cfg)
            assert eligible(h.engine, h.trace_for(trace))

    def test_fallback_still_runs_exactly(self):
        """An ineligible shape answers through run_packed, not wrongly."""
        cfg = scaled_config(32)
        h_pk = build_baseline(cfg)
        trace = KERNELS["gemm"].build_packed(N, TILE).without_xmem()
        pk = h_pk.engine.run_packed(trace)
        h_vec = build_baseline(cfg)
        h_vec.memory._prefetch_log = []
        vec = run_vector(h_vec.engine, trace)
        assert vec == pk


# ---------------------------------------------------------------------------
# Suite-catalog shapes (Use Case 2 machines, pre-translated streams)
# ---------------------------------------------------------------------------

def _suite_twin(name, accesses=8_000, perfect_rbl=False):
    """Twin translation-free UC2 machines + the workload's physical
    stream (the full-size 27-workload sweep runs out of band; this
    pins the same machine shape in-tree at test-sized streams)."""
    from repro.cpu.engine import TraceEngine
    from repro.dram.system import DramSystem
    from repro.mem.hierarchy import CacheHierarchy
    from repro.mem.prefetch import MultiStridePrefetcher
    from repro.sim import usecase2 as uc2
    from repro.sim.system import MemorySystem
    from repro.sim.usecase2 import usecase2_config
    from repro.workloads.suite import BY_NAME
    from repro.xos.loader import OperatingSystem

    wl = BY_NAME[name]
    cfg = usecase2_config()
    osys = OperatingSystem(cfg.dram_geometry, mapping=uc2.XMEM_MAPPING,
                           allocator="randomized", seed=17)
    proc = osys.create_process()
    bases = wl.instantiate(proc)
    events = []
    for i, ev in enumerate(wl.trace(bases)):
        if i >= accesses:
            break
        if isinstance(ev, MemAccess):
            ev = MemAccess(proc.translate(ev.vaddr), ev.is_write, ev.work)
        events.append(ev)

    def machine():
        hierarchy = CacheHierarchy(cfg.levels, cfg.line_bytes)
        dram = DramSystem(geometry=cfg.dram_geometry,
                          timing=cfg.timing(), mapping=uc2.XMEM_MAPPING,
                          perfect_rbl=perfect_rbl)
        stride = MultiStridePrefetcher(
            streams=cfg.prefetcher.streams, degree=cfg.prefetcher.degree,
            line_bytes=cfg.line_bytes)
        memory = MemorySystem(hierarchy, dram, stride_prefetcher=stride)
        engine = TraceEngine(memory, xmemlib=None,
                             issue_width=cfg.cpu.issue_width,
                             window=cfg.cpu.window)
        return memory, engine

    return machine, PackedTrace.from_events(events)


@pytest.mark.parametrize("name", ["mcf", "milc", "lbm", "kmeans", "spmv"])
def test_vector_equals_packed_suite_shapes(name):
    _check_suite_twin(name)


@pytest.mark.parametrize("name", ["mcf", "lbm"])
def test_vector_equals_packed_perfect_row_buffer(name):
    """The Ideal system's forced row hits, inlined at every DRAM
    read site of the fused loop."""
    _check_suite_twin(name, perfect_rbl=True)


def _check_suite_twin(name, perfect_rbl=False):
    from repro.sim.system import SystemHandle

    machine, packed = _suite_twin(name, perfect_rbl=perfect_rbl)
    m_pk, e_pk = machine()
    pk = e_pk.run_packed(packed)
    m_vec, e_vec = machine()
    assert eligible(e_vec, packed)
    vec = run_vector(e_vec, packed)
    assert vec == pk
    h_pk = SystemHandle(name="t", config=None, engine=e_pk, memory=m_pk)
    h_vec = SystemHandle(name="t", config=None, engine=e_vec, memory=m_vec)
    assert h_vec.stats_snapshot() == h_pk.stats_snapshot()


# ---------------------------------------------------------------------------
# Dispatch: SystemHandle.run / run_tier
# ---------------------------------------------------------------------------

class TestTierSelector:
    def test_default_is_packed(self, monkeypatch, tmp_path):
        """``REPRO_ENGINE`` is no longer read: with any value exported,
        a run takes the split interpreter and its manifest records the
        constant ``trace.tier`` of ``packed``."""
        from repro.sim.runner import RunContext, SimPoint, run_point

        monkeypatch.setenv("REPRO_ENGINE", "analytical")
        ctx = RunContext.from_env(cache_root=tmp_path)
        result = run_point(SimPoint("mvt", N, TILE), collect=True,
                           ctx=ctx)
        assert result.manifest["trace"]["tier"] == "packed"
        assert result.manifest["env"]["REPRO_ENGINE"] == "analytical"
        h = build_baseline(scaled_config(32))
        stats = h.run(KERNELS["mvt"].build_packed(N, TILE))
        assert result.runs["baseline"].stats == stats

    def test_packed_tier_runs_the_fused_interpreter(self, monkeypatch):
        from repro.cpu import vector_engine

        calls = []
        real = vector_engine.run_shared

        def spy(engines, traces, seconds=None):
            calls.extend(eligible(e, t) for e, t in zip(engines, traces))
            return real(engines, traces, seconds)

        monkeypatch.setattr(vector_engine, "run_shared", spy)
        h = build_baseline(scaled_config(32))
        h.run(KERNELS["gemm"].build_packed(N, TILE))
        assert calls == [True]

    @pytest.mark.parametrize("form", ["object", "packed"])
    def test_exact_tiers_agree_via_run_tier(self, form):
        """``run_tier`` matches the scalar loop, whether the caller
        passes an object stream or packed columns."""
        cfg = scaled_config(32)
        h_ref = build_xmem(cfg)
        trace = KERNELS["mvt"].build_packed(N, TILE, lib=h_ref.xmemlib)
        ref = h_ref.engine.run_packed(trace)
        h = build_xmem(cfg)
        trace2 = KERNELS["mvt"].build_packed(N, TILE, lib=h.xmemlib)
        if form == "object":
            trace2 = list(trace2.events())
        assert run_tier(h.engine, trace2) == ref

    def test_every_tier_accepts_object_streams(self):
        """Callers may pass object streams as well as packed columns."""
        h = build_baseline(scaled_config(32))
        stats = run_tier(h.engine, mixed_events()[1:2])
        assert stats.mem_accesses == 1


# ---------------------------------------------------------------------------
# Shared runs: one front-end pass, per-machine back-ends
# ---------------------------------------------------------------------------

def _plain(trace):
    """A trace source for machines that need no XMem setup."""
    return lambda handle: trace


def _recorded(kernel, n, tile):
    """A trace source replaying one recording (setup included)."""
    from repro.sim.runner import record_trace

    recording = record_trace(kernel, n, tile)
    return lambda handle: recording.replay(handle.xmemlib)


def _assert_shared_matches(machines, trace_for, warm=()):
    """Run ``machines`` ((builder, cfg) pairs) three ways -- in one
    shared call, one at a time, and on ``ReferenceEngine`` twins -- on
    the trace ``trace_for(handle)`` gives each, and require equal
    EngineStats and full snapshots.  Machines whose index is in
    ``warm`` run the trace once beforehand, in every way.  Returns the
    shared run's handles and the sizes of its lockstep groups."""
    from repro.cpu import vector_engine
    from repro.cpu.trace import strip_xmem
    from repro.sim.system import run_machines
    from repro.testing.oracles import with_reference_engine

    groups = []
    lockstep = vector_engine._run_lockstep

    def spy(engines, traces):
        groups.append(len(engines))
        return lockstep(engines, traces)

    def reference_run(ref):
        trace = trace_for(ref)
        return ref.engine.run(trace if ref.xmemlib is not None
                              else strip_xmem(trace))

    shared = [builder(cfg) for builder, cfg in machines]
    for k in warm:
        shared[k].run(trace_for(shared[k]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vector_engine, "_run_lockstep", spy)
        got = run_machines(shared, [trace_for(h) for h in shared])
    for k, ((builder, cfg), h, stats) in enumerate(
            zip(machines, shared, got)):
        solo = builder(cfg)
        ref = with_reference_engine(builder(cfg))
        for _ in range(2 if k in warm else 1):
            solo_stats = solo.run(trace_for(solo))
            ref_stats = reference_run(ref)
        assert solo_stats == stats == ref_stats
        assert h.stats_snapshot() == solo.stats_snapshot() \
            == ref.stats_snapshot()
    return shared, groups


def _tiny_llc_config():
    """A machine whose L2 (8 lines) and LLC (16 lines) are far smaller
    than its L1 (128 lines): lines outlive their LLC copy in L1."""
    import dataclasses

    from repro.mem.hierarchy import LevelConfig

    return dataclasses.replace(scaled_config(32), levels=[
        LevelConfig("L1", 8 * 1024, 8, latency=4, policy="lru"),
        LevelConfig("L2", 512, 8, latency=8, policy="drrip"),
        LevelConfig("L3", 1024, 16, latency=27, policy="drrip"),
    ])


def _inflight_hit_trace():
    """Line X enters every level; 40 lines elsewhere push it out of L2
    and the LLC but not out of L1; a stride stream X-192, X-128, X-64
    then prefetches X into the LLC, and X is read at once -- an L1 hit
    on a line whose prefetch has not landed."""
    x = 0x100400
    events = [MemAccess(x, False, 0)]
    events += [MemAccess(0x200000 + 64 * k, False, 0) for k in range(40)]
    events += [MemAccess(x - 192, False, 0), MemAccess(x - 128, False, 0),
               MemAccess(x - 64, False, 0), MemAccess(x, False, 1),
               Work(3), MemAccess(0x300000, True, 0)]
    return PackedTrace.from_events(events)


@pytest.mark.parametrize("chunk", [4096, 44])
def test_inflight_prefetch_l1_hit(monkeypatch, chunk):
    """An L1 hit that must wait for an in-flight prefetch: the shared
    run, the one-machine run and ReferenceEngine agree.  ``chunk=44``
    ends a chunk right after the prefetching access, so the awaited
    line is carried into the next chunk."""
    from repro.cpu import vector_engine

    monkeypatch.setattr(vector_engine, "CHUNK", chunk)
    cfg = _tiny_llc_config()
    shared, groups = _assert_shared_matches(
        [(build_baseline, cfg), (build_baseline, cfg.with_bandwidth(0.5))],
        _plain(_inflight_hit_trace()))
    assert groups == [2]
    for h in shared:
        l1 = h.memory.hierarchy.levels[0].stats
        # Every L1 miss reserves an MSHR entry (its L2 lookup alone
        # outlasts a pipelined access); one more reservation can only
        # come from an L1 hit that waited for its prefetch.
        assert h.engine.mshr.stats.reservations == l1.misses + 1


def test_copied_private_state_carries_into_the_next_run():
    """After a shared run every machine holds the front-end's L1, L2
    and stride state: running the trace again matches a reference
    twin that ran it twice."""
    from repro.cpu.trace import strip_xmem
    from repro.sim.system import run_machines
    from repro.testing.oracles import with_reference_engine

    cfg = scaled_config(32)
    trace_for = _recorded("mvt", 24, TILE)
    builders = [build_baseline, build_xmem]
    shared = [builder(cfg) for builder in builders]
    run_machines(shared, [trace_for(h) for h in shared])
    for builder, h in zip(builders, shared):
        ref = with_reference_engine(builder(cfg))
        for _ in range(2):
            trace = trace_for(ref)
            ref_stats = ref.engine.run(trace if ref.xmemlib is not None
                                       else strip_xmem(trace))
        assert h.run(trace_for(h)) == ref_stats
        assert h.stats_snapshot() == ref.stats_snapshot()


@pytest.mark.parametrize("systems", [("baseline",), ("baseline", "xmem")])
def test_exactness_ceiling_falls_back_to_per_event_time(monkeypatch,
                                                        systems):
    """Past ``now_limit`` time accrues per event, as in the reference.
    A patched grid exponent puts the ceiling at 2**12 cycles, so an
    ordinary run crosses it after a few chunks."""
    from repro.cpu import vector_engine
    from repro.sim.runner import SYSTEM_BUILDERS

    monkeypatch.setattr(vector_engine, "_dyadic_k", lambda values: 40)
    monkeypatch.setattr(vector_engine, "CHUNK", 128)
    cfg = scaled_config(32)
    shared, _ = _assert_shared_matches(
        [(SYSTEM_BUILDERS[s], cfg) for s in systems],
        _recorded("gemm", 24, TILE))
    assert all(h.engine.last_stats.cycles > 3 * 2 ** 12 for h in shared)


def _variant(cfg, level=None, **changes):
    """``cfg`` with one cache level's (or the stride prefetcher's)
    fields changed."""
    import dataclasses

    if level is None:
        return dataclasses.replace(cfg, prefetcher=dataclasses.replace(
            cfg.prefetcher, **changes))
    levels = list(cfg.levels)
    levels[level] = dataclasses.replace(levels[level], **changes)
    return dataclasses.replace(cfg, levels=levels)


class TestSharingGate:
    """Machines share a front-end pass only when their private parts
    are equal; every other machine runs alone and still matches the
    reference."""

    CFG = scaled_config(32)

    def _run(self, machines, warm=()):
        return _assert_shared_matches(
            machines, _recorded("gemm", N, TILE), warm=warm)[1]

    def test_machines_below_l2_share(self):
        from repro.sim.system import build_xmem_pref

        machines = [(build_baseline, self.CFG),
                    (build_xmem, self.CFG.with_llc(16 * 1024)),
                    (build_xmem_pref, self.CFG.with_bandwidth(0.5))]
        assert self._run(machines) == [3]

    def test_l1_size_runs_apart(self):
        machines = [(build_baseline, self.CFG),
                    (build_baseline, _variant(self.CFG, 0,
                                              size_bytes=4096))]
        assert self._run(machines) == [1, 1]

    def test_l2_policy_runs_apart(self):
        """An SRRIP L2 is outside the split shape: that machine runs
        the scalar loop, the other one alone."""
        machines = [(build_baseline, self.CFG),
                    (build_baseline, _variant(self.CFG, 1,
                                              policy="srrip"))]
        assert self._run(machines) == [1]

    def test_stride_degree_runs_apart(self):
        machines = [(build_baseline, self.CFG),
                    (build_xmem, _variant(self.CFG, degree=4))]
        assert self._run(machines) == [1, 1]

    def test_already_run_machine_runs_apart(self):
        machines = [(build_baseline, self.CFG), (build_xmem, self.CFG)]
        assert self._run(machines, warm=(1,)) == [1, 1]

    def test_checked_runs_keep_the_scalar_loop(self, monkeypatch):
        from repro.cpu.engine import TraceEngine

        monkeypatch.setenv("REPRO_CHECK", "1")
        calls = []
        real = TraceEngine.run_packed

        def spy(engine, trace):
            calls.append(engine)
            return real(engine, trace)

        monkeypatch.setattr(TraceEngine, "run_packed", spy)
        machines = [(build_baseline, self.CFG), (build_xmem, self.CFG)]
        shared, groups = _assert_shared_matches(
            machines, _recorded("gemm", N, TILE))
        assert groups == [] and calls[:2] == [h.engine for h in shared]

    @pytest.mark.parametrize("shape", ["srrip-l2", "random-l1",
                                       "two-level", "issue-3"])
    def test_off_shape_runs_the_scalar_loop(self, monkeypatch, shape):
        """A machine off the shipped shape goes through ``run_shared``
        to ``run_packed`` and still equals ``ReferenceEngine``; the
        shipped machine beside it keeps the split interpreter."""
        import dataclasses

        from repro.cpu.engine import TraceEngine
        from repro.sim.config import CpuConfig

        cfg = self.CFG
        if shape == "srrip-l2":
            off = _variant(cfg, 1, policy="srrip")
        elif shape == "random-l1":
            off = _variant(cfg, 0, policy="random")
        elif shape == "two-level":
            off = dataclasses.replace(
                cfg, levels=[cfg.levels[0], cfg.levels[2]])
        else:
            off = dataclasses.replace(cfg, cpu=CpuConfig(issue_width=3))
        calls = []
        real = TraceEngine.run_packed

        def spy(engine, trace):
            calls.append(engine)
            return real(engine, trace)

        monkeypatch.setattr(TraceEngine, "run_packed", spy)
        shared, groups = _assert_shared_matches(
            [(build_xmem, off), (build_baseline, cfg)],
            _recorded("gemm", N, TILE))
        assert groups == [1]
        assert calls[0] is shared[0].engine
