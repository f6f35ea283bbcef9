"""The split interpreter: equivalence, the one gate, and its checks.

The load-bearing property mirrors ``test_packed_trace.py`` one level
up: for **every** registered polybench kernel, the split interpreter
over the packed columns produces bit-for-bit the same
:class:`EngineStats` -- and the same full stats snapshot, every
cache/DRAM/prefetch counter -- as the textbook ``ReferenceEngine`` on
an identically built machine, on both baseline and XMem machines.
:func:`check_shape` is the one gate: every machine the runner, Use
Case 2 and serve build must pass it, and anything outside it is
refused rather than answered wrongly.  The front-end's MRU-run fold
leaves the L1's stamps, clock and dirty bits as the reference's, on
its edge cases too.  With ``REPRO_CHECK`` set the interpreter
re-derives what it touched at every chunk end.
"""

from array import array

import pytest

from repro.core.errors import ConfigurationError
from repro.cpu.tiers import run_tier
from repro.cpu.trace import (
    MemAccess,
    PackedTrace,
    TraceBuilder,
    Work,
    XMemOp,
)
from repro.cpu.vector_engine import check_shape
from repro.sim.config import scaled_config
from repro.sim.system import build_baseline, build_xmem
from repro.testing.checks import CheckError
from repro.testing.oracles import ReferenceEngine, with_reference_engine
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


def _pair(kernel, system_builder, with_lib, cfg=None):
    """(ReferenceEngine handle+stats, production handle+stats) on twin
    machines."""
    cfg = cfg or scaled_config(32)
    h_ref = with_reference_engine(system_builder(cfg))
    packed_a = kernel.build_packed(N, TILE, lib=h_ref.xmemlib)
    trace_a = packed_a if with_lib else packed_a.without_xmem()
    ref_stats = h_ref.engine.run(trace_a)

    h_vec = system_builder(cfg)
    packed_b = kernel.build_packed(N, TILE, lib=h_vec.xmemlib)
    trace_b = packed_b if with_lib else packed_b.without_xmem()
    vec_stats = h_vec.engine.run(trace_b)
    return h_ref, ref_stats, h_vec, vec_stats


def _spy_passes(monkeypatch):
    """Record every front-end pass the split interpreter computes
    rather than replays from the store, as its ``checking`` flag."""
    from repro.cpu import vector_engine

    passes = []
    real = vector_engine._record

    def spy(l1, l2, stride, line_bytes, trace, checking, *rest):
        passes.append(checking)
        return real(l1, l2, stride, line_bytes, trace, checking, *rest)

    monkeypatch.setattr(vector_engine, "_record", spy)
    return passes


# ---------------------------------------------------------------------------
# Equivalence pins: every kernel, both systems, full snapshots
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(KERNELS))
def test_vector_equals_packed_baseline(name):
    h_ref, ref_stats, h_vec, vec_stats = _pair(
        KERNELS[name], build_baseline, with_lib=False)
    assert vec_stats == ref_stats
    assert h_vec.stats_snapshot() == h_ref.stats_snapshot()


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_vector_equals_packed_xmem(name):
    h_ref, ref_stats, h_vec, vec_stats = _pair(
        KERNELS[name], build_xmem, with_lib=True)
    assert vec_stats == ref_stats
    assert h_vec.stats_snapshot() == h_ref.stats_snapshot()


def test_vector_equals_packed_checked_mode(monkeypatch):
    """With REPRO_CHECK=1 the run still takes the split interpreter,
    now with its checks armed, and every invariant holds."""
    monkeypatch.setenv("REPRO_CHECK", "1")
    passes = _spy_passes(monkeypatch)
    h_ref, ref_stats, h_vec, vec_stats = _pair(
        KERNELS["gemm"], build_xmem, with_lib=True)
    assert passes == [True]
    assert vec_stats == ref_stats
    assert h_vec.stats_snapshot() == h_ref.stats_snapshot()


def test_vector_mixed_events():
    bare = PackedTrace.from_events(mixed_events()).without_xmem()
    cfg = scaled_config(32)
    h_ref = with_reference_engine(build_baseline(cfg))
    ref = h_ref.engine.run(bare)
    h_vec = build_baseline(cfg)
    vec = h_vec.engine.run(bare)
    assert vec == ref
    assert h_vec.stats_snapshot() == h_ref.stats_snapshot()


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
# The one gate
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


class TestNegativeAddresses:
    """A negative line's tag would match an invalid way (-1) and the
    front-end's Work marker: both engines refuse such a trace, naming
    the first negative position, and the builder refuses the access."""

    @staticmethod
    def _trace():
        # Built column by column, past the builder's own refusal:
        # an access, a Work block, then the negative access.
        return PackedTrace(array("q", [0x1000, 0, -64]),
                           array("q", [0, 7 << 2 | 2, 0]))

    def test_single_core_refuses(self):
        with pytest.raises(ConfigurationError, match="position 2"):
            build_baseline(scaled_config(32)).run(self._trace())

    def test_corun_refuses(self):
        from repro.sim.corun import CorunSystem

        good = PackedTrace.from_events([MemAccess(0x2000)])
        with pytest.raises(ConfigurationError, match="position 2"):
            CorunSystem(scaled_config(32), 2).run([good, self._trace()])

    def test_builder_refuses(self):
        with pytest.raises(ConfigurationError, match="negative address"):
            TraceBuilder().access(-64)
        with pytest.raises(ConfigurationError, match="negative address"):
            build_baseline(scaled_config(32)).run([MemAccess(-64)])


def _issue3_config(cfg=None):
    """``cfg`` with issue width 3: off the dyadic timing grid."""
    import dataclasses

    from repro.sim.config import CpuConfig

    cfg = cfg or scaled_config(32)
    return dataclasses.replace(cfg, cpu=CpuConfig(issue_width=3))


class TestEligibility:
    def _handle(self):
        h = build_baseline(scaled_config(32))
        return h, KERNELS["gemm"].build_packed(N, TILE).without_xmem()

    def test_baseline_machine_is_eligible(self):
        h, _ = self._handle()
        check_shape(h.engine)

    def test_object_stream_is_not(self, monkeypatch):
        """Object streams are packed before they reach the
        interpreter."""
        from repro.cpu import vector_engine

        seen = []
        real = vector_engine.run_trace

        def spy(engine, trace):
            seen.append(type(trace))
            return real(engine, trace)

        monkeypatch.setattr(vector_engine, "run_trace", spy)
        h, trace = self._handle()
        h.engine.run(list(trace.events()))
        assert seen == [PackedTrace]

    def test_perfect_row_buffer_is_eligible(self):
        h, _ = self._handle()
        h.dram.perfect_rbl = True
        check_shape(h.engine)

    @pytest.mark.parametrize("component", ["cache", "mshr"])
    def test_installed_checks_fall_back(self, monkeypatch, component):
        """Components carrying ``REPRO_CHECK`` wrappers run on the split
        interpreter, which checks what they wrap itself."""
        h, trace = self._handle()
        if component == "cache":
            h.memory.hierarchy.levels[1]._install_checks()
        else:
            h.engine.mshr._install_checks()
        check_shape(h.engine)
        passes = _spy_passes(monkeypatch)
        ref = with_reference_engine(build_baseline(scaled_config(32)))
        assert h.engine.run(trace) == ref.engine.run(trace)
        assert passes == [False]
        assert h.stats_snapshot() == ref.stats_snapshot()

    def test_non_pow2_issue_width_falls_back(self, monkeypatch):
        """Issue width 3 is off the dyadic grid: the machine passes the
        gate, runs split, and its back-end finds no grid, so it falls
        back to per-event time (``test_fallback_still_runs_exactly``
        holds the result to the reference)."""
        from repro.cpu import vector_engine

        h = build_baseline(_issue3_config())
        check_shape(h.engine)
        grids = []
        real = vector_engine.dyadic_k

        def spy(values):
            grids.append(real(values))
            return grids[-1]

        monkeypatch.setattr(vector_engine, "dyadic_k", spy)
        passes = _spy_passes(monkeypatch)
        h.run(KERNELS["gemm"].build_packed(N, TILE))
        assert passes == [False] and grids == [None]

    @pytest.mark.parametrize("off", ["memory", "l1-latency",
                                     "fractional-latency", "dram-mapping"])
    def test_off_shape_is_refused(self, off):
        """Machines the interpreter is not written for raise
        ConfigurationError naming the component."""
        from repro.cpu.engine import TraceEngine
        from repro.dram.mapping import make_mapping
        from repro.testing.oracles import ToyMemory

        h, trace = self._handle()
        engine = h.engine
        if off == "memory":
            engine = TraceEngine(ToyMemory(0))
            match = "memory must be a MemorySystem"
        elif off == "l1-latency":
            h.memory.hierarchy.latencies[0] = 5
            match = "L1 latency 5 exceeds"
        elif off == "dram-mapping":
            h.dram.mapping = make_mapping("scheme5", h.dram.geometry)
            match = "engine's DRAM: DRAM mapping 'scheme5'"
        else:
            h.memory.hierarchy.latencies[1] = 8.5
            match = "whole cycles"
        with pytest.raises(ConfigurationError, match=match):
            engine.run(trace)

    @pytest.mark.parametrize("scale,llc,bandwidth", PRODUCTION_SHAPES)
    def test_every_production_machine_passes_the_gate(self, scale, llc,
                                                      bandwidth):
        """Every machine the runner builds (each ``SYSTEM_BUILDERS``
        system, with the point's LLC and bandwidth variants) passes
        the gate: a new production shape must not be refused."""
        from repro.sim.runner import SYSTEM_BUILDERS, SimPoint

        cfg = SimPoint("gemm", N, TILE, scale=scale, llc_bytes=llc,
                       bandwidth=bandwidth).config()
        for build in SYSTEM_BUILDERS.values():
            check_shape(build(cfg).engine)

    def test_fallback_still_runs_exactly(self):
        """The per-event fallback (issue width 3) answers exactly:
        stats and full snapshot equal ReferenceEngine's."""
        h_ref, ref_stats, h_vec, vec_stats = _pair(
            KERNELS["gemm"], build_xmem, with_lib=True,
            cfg=_issue3_config())
        assert vec_stats == ref_stats
        assert h_vec.stats_snapshot() == h_ref.stats_snapshot()


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
    m_ref, e = machine()
    e_ref = ReferenceEngine(m_ref, issue_width=e.issue_width,
                            window=e.mshr.entries)
    ref = e_ref.run(packed)
    m_vec, e_vec = machine()
    check_shape(e_vec)
    vec = e_vec.run(packed)
    assert vec == ref
    h_ref = SystemHandle(name="t", config=None, engine=e_ref, memory=m_ref)
    h_vec = SystemHandle(name="t", config=None, engine=e_vec, memory=m_vec)
    assert h_vec.stats_snapshot() == h_ref.stats_snapshot()


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
        passes = _spy_passes(monkeypatch)
        h = build_baseline(scaled_config(32))
        h.run(KERNELS["gemm"].build_packed(N, TILE))
        assert passes == [False]

    @pytest.mark.parametrize("form", ["object", "packed"])
    def test_exact_tiers_agree_via_run_tier(self, form):
        """``run_tier`` matches ReferenceEngine, whether the caller
        passes an object stream or packed columns."""
        cfg = scaled_config(32)
        h_ref = with_reference_engine(build_xmem(cfg))
        trace = KERNELS["mvt"].build_packed(N, TILE, lib=h_ref.xmemlib)
        ref = h_ref.engine.run(trace)
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
# Shared front-ends: one computed pass, replayed by later machines
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
    """Run ``machines`` ((builder, cfg) pairs) one after the other on
    the trace ``trace_for(handle)`` gives each -- a machine whose
    private parts start as an earlier one's did replays its front-end
    -- and on ``ReferenceEngine`` twins, and require equal EngineStats
    and full snapshots.  Machines whose index is in ``warm`` run the
    trace once beforehand, in both ways.  Returns the handles and the
    number of front-end passes computed, warm runs included."""
    from repro.cpu.trace import strip_xmem

    def reference_run(ref):
        trace = trace_for(ref)
        return ref.engine.run(trace if ref.xmemlib is not None
                              else strip_xmem(trace))

    with pytest.MonkeyPatch.context() as mp:
        passes = _spy_passes(mp)
        shared = [builder(cfg) for builder, cfg in machines]
        for k in warm:
            shared[k].run(trace_for(shared[k]))
        got = [h.run(trace_for(h)) for h in shared]
    for k, ((builder, cfg), h, stats) in enumerate(
            zip(machines, shared, got)):
        ref = with_reference_engine(builder(cfg))
        for _ in range(2 if k in warm else 1):
            ref_stats = reference_run(ref)
        assert stats == ref_stats
        assert h.stats_snapshot() == ref.stats_snapshot()
    return shared, len(passes)


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
    """An L1 hit that must wait for an in-flight prefetch: the
    computed run, the replaying run and ReferenceEngine agree.  ``chunk=44``
    ends a chunk right after the prefetching access, so the awaited
    line is carried into the next chunk."""
    from repro.cpu import vector_engine

    monkeypatch.setattr(vector_engine, "CHUNK", chunk)
    cfg = _tiny_llc_config()
    shared, passes = _assert_shared_matches(
        [(build_baseline, cfg), (build_baseline, cfg.with_bandwidth(0.5))],
        _plain(_inflight_hit_trace()))
    assert passes == 1
    for h in shared:
        l1 = h.memory.hierarchy.levels[0].stats
        # Every L1 miss reserves an MSHR entry (its L2 lookup alone
        # outlasts a pipelined access); one more reservation can only
        # come from an L1 hit that waited for its prefetch.
        assert h.engine.mshr.stats.reservations == l1.misses + 1


@pytest.mark.parametrize("checked", [False, True])
@pytest.mark.parametrize("shift", [0, 1 << 32])
def test_stored_records_narrow_unless_a_value_needs_64_bits(monkeypatch,
                                                           checked, shift):
    """A stored front-end keeps each record array as ``array('i')``,
    or as ``array('q')`` where a value does not fit: addresses at or
    above 2**31 store their lines and stride targets in 64 bits.  Its
    replay is bit-identical to a computed run and to the reference,
    plain and under ``REPRO_CHECK`` (which recomputes and compares)."""
    from repro.cpu import vector_engine

    monkeypatch.setenv("REPRO_CHECK", "1" if checked else "0")
    base = KERNELS["gemm"].build_packed(N, TILE).without_xmem()
    vaddr = array("q", base.vaddr)
    for k, meta in enumerate(base.meta):
        if not meta & 2:
            vaddr[k] += shift
    trace = PackedTrace(vaddr, array("q", base.meta))
    machines = [(build_baseline, scaled_config(32))] * 2
    _, passes = _assert_shared_matches(machines, lambda _: trace)
    assert passes == 1
    key = (id(trace.vaddr), id(trace.meta), len(trace.vaddr),
           len(trace.meta))
    (entry,) = vector_engine._RECORDED[key][1]
    wide = "q" if shift else "i"
    for chunk in entry.chunks:
        _, _, rec_i, rec_code, rec_ext, rec_u, rec_pf, l1_end = chunk
        assert rec_i.typecode == rec_u.typecode == "i"
        assert rec_code.typecode == l1_end.typecode == wide
        if rec_ext:
            assert rec_ext.typecode == wide
    assert {c[6].typecode for c in entry.chunks if c[6]} == {wide}


def test_copied_private_state_carries_into_the_next_run():
    """After a run -- the first computes the front-end, the second
    replays it -- every machine holds the front-end's L1, L2 and
    stride state: running the trace again (the second machine again
    replays the first one's warm pass) matches a reference twin that
    ran it twice."""
    from repro.cpu.trace import strip_xmem

    cfg = scaled_config(32)
    trace_for = _recorded("mvt", 24, TILE)
    builders = [build_baseline, build_xmem]
    shared = [builder(cfg) for builder in builders]
    for h in shared:
        h.run(trace_for(h))
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

    monkeypatch.setattr(vector_engine, "dyadic_k", lambda values: 40)
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
    """A machine replays a stored front-end only when its private parts
    start equal to the stored run's; every other machine computes its
    own pass and still matches the reference."""

    CFG = scaled_config(32)

    def _run(self, machines, warm=()):
        return _assert_shared_matches(
            machines, _recorded("gemm", N, TILE), warm=warm)[1]

    def test_machines_below_l2_share(self):
        from repro.sim.system import build_xmem_pref

        machines = [(build_baseline, self.CFG),
                    (build_xmem, self.CFG.with_llc(16 * 1024)),
                    (build_xmem_pref, self.CFG.with_bandwidth(0.5))]
        assert self._run(machines) == 1

    def test_sim_point_computes_one_pass(self, monkeypatch):
        """A point's machines run one after the other: baseline
        computes the front-end, XMem and XMem-Pref replay it."""
        from repro.sim import runner

        monkeypatch.setattr(runner, "_MEMO", {})
        passes = _spy_passes(monkeypatch)
        result = runner.run_point(runner.SimPoint(
            "gemm", N, TILE, systems=("baseline", "xmem", "xmem-pref")),
            collect=True)
        assert passes == [False]
        l1 = [snap["cache.l1"] for snap in result.stats.values()]
        assert l1[0] == l1[1] == l1[2]

    def test_l1_size_runs_apart(self):
        machines = [(build_baseline, self.CFG),
                    (build_baseline, _variant(self.CFG, 0,
                                              size_bytes=4096))]
        assert self._run(machines) == 2

    def test_l2_policy_runs_apart(self):
        """An L2 whose DRRIP set duel stands elsewhere computes its own
        pass; a BRRIP L2 is outside the split shape and is refused
        before it runs."""
        def moved_duel(cfg):
            handle = build_xmem(cfg)
            handle.memory.hierarchy.levels[1].policy._psel += 1
            return handle

        machines = [(build_baseline, self.CFG), (moved_duel, self.CFG)]
        assert self._run(machines) == 2
        handle = build_baseline(_variant(self.CFG, 1, policy="brrip"))
        trace = KERNELS["gemm"].build_packed(N, TILE).without_xmem()
        with pytest.raises(ConfigurationError, match="L2 must use"):
            handle.run(trace)
        assert handle.engine.last_stats.instructions == 0

    def test_stride_degree_runs_apart(self):
        machines = [(build_baseline, self.CFG),
                    (build_xmem, _variant(self.CFG, degree=4))]
        assert self._run(machines) == 2

    def test_already_run_machine_runs_apart(self):
        machines = [(build_baseline, self.CFG), (build_xmem, self.CFG)]
        assert self._run(machines, warm=(1,)) == 2

    def test_checked_runs_keep_the_scalar_loop(self, monkeypatch):
        """``REPRO_CHECK`` runs keep the split interpreter -- the
        second machine still replays the first one's front-end, and
        recomputes it -- with its checks armed: every run ends in
        ``check_engine_run``."""
        from repro.testing import checks

        monkeypatch.setenv("REPRO_CHECK", "1")
        checked = []
        real = checks.check_engine_run

        def spy(engine, stats):
            checked.append(engine)
            return real(engine, stats)

        monkeypatch.setattr(checks, "check_engine_run", spy)
        machines = [(build_baseline, self.CFG), (build_xmem, self.CFG)]
        shared, passes = _assert_shared_matches(
            machines, _recorded("gemm", N, TILE))
        assert passes == 1
        assert checked[:2] == [h.engine for h in shared]

    @pytest.mark.parametrize("shape", ["brrip-l2", "brrip-l1",
                                       "two-level", "issue-3"])
    def test_off_shape_runs_the_scalar_loop(self, shape):
        """A machine off the shipped shape is refused with a
        ConfigurationError naming the level; issue width 3 is in the
        shape and runs split -- and a width-4 machine replays its
        front-end -- equal to ``ReferenceEngine``."""
        import dataclasses

        cfg = self.CFG
        if shape == "issue-3":
            shared, passes = _assert_shared_matches(
                [(build_xmem, _issue3_config(cfg)), (build_baseline, cfg)],
                _recorded("gemm", N, TILE))
            assert passes == 1
            return
        if shape == "brrip-l2":
            off, match = _variant(cfg, 1, policy="brrip"), "L2 must use"
        elif shape == "brrip-l1":
            off, match = _variant(cfg, 0, policy="brrip"), "L1 must use"
        else:
            off = dataclasses.replace(
                cfg, levels=[cfg.levels[0], cfg.levels[2]])
            match = "L1/L2/L3 hierarchy, not 2 levels"
        handle = build_xmem(off)
        trace = _recorded("gemm", N, TILE)
        with pytest.raises(ConfigurationError, match=match):
            handle.run(trace(handle))


# ---------------------------------------------------------------------------
# REPRO_CHECK inside the split interpreter
# ---------------------------------------------------------------------------

def _checked_pair(monkeypatch):
    """A baseline+XMem pair -- XMem first, so the baseline machine
    replays its front-end -- and a gemm trace of many chunks.  The chunks are short: an L1 set that fills up evicts the
    way an inflated count left invalid, which would mend the count
    before a longer chunk ended."""
    from repro.cpu import vector_engine

    monkeypatch.setattr(vector_engine, "CHUNK", 32)
    handles = [build_xmem(scaled_config(32)),
               build_baseline(scaled_config(32))]
    trace_for = _recorded("gemm", N, TILE)
    return handles, [trace_for(h) for h in handles]


def _count_chunks(monkeypatch):
    """Count the front-end chunks the split interpreter runs."""
    from repro.cpu import vector_engine

    chunks = []
    real = vector_engine._front_end

    def spy(*args):
        chunk, finish = real(*args)

        def counted(begin, end):
            chunks.append(begin)
            return chunk(begin, end)
        return counted, finish

    monkeypatch.setattr(vector_engine, "_front_end", spy)
    return chunks


def test_checked_run_identical_and_catches_drift(monkeypatch):
    """``REPRO_CHECK`` covers the split interpreter: a checked run of a
    baseline+XMem pair -- the second machine replays the first one's
    front-end and recomputes it -- snapshots exactly like an unchecked
    one, and a corrupted occupancy count -- in the first machine's L1,
    or in the LLC of the replaying machine -- is caught at the end of
    that machine's first chunk."""
    handles, traces = _checked_pair(monkeypatch)
    plain = [h.run(t) for h, t in zip(handles, traces)]
    snaps = [h.stats_snapshot() for h in handles]
    monkeypatch.setenv("REPRO_CHECK", "1")
    handles, traces = _checked_pair(monkeypatch)
    passes = _spy_passes(monkeypatch)
    assert [h.run(t) for h, t in zip(handles, traces)] == plain
    assert [h.stats_snapshot() for h in handles] == snaps
    assert passes == [True]
    assert len(traces[0]) > 4 * 32

    first = next(ev.vaddr for ev in traces[1].events()
                 if isinstance(ev, MemAccess))
    for level, victim in ((0, 0), (2, 1)):
        handles, traces = _checked_pair(monkeypatch)
        cache = handles[victim].memory.hierarchy.levels[level]
        cache._valid_counts[cache._index(first)] += 1
        for h, trace in zip(handles[:victim], traces):
            h.run(trace)
        chunks = _count_chunks(monkeypatch)
        with pytest.raises(CheckError, match="valid count"):
            handles[victim].run(traces[victim])
        assert chunks == [0]


def test_checked_run_catches_a_mended_l1_count(monkeypatch):
    """An L1 valid count one too high on a set with exactly one invalid
    way: the set's next miss takes the full-set path, evicts the
    invalid way (its LRU stamp is the oldest) and so mends the count
    before the chunk-end recount.  Fill conservation still sees the
    phantom eviction."""
    from repro.testing.checks import check_cache_set

    monkeypatch.setenv("REPRO_CHECK", "1")
    h = build_baseline(scaled_config(32))
    l1 = h.memory.hierarchy.levels[0]
    span = l1.num_sets * l1.line_bytes
    for way in range(l1.ways - 1):
        l1.fill(way * span)
    l1._valid_counts[0] += 1
    with pytest.raises(CheckError, match="fill conservation"):
        h.run(PackedTrace.from_events([MemAccess((l1.ways - 1) * span)]))
    check_cache_set(l1, 0)          # mended: the set recount passes


# ---------------------------------------------------------------------------
# The MRU-run fold: L1 stamps, clock and dirty bits equal the reference
# ---------------------------------------------------------------------------

def _assert_l1_equal(h_ref, h):
    """The L1 state no stats snapshot shows -- tags, dirty bits, LRU
    stamps and clock -- equals the reference machine's."""
    from repro.testing.fuzz import l1_state_delta

    assert l1_state_delta(h_ref.memory.hierarchy.levels[0],
                          h.memory.hierarchy.levels[0]) is None


@pytest.mark.parametrize("system", ["baseline", "xmem"])
@pytest.mark.parametrize("kernel", ["gemm", "mvt", "trmm"])
def test_l1_stamps_and_clock_equal_reference(kernel, system):
    """At run end the L1's stamps and clock equal ``ReferenceEngine``'s,
    on a machine whose 64-set L1 folds many MRU re-hits -- one run
    alone, and both machines of a baseline+XMem pair, the second
    replaying the first one's front-end."""
    builder = {"baseline": build_baseline, "xmem": build_xmem}[system]
    cfg = scaled_config(1)
    h_ref, ref_stats, h_vec, vec_stats = _pair(
        KERNELS[kernel], builder, with_lib=system == "xmem", cfg=cfg)
    assert vec_stats == ref_stats
    assert h_vec.stats_snapshot() == h_ref.stats_snapshot()
    _assert_l1_equal(h_ref, h_vec)

    trace_for = _recorded(kernel, N, TILE)
    shared = [build_baseline(cfg), build_xmem(cfg)]
    for h in shared:
        h.run(trace_for(h))
        _assert_l1_equal(h_ref, h)


def _fold_twins(events, cfg=None, builder=build_baseline):
    """Run ``events`` on a production machine and a ``ReferenceEngine``
    twin -- an XMem machine with atoms 0 and 1 created -- and require
    equal stats, snapshots and L1 state.  Returns the production
    handle."""
    from repro.cpu.trace import strip_xmem
    from repro.testing.generators import GenConfig, setup_atoms

    cfg = cfg or scaled_config(32)
    h_ref = with_reference_engine(builder(cfg))
    h = builder(cfg)
    for handle in (h_ref, h):
        if handle.xmemlib is not None:
            setup_atoms(handle.xmemlib, GenConfig(atoms=2))
    ref_stats = h_ref.engine.run(
        events if h_ref.xmemlib is not None else strip_xmem(events))
    assert h.run(PackedTrace.from_events(events)) == ref_stats
    assert h.stats_snapshot() == h_ref.stats_snapshot()
    _assert_l1_equal(h_ref, h)
    return h


def _runs_trace(lines=24, repeat=3, span=64):
    """Each of ``lines`` lines ``span`` bytes apart accessed ``repeat``
    times in a row -- a leader and its followers, the last of every
    third run a write -- with Work between some accesses, in two
    passes, so the second pass re-hits and evicts what the first
    left."""
    events = []
    for _ in range(2):
        for k in range(lines):
            for r in range(repeat):
                events.append(MemAccess(0x40000 + k * span,
                                        r == repeat - 1 and k % 3 == 0,
                                        r))
                if (k + r) % 4 == 0:
                    events.append(Work(2))
    return events


class TestMruFold:
    """Edge cases of the fold, each against ``ReferenceEngine`` on
    stats, snapshot, L1 dirty bits, stamps and clock."""

    def test_read_miss_with_a_write_follower(self):
        """A read miss whose only write is a follower's: the filled
        line is dirty, and evicting it writes it back."""
        cfg = scaled_config(32)
        l1 = build_baseline(cfg).memory.hierarchy.levels[0]
        span = l1.num_sets * l1.line_bytes
        x = 0x80000
        events = [MemAccess(x, False), MemAccess(x, True),
                  MemAccess(x, False)]
        h = _fold_twins(events, cfg)
        l1 = h.memory.hierarchy.levels[0]
        assert l1.stats.misses == 1 and l1.stats.hits == 2
        assert l1._dirty[l1._index(x)][l1._tags[l1._index(x)].index(
            l1._tag(x))]
        events += [MemAccess(x + k * span) for k in range(1, l1.ways + 1)]
        h = _fold_twins(events, cfg)
        assert h.memory.hierarchy.levels[0].stats.writebacks == 1
        assert h.memory.stats.demand_writes == 0

    @pytest.mark.parametrize("chunk", [2, 3, 5, 16])
    def test_run_across_a_chunk_boundary(self, monkeypatch, chunk):
        """A run cut by a chunk end is folded on each side: the next
        chunk's first access of the set is interpreted."""
        from repro.cpu import vector_engine

        monkeypatch.setattr(vector_engine, "CHUNK", chunk)
        _fold_twins(_runs_trace(lines=12, repeat=4))

    def test_work_and_xmem_ops_inside_a_run(self):
        """Work rows and XMemOps between a leader and its followers
        neither break the run nor move its stamp."""
        x = 0x1000
        events = [
            XMemOp("atom_map", 1, x, 256),
            MemAccess(x, False, 3),
            Work(7),
            XMemOp("atom_activate", 1),
            MemAccess(x, True, 0),
            Work(1),
            XMemOp("atom_deactivate", 1),
            MemAccess(x, False, 2),
            MemAccess(x + 64, True, 0),
            Work(2),
            MemAccess(x + 64, False, 0),
            XMemOp("atom_unmap", 1, x, 256),
            MemAccess(x, False, 0),
        ]
        for builder in (build_baseline, build_xmem):
            _fold_twins(events, builder=builder)

    @pytest.mark.parametrize("geometry", ["one-way", "one-set"])
    def test_degenerate_l1(self, geometry):
        """A 1-way L1 (every run ends in an eviction) and a 1-set L1
        (every access shares the one set)."""
        if geometry == "one-way":
            cfg = _variant(scaled_config(32), 0, size_bytes=16 * 64, ways=1)
        else:
            cfg = _variant(scaled_config(32), 0, size_bytes=8 * 64, ways=8)
        h = _fold_twins(_runs_trace(), cfg)
        l1 = h.memory.hierarchy.levels[0]
        assert (l1.ways, l1.num_sets) == ((1, 16) if geometry == "one-way"
                                          else (8, 1))
        assert l1.stats.evictions > 0 and l1.stats.writebacks > 0

    def test_issue_width_3(self):
        """Off the dyadic grid every position replays as its own event;
        folded followers still count their issue slots."""
        _fold_twins(_runs_trace(), _issue3_config())
        _fold_twins(_runs_trace(), _issue3_config(), builder=build_xmem)

    def test_prefetch_marks_a_follower_special(self):
        """``_inflight_hit_trace`` with X re-read before the stride
        stream: the read after the stream is a follower of X's run,
        and the prefetch of X marks it special, so it waits for the
        in-flight line."""
        x = 0x100400
        events = [MemAccess(x, False, 0)]
        events += [MemAccess(0x200000 + 64 * k, False, 0)
                   for k in range(40)]
        events += [MemAccess(x, False, 0),
                   MemAccess(x - 192, False, 0), MemAccess(x - 128, False, 0),
                   MemAccess(x - 64, False, 0), MemAccess(x, False, 1),
                   Work(3), MemAccess(0x300000, True, 0)]
        h = _fold_twins(events, _tiny_llc_config())
        l1 = h.memory.hierarchy.levels[0]
        # As in test_inflight_prefetch_l1_hit: one reservation more
        # than the L1 misses comes only from the waiting hit.
        assert h.engine.mshr.stats.reservations == l1.stats.misses + 1
