"""The parallel experiment runner: record/replay, caching, fan-out.

Three properties matter and are each pinned here:

1. A replayed recording is *indistinguishable* from walking the kernel
   fresh -- same engine stats on baseline and XMem machines.
2. A parallel sweep returns bit-identical results to a serial one, in
   the same order.
3. The disk cache never replays a bad entry: corruption and stale
   recordings are detected and regenerated.
"""

import os
import pickle

import pytest

import repro.sim.runner as runner_mod
from repro.core.errors import ConfigurationError
from repro.cpu.trace import MemAccess, PackedTrace, Work, XMemOp
from repro.sim import (
    SimPoint,
    TraceCache,
    TraceRecording,
    UC2Point,
    build_baseline,
    build_xmem,
    get_recording,
    jobs_from_env,
    record_trace,
    run_parallel,
    run_point,
    scaled_config,
    sweep,
)
from repro.sim.runner import (
    SetupRecorder,
    StaleRecordingError,
    apply_setup,
    trace_key,
)
from repro.workloads.polybench import KERNELS

N = 24
TILE = 12


@pytest.fixture(autouse=True)
def clean_memo():
    """Each test starts with an empty in-process recording memo."""
    runner_mod._MEMO.clear()
    yield
    runner_mod._MEMO.clear()


@pytest.fixture
def disk_cache(tmp_path):
    return TraceCache(root=tmp_path / "traces")


def fresh_stats(kernel_name, with_xmem):
    """Reference run: build the trace live, no recording involved."""
    cfg = scaled_config(32)
    kernel = KERNELS[kernel_name]
    if with_xmem:
        handle = build_xmem(cfg)
        return handle.run(kernel.build_packed(N, TILE, lib=handle.xmemlib))
    handle = build_baseline(cfg)
    return handle.run(kernel.build_packed(N, TILE))


# ---------------------------------------------------------------------------
# Record / replay correctness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", ["gemm", "jacobi2d"])
def test_replay_matches_fresh_generation(kernel, disk_cache):
    point = SimPoint(kernel=kernel, n=N, tile=TILE)
    result = run_point(point, cache=disk_cache)
    assert result.runs["baseline"].stats == fresh_stats(kernel, False)
    assert result.runs["xmem"].stats == fresh_stats(kernel, True)


@pytest.mark.parametrize("kernel", ["gemm", "jacobi2d"])
def test_disk_cache_hit_replays_identically(kernel, disk_cache):
    point = SimPoint(kernel=kernel, n=N, tile=TILE)
    first = run_point(point, cache=disk_cache)
    assert disk_cache.misses == 1 and disk_cache.hits == 0

    # Drop the in-process memo so the second run *must* hit the disk.
    runner_mod._MEMO.clear()
    second = run_point(point, cache=disk_cache)
    assert disk_cache.hits == 1
    for system in point.systems:
        assert (second.runs[system].stats
                == first.runs[system].stats)


def test_setup_recorder_logs_and_replays():
    recorder = SetupRecorder()
    events = list(KERNELS["gemm"].build_packed(N, TILE, lib=recorder))
    assert recorder.log, "gemm instruments atoms at trace-build time"
    assert any(isinstance(ev, XMemOp) for ev in events)

    from repro.core.xmemlib import XMemLib
    apply_setup(XMemLib(), recorder.log)  # IDs must match -> no raise


def test_stale_setup_log_raises():
    from repro.core.xmemlib import XMemLib
    recorder = SetupRecorder()
    list(KERNELS["gemm"].build_packed(N, TILE, lib=recorder))
    # Claim an atom call returned a different ID than it will now.
    method, args, kwargs, result = recorder.log[0]
    stale = [(method, args, kwargs, 9999)] + recorder.log[1:]
    with pytest.raises(StaleRecordingError):
        apply_setup(XMemLib(), stale)


def test_payload_roundtrip():
    recording = record_trace("gemm", N, TILE)
    clone = TraceRecording.from_payload(recording.to_payload())
    assert clone.packed == recording.packed
    assert clone.events == recording.events
    assert clone.setup == recording.setup
    assert (clone.kernel, clone.n, clone.tile) == ("gemm", N, TILE)


def test_payload_stores_raw_column_bytes():
    recording = record_trace("gemm", N, TILE)
    payload = recording.to_payload()
    assert payload["vaddr"] == recording.packed.vaddr.tobytes()
    assert payload["meta"] == recording.packed.meta.tobytes()
    assert payload["events"] == len(recording.packed)
    # The side-table is plain data (no event objects in the payload).
    for idx, method, args in payload["xmem"]:
        assert isinstance(idx, int) and isinstance(method, str)


def test_payload_version_mismatch_is_stale():
    payload = record_trace("gemm", N, TILE).to_payload()
    payload["version"] = -1
    with pytest.raises(StaleRecordingError):
        TraceRecording.from_payload(payload)


def test_payload_itemsize_mismatch_is_stale():
    payload = record_trace("gemm", N, TILE).to_payload()
    payload["itemsize"] = 4
    with pytest.raises(StaleRecordingError):
        TraceRecording.from_payload(payload)


def test_payload_column_length_mismatch_is_stale():
    payload = record_trace("gemm", N, TILE).to_payload()
    payload["meta"] = payload["meta"][:-8]
    with pytest.raises(StaleRecordingError):
        TraceRecording.from_payload(payload)


def test_packed_recording_roundtrips_through_disk(disk_cache):
    """store -> load preserves the packed columns bit-for-bit."""
    recording = record_trace("gemm", N, TILE)
    key = trace_key("gemm", N, TILE, True)
    disk_cache.store(key, recording)
    loaded = disk_cache.load(key)
    assert loaded is not None
    assert loaded.packed == recording.packed
    from repro.core.xmemlib import XMemLib
    replayed = loaded.replay(XMemLib())
    assert isinstance(replayed, PackedTrace)
    assert replayed == recording.packed


# ---------------------------------------------------------------------------
# Disk cache integrity
# ---------------------------------------------------------------------------

def test_corrupted_cache_entry_detected_and_regenerated(disk_cache):
    point = SimPoint(kernel="gemm", n=N, tile=TILE)
    reference = run_point(point, cache=disk_cache)

    # Flip bytes in the middle of the stored blob.
    key = trace_key("gemm", N, TILE, True)
    path = disk_cache._entries().path(key)
    blob = bytearray(path.read_bytes())
    mid = len(blob) // 2
    blob[mid] ^= 0xFF
    blob[mid + 1] ^= 0xFF
    path.write_bytes(bytes(blob))

    runner_mod._MEMO.clear()
    misses_before = disk_cache.misses
    assert disk_cache.load(key) is None, "corruption must read as a miss"
    assert disk_cache.misses == misses_before + 1
    assert not path.exists(), "corrupt entry must be purged"

    # End to end: the corrupt entry regenerates and results still match.
    path.write_bytes(bytes(blob))
    runner_mod._MEMO.clear()
    again = run_point(point, cache=disk_cache)
    assert again.runs["xmem"].stats == reference.runs["xmem"].stats
    assert path.exists(), "regenerated entry must be stored back"


def test_truncated_cache_entry_detected(disk_cache):
    point = SimPoint(kernel="gemm", n=N, tile=TILE)
    run_point(point, cache=disk_cache)
    key = trace_key("gemm", N, TILE, True)
    path = disk_cache._entries().path(key)
    path.write_bytes(path.read_bytes()[:40])
    runner_mod._MEMO.clear()
    assert disk_cache.load(key) is None
    assert not path.exists()


def test_wrong_key_entry_detected(disk_cache):
    """An entry renamed to another key's filename must not replay."""
    run_point(SimPoint(kernel="gemm", n=N, tile=TILE), cache=disk_cache)
    src = disk_cache._entries().path(trace_key("gemm", N, TILE, True))
    dst = disk_cache._entries().path(trace_key("jacobi2d", N, TILE, True))
    os.replace(src, dst)
    runner_mod._MEMO.clear()
    assert disk_cache.load(trace_key("jacobi2d", N, TILE, True)) is None


def test_stale_recording_regenerates_in_run_point(disk_cache):
    """A cached setup log with wrong atom IDs regenerates transparently."""
    point = SimPoint(kernel="gemm", n=N, tile=TILE)
    reference = run_point(point, cache=disk_cache)

    key = trace_key("gemm", N, TILE, True)
    recording = disk_cache.load(key)
    method, args, kwargs, _ = recording.setup[0]
    recording.setup[0] = (method, args, kwargs, 9999)
    disk_cache.store(key, recording)

    runner_mod._MEMO.clear()
    again = run_point(point, cache=disk_cache)
    assert again.runs["xmem"].stats == reference.runs["xmem"].stats
    # The refreshed entry must now replay cleanly.
    runner_mod._MEMO.clear()
    healed = disk_cache.load(key)
    from repro.core.xmemlib import XMemLib
    apply_setup(XMemLib(), healed.setup)


def test_cache_disabled_by_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    cache = TraceCache()
    assert not cache.enabled
    assert cache.load("whatever") is None
    cache.store("whatever", record_trace("gemm", N, TILE))  # no-op

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "alt"))
    cache = TraceCache()
    assert cache.root == tmp_path / "alt"


# ---------------------------------------------------------------------------
# Parallel fan-out determinism
# ---------------------------------------------------------------------------

def sweep_points():
    return [
        SimPoint(kernel="gemm", n=N, tile=t) for t in (6, 12, 24)
    ] + [
        SimPoint(kernel="jacobi2d", n=N, tile=t) for t in (6, 24)
    ]


def test_parallel_sweep_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
    points = sweep_points()
    serial = sweep(points, jobs=1)
    runner_mod._MEMO.clear()
    parallel = sweep(points, jobs=2)
    assert len(serial) == len(parallel) == len(points)
    for s, p, point in zip(serial, parallel, points):
        assert s.point == p.point == point
        for system in point.systems:
            assert s.runs[system].stats == p.runs[system].stats
            assert (s.runs[system].llc_miss_rate
                    == p.runs[system].llc_miss_rate)
            assert s.runs[system].dram_reads == p.runs[system].dram_reads


def test_uc2_parallel_matches_serial(monkeypatch, tmp_path, capsys):
    """A collecting Use Case 2 sweep writes the same documents from one
    worker and from two: ``repro diff`` finds zero deltas."""
    from repro.cli import main
    from repro.sim.runner import write_point_documents
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
    points = [UC2Point(workload="lbm", accesses=2000),
              UC2Point(workload="mcf", accesses=2000)]
    for jobs in (1, 2):
        results = sweep(points, jobs=jobs, collect_stats=True)
        paths = write_point_documents(tmp_path / f"jobs{jobs}", results)
    assert [p.name for p in paths] == ["000_uc2_lbm_a2000.json",
                                       "001_uc2_mcf_a2000.json"]
    assert main(["diff", str(tmp_path / "jobs1"),
                 str(tmp_path / "jobs2")]) == 0
    assert "zero deltas" in capsys.readouterr().out


def test_run_parallel_preserves_order():
    out = run_parallel(_negate, list(range(20)), jobs=4)
    assert out == [-i for i in range(20)]


def _negate(x):
    return -x


class _PoolBomb:
    """A ProcessPoolExecutor stand-in that fails on construction."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("serial path must not build a pool")


def test_serial_paths_never_build_a_pool(monkeypatch):
    """jobs=1 -- and a single item at any job count -- skip the
    executor entirely (no fork, full tracebacks)."""
    monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", _PoolBomb)
    assert run_parallel(_negate, [1, 2, 3], jobs=1) == [-1, -2, -3]
    assert run_parallel(_negate, [7], jobs=8) == [-7]
    assert run_parallel(_negate, [], jobs=8) == []
    with pytest.raises(AssertionError):
        run_parallel(_negate, [1, 2], jobs=2)


def test_serial_sweep_bit_identical_to_pool(tmp_path, monkeypatch):
    """The no-pool bypass must not change a single counter vs the
    pool path -- asserted over full registry snapshots."""
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
    points = [SimPoint(kernel="gemm", n=N, tile=t) for t in (6, 12)]
    serial = sweep(points, jobs=1, collect_stats=True)
    runner_mod._MEMO.clear()
    pooled = sweep(points, jobs=2, collect_stats=True)
    from repro.sim.stats import diff_stats
    for s, p in zip(serial, pooled):
        assert s.runs.keys() == p.runs.keys()
        for system in s.runs:
            assert s.runs[system].stats == p.runs[system].stats
            assert diff_stats(s.stats[system], p.stats[system]) == []


# ---------------------------------------------------------------------------
# Concurrent purge tolerance
# ---------------------------------------------------------------------------

def test_purge_tolerates_missing_file(disk_cache, monkeypatch):
    """Two workers racing to purge the same stale entry: the loser's
    unlink targets a vanished file and must not raise."""
    run_point(SimPoint(kernel="gemm", n=N, tile=TILE), cache=disk_cache)
    key = trace_key("gemm", N, TILE, True)
    path = disk_cache._entries().path(key)

    real_unlink = os.unlink

    def racing_unlink(target):
        # The other worker wins the race between the corruption check
        # and our unlink.
        if os.path.exists(target):
            real_unlink(target)
        return real_unlink(target)

    # Corrupt the entry, then simulate the race during the purge.
    path.write_bytes(b"garbage")
    runner_mod._MEMO.clear()
    monkeypatch.setattr(os, "unlink", racing_unlink)
    assert disk_cache.load(key) is None  # no FileNotFoundError
    monkeypatch.undo()
    assert not path.exists()
    # A purge is also directly safe on a path that never existed.
    assert disk_cache._entries().discard("no-such-key") is False


def test_trace_cache_stays_under_its_bound(disk_cache, monkeypatch):
    """``store`` evicts the oldest entries past the size bound."""
    import time
    recording = record_trace("gemm", N, TILE)
    disk_cache.store("probe", recording)
    size = disk_cache._entries().path("probe").stat().st_size
    disk_cache._entries().discard("probe")
    limit = int(2.5 * size)
    monkeypatch.setattr(runner_mod, "TRACE_CACHE_LIMIT_BYTES", limit)
    for i in range(4):
        disk_cache.store(f"k{i}", recording)
        time.sleep(0.02)             # distinct mtimes: a strict order
        entries = disk_cache._entries().entries()
        assert sum(e.size for e in entries) <= limit
    names = [e.name for e in disk_cache._entries().entries()]
    assert "k3" in names and "k0" not in names
    assert disk_cache.load("k3") is not None


def test_corruption_of_one_entry_spares_the_others(disk_cache):
    """Both layers of a store survive one bad entry: the corrupt one is
    a miss (and purged), its neighbour still replays."""
    for tile in (6, TILE):
        run_point(SimPoint(kernel="gemm", n=N, tile=tile),
                  cache=disk_cache)
    bad, good = (trace_key("gemm", N, t, True) for t in (6, TILE))
    path = disk_cache._entries().path(bad)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    assert disk_cache.load(bad) is None
    assert not path.exists()
    assert disk_cache.load(good) is not None


def test_trace_cache_stat_group(disk_cache):
    run_point(SimPoint(kernel="gemm", n=N, tile=TILE), cache=disk_cache)
    counters = disk_cache.counters()
    assert counters == {"hits": 0, "misses": 1, "enabled": 1}
    assert [p for p, _ in disk_cache.stat_groups()] == ["trace_cache"]


# ---------------------------------------------------------------------------
# Collecting sweeps
# ---------------------------------------------------------------------------

def test_collecting_sweep_documents(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
    points = [SimPoint(kernel="gemm", n=N, tile=t) for t in (6, 12)]
    results = sweep(points, jobs=1, collect_stats=True)
    for res in results:
        assert res.manifest is not None
        assert set(res.stats) == set(res.point.systems)
        assert res.manifest["point"]["tile"] == res.point.tile
    from repro.sim.runner import write_point_documents
    paths = write_point_documents(tmp_path / "docs", results)
    assert [p.name for p in paths] == ["000_gemm_n24_t6.json",
                                       "001_gemm_n24_t12.json"]


def test_uc2_collecting_snapshot(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
    res = run_point(UC2Point(workload="lbm", accesses=2000), collect=True)
    for system in ("baseline", "xmem", "ideal"):
        assert "dram" in res.stats[system]
    assert res.manifest["kind"] == "uc2point"
    plain = run_point(UC2Point(workload="lbm", accesses=2000))
    assert plain.stats is None and plain.manifest is None
    assert plain.runs == res.runs


# ---------------------------------------------------------------------------
# Knobs and validation
# ---------------------------------------------------------------------------

def test_jobs_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert jobs_from_env() == 3
    monkeypatch.setenv("REPRO_JOBS", "")
    assert jobs_from_env(default=2) == 2
    assert jobs_from_env() >= 1
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(ConfigurationError):
        jobs_from_env()
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ConfigurationError):
        jobs_from_env()


def test_unknown_kernel_and_system_rejected():
    with pytest.raises(ConfigurationError):
        record_trace("nope", N, TILE)
    with pytest.raises(ConfigurationError):
        run_point(SimPoint(kernel="gemm", n=N, tile=TILE,
                           systems=("warp-drive",)),
                  cache=TraceCache(root=None))
    with pytest.raises(ConfigurationError):
        run_point(UC2Point(workload="nope"))


def test_simpoint_config_applies_knobs():
    cfg = SimPoint(kernel="gemm", n=N, tile=TILE, scale=32,
                   llc_bytes=16384, bandwidth=0.5).config()
    assert cfg.llc_bytes == 16384
    base = scaled_config(32)
    assert cfg.llc_bytes != base.llc_bytes or base.llc_bytes == 16384


def test_points_pickle():
    for point in (SimPoint(kernel="gemm", n=N, tile=TILE),
                  UC2Point(workload="lbm", accesses=100)):
        assert pickle.loads(pickle.dumps(point)) == point


def test_event_hashes_are_value_based():
    assert hash(MemAccess(64, False, 1)) == hash(MemAccess(64, False, 1))
    assert hash(Work(3)) == hash(Work(3))
    assert hash(XMemOp("atom_map", 1, 2)) == hash(XMemOp("atom_map",
                                                         1, 2))
    assert MemAccess(64, False, 1) != Work(3)
    assert hash(MemAccess(64, False, 1)) != hash(MemAccess(65, False, 1))
