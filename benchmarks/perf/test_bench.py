"""Self-test of the performance benchmark (about 30 s on two cores).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_bench.py -q

It checks ``BENCHMARK.json`` against the benchmark's contract, runs the
cheapest workload untraced and traced at a one-second budget and holds
the printed result to the names in ``BENCHMARK.json``, and checks that
a digest mismatch counts as a failure, that a layer whose spans
disagree with the stats counters is reported unobserved, and the
``--compare`` verdicts.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import spans  # noqa: E402
import speedometer  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def _bench(*args: str, cwd: Path = bench.ROOT):
    return subprocess.run([sys.executable, "benchmarks/perf/bench.py",
                           *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"][1] == "benchmarks/perf/bench.py"
    assert 1 <= SPEC["run_seconds"] <= 60
    from workloads import WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower",
                                                            "higher")
        names.append(m["name"])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_a_run_prints_every_metric(trace, section):
    proc = _bench("--workload", "corun-mix", "--seed", "0",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if section == "end_to_end":
            assert got["value"] > 0
    if trace:
        # corun-mix exercises the co-run engine and DRAM, not the
        # single-core engine or xos; no layer may go unobserved.
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["sim.corun.self_s"] > 0
        assert metrics["dram.calls"] > 0
        assert metrics["mem.calls"] == 0 and metrics["xos.translations"] == 0
        assert min(metrics.values()) >= 0


def test_a_digest_mismatch_is_a_failure():
    report = bench.spawn_child("corun-mix", 0, 0.0, 0, 0, False,
                               time.monotonic() + 120)
    golden = bench.load_golden()
    assert bench.check("corun-mix", 0, [report], golden) == (2, 0, [])
    tampered = {"corun-mix": dict(golden["corun-mix"], xmem="0" * 64)}
    attempted, failed, problems = bench.check("corun-mix", 0, [report],
                                              tampered)
    assert (attempted, failed) == (2, 1)
    assert problems == ["xmem: stats digest changed"]
    # Seed 0 must be covered by golden.json ...
    assert bench.check("corun-mix", 0, [report], {})[1] == 2
    # ... other seeds are held to their own first run.
    rerun = json.loads(json.dumps(report))
    rerun["ops"][0]["digests"][rerun["ops"][0]["op"]] = "0" * 64
    assert bench.check("x", 5, [report, rerun], {})[:2] == (4, 1)


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _bench("--workload", "fig4-gemm", "--seed", "0", "--seconds",
                  "20", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speedometer_scale_is_the_speed_sampled_during_an_interval():
    meter = speedometer.Speedometer()
    assert meter.scale(0.0, 1.0) == 1.0
    meter._samples = [(1.0, 2.0), (2.0, 4.0), (3.0, 1.0)]
    assert meter.scale(1.5, 3.5) == 2.5
    assert meter.scale(2.1, 2.2) == 4.0     # no sample inside: nearest
    live = speedometer.Speedometer().start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        live.stop()
    assert len(live._samples) >= 3
    assert live.scale(0.0, time.perf_counter()) > 0


def test_self_time_excludes_child_spans():
    rec = spans.Recorder()
    inner = rec.span("b", lambda: time.sleep(0.02))
    outer = rec.span("a", lambda: (inner(), time.sleep(0.01)))
    outer()
    outer()
    table = rec.table()["spans"]
    assert table["a"]["calls"] == 2 and table["b"]["calls"] == 2
    assert table["a"]["total_s"] >= 0.06
    assert 0.02 <= table["a"]["self_s"] <= table["a"]["total_s"] - 0.04


def test_a_layer_that_disagrees_with_the_counters_is_unobserved():
    snapshot = {"dram": {"reads": 3, "writes": 1, "row_hits": 2,
                         "row_closed": 1, "row_conflicts": 1}}
    table = {"spans": {"dram": {"calls": 4, "total_s": 0.5,
                                "self_s": 0.5}},
             "counts": {}}
    metrics, unobserved = spans.fold(table, [snapshot], 0, False)
    assert unobserved == [] and metrics["dram.calls"] == 4
    table["spans"]["dram"]["calls"] = 3
    metrics, unobserved = spans.fold(table, [snapshot], 0, False)
    assert unobserved == ["dram"]
    assert metrics["dram.self_s"] == -1 and metrics["dram.calls"] == -1
    assert metrics["dram.row_hit_rate"] == 0.5


def test_compare_verdicts(tmp_path, capsys):
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert bench.verdict(steady, [10.2] * 5, "lower", 0.1) == "within bound"
    assert bench.verdict(steady, [12.0] * 5, "lower", 0.1) == "worse"
    assert bench.verdict(steady, [8.0] * 5, "lower", 0.1) == "better"
    assert bench.verdict(steady, [12.0] * 5, "higher", 0.1) == "better"
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert bench.verdict(noisy, [10.5] * 5, "lower", 0.1) == "unresolved"
    assert bench.verdict(noisy, [7.0] * 5, "lower", 0.1) == "better"

    def summary(wall):
        run = {"metrics": {m["name"]: {"value": wall, "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}}
        return {"workloads": {"fig4-gemm": {"runs": [run] * 3}}}

    before, after = tmp_path / "a.json", tmp_path / "b.json"
    before.write_text(json.dumps(summary(10.0)))
    after.write_text(json.dumps(summary(14.0)))
    assert bench.compare(str(before), str(after)) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = {line.split()[1]: line.split(None, 5)[-1] for line in lines[1:]}
    assert verdicts["wall_s"] == "worse"
    assert verdicts["sim_accesses_per_s"] == "better"
