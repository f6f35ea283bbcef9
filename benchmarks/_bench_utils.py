"""Helpers shared by the experiment benchmarks.

Scale knobs (environment variables):

* ``REPRO_BENCH_N``        -- Polybench problem size (default 96)
* ``REPRO_BENCH_ACCESSES`` -- Use-Case-2 trace length (default 100000)
* ``REPRO_JOBS``           -- worker processes for the figure sweeps
  (default: all cores; ``1`` forces serial in-process execution).
  The sweeps fan out over :mod:`repro.sim.runner`, which guarantees
  parallel results are bit-identical to serial ones.
* ``REPRO_TRACE_CACHE``    -- trace-recording cache directory
  (default ``~/.cache/repro/traces``; ``off`` disables it).  Repeat
  bench invocations replay cached kernel traces instead of
  regenerating them.
* ``REPRO_STATS_JSON``     -- when set to a directory, the figure
  drivers also dump one manifest+stats JSON document per sweep point
  under ``<dir>/<experiment>/`` through
  :func:`repro.sim.runner.write_point_documents` (the format of
  ``repro sweep --stats-json``, Use Case 2's ``uc2point`` documents
  included; compare runs with ``repro diff``).  Off by default;
  collection happens after each run, so the printed tables are
  unchanged.

Each benchmark writes its printed table into ``benchmarks/results/``
so EXPERIMENTS.md can quote the measured rows.
"""

from __future__ import annotations

import os
import pathlib
from typing import Optional

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def bench_n() -> int:
    """Polybench problem size for the figure sweeps."""
    return int(os.environ.get("REPRO_BENCH_N", "96"))


def bench_accesses() -> int:
    """Trace length for the Use-Case-2 suite."""
    return int(os.environ.get("REPRO_BENCH_ACCESSES", "100000"))


def save_result(name: str, text: str) -> None:
    """Persist one experiment's printed table."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def stats_json_dir() -> Optional[pathlib.Path]:
    """Where ``REPRO_STATS_JSON`` points, or None (collection off)."""
    raw = os.environ.get("REPRO_STATS_JSON", "").strip()
    if not raw or raw.lower() in ("0", "off", "none", "false"):
        return None
    return pathlib.Path(raw).expanduser()


def collect_stats() -> bool:
    """Whether the figure drivers should run collecting sweeps."""
    return stats_json_dir() is not None


def save_stats_documents(experiment: str, results) -> None:
    """Dump one document per collecting :class:`PointResult`.

    No-op unless ``REPRO_STATS_JSON`` is set (matching the
    ``collect_stats()`` the driver passed to ``sweep``).
    """
    root = stats_json_dir()
    if root is None:
        return
    from repro.sim.runner import write_point_documents
    write_point_documents(root / experiment, results)
