"""Tracked perf baseline: time simulation grids cold, on the wall clock.

``repro bench`` runs one of the named grids with **no** caching — the
in-memory compile cache is cleared and the persistent artifact cache
is bypassed — so the measurement reflects the full compile + simulate
pipeline, exactly what a cold ``repro figure5 --jobs 1 --no-cache``
pays.  Each measurement records wall seconds, cell count, total
simulated cycles and simulated cycles per wall second, plus the git
commit, the engine and the ``kernel`` — the cycle loop the engine's
runs took: ``"native"`` (the C kernel behind ``engine="fast"``) or
``"python"`` — into a machine-readable dict that serialises to
``BENCH_sim.json``.  A ``jobs=1`` measurement also records the exact
work counts ``interp_runs`` and ``compile_hits``.

The committed ``BENCH_sim.json`` at the repo root is the baseline the
CI perf-smoke job compares against: ``check_regression`` fails a run
whose wall time exceeds the baseline by more than the tolerance
(default 25%), so an accidental slowdown of the simulation core is
caught at review time rather than discovered months later; simulated
cycles and work counts must match the baseline exactly.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

SCHEMA_VERSION = 1

#: regression tolerance: fail when wall time exceeds baseline by more
DEFAULT_TOLERANCE = 0.25

#: exact work counts of a ``jobs=1`` grid: interpreter runs and
#: compile-cache hits (see :mod:`repro.experiments.runner`)
WORK_COUNTS = ("interp_runs", "compile_hits")


@dataclass(frozen=True)
class GridSpec:
    """One named timing grid (a subset of the Figure 5 sweep)."""

    name: str
    benchmarks: Tuple[str, ...]  # empty = all registered benchmarks
    configs: Tuple[Tuple[int, bool], ...]
    scale: float
    description: str


#: the grids ``repro bench`` knows how to time.  ``figure5`` is the
#: headline number (the full paper grid); ``smoke`` is sized for CI;
#: ``micro`` is sized for the test suite.
GRIDS: Dict[str, GridSpec] = {
    spec.name: spec
    for spec in (
        GridSpec(
            name="figure5",
            benchmarks=(),
            configs=((4, True), (8, True), (4, False), (8, False)),
            scale=1.0,
            description="full Figure 5 grid (18 benchmarks x 4 levels "
                        "x 4 machine configs)",
        ),
        GridSpec(
            name="smoke",
            benchmarks=("compress", "m88ksim", "tomcatv", "swim"),
            configs=((4, True), (8, True), (4, False), (8, False)),
            scale=0.2,
            description="CI-sized subset (4 benchmarks, scale 0.2)",
        ),
        GridSpec(
            name="micro",
            benchmarks=("compress",),
            configs=((4, True),),
            scale=0.1,
            description="single-benchmark sanity grid (test-suite sized)",
        ),
    )
}


def git_commit() -> str:
    """Short hash of HEAD, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def kernel_of(engine: str) -> str:
    """The cycle loop fault-free runs of ``engine`` take in this process."""
    if engine != "fast":
        return "python"
    from repro.sim import native

    return native.status()[0]


def run_grid(grid: str, engine: str = "fast", jobs: int = 1) -> dict:
    """Time one named grid cold; returns its measurement record.

    Cold means cold: the in-memory compile cache is cleared first and
    the persistent artifact cache is not consulted, so repeat
    invocations measure the same work.
    """
    from repro.experiments import runner
    from repro.experiments.figure5 import run_figure5

    spec = GRIDS[grid]
    # Resolved before the clock starts: the first call builds the
    # native kernel, a once-per-install cost, not the grid's.
    kernel = kernel_of(engine)
    runner.clear_cache()
    interp_runs, compile_hits = runner.interp_runs, runner.compile_hits
    start = time.perf_counter()
    result = run_figure5(
        benchmarks=spec.benchmarks, configs=spec.configs,
        scale=spec.scale, jobs=jobs, cache=None, ledger=None,
        engine=engine,
    )
    wall_s = time.perf_counter() - start
    sim_cycles = sum(rec.cycles for rec in result.records.values())
    entry = {
        "grid": grid,
        "engine": engine,
        "kernel": kernel,
        "wall_s": round(wall_s, 3),
        "cells": len(result.records),
        "sim_cycles": sim_cycles,
        "cycles_per_s": round(sim_cycles / wall_s, 1) if wall_s else 0.0,
        "scale": spec.scale,
        "jobs": jobs,
    }
    if jobs == 1:
        # Work counts of this process; pool workers keep their own.
        entry["interp_runs"] = runner.interp_runs - interp_runs
        entry["compile_hits"] = runner.compile_hits - compile_hits
    return entry


def run_bench(
    grids: Sequence[str] = ("smoke",),
    engines: Sequence[str] = ("fast",),
    jobs: int = 1,
) -> dict:
    """Time every (grid, engine) pair; returns the full bench record."""
    measurements: Dict[str, dict] = {}
    for grid in grids:
        for engine in engines:
            measurements[f"{grid}@{engine}"] = run_grid(
                grid, engine=engine, jobs=jobs
            )
    record = {
        "schema": SCHEMA_VERSION,
        "commit": git_commit(),
        "python": platform.python_version(),
        "grids": measurements,
    }
    _annotate_speedups(record)
    return record


def _annotate_speedups(record: dict) -> None:
    """Fast-vs-reference wall-time ratio per grid where both ran."""
    grids = record["grids"]
    speedups: Dict[str, float] = {}
    for entry in grids.values():
        if entry["engine"] != "fast" or not entry["wall_s"]:
            continue
        ref = grids.get(f"{entry['grid']}@reference")
        if ref:
            speedups[entry["grid"]] = round(
                ref["wall_s"] / entry["wall_s"], 2
            )
    if speedups:
        record["speedup"] = speedups


def load_baseline(path: str) -> Optional[dict]:
    """The committed baseline record, or None if absent/unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def write_record(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def merge_into_baseline(path: str, record: dict) -> dict:
    """Fold ``record``'s measurements into the baseline file at ``path``.

    Existing measurements for other (grid, engine) pairs are kept;
    measured pairs are replaced.  The merged record is written back
    and returned.
    """
    baseline = load_baseline(path) or {
        "schema": SCHEMA_VERSION, "grids": {}
    }
    baseline["schema"] = SCHEMA_VERSION
    baseline["commit"] = record["commit"]
    baseline["python"] = record["python"]
    baseline.setdefault("grids", {}).update(record["grids"])
    _annotate_speedups(baseline)
    write_record(path, baseline)
    return baseline


def check_regression(
    record: dict,
    baseline: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[str]:
    """Wall-time regressions of ``record`` against ``baseline``.

    Returns one message per (grid, engine) pair measured in both whose
    current wall time exceeds baseline * (1 + tolerance); an empty
    list means no regression.  Pairs present in only one record are
    ignored — a new grid has nothing to regress against.  Simulated
    cycle counts are also cross-checked: the engines are deterministic,
    so a cycle-count mismatch on the same commit history means the
    simulation changed behaviour, which a wall-clock gate must flag
    rather than silently re-baseline.  The work counts
    (:data:`WORK_COUNTS`) are compared exactly too, where both records
    have them: a changed count means the pipeline repeats or skips
    work.
    """
    problems: List[str] = []
    base_grids = baseline.get("grids", {})
    for key, entry in record.get("grids", {}).items():
        base = base_grids.get(key)
        if base is None:
            continue
        limit = base["wall_s"] * (1.0 + tolerance)
        if entry["wall_s"] > limit:
            problems.append(
                f"{key}: wall time {entry['wall_s']:.2f}s exceeds "
                f"baseline {base['wall_s']:.2f}s by more than "
                f"{tolerance:.0%} (limit {limit:.2f}s)"
            )
        if base.get("sim_cycles") and entry["sim_cycles"] != base["sim_cycles"]:
            problems.append(
                f"{key}: simulated {entry['sim_cycles']} cycles, "
                f"baseline recorded {base['sim_cycles']} — the "
                f"simulation's behaviour changed, re-baseline "
                f"deliberately if intended"
            )
        for count in WORK_COUNTS:
            if count in base and count in entry and entry[count] != base[count]:
                problems.append(
                    f"{key}: {count} is {entry[count]}, baseline "
                    f"recorded {base[count]} — the pipeline's work "
                    f"changed, re-baseline deliberately if intended"
                )
    return problems


def format_record(record: dict) -> str:
    """Human-readable rendering of one bench record."""
    lines = [
        f"commit {record.get('commit', '?')}  "
        f"python {record.get('python', '?')}"
    ]
    for key in sorted(record.get("grids", {})):
        entry = record["grids"][key]
        lines.append(
            f"{key:<22} {entry.get('kernel', '?'):<7} "
            f"{entry['wall_s']:>9.2f}s  "
            f"{entry['cells']:>4} cells  "
            f"{entry['sim_cycles']:>12,} cycles  "
            f"{entry['cycles_per_s']:>12,.0f} cyc/s"
        )
    for grid, ratio in sorted(record.get("speedup", {}).items()):
        lines.append(f"speedup {grid}: {ratio:.2f}x fast vs reference")
    return "\n".join(lines)
