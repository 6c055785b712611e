"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure5-cold --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` times passes of the workload with nothing attached and
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics (see ``spans.py``).
Either way the outputs are checked, every digest is printed, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``setup_s`` is the median of several set-ups: this process's own, plus
fresh processes started with ``--setup-probe`` after the passes and
again after the checks, so the samples span the run rather than one
moment of the host's varying speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# Local modules; both import ``repro`` only once SRC is on the path.
import loads
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: scratch space inside the checkout (artifact caches, worker spans)
WORK = os.path.join(ROOT, ".perfbench_work")
#: fresh set-up probes run after the passes, and again after the checks
SETUP_PROBES = 4

#: end-to-end metrics: name -> unit
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "1/s",
    "sim_insts_per_s": "1/s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _time_setup(workload, seed: int, workdir: str) -> float:
    start = time.perf_counter()
    workload.setup(seed, workdir)
    return time.perf_counter() - start


def _probe_setups(args, count: int) -> list:
    """Set-up times of ``count`` fresh processes."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _run_passes(workload, seconds: float, max_passes: int):
    """Whole passes while the next one is expected to end in time.

    Returns the passes, the operations of a pass that raised, and the
    peak RSS after the first pass (later passes would only measure
    how much the allocator kept from earlier ones).
    """
    passes, failed_ops, peak_rss = [], 0, 0.0
    start = time.perf_counter()
    while len(passes) < max_passes:
        try:
            passes.append(workload.run_pass())
        except Exception:  # noqa: BLE001 — reported as failed operations
            traceback.print_exc()
            failed_ops += workload.failed_pass_ops()
            break
        if len(passes) == 1:
            peak_rss = _peak_rss_mb()
        elapsed = time.perf_counter() - start
        if elapsed + passes[-1].wall_s > seconds:
            break
    return passes, failed_ops, peak_rss


def _traced_pass(workload, workdir: str):
    """One pass with every layer's entry points wrapped."""
    tracer = spans.Tracer(tempfile.mkdtemp(dir=workdir))
    patches = spans.install(tracer)
    try:
        passes, failed_ops, _ = _run_passes(workload, 0.0, 1)
    finally:
        spans.uninstall(patches)
    return passes, failed_ops, tracer


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in loads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(loads.WORKLOADS)})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = loads.WORKLOADS[args.workload]()
    if args.setup_probe:
        print(json.dumps(_time_setup(workload, args.seed, WORK)))
        return 0

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        return _measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, workdir: str) -> int:
    setups = [_time_setup(workload, args.seed, workdir)]
    tracer = traced = None
    if args.trace:
        passes, failed_ops, peak_rss = _run_passes(workload, 0.0, 1)
        if passes:
            more, failed_more, tracer = _traced_pass(workload, workdir)
            failed_ops += failed_more
            traced = more[0] if more else None
            passes += more
    else:
        passes, failed_ops, peak_rss = _run_passes(
            workload, args.seconds, 1_000
        )

    setups += _probe_setups(args, SETUP_PROBES)
    checked = workload.check(passes)
    setups += _probe_setups(args, SETUP_PROBES)

    first = passes[0].digest if passes else None
    attempted = sum(p.ops for p in passes) + checked.attempted + failed_ops
    failed = failed_ops + checked.failed + sum(
        p.ops if p.digest != first else p.failed for p in passes
    )
    correct = bool(passes) and failed == 0 and not checked.problems

    untraced = passes[:-1] if traced is not None else passes
    walls = [p.wall_s for p in untraced]
    wall = statistics.median(walls) if walls else 0.0

    def rate(attr: str) -> float:
        values = [getattr(p, attr) / p.wall_s for p in untraced]
        return statistics.median(values) if values else 0.0

    if args.trace:
        units = spans.LAYER_METRICS
        metrics = dict.fromkeys(units, 0)
        if traced is not None:
            metrics.update(tracer.layer_metrics())
            metrics.update(traced.layer_counts)
            metrics["trace.overhead_s"] = traced.wall_s - wall
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "sim_cycles_per_s": rate("sim_cycles"),
            "sim_insts_per_s": rate("sim_insts"),
            "ops_per_s": rate("ops"),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END

    print(f"workload {args.workload} seed {args.seed} "
          f"passes {len(untraced)} "
          f"(walls {', '.join(f'{w:.3f}' for w in walls)} s)")
    for name, value in sorted(checked.digests.items()):
        print(f"digest {name} {value}")
    for problem in checked.problems:
        print(f"check FAILED: {problem}")
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]} {unit}")
    if not args.trace:
        print(f"metric {workload.items}_per_s {rate('items')} 1/s")
    print(f"metric failed_share {failed / attempted if attempted else 1.0} "
          f"ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
