"""Per-layer spans for the traced benchmark run, recorded from outside.

The traced run wraps the public entry points of each ``repro`` module
(plus the harness's pooled group job, so spans recorded inside pool
workers come home) and records one span per call: layer name, start,
end and the enclosing span.  Nothing under ``src/`` changes; the
wrappers are installed by rebinding every module attribute and class
attribute that refers to the original function, and removed again
afterwards.

A layer's inclusive time counts only its outermost spans; its self
time is each span's duration minus the part of that interval its
child spans cover (children recorded in pool workers overlap, so the
covered part is the union of their intervals).  ``time.perf_counter``
reads the system-wide monotonic clock on Linux, so worker spans and
parent spans share one timeline.

Untraced runs install only :class:`SimCounter`, which adds the
simulated cycles and instructions of each ``MultiscalarMachine.run``
call: a single addition per simulation, no timing.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: the tracer whose wrappers are installed (wrappers look it up here,
#: so a forked pool worker finds its inherited copy)
_ACTIVE: Optional["Tracer"] = None

#: bookkeeping spans: they hide the wrappers' own counting work from
#: the enclosing layer's self time and are never reported
HOOK = "bench.hook"

#: per-layer metrics of the traced run: name -> unit
LAYER_METRICS: Dict[str, str] = {
    "sim.run_s": "s",
    "sim.run_p50_ms": "ms",
    "sim.run_p95_ms": "ms",
    "sim.runs": "count",
    "sim.fast_runs": "count",
    "sim.reference_runs": "count",
    "sim.build_s": "s",
    "sim.cycles": "count",
    "sim.instructions": "count",
    "sim.control_squashes": "count",
    "sim.memory_squashes": "count",
    "sim.l1d_accesses": "count",
    "sim.l2_accesses": "count",
    "interp.s": "s",
    "interp.runs": "count",
    "interp.instructions": "count",
    "interp.duplicate_runs": "count",
    "profiling.s": "s",
    "profiling.runs": "count",
    "compiler.transform_s": "s",
    "compiler.clone_s": "s",
    "compiler.select_self_s": "s",
    "compiler.selections": "count",
    "compiler.static_tasks": "count",
    "taskstream.s": "s",
    "taskstream.dyn_tasks": "count",
    "taskstream.instructions": "count",
    "regcomm.release_s": "s",
    "synth.generate_s": "s",
    "synth.generate_calls": "count",
    "synth.programs": "count",
    "reliability.oracle_s": "s",
    "reliability.invariant_checks": "count",
    "reliability.divergences": "count",
    "runner.compile_calls": "count",
    "runner.compile_hits": "count",
    "runner.self_s": "s",
    "telemetry.record_s": "s",
    "workloads.build_s": "s",
    "harness.self_s": "s",
    "harness.cache_hits": "count",
    "harness.cache_misses": "count",
    "harness.ledger_entries": "count",
    "harness.retries": "count",
    "tune.self_s": "s",
    "tune.evaluations": "count",
    "trace.overhead_s": "s",
}

#: inclusive-time metrics: metric -> span layer
_INCLUSIVE = {
    "sim.run_s": "sim.run",
    "sim.build_s": "sim.build",
    "interp.s": "ir.interp",
    "profiling.s": "profiling",
    "compiler.transform_s": "compiler.transform",
    "compiler.clone_s": "compiler.clone",
    "taskstream.s": "sim.taskstream",
    "regcomm.release_s": "compiler.regcomm",
    "synth.generate_s": "synth",
    "reliability.oracle_s": "reliability",
    "telemetry.record_s": "telemetry",
    "workloads.build_s": "workloads",
}

#: self-time metrics: metric -> span layer
_SELF = {
    "compiler.select_self_s": "compiler.select",
    "runner.self_s": "experiments.runner",
    "harness.self_s": "harness",
    "tune.self_s": "tune",
}


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self, spool: str) -> None:
        #: directory pool workers write their spans into
        self.spool = spool
        #: the benchmark process; ``pid`` is the process recording
        self.home = self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        #: [layer, start, end, parent index or -1]
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: index of the most recently closed span
        self.last = -1
        self.counts: Counter = Counter()
        #: content hashes of interpreted (program, input) pairs
        self.interp_keys: List[str] = []
        #: generator seeds of synthesized programs
        self.synth_seeds: List[int] = []

    def open(self, layer: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([layer, time.perf_counter(), 0.0, parent])

    def close(self) -> None:
        self.last = self._stack.pop()
        self.spans[self.last][2] = time.perf_counter()

    # ------------------------------------------------- pool workers

    def dump_worker(self) -> None:
        """Write this worker's spans to the spool and start afresh."""
        payload = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "interp_keys": self.interp_keys,
            "synth_seeds": self.synth_seeds,
        }
        path = os.path.join(
            self.spool, f"{os.getpid()}-{time.monotonic_ns()}.json"
        )
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)
        self.reset()

    def adopt_workers(self, anchor: int) -> None:
        """Attach spooled worker spans as children of span ``anchor``."""
        for path in sorted(glob.glob(os.path.join(self.spool, "*.json"))):
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            os.remove(path)
            base = len(self.spans)
            for layer, start, end, parent in payload["spans"]:
                parent = anchor if parent < 0 else parent + base
                self.spans.append([layer, start, end, parent])
            self.counts.update(payload["counts"])
            self.interp_keys.extend(payload["interp_keys"])
            self.synth_seeds.extend(payload["synth_seeds"])

    # ------------------------------------------------------ metrics

    def durations(self, layer: str) -> List[float]:
        return [end - start for name, start, end, _ in self.spans
                if name == layer]

    def inclusive(self, layer: str) -> float:
        """Seconds in ``layer``, counting only its outermost spans."""
        total = 0.0
        for index, (name, start, end, _) in enumerate(self.spans):
            if name == layer and not self._inside(index, layer):
                total += end - start
        return total

    def self_time(self, layer: str) -> float:
        """Seconds in ``layer`` not covered by any child span."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        total = 0.0
        for index, (name, start, end, _) in enumerate(self.spans):
            if name == layer:
                covered = _union(children.get(index, ()), start, end)
                total += (end - start) - covered
        return total

    def _inside(self, index: int, layer: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self) -> Dict[str, float]:
        """Every per-layer metric except the harness ledger counts,
        ``reliability.*`` counts and ``tune.evaluations``, which the
        workload reads from its own outputs."""
        out: Dict[str, float] = {}
        for metric, layer in _INCLUSIVE.items():
            out[metric] = self.inclusive(layer)
        for metric, layer in _SELF.items():
            out[metric] = self.self_time(layer)
        runs_ms = sorted(d * 1000.0 for d in self.durations("sim.run"))
        out["sim.run_p50_ms"] = statistics.median(runs_ms) if runs_ms else 0.0
        out["sim.run_p95_ms"] = (
            statistics.quantiles(runs_ms, n=20)[-1]
            if len(runs_ms) >= 2 else sum(runs_ms)
        )
        for name in (
            "sim.runs", "sim.fast_runs", "sim.reference_runs",
            "sim.cycles", "sim.instructions", "sim.control_squashes",
            "sim.memory_squashes", "sim.l1d_accesses", "sim.l2_accesses",
            "interp.runs", "interp.instructions", "profiling.runs",
            "compiler.selections", "compiler.static_tasks",
            "taskstream.dyn_tasks", "taskstream.instructions",
            "synth.generate_calls", "runner.compile_calls",
            "runner.compile_hits",
        ):
            out[name] = self.counts[name]
        out["interp.duplicate_runs"] = (
            len(self.interp_keys) - len(set(self.interp_keys))
        )
        out["synth.programs"] = len(set(self.synth_seeds))
        return out


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


# ------------------------------------------------------------ patching


class Patches:
    """Rebinds functions and methods; :meth:`undo` restores them."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def function(self, original: Callable, replacement: Callable) -> None:
        """Point every ``repro`` module attribute bound to ``original``
        at ``replacement``, so ``from x import f`` copies are covered."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def method(self, cls: type, name: str,
               make: Callable[[Callable], Callable]) -> None:
        original = cls.__dict__[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, make(original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _traced(layer: str, fn: Callable,
            before: Optional[Callable] = None,
            after: Optional[Callable] = None) -> Callable:
    """``fn`` inside a ``layer`` span; hooks count inside hook spans."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None or tracer.pid != os.getpid():
            return fn(*args, **kwargs)
        note = None
        if before is not None:
            tracer.open(HOOK)
            try:
                note = before(tracer, fn, args, kwargs)
            finally:
                tracer.close()
        tracer.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            tracer.open(HOOK)
            try:
                after(tracer, fn, args, kwargs, result, note)
            finally:
                tracer.close()
        return result

    return wrapper


def _traced_group(fn: Callable) -> Callable:
    """The harness's pooled group job: in a pool worker, record the
    group's spans and spool them for the parent to adopt."""
    traced = _traced("harness", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _ACTIVE
        if tracer is None or tracer.home == os.getpid():
            return traced(*args, **kwargs)
        if tracer.pid != os.getpid():
            # First group in a forked worker: drop inherited spans.
            tracer.pid = os.getpid()
            tracer.reset()
        try:
            return traced(*args, **kwargs)
        finally:
            tracer.dump_worker()

    return wrapper


def _sim_counts(tracer, fn, args, kwargs, result, note) -> None:
    machine = args[0]
    counts = tracer.counts
    counts["sim.runs"] += 1
    counts[f"sim.{machine.config.engine}_runs"] += 1
    counts["sim.cycles"] += result.cycles
    counts["sim.instructions"] += result.committed_instructions
    counts["sim.control_squashes"] += result.control_squashes
    counts["sim.memory_squashes"] += result.memory_squashes
    counts["sim.l1d_accesses"] += int(result.cache_stats["l1d_accesses"])
    counts["sim.l2_accesses"] += int(result.cache_stats["l2_accesses"])


def _interp_counts(tracer, fn, args, kwargs, result, note) -> None:
    from repro.ir.asmtext import program_to_text

    bound = _bind(fn, args, kwargs)
    text = program_to_text(bound["program"])
    key = f"{bound['max_instructions']}:{text}"
    tracer.counts["interp.runs"] += 1
    tracer.counts["interp.instructions"] += len(result)
    tracer.interp_keys.append(hashlib.sha256(key.encode()).hexdigest())


def _select_counts(tracer, fn, args, kwargs, result, note) -> None:
    tracer.counts["compiler.selections"] += 1
    tracer.counts["compiler.static_tasks"] += len(result)


def _stream_counts(tracer, fn, args, kwargs, result, note) -> None:
    tracer.counts["taskstream.dyn_tasks"] += len(result)
    tracer.counts["taskstream.instructions"] += len(result.trace)


def _profile_counts(tracer, fn, args, kwargs, result, note) -> None:
    tracer.counts["profiling.runs"] += 1


def _synth_counts(tracer, fn, args, kwargs, result, note) -> None:
    tracer.counts["synth.generate_calls"] += 1
    tracer.synth_seeds.append(_bind(fn, args, kwargs)["seed"])


def _compile_hit(tracer, fn, args, kwargs) -> bool:
    from repro.experiments import runner

    key = runner.compile_cache_key(**_bind(fn, args, kwargs))
    return runner.peek_compiled(key) is not None


def _compile_counts(tracer, fn, args, kwargs, result, hit) -> None:
    tracer.counts["runner.compile_calls"] += 1
    tracer.counts["runner.compile_hits"] += int(hit)


def _harness_adopt(tracer, fn, args, kwargs, result, note) -> None:
    tracer.adopt_workers(tracer.last)  # the run_specs span just closed


def _bind(fn: Callable, args, kwargs) -> Dict[str, object]:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's entry points; returns the undo handle."""
    global _ACTIVE
    from repro.compiler import regcomm, strategy, transforms
    from repro.compiler import partition
    from repro.experiments import runner
    from repro.harness import scheduler
    from repro.ir import interp, validate
    from repro.profiling import profiler
    # Importers must be loaded before rebinding, or their ``from x
    # import f`` copies would keep the wrapper after uninstall.
    from repro.reliability import oracle, verify  # noqa: F401
    from repro.sim import machine, taskstream
    from repro.synth import campaign, generator  # noqa: F401
    from repro.telemetry import metrics
    from repro.tune import ga
    from repro.workloads import registry

    patches = Patches()
    plain = [
        (generator.generate_program, "synth", None, _synth_counts),
        (transforms.clone_program, "compiler.clone", None, None),
        (partition.select_tasks, "compiler.select", None, _select_counts),
        (interp.run_program, "ir.interp", None, _interp_counts),
        (profiler.profile_trace, "profiling", None, _profile_counts),
        (taskstream.build_task_stream, "sim.taskstream", None,
         _stream_counts),
        (metrics.run_metrics, "telemetry", None, None),
        (oracle.sequential_reference, "reliability", None, None),
        (oracle.replay_commits, "reliability", None, None),
        (oracle.check_commit_log, "reliability", None, None),
        (oracle.compare_states, "reliability", None, None),
        (validate.well_formed, "reliability", None, None),
        (validate.partition_issues, "reliability", None, None),
        (runner.run_benchmark, "experiments.runner", None, None),
        (runner.compile_benchmark, "experiments.runner", _compile_hit,
         _compile_counts),
        (scheduler.run_specs, "harness", None, _harness_adopt),
        (ga.tune, "tune", None, None),
    ]
    for fn, layer, before, after in plain:
        patches.function(fn, _traced(layer, fn, before, after))
    patches.function(scheduler._run_group,
                     _traced_group(scheduler._run_group))

    def method(layer, after=None):
        return lambda fn: _traced(layer, fn, None, after)

    patches.method(registry.Benchmark, "build", method("workloads"))
    patches.method(regcomm.ReleaseAnalysis, "__init__",
                   method("compiler.regcomm"))
    patches.method(machine.MultiscalarMachine, "__init__",
                   method("sim.build"))
    patches.method(machine.MultiscalarMachine, "run",
                   method("sim.run", _sim_counts))
    for cls in vars(strategy).values():
        if (isinstance(cls, type)
                and issubclass(cls, strategy.SelectionStrategy)
                and "transform" in cls.__dict__):
            patches.method(cls, "transform", method("compiler.transform"))
    _ACTIVE = tracer
    return patches


def uninstall(patches: Patches) -> None:
    global _ACTIVE
    patches.undo()
    _ACTIVE = None


class SimCounter:
    """Simulated cycles and instructions of in-process machine runs."""

    def __init__(self) -> None:
        self.cycles = 0
        self.instructions = 0
        self._patches = Patches()

    def install(self) -> None:
        from repro.sim.machine import MultiscalarMachine

        def make(run):
            @functools.wraps(run)
            def counted(machine, *args, **kwargs):
                result = run(machine, *args, **kwargs)
                self.cycles += result.cycles
                self.instructions += result.committed_instructions
                return result
            return counted

        self._patches.method(MultiscalarMachine, "run", make)

    def uninstall(self) -> None:
        self._patches.undo()
