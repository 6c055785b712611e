"""The canonical experiment pipeline with compilation caching.

``run_benchmark`` executes the full flow of Section 4: build the
workload, apply the task selection heuristics, execute functionally,
split the trace into dynamic tasks, and replay it on the timing model.
Compilation products (partition / trace / stream) are cached per
``(benchmark, level, scale)`` so that machine sweeps (PU counts,
in-order vs out-of-order) reuse them.  Interpreter traces are cached
per distinct program text, so configs whose transformed programs
coincide (BB and CF on most benchmarks) share one profile run.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.compiler import HeuristicLevel, SelectionConfig, TaskPartition, select_tasks
from repro.compiler.regcomm import ReleaseAnalysis
from repro.ir.asmtext import program_to_text
from repro.ir.interp import Trace, run_program
from repro.ir.program import Program
from repro.metrics import normalized_branch_misprediction, window_span
from repro.profiling import Profile, profile_trace
from repro.sim import (
    CycleBreakdown,
    MultiscalarMachine,
    SimConfig,
    TaskStream,
    build_task_stream,
)
from repro.workloads import get_benchmark
from repro.workloads.registry import clear_synth_cache

#: (benchmark, scale, input_set, profile_input,
#: *SelectionConfig.cache_key()).  The tail enumerates every config
#: field *by name* plus the resolved strategy — hand-picking fields
#: once caused configs differing only in unlisted fields to alias a
#: cached partition, and a positional tuple would alias across
#: field reorderings.
_CompileKey = Tuple


@dataclass
class Compiled:
    """Cached compilation products for one (benchmark, config)."""

    partition: TaskPartition
    trace: Trace
    stream: TaskStream
    release: ReleaseAnalysis
    #: the oracle's sequential re-execution of ``partition.program``
    #: as (instructions retired, final state), filled on first use by
    #: :func:`repro.reliability.oracle.compiled_reference`
    reference: Optional[Tuple] = None


@dataclass
class RunRecord:
    """Everything one simulated run reports."""

    benchmark: str
    suite: str
    level: HeuristicLevel
    n_pus: int
    out_of_order: bool
    cycles: int
    instructions: int
    ipc: float
    dynamic_tasks: int
    mean_task_size: float
    mean_control_transfers: float
    mean_branches: float
    task_prediction_accuracy: float
    branch_prediction_accuracy: float
    control_squashes: int
    memory_squashes: int
    mean_window_span_measured: float
    breakdown: CycleBreakdown
    #: telemetry registry summary (counters + histograms); see
    #: :func:`repro.telemetry.metrics.run_metrics`
    metrics: Optional[Dict] = None

    @property
    def task_misprediction_percent(self) -> float:
        """Task misprediction rate in percent (Table 1 "task pred")."""
        return (1.0 - self.task_prediction_accuracy) * 100.0

    @property
    def branch_normalized_misprediction_percent(self) -> float:
        """Per-branch-equivalent misprediction percent (Table 1 "br pred")."""
        return 100.0 * normalized_branch_misprediction(
            1.0 - self.task_prediction_accuracy, self.mean_branches
        )

    @property
    def window_span_formula(self) -> float:
        """Window span via the Section 4.3.4 equation."""
        return window_span(
            self.mean_task_size, self.task_prediction_accuracy, self.n_pus
        )


_compile_cache: Dict[_CompileKey, Compiled] = {}


@dataclass
class _Execution:
    """The interpreter trace of one distinct program, and its profile
    once a selection has asked for one."""

    trace: Trace
    profile: Optional[Profile] = None


#: (sha256 of ``program_to_text``, max_instructions) -> execution; the
#: text includes the memory image, so the key names program and input
_trace_cache: Dict[Tuple[str, int], _Execution] = {}

#: exact work counts of this process, read by ``repro bench``:
#: interpreter runs (trace-cache misses) and compile-cache hits
interp_runs = 0
compile_hits = 0


def clear_cache() -> None:
    """Drop all cached compilations, traces and generated programs
    (tests and cold timing passes use this for isolation)."""
    _compile_cache.clear()
    _trace_cache.clear()
    clear_synth_cache()


def _execution(program: Program, max_instructions: int) -> _Execution:
    """Interpret ``program`` once per distinct text and budget."""
    global interp_runs
    text = program_to_text(program)
    key = (hashlib.sha256(text.encode("utf-8")).hexdigest(), max_instructions)
    execution = _trace_cache.get(key)
    if execution is None:
        execution = _Execution(
            run_program(program, max_instructions=max_instructions)
        )
        interp_runs += 1
        _trace_cache[key] = execution
    return execution


def cached_trace(program: Program, max_instructions: int = 2_000_000) -> Trace:
    """``run_program`` through the trace cache."""
    return _execution(program, max_instructions).trace


def cached_profile_run(
    program: Program, max_instructions: int = 2_000_000
) -> Tuple[Trace, Profile]:
    """``profile_run`` through the trace cache: one profile per trace."""
    execution = _execution(program, max_instructions)
    if execution.profile is None:
        execution.profile = profile_trace(execution.trace)
    return execution.trace, execution.profile


def resolve_selection(
    level: HeuristicLevel, selection: Optional[SelectionConfig]
) -> SelectionConfig:
    """The selection config a run will actually use."""
    selection = selection or SelectionConfig(level=level)
    if selection.level is not level:
        selection = replace(selection, level=level)
    return selection


def compile_cache_key(
    name: str,
    level: HeuristicLevel,
    scale: float = 1.0,
    selection: Optional[SelectionConfig] = None,
    input_set: str = "ref",
    profile_input: Optional[str] = None,
) -> _CompileKey:
    """In-memory cache key covering *every* selection field.

    Delegates the selection identity to
    :meth:`SelectionConfig.cache_key` — field names, resolved strategy
    and all — so configs differing in any field (including ones added
    later) can never alias, unlike the positional ``astuple`` form
    this replaced.
    """
    selection = resolve_selection(level, selection)
    profile_input = profile_input or input_set
    return (name, scale, input_set, profile_input) + selection.cache_key()


def seed_compiled(key: _CompileKey, compiled: Compiled) -> None:
    """Pre-populate the in-memory cache (harness warm-start path)."""
    _compile_cache.setdefault(key, compiled)


def peek_compiled(key: _CompileKey) -> Optional[Compiled]:
    """Look up a compilation without building it."""
    return _compile_cache.get(key)


def compile_benchmark(
    name: str,
    level: HeuristicLevel,
    scale: float = 1.0,
    selection: Optional[SelectionConfig] = None,
    input_set: str = "ref",
    profile_input: Optional[str] = None,
) -> Compiled:
    """Build, select tasks for, and trace one benchmark (cached).

    ``profile_input`` selects the input data used for *profiling*
    (task selection); ``input_set`` the data that is measured.  The
    default profiles and measures the same data, as in the paper; pass
    ``profile_input="train"`` to study profile-input sensitivity.
    """
    global compile_hits
    selection = resolve_selection(level, selection)
    profile_input = profile_input or input_set
    key = compile_cache_key(
        name, level, scale, selection, input_set, profile_input
    )
    cached = _compile_cache.get(key)
    if cached is not None:
        compile_hits += 1
        return cached
    # Interpreting and packing a trace creates millions of short-lived
    # tracked objects; the cyclic collector only adds scan time here.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        benchmark = get_benchmark(name)
        program = benchmark.build(scale, input_set=profile_input)
        partition = select_tasks(
            program, selection, profile_run=cached_profile_run
        )
        if profile_input != input_set:
            # Same static code, different data: measure the ref input
            # on the train-profiled partition (transforms never touch
            # data).
            measured = benchmark.build(scale, input_set=input_set)
            partition.program.memory_image = dict(measured.memory_image)
        # A profiled selection already ran this exact program and
        # input: the trace cache returns that run.
        trace = cached_trace(partition.program)
        stream = build_task_stream(trace, partition)
        release = ReleaseAnalysis(partition)
    finally:
        if gc_was_enabled:
            gc.enable()
    compiled = Compiled(partition, trace, stream, release)
    _compile_cache[key] = compiled
    return compiled


def _machine_config(
    sim: Optional[SimConfig], n_pus: int, out_of_order: bool
) -> SimConfig:
    """The concrete machine configuration one cell runs with.

    A ``sim`` carrying a machine spec is already fully resolved (the
    spec fixed ``n_pus``, topology and L1 scaling at construction) —
    the spec is authoritative and the cell's ``n_pus`` is ignored.
    The legacy homogeneous path scales the L1s for ``n_pus`` exactly
    as before.
    """
    config = sim or SimConfig()
    if config.machine is None:
        config = config.scaled_for_pus(n_pus)
    return replace(config, out_of_order=out_of_order)


def run_benchmark(
    name: str,
    level: HeuristicLevel,
    n_pus: int = 4,
    out_of_order: bool = True,
    scale: float = 1.0,
    selection: Optional[SelectionConfig] = None,
    sim: Optional[SimConfig] = None,
    input_set: str = "ref",
    profile_input: Optional[str] = None,
    monitor=None,
    fault_plan=None,
    tracer=None,
) -> RunRecord:
    """Run the full pipeline and return the measured record.

    ``monitor`` / ``fault_plan`` attach the reliability hooks (see
    :mod:`repro.reliability`) to the timing run: the monitor asserts
    the machine's architectural invariants, the fault plan injects
    seeded mispredictions and spurious violations.  ``tracer`` attaches
    a telemetry collector (see :mod:`repro.telemetry`) that records the
    task-lifecycle event stream for export.
    """
    from repro.telemetry.metrics import run_metrics

    benchmark = get_benchmark(name)
    compiled = compile_benchmark(
        name, level, scale, selection, input_set, profile_input
    )
    stream = compiled.stream
    mode = "ooo" if out_of_order else "ino"
    machine = MultiscalarMachine(
        stream,
        _machine_config(sim, n_pus, out_of_order),
        compiled.release,
        monitor,
        fault_plan,
        label=f"{name}/{level.value}/{n_pus}{mode}",
        tracer=tracer,
    )
    result = machine.run()
    return RunRecord(
        benchmark=name,
        suite=benchmark.suite,
        level=level,
        n_pus=n_pus,
        out_of_order=out_of_order,
        cycles=result.cycles,
        instructions=result.committed_instructions,
        ipc=result.ipc,
        dynamic_tasks=result.dynamic_tasks,
        mean_task_size=stream.mean_task_size,
        mean_control_transfers=stream.mean_control_transfers(),
        mean_branches=stream.mean_conditional_branches(),
        task_prediction_accuracy=result.task_prediction_accuracy,
        branch_prediction_accuracy=result.gshare_accuracy,
        control_squashes=result.control_squashes,
        memory_squashes=result.memory_squashes,
        mean_window_span_measured=result.mean_window_span,
        breakdown=result.breakdown,
        metrics=run_metrics(result, stream),
    )

