"""Differential fuzzing campaigns over generated programs.

A campaign takes ``budget`` seeded programs (see
:mod:`repro.synth.generator`), compiles each at **all four heuristic
levels**, runs every cell on **both simulation engines**, and checks:

* the IR well-formedness validator and the partition single-entry
  property on every compilation;
* the reliability oracle (sequential reference vs. full-semantics
  replay of the machine's commit log) with the invariant monitor
  riding every run;
* fast (the monitored native kernel) vs. reference engine
  **bit-identity** on every reported result field and every
  cycle-breakdown category.

Everything executes through the existing harness
(:func:`repro.harness.scheduler.run_specs`): cells group by compile
signature (both engines of one (program, level) share a compilation),
fan out over the process pool, resume from the run ledger, and cache
records in the artifact cache.  Specs carry the generated program's
content hash (``RunSpec.source_hash``), so fuzz records can never
alias cached artifacts of a same-named workload built by different
generator code.

Each per-cell oracle verdict is embedded in the record's metrics
(``metrics["fuzz"]``), so verdicts ride the ledger and survive cache
hits and ``--resume`` — replaying a finished campaign re-reports its
divergences without re-running anything.

The campaign ledger (:class:`CampaignLedger`) zeroes per-entry wall
times, making two identical campaigns produce identical ledgers
modulo the ``ts`` timestamps — the determinism contract the CI
fuzz-smoke job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.compiler.partition import select_tasks
from repro.compiler.regcomm import ReleaseAnalysis
from repro.harness.ledger import LedgerEntry, RunLedger
from repro.harness.scheduler import run_specs
from repro.harness.spec import RunSpec
from repro.ir.asmtext import parse_program, program_to_text
from repro.ir.interp import run_program
from repro.ir.program import Program
from repro.ir.validate import partition_issues, well_formed
from repro.reliability.monitors import InvariantMonitor, InvariantViolation
from repro.reliability.oracle import (
    check_commit_log,
    compare_states,
    compiled_reference,
    replay_commits,
    sequential_reference,
)
from repro.sim import MultiscalarMachine, SimConfig, build_task_stream
from repro.synth.generator import (
    generate_program,
    program_source_hash,
    synth_name,
)
from repro.synth.params import PRESETS
from repro.telemetry.metrics import MetricsRegistry, TASK_SIZE_BOUNDS
from repro.workloads.registry import synth_source_hash

ALL_LEVELS: Tuple[HeuristicLevel, ...] = tuple(HeuristicLevel)

#: the engines every cell runs on: fast is checked against reference
ENGINES: Tuple[str, ...] = ("fast", "reference")

#: heuristic level strategy-sweep cells run at (multi-block and
#: profile-fed, so non-paper strategies exercise their full pipeline)
FUZZ_STRATEGY_LEVEL = HeuristicLevel.DATA_DEPENDENCE

#: RunRecord fields that must be bit-identical across engines
_COMPARE_FIELDS: Tuple[str, ...] = (
    "cycles", "instructions", "ipc", "dynamic_tasks", "mean_task_size",
    "task_prediction_accuracy", "branch_prediction_accuracy",
    "control_squashes", "memory_squashes", "mean_window_span_measured",
)

#: dynamic-size histogram buckets for generated programs
PROGRAM_SIZE_BOUNDS: Tuple[int, ...] = (
    64, 128, 256, 512, 1024, 2048, 4096, 8192,
)


def program_seed(campaign_seed: int, index: int) -> int:
    """The generator seed of program ``index`` of a campaign.

    A large odd stride keeps distinct campaign seeds from sharing
    program streams for any realistic budget.
    """
    return campaign_seed * 1_000_003 + index


class CampaignLedger(RunLedger):
    """A run ledger whose entries carry no wall-clock durations.

    Fuzz campaigns must be reproducible byte-for-byte modulo the
    ``ts`` field: two runs of the same ``(budget, seed, preset)``
    produce identical ledgers otherwise, which the determinism tests
    and the CI fuzz-smoke job diff directly.
    """

    def record(self, entry: LedgerEntry) -> None:
        super().record(replace_wall(entry))


def replace_wall(entry: LedgerEntry) -> LedgerEntry:
    if entry.wall_seconds:
        entry = replace(entry, wall_seconds=0.0)
    return entry


@dataclass
class CampaignResult:
    """Everything one fuzzing campaign reports."""

    budget: int
    seed: int
    preset: str
    #: benchmark names of the generated programs, in seed order
    programs: List[str] = field(default_factory=list)
    #: (program, level, engine) cells executed
    cells: int = 0
    #: human-readable divergence reports, ordered deterministically
    divergences: List[str] = field(default_factory=list)
    #: benchmark name -> minimized IR text, for divergent programs
    #: reduced with ``--minimize``
    reduced: Dict[str, str] = field(default_factory=dict)
    #: campaign-level metrics registry summary
    metrics: Optional[Dict] = None

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        head = (
            f"fuzz campaign: {len(self.programs)} programs "
            f"(preset={self.preset}, seed={self.seed}), {self.cells} "
            f"cells, {len(self.divergences)} divergence(s)"
        )
        lines = [head]
        lines += [f"  ! {d}" for d in self.divergences[:50]]
        if len(self.divergences) > 50:
            lines.append(f"  ... and {len(self.divergences) - 50} more")
        for name, text in self.reduced.items():
            n_blocks = sum(
                1 for line in text.splitlines()
                if line.endswith(":") and not line.startswith((" ", "\t"))
            )
            lines.append(f"  reduced {name} -> {n_blocks} block(s)")
        return "\n".join(lines)


def fuzz_specs(
    budget: int,
    seed: int = 1,
    preset: str = "default",
    levels: Sequence[HeuristicLevel] = ALL_LEVELS,
    strategies: Sequence[str] = (),
    machines: Sequence[str] = (),
) -> Tuple[List[RunSpec], List[str]]:
    """The harness specs of one campaign, plus the program names.

    Generating the programs up front (in the parent) serves two
    purposes: each spec carries the program's content hash, and an
    unbounded or invalid generation fails loudly before any cell is
    scheduled.

    ``strategies`` appends, per program, one cell group per named
    non-paper selection strategy (at :data:`FUZZ_STRATEGY_LEVEL`,
    every engine) so fuzzing also covers the pluggable-strategy
    dispatch path.  ``machines`` appends, per program, one cell group
    per named machine preset (at :data:`FUZZ_STRATEGY_LEVEL`, every
    engine) — heterogeneous machines share the level's compilation
    but drive the differential oracle through per-PU profiles,
    scaled rings and non-path predictors.
    """
    if preset not in PRESETS:
        known = ", ".join(PRESETS)
        raise ValueError(f"unknown synth preset {preset!r} (known: {known})")
    from repro.machines import resolve_machine

    # Resolve (and lint) machine names before any program is queued.
    machine_specs = [resolve_machine(m) for m in machines]
    params = PRESETS[preset]
    specs: List[RunSpec] = []
    names: List[str] = []
    for index in range(budget):
        pseed = program_seed(seed, index)
        program = generate_program(pseed, params)
        source = program_source_hash(program)
        name = synth_name(preset, pseed)
        names.append(name)
        for level in levels:
            for engine in ENGINES:
                specs.append(RunSpec(
                    benchmark=name,
                    level=level,
                    sim=SimConfig(engine=engine),
                    source_hash=source,
                ))
        for strategy in strategies:
            selection = SelectionConfig(
                level=FUZZ_STRATEGY_LEVEL, strategy=strategy
            )
            for engine in ENGINES:
                specs.append(RunSpec(
                    benchmark=name,
                    level=FUZZ_STRATEGY_LEVEL,
                    selection=selection,
                    sim=SimConfig(engine=engine),
                    source_hash=source,
                ))
        for machine in machine_specs:
            for engine in ENGINES:
                specs.append(RunSpec(
                    benchmark=name,
                    level=FUZZ_STRATEGY_LEVEL,
                    sim=SimConfig(engine=engine, machine=machine),
                    source_hash=source,
                ))
    return specs, names


def _spec_machine(spec: RunSpec) -> str:
    """The machine-preset tag of a fuzz cell ("" = the legacy 4x2)."""
    machine = spec.sim.machine if spec.sim is not None else None
    return machine.name if machine is not None else ""


def execute_fuzz_spec(spec: RunSpec) -> "RunRecord":
    """Harness worker: one fuzz cell with the full oracle riding.

    Compiles through the standard (in-memory cached) pipeline, checks
    well-formedness and the partition single-entry property, runs the
    machine with the invariant monitor attached, then replays the
    commit log against the sequential reference.  The verdict is
    embedded in ``record.metrics["fuzz"]`` so it travels through the
    artifact cache and the ledger.
    """
    from repro.experiments.runner import (
        RunRecord,
        compile_benchmark,
        run_benchmark,
    )

    divergences: List[str] = []
    compiled = compile_benchmark(
        spec.benchmark, spec.level, scale=spec.scale,
        selection=spec.selection, input_set=spec.input_set,
        profile_input=spec.profile_input,
    )
    program = compiled.partition.program
    if spec.source_hash is not None:
        # The worker rebuilt the program from its name, independently
        # of the generation that hashed the spec; a mismatch means
        # generation is not deterministic across processes.
        rebuilt = synth_source_hash(spec.benchmark, spec.scale)
        if rebuilt != spec.source_hash:
            divergences.append(
                f"source hash mismatch: spec says {spec.source_hash[:12]}, "
                f"worker generated {rebuilt[:12]} — generator is not "
                f"deterministic across processes"
            )
    divergences.extend(
        f"well-formedness: {issue}"
        for issue in well_formed(program)
    )
    divergences.extend(
        f"partition: {issue}"
        for issue in partition_issues(program, compiled.partition)
    )

    monitor = InvariantMonitor()
    try:
        record = run_benchmark(
            spec.benchmark, spec.level, n_pus=spec.n_pus,
            out_of_order=spec.out_of_order, scale=spec.scale,
            selection=spec.selection, sim=spec.sim,
            input_set=spec.input_set, profile_input=spec.profile_input,
            monitor=monitor,
        )
    except InvariantViolation as exc:
        divergences.append(f"invariant violation: {exc}")
        record = _stub_record(spec, compiled)
    else:
        ref_length, ref_state = compiled_reference(compiled)
        if ref_length != len(compiled.trace):
            divergences.append(
                f"sequential re-execution produced {ref_length} "
                f"instructions, compiled trace has {len(compiled.trace)}"
            )
        else:
            divergences.extend(
                check_commit_log(monitor.commit_log, len(compiled.trace))
            )
            replay_state, replay_div = replay_commits(
                program, compiled.trace, monitor.commit_log
            )
            divergences.extend(replay_div)
            divergences.extend(compare_states(ref_state, replay_state))
            if record.instructions != ref_state.retired_instructions:
                divergences.append(
                    f"machine committed {record.instructions} "
                    f"instructions, sequential reference retired "
                    f"{ref_state.retired_instructions}"
                )

    metrics = dict(record.metrics or {})
    metrics["fuzz"] = {
        "divergences": divergences,
        "invariant_checks": monitor.checks,
        "source_hash": spec.source_hash,
        "engine": (spec.sim or SimConfig()).engine,
    }
    if spec.selection is not None and spec.selection.strategy:
        # Strategy-sweep cells share the level of a reference cell;
        # the report loader suffixes their labels with this.
        metrics["fuzz"]["strategy"] = spec.selection.strategy
    machine = _spec_machine(spec)
    if machine:
        # Machine-sweep cells likewise share a reference level.
        metrics["fuzz"]["machine"] = machine
    record.metrics = metrics
    return record


def _pristine_program(name: str, scale: float) -> Program:
    """A freshly built program for ``name`` (no selection transforms)."""
    from repro.workloads import get_benchmark

    return get_benchmark(name).build(scale)


def _stub_record(spec: RunSpec, compiled) -> "RunRecord":
    """A zeroed record for a cell whose simulation aborted."""
    from repro.experiments.runner import RunRecord
    from repro.sim import CycleBreakdown

    return RunRecord(
        benchmark=spec.benchmark, suite="synth", level=spec.level,
        n_pus=spec.n_pus, out_of_order=spec.out_of_order, cycles=0,
        instructions=0, ipc=0.0,
        dynamic_tasks=len(compiled.stream.tasks),
        mean_task_size=compiled.stream.mean_task_size,
        mean_control_transfers=0.0, mean_branches=0.0,
        task_prediction_accuracy=0.0, branch_prediction_accuracy=0.0,
        control_squashes=0, memory_squashes=0,
        mean_window_span_measured=0.0, breakdown=CycleBreakdown(),
    )


def _compare_engines(label: str,
                     by_engine: Dict[str, "RunRecord"]) -> List[str]:
    """Bit-identity divergences of one cell's fast record from its
    reference record (none when either column is missing)."""
    fast = by_engine.get("fast")
    reference = by_engine.get("reference")
    if fast is None or reference is None:
        return []
    out: List[str] = []
    for field_name in _COMPARE_FIELDS:
        a = getattr(fast, field_name)
        b = getattr(reference, field_name)
        if a != b:
            out.append(
                f"{label}: engines diverge on {field_name}: "
                f"fast={a!r} reference={b!r}"
            )
    fast_bd = fast.breakdown.as_dict()
    ref_bd = reference.breakdown.as_dict()
    for category in sorted(set(fast_bd) | set(ref_bd)):
        if fast_bd.get(category) != ref_bd.get(category):
            out.append(
                f"{label}: engines diverge on breakdown[{category}]: "
                f"fast={fast_bd.get(category)!r} "
                f"reference={ref_bd.get(category)!r}"
            )
    return out


def run_campaign(
    budget: int,
    seed: int = 1,
    preset: str = "default",
    jobs: Optional[int] = 1,
    cache=None,
    ledger: Optional[RunLedger] = None,
    resume: bool = False,
    minimize: bool = False,
    levels: Sequence[HeuristicLevel] = ALL_LEVELS,
    strategies: Sequence[str] = (),
    machines: Sequence[str] = (),
) -> CampaignResult:
    """Run one differential fuzzing campaign through the harness.

    Returns a :class:`CampaignResult`; never raises on divergence
    (the CLI exits non-zero on ``not result.ok``).  With ``minimize``,
    every divergent program is delta-debugged to a minimal reproducer
    (``result.reduced``).  Every cell runs on each of :data:`ENGINES`.
    ``strategies`` sweeps non-paper selection strategies, and
    ``machines`` heterogeneous machine presets, as extra cell groups
    (see :func:`fuzz_specs`).
    """
    result = CampaignResult(budget=budget, seed=seed, preset=preset)
    specs, names = fuzz_specs(budget, seed, preset, levels=levels,
                              strategies=strategies, machines=machines)
    result.programs = names
    records = run_specs(
        specs, jobs=jobs, cache=cache, ledger=ledger,
        worker=execute_fuzz_spec, resume=resume,
    )
    result.cells = len(records)

    # Group (program, level, strategy, machine) -> engine -> record,
    # preserving spec order (strategy/machine "" = the paper
    # reference cells).
    grouped: Dict[Tuple[str, HeuristicLevel, str, str],
                  Dict[str, "RunRecord"]] = {}
    for spec, record in zip(specs, records):
        engine = (spec.sim or SimConfig()).engine
        strategy = spec.selection.strategy if spec.selection else ""
        grouped.setdefault(
            (spec.benchmark, spec.level, strategy, _spec_machine(spec)), {}
        )[engine] = record

    registry = MetricsRegistry()
    registry.counter("fuzz.programs").inc(len(names))
    registry.counter("fuzz.cells").inc(len(records))
    sizes = registry.histogram("fuzz.program_instructions",
                               PROGRAM_SIZE_BOUNDS)
    divergent_programs: List[str] = []
    for (name, level, strategy, machine), by_engine in grouped.items():
        cell_label = f"{name}@{level.value}"
        if strategy:
            cell_label = f"{cell_label}+{strategy}"
        if machine:
            cell_label = f"{cell_label}/{machine}"
        cell_divs: List[str] = []
        for engine in ENGINES:
            record = by_engine.get(engine)
            if record is None:
                continue
            fuzz_meta = (record.metrics or {}).get("fuzz", {})
            cell_divs.extend(
                f"{cell_label}[{engine}]: {d}"
                for d in fuzz_meta.get("divergences", ())
            )
            registry.counter("fuzz.invariant_checks").inc(
                int(fuzz_meta.get("invariant_checks", 0))
            )
        fast = by_engine.get("fast")
        if fast is not None and not strategy and not machine:
            sizes.observe(fast.instructions)
        cell_divs.extend(_compare_engines(cell_label, by_engine))
        if cell_divs and name not in divergent_programs:
            divergent_programs.append(name)
        result.divergences.extend(cell_divs)
    registry.counter("fuzz.divergences").inc(len(result.divergences))
    registry.counter("fuzz.divergent_programs").inc(len(divergent_programs))
    result.metrics = registry.summary()

    if ledger is not None:
        ledger.event(
            "fuzz_campaign",
            budget=budget, seed=seed, preset=preset,
            programs=len(names), cells=result.cells,
            divergences=len(result.divergences),
            divergent_programs=divergent_programs,
            metrics=result.metrics,
        )

    if minimize and divergent_programs:
        from repro.synth.reduce import reduce_program

        for name in divergent_programs:
            program = _pristine_program(name, 1.0)
            reduced = reduce_program(
                program,
                lambda p: bool(
                    check_program(p, levels=levels, strategies=strategies,
                                  machines=machines)
                ),
            )
            result.reduced[name] = program_to_text(reduced)
    return result


def check_program(
    program: Program,
    levels: Sequence[HeuristicLevel] = ALL_LEVELS,
    n_pus: int = 4,
    max_instructions: int = 2_000_000,
    strategies: Sequence[str] = (),
    machines: Sequence[str] = (),
) -> List[str]:
    """In-process differential check of one program (no registry).

    The reducer predicate and the planted-fault tests use this: it
    mirrors :func:`execute_fuzz_spec` — all requested levels (plus
    the requested non-paper ``strategies`` and machine-preset
    ``machines``), both engines, the invariant monitor, and the
    commit-log oracle — against a raw
    :class:`~repro.ir.program.Program`.  Selection clones and
    transforms its input, so every downstream step works on
    ``partition.program``, the program the trace was recorded on.
    """
    text = program_to_text(program)
    divergences: List[str] = []
    base = parse_program(text)
    divergences.extend(f"well-formedness: {i}" for i in well_formed(base))
    if divergences:
        return divergences
    selections: List[Tuple[str, SelectionConfig, Optional[object]]] = [
        (level.value, SelectionConfig(level=level), None)
        for level in levels
    ]
    selections += [
        (f"{FUZZ_STRATEGY_LEVEL.value}+{strategy}",
         SelectionConfig(level=FUZZ_STRATEGY_LEVEL, strategy=strategy),
         None)
        for strategy in strategies
    ]
    if machines:
        from repro.machines import resolve_machine

        selections += [
            (f"{FUZZ_STRATEGY_LEVEL.value}/{machine}",
             SelectionConfig(level=FUZZ_STRATEGY_LEVEL),
             resolve_machine(machine))
            for machine in machines
        ]
    for tag, selection, machine_spec in selections:
        partition = select_tasks(
            parse_program(text), selection,
            max_profile_instructions=max_instructions,
        )
        prog = partition.program
        divergences.extend(
            f"{tag}: partition: {i}"
            for i in partition_issues(prog, partition)
        )
        trace = partition.profile_trace or run_program(
            prog, max_instructions=max_instructions
        )
        stream = build_task_stream(trace, partition)
        release = ReleaseAnalysis(partition)
        results = {}
        _, ref_state = sequential_reference(prog)
        for engine in ENGINES:
            if machine_spec is not None:
                config = SimConfig(engine=engine, machine=machine_spec)
            else:
                config = SimConfig(engine=engine).scaled_for_pus(n_pus)
            monitor = InvariantMonitor()
            machine = MultiscalarMachine(
                stream, config, release, monitor,
                label=f"fuzz-check/{tag}/{engine}",
            )
            try:
                sim_result = machine.run()
            except InvariantViolation as exc:
                divergences.append(
                    f"{tag}[{engine}]: invariant violation: {exc}"
                )
                continue
            results[engine] = sim_result
            divergences.extend(
                f"{tag}[{engine}]: {d}"
                for d in check_commit_log(monitor.commit_log, len(trace))
            )
            replay_state, replay_div = replay_commits(
                prog, trace, monitor.commit_log
            )
            divergences.extend(
                f"{tag}[{engine}]: {d}" for d in replay_div
            )
            divergences.extend(
                f"{tag}[{engine}]: {d}"
                for d in compare_states(ref_state, replay_state)
            )
        fast = results.get("fast")
        reference = results.get("reference")
        if fast is None or reference is None:
            continue
        for field_name in (
            "cycles", "committed_instructions", "dynamic_tasks",
            "task_predictions", "task_mispredictions",
            "control_squashes", "memory_squashes", "branch_count",
        ):
            a = getattr(fast, field_name)
            b = getattr(reference, field_name)
            if a != b:
                divergences.append(
                    f"{tag}: engines diverge on "
                    f"{field_name}: fast={a!r} reference={b!r}"
                )
    return divergences
