"""End-to-end verification: the ``repro verify`` entry point.

``verify_workload`` cross-checks one experiment cell three ways:

1. the **invariant monitor** rides along the machine run, asserting
   the squash/retire/commit invariants every cycle;
2. the **differential oracle** compares the sequential reference
   execution against a full-semantics replay of the machine's commit
   log; and
3. an optional seeded :class:`~repro.reliability.faults.FaultPlan`
   injects forced mispredictions and spurious memory violations to
   prove the recovery paths themselves preserve 1 and 2.

``verify_grid`` sweeps workloads x heuristic levels and aggregates
reports; the CLI and the CI ``verify`` job are thin wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.compiler import HeuristicLevel, SelectionConfig
from repro.experiments.runner import compile_benchmark, run_benchmark
from repro.reliability.faults import FaultPlan
from repro.reliability.monitors import InvariantMonitor, InvariantViolation
from repro.reliability.oracle import (
    check_commit_log,
    compare_states,
    compiled_reference,
    replay_commits,
)
from repro.sim import SimConfig
from repro.workloads import all_benchmarks

ALL_LEVELS = tuple(HeuristicLevel)


@dataclass
class VerifyReport:
    """Outcome of verifying one (benchmark, level, machine) cell."""

    benchmark: str
    level: HeuristicLevel
    n_pus: int
    out_of_order: bool
    instructions: int = 0
    cycles: int = 0
    dynamic_tasks: int = 0
    control_squashes: int = 0
    memory_squashes: int = 0
    injected_control: int = 0
    injected_memory: int = 0
    invariant_checks: int = 0
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def faults_injected(self) -> int:
        return self.injected_control + self.injected_memory

    def describe(self) -> str:
        mode = "ooo" if self.out_of_order else "ino"
        return f"{self.benchmark}/{self.level.value}@{self.n_pus}pu-{mode}"

    def summary(self) -> str:
        head = (
            f"{self.describe()}: "
            f"{'OK' if self.ok else 'DIVERGED'} "
            f"({self.instructions} insts, {self.dynamic_tasks} tasks, "
            f"{self.control_squashes}c/{self.memory_squashes}m squashes, "
            f"{self.faults_injected} faults injected, "
            f"{self.invariant_checks} invariant checks)"
        )
        if self.ok:
            return head
        return "\n".join([head] + [f"  ! {d}" for d in self.divergences])


def verify_workload(
    benchmark: str,
    level: HeuristicLevel,
    n_pus: int = 4,
    out_of_order: bool = True,
    scale: float = 1.0,
    selection: Optional[SelectionConfig] = None,
    sim: Optional[SimConfig] = None,
    input_set: str = "ref",
    faults: int = 0,
    seed: int = 0,
) -> VerifyReport:
    """Verify one cell; returns a report (never raises on divergence).

    Invariant violations (which abort the simulation mid-run) are
    converted into report divergences so grid sweeps keep going.
    """
    report = VerifyReport(
        benchmark=benchmark, level=level, n_pus=n_pus,
        out_of_order=out_of_order,
    )
    compiled = compile_benchmark(
        benchmark, level, scale=scale, selection=selection,
        input_set=input_set,
    )
    program = compiled.partition.program
    ref_length, ref_state = compiled_reference(compiled)
    report.dynamic_tasks = len(compiled.stream.tasks)
    if ref_length != len(compiled.trace):
        report.divergences.append(
            f"sequential re-execution produced {ref_length} "
            f"instructions, compiled trace has {len(compiled.trace)} "
            f"(non-deterministic workload?)"
        )
        return report

    monitor = InvariantMonitor()
    plan = FaultPlan(seed=seed, faults=faults) if faults > 0 else None
    try:
        record = run_benchmark(
            benchmark, level, n_pus=n_pus, out_of_order=out_of_order,
            scale=scale, selection=selection, sim=sim, input_set=input_set,
            monitor=monitor, fault_plan=plan,
        )
    except InvariantViolation as exc:
        report.invariant_checks = monitor.checks
        report.divergences.append(f"invariant violation: {exc}")
        return report
    report.instructions = record.instructions
    report.cycles = record.cycles
    report.control_squashes = record.control_squashes
    report.memory_squashes = record.memory_squashes
    report.invariant_checks = monitor.checks
    if plan is not None:
        report.injected_control = plan.control_injected
        report.injected_memory = plan.memory_injected

    report.divergences.extend(
        check_commit_log(monitor.commit_log, len(compiled.trace))
    )
    replay_state, replay_divergences = replay_commits(
        program, compiled.trace, monitor.commit_log
    )
    report.divergences.extend(replay_divergences)
    report.divergences.extend(compare_states(ref_state, replay_state))
    if record.instructions != ref_state.retired_instructions:
        report.divergences.append(
            f"machine committed {record.instructions} instructions, "
            f"sequential reference retired {ref_state.retired_instructions}"
        )
    return report


def verify_grid(
    benchmarks: Sequence[str] = (),
    levels: Sequence[HeuristicLevel] = ALL_LEVELS,
    n_pus: int = 4,
    out_of_order: bool = True,
    scale: float = 1.0,
    faults: int = 0,
    seed: int = 0,
    engine: str = "fast",
) -> List[VerifyReport]:
    """Verify every (benchmark, level) cell; returns all reports.

    With ``faults``, each cell gets its own deterministic plan seeded
    by ``seed`` and the cell's position, so different cells inject
    different (but reproducible) schedules.  ``engine`` selects the
    simulation core under test ("fast" by default, so the oracle and
    the invariant monitors exercise the native kernel; a fault plan
    sends the run to the reference loop).
    """
    sim = None if engine == "fast" else SimConfig(engine=engine)
    names = list(benchmarks) or [bm.name for bm in all_benchmarks()]
    reports: List[VerifyReport] = []
    for b_index, name in enumerate(names):
        for l_index, level in enumerate(levels):
            cell_seed = seed + 1009 * b_index + 9176 * l_index
            reports.append(verify_workload(
                name, level, n_pus=n_pus, out_of_order=out_of_order,
                scale=scale, sim=sim, faults=faults, seed=cell_seed,
            ))
    return reports
