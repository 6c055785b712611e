"""Tests of the reliability subsystem: oracle, monitors, fault plans."""

import pytest

from repro.compiler import HeuristicLevel, SelectionConfig, select_tasks
from repro.experiments import clear_cache
from repro.ir.interp import run_program
from repro.reliability import (
    ArchState,
    FaultPlan,
    InvariantMonitor,
    InvariantViolation,
    check_commit_log,
    compare_states,
    replay_commits,
    sequential_reference,
    verify_grid,
    verify_workload,
)
from repro.sim import MultiscalarMachine, SimConfig, build_task_stream
from tests.conftest import build_diamond_loop

SMALL = 0.1


@pytest.fixture(autouse=True)
def _fresh_compile_cache():
    clear_cache()
    yield
    clear_cache()


def monitored_run(program, level=HeuristicLevel.CONTROL_FLOW, n_pus=4,
                  **sim_kwargs):
    """Run a hand-built program with the monitor riding along."""
    part = select_tasks(program, SelectionConfig(level=level))
    trace = run_program(part.program)
    stream = build_task_stream(trace, part)
    monitor = InvariantMonitor()
    machine = MultiscalarMachine(
        stream, SimConfig(n_pus=n_pus, **sim_kwargs), monitor=monitor
    )
    result = machine.run()
    return part.program, trace, monitor, result


class TestDifferentialOracle:
    @pytest.mark.parametrize("level", list(HeuristicLevel))
    def test_all_levels_verify_clean(self, level):
        report = verify_workload("compress", level, scale=SMALL)
        assert report.ok, report.summary()
        assert report.instructions > 0
        assert report.invariant_checks > 0

    def test_hand_program_replay_matches_sequential(self, diamond_loop):
        program, trace, monitor, result = monitored_run(diamond_loop)
        assert not check_commit_log(monitor.commit_log, len(trace))
        ref_trace, ref_state = sequential_reference(program)
        replay_state, divergences = replay_commits(
            program, trace, monitor.commit_log
        )
        assert not divergences
        assert not compare_states(ref_state, replay_state)
        assert replay_state.retired_instructions == len(trace)

    def test_reordered_commit_log_is_detected(self, diamond_loop):
        _, trace, monitor, _ = monitored_run(diamond_loop)
        log = list(monitor.commit_log)
        tampered = [log[1], log[0]] + log[2:]
        problems = check_commit_log(tampered, len(trace))
        assert problems
        assert any("commit order" in p for p in problems)

    def test_truncated_commit_log_is_detected(self, diamond_loop):
        _, trace, monitor, _ = monitored_run(diamond_loop)
        problems = check_commit_log(monitor.commit_log[:-1], len(trace))
        assert any("covers" in p for p in problems)

    def test_double_commit_diverges_in_replay(self, diamond_loop):
        program, trace, monitor, _ = monitored_run(diamond_loop)
        log = list(monitor.commit_log)
        duplicated = log + [log[-1]]
        replay_state, _ = replay_commits(program, trace, duplicated)
        _, ref_state = sequential_reference(program)
        assert compare_states(ref_state, replay_state)

    def test_compare_states_reports_concrete_diffs(self):
        a = ArchState(int_regs={"r1": 1}, memory={100: 5},
                      retired_instructions=10)
        b = ArchState(int_regs={"r1": 2}, memory={100: 5},
                      retired_instructions=10)
        diffs = compare_states(a, b)
        assert len(diffs) == 1
        assert "int_reg[r1]" in diffs[0]

    def test_compare_states_treats_nan_as_equal_to_nan(self):
        """Two executions ending with NaN in the same register agree
        architecturally even though ``nan != nan`` (found by fuzzing:
        FP-heavy generated programs produced spurious divergences on
        byte-identical final states)."""
        nan = float("nan")
        a = ArchState(fp_regs={"f1": nan}, memory={8: nan},
                      retired_instructions=10)
        b = ArchState(fp_regs={"f1": nan}, memory={8: nan},
                      retired_instructions=10)
        assert compare_states(a, b) == []
        # NaN vs a real number is still a divergence
        c = ArchState(fp_regs={"f1": 1.0}, memory={8: nan},
                      retired_instructions=10)
        diffs = compare_states(a, c)
        assert len(diffs) == 1
        assert "fp_reg[f1]" in diffs[0]

    def test_verify_grid_covers_requested_cells(self):
        reports = verify_grid(
            ["compress"], levels=(HeuristicLevel.CONTROL_FLOW,), scale=SMALL
        )
        assert len(reports) == 1
        assert reports[0].ok, reports[0].summary()

    def test_verify_fixture(self, verify_oracle):
        report = verify_oracle(
            "compress", HeuristicLevel.TASK_SIZE, scale=SMALL
        )
        assert report.dynamic_tasks > 0


class TestFaultInjection:
    def test_faulted_run_stays_equivalent(self):
        report = verify_workload(
            "compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL,
            faults=20, seed=11,
        )
        assert report.ok, report.summary()
        assert report.faults_injected > 0

    def test_faults_cost_cycles_not_semantics(self):
        clean = verify_workload(
            "compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL
        )
        faulted = verify_workload(
            "compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL,
            faults=30, seed=5,
        )
        assert faulted.ok, faulted.summary()
        assert faulted.instructions == clean.instructions
        assert faulted.cycles >= clean.cycles

    def test_injected_events_feed_machine_counters(self):
        report = verify_workload(
            "compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL,
            faults=20, seed=11,
        )
        assert report.memory_squashes >= report.injected_memory
        assert report.control_squashes >= report.injected_control

    def test_plan_is_deterministic_per_seed(self):
        a, b = FaultPlan(seed=42, faults=10), FaultPlan(seed=42, faults=10)
        a.bind(200)
        b.bind(200)
        assert a._control_targets == b._control_targets
        assert a._memory_budget == b._memory_budget

    def test_plan_budget_is_capped_by_stream(self):
        plan = FaultPlan(seed=1, faults=100)
        plan.bind(5)  # only tasks 0..3 predict a successor
        assert len(plan._control_targets) <= 4
        assert len(plan._control_targets) + plan._memory_budget == 100

    def test_zero_budget_injects_nothing(self):
        report = verify_workload(
            "compress", HeuristicLevel.CONTROL_FLOW, scale=SMALL,
            faults=0,
        )
        assert report.faults_injected == 0


class TestInvariantMonitor:
    def test_out_of_order_retire_raises(self, diamond_loop):
        part = select_tasks(
            diamond_loop, SelectionConfig(level=HeuristicLevel.CONTROL_FLOW)
        )
        trace = run_program(part.program)
        stream = build_task_stream(trace, part)
        monitor = InvariantMonitor()
        MultiscalarMachine(stream, SimConfig(), monitor=monitor)
        with pytest.raises(InvariantViolation, match=r"\[I1\]"):
            monitor.on_retire(1, 0)

    def test_unassigned_squash_victim_raises(self, diamond_loop):
        part = select_tasks(
            diamond_loop, SelectionConfig(level=HeuristicLevel.CONTROL_FLOW)
        )
        trace = run_program(part.program)
        stream = build_task_stream(trace, part)
        monitor = InvariantMonitor()
        MultiscalarMachine(stream, SimConfig(), monitor=monitor)
        with pytest.raises(InvariantViolation, match=r"\[I3\]"):
            monitor.on_squash_victim(3, 0, 10, 10, memory=True,
                                     retire_seq=0)

    def test_wrong_penalty_raises(self, diamond_loop):
        part = select_tasks(
            diamond_loop, SelectionConfig(level=HeuristicLevel.CONTROL_FLOW)
        )
        trace = run_program(part.program)
        stream = build_task_stream(trace, part)
        monitor = InvariantMonitor()
        machine = MultiscalarMachine(stream, SimConfig(), monitor=monitor)
        machine._assign(0)
        with pytest.raises(InvariantViolation, match=r"\[I4\]"):
            monitor.on_squash_victim(
                0, machine.state.pu_of_seq[0], 10, 99, memory=False,
                retire_seq=0,
            )

    def test_clean_runs_raise_nothing(self, call_program):
        _, trace, monitor, result = monitored_run(call_program)
        assert result.committed_instructions == len(trace)
        assert monitor.retired_tasks == result.dynamic_tasks
        assert all(monitor.committed)
