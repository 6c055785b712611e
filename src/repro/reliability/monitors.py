"""Always-on invariant monitors for the Multiscalar machine.

The timing model's correctness story is squash-and-recover: control
mispredictions and ARB memory-dependence violations throw away
in-flight work and re-execute it.  End-to-end IPC numbers exercise
those paths only incidentally; this monitor checks them *directly*,
via hooks the machine calls when a monitor is attached
(``MultiscalarMachine(..., monitor=InvariantMonitor())``).  The
reference loop calls them live; the native kernel logs each call with
the values the hook reads and replays the log after the run, so the
hooks take those values as arguments instead of reading the machine.

Invariants enforced:

* **I1 — in-order retirement**: dynamic tasks retire strictly in
  program order (seq 0, 1, 2, ... with no gaps).
* **I2 — single commit**: every trace index is committed exactly once,
  and the full trace is covered when the run finishes.
* **I3 — squash completeness**: a squash at seq *i* frees every
  in-flight occupancy of seq >= *i* (machine bookkeeping, the
  monitor's own shadow bookkeeping, and the sequencer's ``next_seq``
  all agree), and never touches an already-retired task.
* **I4 — penalty reconciliation**: the misspeculation penalty charged
  for each victim equals the occupancy the monitor independently
  recorded at assignment, and the per-category totals reconcile with
  the breakdown's squash counters at the end of the run.
* **I5 — no stale load commits**: a committed load whose producing
  store lives in an earlier task observed that store's completed
  value (the store completed no later than the load).
* **I6 — event-counter agreement**: misprediction / violation events
  observed through the hooks match the machine's reported counters.

Violations raise :class:`InvariantViolation` from the hook call,
pointing at the cycle and sequence number where the machine went
wrong — far closer to the bug than a perturbed IPC figure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class InvariantViolation(RuntimeError):
    """The machine broke one of its architectural invariants."""


class InvariantMonitor:
    """Shadow bookkeeping + assertion hooks for one machine run.

    The monitor is duck-typed from the machine's side (``sim`` never
    imports ``reliability``); any object with these methods works.
    One monitor instance observes exactly one run.
    """

    def __init__(self) -> None:
        self.machine = None
        #: committed flags per trace index (I2)
        self.committed = bytearray()
        #: commit log: (seq, start, end) in retirement order
        self.commit_log: List[Tuple[int, int, int]] = []
        self.retired_tasks = 0
        #: shadow assignment cycles: seq -> cycle (I4)
        self._assign_cycle: Dict[int, int] = {}
        #: shadow wrong-path assignment cycles: pu index -> cycle
        self._wrong_cycle: Dict[int, int] = {}
        self.control_penalty = 0
        self.memory_penalty = 0
        self.mispredict_events = 0
        self.violation_events = 0
        self.injected_violations = 0
        self.checks = 0

    # ------------------------------------------------------------- plumbing

    def attach(self, machine) -> None:
        """Bind to ``machine`` (called from the machine constructor)."""
        self.machine = machine
        self.committed = bytearray(len(machine.stream.trace))

    def _fail(self, invariant: str, message: str) -> None:
        raise InvariantViolation(f"[{invariant}] {message}")

    # ---------------------------------------------------------- assignment

    def on_assign(self, seq: int, pu_index: int, cycle: int,
                  retire_seq: int) -> None:
        self.checks += 1
        if seq in self._assign_cycle:
            self._fail("I3", f"task {seq} assigned while already in flight")
        if seq < retire_seq:
            self._fail("I1", f"task {seq} assigned after retirement")
        self._assign_cycle[seq] = cycle

    def on_wrong_assign(self, pu_index: int, cycle: int) -> None:
        self._wrong_cycle[pu_index] = cycle

    # -------------------------------------------------------------- squash

    def on_control_mispredict(self, seq: int) -> None:
        self.mispredict_events += 1

    def on_memory_violation(self, seq: int, injected: bool = False) -> None:
        self.violation_events += 1
        if injected:
            self.injected_violations += 1

    def on_squash_victim(
        self, seq: int, pu_index: int, cycle: int, penalty: int,
        memory: bool, retire_seq: int,
    ) -> None:
        """One in-flight task is being squashed and its penalty charged."""
        self.checks += 1
        if seq < retire_seq:
            self._fail("I3", f"squash reached retired task {seq}")
        assigned = self._assign_cycle.pop(seq, None)
        if assigned is None:
            self._fail("I3", f"squashed task {seq} was never assigned")
        expected = max(0, cycle - assigned)
        if penalty != expected:
            self._fail(
                "I4",
                f"task {seq} squash penalty {penalty} != occupancy "
                f"{expected} (assigned cycle {assigned}, squashed {cycle})",
            )
        if memory:
            self.memory_penalty += penalty
        else:
            self.control_penalty += penalty

    def on_wrong_squash(self, pu_index: int, cycle: int, penalty: int) -> None:
        """Wrong-path occupancy on ``pu_index`` is being reclaimed."""
        self.checks += 1
        assigned = self._wrong_cycle.pop(pu_index, None)
        if assigned is None:
            self._fail(
                "I4", f"wrong-path squash on PU {pu_index} with no occupancy"
            )
        expected = max(0, cycle - assigned)
        if penalty != expected:
            self._fail(
                "I4",
                f"wrong-path penalty {penalty} on PU {pu_index} != "
                f"occupancy {expected}",
            )
        self.control_penalty += penalty

    def post_squash(self, first_seq: int, cycle: int, survivor: int,
                    next_seq: int, stale_pu: int, stale_seq: int) -> None:
        """A squash from ``first_seq`` finished; check I3 postconditions.

        The machine reports what it observed afterwards: the lowest
        in-flight seq >= ``first_seq`` (``survivor``), its sequencer's
        ``next_seq``, and the first PU still holding a task >=
        ``first_seq`` with that task (-1s where there is none).
        """
        self.checks += 1
        if survivor >= 0:
            self._fail(
                "I3",
                f"squash from seq {first_seq} at cycle {cycle} left "
                f"task {survivor} in flight",
            )
        shadow = sorted(s for s in self._assign_cycle if s >= first_seq)
        if shadow:
            self._fail(
                "I3",
                f"squash from seq {first_seq} left shadow occupancy {shadow}",
            )
        if next_seq > first_seq:
            self._fail(
                "I3",
                f"sequencer not rewound: next_seq {next_seq} > "
                f"squash point {first_seq}",
            )
        if stale_pu >= 0:
            self._fail(
                "I3", f"PU {stale_pu} still holds squashed task {stale_seq}"
            )

    # -------------------------------------------------------------- retire

    def on_retire(self, seq: int, cycle: int) -> None:
        """Task ``seq`` finished committing at ``cycle``."""
        self.checks += 1
        machine = self.machine
        if seq != self.retired_tasks:
            self._fail(
                "I1",
                f"task {seq} retired out of order (expected "
                f"{self.retired_tasks})",
            )
        state = machine.state
        dyn = machine.stream.tasks[seq]
        for i in range(dyn.start, dyn.end):
            if state.complete[i] < 0:
                self._fail(
                    "I2",
                    f"task {seq} committed with instruction #{i} never "
                    f"executed",
                )
            if self.committed[i]:
                self._fail("I2", f"instruction #{i} committed twice")
            self.committed[i] = 1
            if state.is_load[i]:
                p = state.mem_producer[i]
                if p >= 0 and state.task_seq[p] != seq:
                    if state.complete[p] < 0:
                        self._fail(
                            "I5",
                            f"committed load #{i} (task {seq}) reads store "
                            f"#{p} that never executed",
                        )
                    if state.complete[p] > state.complete[i]:
                        self._fail(
                            "I5",
                            f"committed load #{i} (task {seq}, complete "
                            f"{state.complete[i]}) read store #{p} before it "
                            f"completed at {state.complete[p]} (stale value)",
                        )
        self.commit_log.append((seq, dyn.start, dyn.end))
        self._assign_cycle.pop(seq, None)
        self.retired_tasks += 1

    # -------------------------------------------------------------- finish

    def on_finish(self, machine, result) -> None:
        """End-of-run reconciliation (I2, I4, I6)."""
        self.checks += 1
        n_tasks = len(machine.stream.tasks)
        n_insts = len(machine.stream.trace)
        if self.retired_tasks != n_tasks:
            self._fail(
                "I1",
                f"run finished with {self.retired_tasks}/{n_tasks} tasks "
                f"retired",
            )
        missing = sum(1 for flag in self.committed if not flag)
        if missing:
            self._fail(
                "I2", f"{missing}/{n_insts} trace instructions never committed"
            )
        if result.committed_instructions != n_insts:
            self._fail(
                "I2",
                f"reported committed_instructions "
                f"{result.committed_instructions} != trace length {n_insts}",
            )
        breakdown = result.breakdown
        if self.control_penalty != breakdown.control_misspeculation:
            self._fail(
                "I4",
                f"control squash charges {breakdown.control_misspeculation} "
                f"!= monitored occupancy {self.control_penalty}",
            )
        if self.memory_penalty != breakdown.memory_misspeculation:
            self._fail(
                "I4",
                f"memory squash charges {breakdown.memory_misspeculation} "
                f"!= monitored occupancy {self.memory_penalty}",
            )
        if self.mispredict_events != machine.task_mispredictions:
            self._fail(
                "I6",
                f"observed {self.mispredict_events} mispredict events, "
                f"machine counted {machine.task_mispredictions}",
            )
        if machine.control_squashes != self.mispredict_events:
            self._fail(
                "I6",
                f"control_squashes {machine.control_squashes} != mispredict "
                f"events {self.mispredict_events}",
            )
        if self.violation_events != machine.memory_squashes:
            self._fail(
                "I6",
                f"observed {self.violation_events} violation events, "
                f"machine counted {machine.memory_squashes}",
            )
