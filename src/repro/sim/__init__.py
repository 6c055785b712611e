"""Cycle-level Multiscalar timing simulator.

Trace-driven: the functional interpreter (``repro.ir.interp``)
produces the exact dynamic instruction stream; this package replays it
under a task partition on a model of the paper's hardware
(Section 4.2):

* :class:`~repro.sim.config.SimConfig` — machine parameters (defaults
  mirror the paper's 4/8-PU configurations).
* :mod:`~repro.sim.taskstream` — splits the trace into dynamic task
  instances.
* :mod:`~repro.sim.memory` — L1 I/D, L2, main memory hierarchy.
* :mod:`~repro.sim.arb` — Address Resolution Buffer and the memory
  dependence synchronisation table.
* :class:`~repro.sim.machine.MultiscalarMachine` — sequencer, PUs,
  register ring, squash/retire logic, cycle accounting.
* :mod:`~repro.sim.native` — the C cycle kernel behind hook-free
  ``engine="fast"`` runs (built on first use, never at import).
* :class:`~repro.sim.breakdown.CycleBreakdown` — the Figure 2 loss
  categories.
"""

from repro.sim.breakdown import CycleBreakdown, StallReason
from repro.sim.config import SimConfig
from repro.sim.machine import MultiscalarMachine, SimResult, simulate
from repro.sim.taskstream import DynTask, TaskStream, build_task_stream

__all__ = [
    "CycleBreakdown",
    "DynTask",
    "MultiscalarMachine",
    "SimConfig",
    "SimResult",
    "StallReason",
    "TaskStream",
    "build_task_stream",
    "simulate",
]
