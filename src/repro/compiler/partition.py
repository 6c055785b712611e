"""Task selection driver (the paper's ``task_selection()``).

Pipeline (Figure 3, Sections 3.1–3.4):

1. clone the program (transforms never touch the caller's IR);
2. resolve the :class:`~repro.compiler.strategy.SelectionStrategy`
   named by the config (``""`` = the paper reference strategy for
   ``config.level``);
3. strategy transforms (unrolling, hoisting, communication
   scheduling — for the paper strategies exactly the level-gated
   progression of Figure 3);
4. profile the transformed program functionally iff the strategy
   wants one (data dependence ranking, CALL_THRESH, cost models);
5. strategy decides absorbed (small) callees;
6. strategy builds the partition — for the paper strategies a
   coverage traversal growing a task at every exposed target, steered
   by :class:`~repro.compiler.data_dependence.DependencePolicy` at
   the DATA_DEPENDENCE / TASK_SIZE levels.

The returned :class:`~repro.compiler.task.TaskPartition` owns the
transformed program (``partition.program``); run and simulate *that*
program, not the input.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.compiler.control_flow import GrowthContext
from repro.compiler.heuristics import SelectionConfig
from repro.compiler.strategy import get_strategy
from repro.compiler.task import TaskPartition
from repro.compiler.transforms import clone_program
from repro.ir.cfg import build_cfg
from repro.ir.program import Program
from repro.ir.interp import Trace
from repro.profiling import Profile, profile_run


def select_tasks(
    program: Program,
    config: Optional[SelectionConfig] = None,
    profile: Optional[Profile] = None,
    max_profile_instructions: int = 2_000_000,
    profile_run: Callable[..., Tuple[Trace, Profile]] = profile_run,
) -> TaskPartition:
    """Partition ``program`` into Multiscalar tasks.

    ``profile`` may be supplied to reuse an existing profile **of the
    transformed program**; normally leave it ``None`` and the driver
    profiles internally after applying transforms.  ``profile_run``
    interprets and profiles the transformed program for that; the
    experiment runner passes its content-addressed cache here, so
    programs that coincide after transformation are run once.
    """
    config = config or SelectionConfig()
    strategy = get_strategy(config)
    prog = clone_program(program)
    strategy.transform(prog, config)
    prog.validate()

    profiled_trace = None
    if strategy.wants_profile(config) and profile is None:
        # Keep the trace alongside the profile: selection only picks
        # task boundaries from here on (no further code changes), so
        # the caller can reuse it instead of re-interpreting the
        # program to obtain the measured trace.
        profiled_trace, profile = profile_run(
            prog, max_instructions=max_profile_instructions
        )

    absorbed: Set[str] = strategy.absorbed_functions(prog, profile, config)

    contexts: Dict[str, GrowthContext] = {
        fn.name: GrowthContext(prog, fn.name, build_cfg(fn), config, absorbed)
        for fn in prog.functions()
    }

    partition = TaskPartition(prog)
    strategy.build(partition, contexts, profile, config)
    partition.validate()
    partition.profile_trace = profiled_trace
    return partition
