"""Trace-based profiler feeding the task-selection heuristics."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.block import BlockId
from repro.ir.dataflow import DefUseEdge
from repro.ir.instructions import Opcode
from repro.ir.interp import Trace, run_program
from repro.ir.program import Program

DefUseKey = Tuple[str, str, int, str, int, str]
"""Def-use dependence key:
``(function, def_block, def_index, use_block, use_index, register)``."""


@dataclass
class Profile:
    """Aggregated dynamic statistics of one program execution."""

    #: dynamic executions per basic block
    block_counts: Dict[BlockId, int] = field(default_factory=dict)
    #: dynamic traversals per intra-function CFG edge
    edge_counts: Dict[Tuple[BlockId, BlockId], int] = field(default_factory=dict)
    #: dynamic occurrences per register def-use dependence
    defuse_counts: Dict[DefUseKey, int] = field(default_factory=dict)
    #: invocation count per function
    call_counts: Dict[str, int] = field(default_factory=dict)
    #: total dynamic instructions executed inside each function,
    #: inclusive of its callees
    call_cycles: Dict[str, int] = field(default_factory=dict)
    #: total dynamic instructions in the profiled run
    total_instructions: int = 0

    def block_count(self, block: BlockId) -> int:
        """Executions of ``block`` (0 if never executed)."""
        return self.block_counts.get(block, 0)

    def edge_count(self, src: BlockId, dst: BlockId) -> int:
        """Traversals of the intra-function edge ``src -> dst``."""
        return self.edge_counts.get((src, dst), 0)

    def defuse_count(self, function: str, edge: DefUseEdge) -> int:
        """Dynamic frequency of a def-use dependence edge."""
        key = (
            function,
            edge.def_block,
            edge.def_index,
            edge.use_block,
            edge.use_index,
            edge.register,
        )
        return self.defuse_counts.get(key, 0)

    def mean_dynamic_call_size(self, function: str) -> Optional[float]:
        """Average dynamic instructions per invocation of ``function``.

        Inclusive of nested callees.  ``None`` if never invoked.
        """
        count = self.call_counts.get(function, 0)
        if count == 0:
            return None
        return self.call_cycles.get(function, 0) / count


def profile_trace(trace: Trace) -> Profile:
    """Build a :class:`Profile` from an execution trace."""
    profile = Profile()
    block_counts: Dict[BlockId, int] = defaultdict(int)
    edge_counts: Dict[Tuple[BlockId, BlockId], int] = defaultdict(int)
    defuse_counts: Dict[DefUseKey, int] = defaultdict(int)
    call_counts: Dict[str, int] = defaultdict(int)
    call_cycles: Dict[str, int] = defaultdict(int)

    # --- block and edge counts (walk block entries, attribute returns
    # to the originating call block).
    insts = trace.insts
    call_block_stack: List[BlockId] = []
    prev_block: Optional[BlockId] = None
    for start_idx, block in trace.block_entries:
        block_counts[block] += 1
        if start_idx > 0:
            last = insts[start_idx - 1]
            if last.op is Opcode.CALL:
                call_block_stack.append(last.block)
            elif last.op is Opcode.RET:
                if call_block_stack:
                    caller_block = call_block_stack.pop()
                    edge_counts[(caller_block, block)] += 1
            elif prev_block is not None and prev_block[0] == block[0]:
                edge_counts[(prev_block, block)] += 1
        prev_block = block

    # --- function invocation counts & inclusive dynamic sizes.
    main_name = trace.program.main_name
    call_counts[main_name] = 1
    open_frames: List[str] = [main_name]
    for dyn in insts:
        for fname in open_frames:
            call_cycles[fname] += 1
        if dyn.op is Opcode.CALL:
            assert dyn.callee is not None
            call_counts[dyn.callee] += 1
            open_frames.append(dyn.callee)
        elif dyn.op is Opcode.RET and len(open_frames) > 1:
            open_frames.pop()

    # --- exact dynamic def-use frequencies via last-writer tracking.
    # last_writer[reg] = (function, block_label, inst_index)
    last_writer: Dict[str, Tuple[str, str, int]] = {}
    for dyn in insts:
        func_name, label = dyn.block
        for reg in dyn.reads:
            writer = last_writer.get(reg)
            if writer is not None and writer[0] == func_name:
                defuse_counts[
                    (func_name, writer[1], writer[2], label, dyn.iidx, reg)
                ] += 1
        if dyn.write is not None:
            last_writer[dyn.write] = (func_name, label, dyn.iidx)

    profile.block_counts = dict(block_counts)
    profile.edge_counts = dict(edge_counts)
    profile.defuse_counts = dict(defuse_counts)
    profile.call_counts = dict(call_counts)
    profile.call_cycles = dict(call_cycles)
    profile.total_instructions = len(insts)
    return profile


def profile_run(
    program: Program, max_instructions: int = 2_000_000
) -> Tuple[Trace, Profile]:
    """Run ``program`` functionally; return its trace and profile."""
    trace = run_program(program, max_instructions=max_instructions)
    return trace, profile_trace(trace)


def profile_program(program: Program, max_instructions: int = 2_000_000) -> Profile:
    """Run ``program`` functionally and profile the resulting trace."""
    return profile_run(program, max_instructions)[1]
