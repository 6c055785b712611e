"""The native cycle kernel: build, load and call ``_cycle.c``.

``MultiscalarMachine.run`` hands every ``engine="fast"`` run without a
fault plan to :func:`run`, which simulates it in C with the reference
engine's per-cycle semantics and writes the machine's counters back,
so ``_result`` builds the very ``SimResult`` the reference loop would.
Fault plans, and every run when the kernel cannot be built, take the
reference loop instead.

With a monitor or tracer attached the kernel also logs one
fixed-width ``int64`` record per hook call, and :func:`replay` makes
those calls after the run, before any ``SimulationStuck`` is raised.
The monitor's retire checks read ``state.complete``, which gets the
kernel's final completion cycles: committed instructions never
re-execute, so those are the values at retire (DESIGN.md §9).

The kernel is one C99 file with no Python headers, compiled on first
use with ``cc -O2 -shared -fPIC`` into ``__pycache__/`` next to this
module (the temp directory when that is not writable), named by the
sha256 of the source: an edit rebuilds it, and one build serves every
Python version.  A file lock plus an atomic rename keep concurrent
pool workers from racing on the build.  Nothing here runs at
``import repro`` time; the first fast run pays the build once.

:func:`status` says which loop fast runs take: ``("native",
None)`` or ``("python", reason)``.  A failed build prints one warning
line on stderr with the compiler's first error line.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from array import array
from pathlib import Path
from typing import Optional, Tuple

from repro.sim.breakdown import REASON_INDEX, StallReason
from repro.sim.config import ForwardPolicy

_SOURCE = Path(__file__).with_name("_cycle.c")

_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p
_N_REASONS = len(REASON_INDEX)
_R_IDLE = REASON_INDEX[StallReason.IDLE]

_FORWARD_POLICY = {
    ForwardPolicy.SCHEDULE: 0,
    ForwardPolicy.EAGER: 1,
    ForwardPolicy.LAZY: 2,
}
_PREDICTOR = {"path": 0, "gshare": 1, "hybrid": 2}

#: ms_run return codes
_MAX_CYCLES, _LIVELOCK, _NOMEM = 1, 2, 3

#: words per event log record: the kind, then seven argument slots
EV_WIDTH = 8
#: per event kind, in the order of EV_* in _cycle.c: the hook calls its
#: site in machine.py makes, in that order, as (hook, method, argument
#: slots of the record)
_REPLAY = {
    "assign": (("monitor", "on_assign", (0, 1, 2, 3)),
               ("tracer", "on_assign", (0, 1, 2))),
    "wrong_assign": (("monitor", "on_wrong_assign", (0, 1)),
                     ("tracer", "on_wrong_assign", (0, 1))),
    "task_mispredict": (("monitor", "on_control_mispredict", (0,)),
                        ("tracer", "on_task_mispredict", (0, 1))),
    "branch_mispredict": (("tracer", "on_branch_mispredict", (0, 1, 2, 3)),),
    "arb_violation": (("monitor", "on_memory_violation", (0,)),
                      ("tracer", "on_arb_violation", (0, 1))),
    "squash": (("monitor", "on_squash_victim", (0, 1, 2, 3, 4, 6)),
               ("tracer", "on_squash", (0, 1, 2, 3, 4, 5))),
    "wrong_squash": (("monitor", "on_wrong_squash", (0, 1, 2)),
                     ("tracer", "on_wrong_squash", (0, 1, 2))),
    "post_squash": (("monitor", "post_squash", (0, 1, 2, 3, 4, 5)),),
    "commit": (("tracer", "on_commit_start", (0, 1, 2)),),
    "retire": (("tracer", "on_retire", (0, 1, 2, 3, 4)),
               ("monitor", "on_retire", (0, 2))),
}
#: event kind names by their number in the log
EV_KINDS = tuple(_REPLAY)
_CALLS = tuple(_REPLAY.values())

_IN_POINTERS = (
    "opcls", "is_load", "is_store", "is_mem", "is_cond_branch",
    "block_start", "has_write", "has_remote_consumer", "gshare_mispred",
    "issue_simple", "release_now", "prod_count", "pc", "addr", "latency",
    "mem_producer", "prod_flat", "task_start", "task_end",
    "target_kind", "target_index", "next_root", "cont_root", "root_pc",
    "pu_issue_width", "pu_fetch_width", "pu_fu", "pu_lat_extra",
)
_IN_CONFIG = (
    "out_of_order", "rob_size", "issue_list_size",
    "task_start_overhead", "task_end_overhead",
    "branch_mispredict_penalty", "task_mispredict_redirect",
    "ring_bandwidth", "ring_hop_latency", "forward_policy", "release_lag",
    "arb_latency", "arb_entries_per_pu", "stlf_latency", "sync_table_size",
    "l1d_sets", "l1d_assoc", "l1d_hit", "l1d_words_per_line",
    "l1i_sets", "l1i_assoc", "l1i_hit", "l1i_words_per_line",
    "l2_sets", "l2_assoc", "l2_hit", "memory_latency",
    "max_cycles", "predictor",
)


class _In(ctypes.Structure):
    """Mirror of ``ms_in`` in ``_cycle.c``."""

    _fields_ = (
        [(name, _I64) for name in ("n", "n_tasks", "n_pus")]
        + [(name, _PTR) for name in _IN_POINTERS]
        + [(name, _I64) for name in _IN_CONFIG]
        + [(name, _PTR) for name in ("pu_of_seq", "pu_useful", "pu_occupied")]
        + [("log_events", _I64), ("complete_out", _PTR)]
    )


class _Out(ctypes.Structure):
    """Mirror of ``ms_out`` in ``_cycle.c``."""

    _fields_ = [
        (name, _I64) for name in (
            "cycles", "retire_seq", "next_seq", "pending_mispredict",
            "task_predictions", "task_mispredictions",
            "control_squashes", "memory_squashes",
        )
    ] + [("reasons", _I64 * _N_REASONS)] + [
        (name, _I64) for name in (
            "span_accum", "control_penalty", "memory_penalty",
            "l1d_hits", "l1d_misses", "l1i_hits", "l1i_misses",
            "l2_hits", "l2_misses",
        )
    ] + [
        ("squash_depths", ctypes.POINTER(_I64)),
        ("n_squash_depths", _I64),
        ("events", ctypes.POINTER(_I64)),
        ("n_events", _I64),
    ]


class _BuildError(RuntimeError):
    """The kernel could not be compiled or loaded (message = reason)."""


def _first_error_line(output: str) -> str:
    lines = [line.strip() for line in output.splitlines() if line.strip()]
    for line in lines:
        if "error" in line:
            return line
    return lines[0] if lines else "no compiler output"


def _build_dirs():
    yield Path(__file__).parent / "__pycache__"
    yield Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"


def _compile(cc: str, target: Path) -> None:
    """Build ``target`` under a file lock; a no-op if it exists."""
    import fcntl  # POSIX only; elsewhere the Python loop runs

    if target.exists():
        return
    with open(target.with_suffix(".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if target.exists():
            return
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        try:
            proc = subprocess.run(
                [cc, "-O2", "-shared", "-fPIC", "-o", str(tmp),
                 str(_SOURCE)],
                capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                raise _BuildError(
                    f"cc failed: {_first_error_line(proc.stderr)}"
                )
            os.replace(tmp, target)
        finally:
            if tmp.exists():
                tmp.unlink()


def _shared_object() -> Path:
    """Path of the built kernel, compiling it when missing."""
    cc = shutil.which("cc")
    if cc is None:
        raise _BuildError("no C compiler ('cc') on PATH")
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    name = f"_cycle-{digest}.so"
    unusable = []
    for folder in _build_dirs():
        target = folder / name
        try:
            folder.mkdir(mode=0o700, parents=True, exist_ok=True)
            # Load only what this user built: no other account may
            # have planted the library in a shared directory.
            if folder.stat().st_uid != os.getuid():
                raise PermissionError(f"{folder} belongs to another user")
            _compile(cc, target)
        except OSError as exc:
            unusable.append(f"{folder}: {exc}")
            continue
        return target
    raise _BuildError("no usable build directory (" + "; ".join(unusable) + ")")


@functools.lru_cache(maxsize=None)
def _load() -> Tuple[Optional[ctypes.CDLL], Optional[str]]:
    """The loaded kernel, or None and the reason; tried once per process."""
    try:
        path = _shared_object()
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as exc:
            raise _BuildError(f"cannot load {path.name}: {exc}") from None
    except (_BuildError, ImportError, OSError,
            subprocess.SubprocessError) as exc:
        reason = str(exc)
        print(
            f"repro: native cycle kernel unavailable ({reason}); "
            "fast runs use the reference loop",
            file=sys.stderr,
        )
        return None, reason
    lib.ms_run.argtypes = [ctypes.POINTER(_In), ctypes.POINTER(_Out)]
    lib.ms_run.restype = _I64
    lib.ms_free.argtypes = [ctypes.POINTER(_Out)]
    lib.ms_free.restype = None
    return lib, None


def status() -> Tuple[str, Optional[str]]:
    """``("native", None)``, or ``("python", reason)`` after a failed build."""
    lib, reason = _load()
    return ("native", None) if lib is not None else ("python", reason)


def available() -> bool:
    """True when fast runs without a fault plan go through the kernel."""
    return _load()[0] is not None


def _address(buffer, keep: list) -> int:
    """Address of a writable buffer (bytearray / array), zero-copy.

    The ctypes view pins the buffer (no resize) until it is dropped;
    ``keep`` holds it for the duration of the kernel call.
    """
    view = (ctypes.c_char * memoryview(buffer).nbytes).from_buffer(buffer)
    keep.append(view)
    return ctypes.addressof(view)


def replay(events, monitor, tracer) -> None:
    """Make the hook calls of each record of a kernel event log, in order.

    An ``InvariantViolation`` propagates from the record that raised it.
    """
    hooks = {"monitor": monitor, "tracer": tracer}
    words = iter(events)
    for kind, *args in zip(*[words] * EV_WIDTH):
        for hook, method, slots in _CALLS[kind]:
            if hooks[hook] is not None:
                getattr(hooks[hook], method)(*[args[i] for i in slots])


def run(machine) -> int:
    """Simulate ``machine`` in the kernel; returns the cycle count.

    Writes back everything ``MultiscalarMachine._result`` and the
    ``SimulationStuck`` message read: the counters, accumulators,
    squash penalties and depths, per-PU occupancy, the cache hit and
    miss counts, ``retire_seq`` / ``next_seq`` / ``pending_mispredict``
    and ``state.pu_of_seq`` (plus ``state.complete`` when a monitor is
    attached), then replays the event log into the machine's hooks.
    PU, predictor and sync-table state is not written back.
    """
    lib = _load()[0]
    config = machine.config
    state = machine.state
    packed = state.packed
    view = packed.kernel_view()
    pus = machine.pus
    n_pus = len(pus)
    n_tasks = len(machine.stream.tasks)

    monitor, tracer = machine.monitor, machine.tracer
    pu_of_seq = array("i", bytes(4 * n_tasks))
    pu_useful = array("q", bytes(8 * n_pus))
    pu_occupied = array("q", bytes(8 * n_pus))
    pu_issue_width = array("i", [pu.issue_width for pu in pus])
    pu_fetch_width = array("i", [pu.fetch_width for pu in pus])
    pu_fu = array("i", [units for pu in pus for units in pu._fu_budget])
    pu_lat_extra = array("i", [extra for pu in pus for extra in pu.lat_extra])

    per_trace = {
        "opcls": packed.opcls,
        "is_load": packed.is_load,
        "is_store": packed.is_store,
        "is_mem": packed.is_mem,
        "is_cond_branch": packed.is_cond_branch,
        "block_start": packed.block_start,
        "has_write": packed.has_write,
        "has_remote_consumer": packed.has_remote_consumer,
        "gshare_mispred": packed.gshare_mispred,
        "issue_simple": packed.issue_simple,
        "release_now": state.release_now,
        "prod_count": view.prod_count,
        "pc": packed.pc,
        "addr": packed.addr,
        "latency": view.latency,
        "mem_producer": view.mem_producer,
    }
    per_task = {
        "task_start": view.start,
        "task_end": view.end,
        "target_kind": view.kind,
        "target_index": view.target_index,
        "next_root": view.next_root,
        "cont_root": view.cont_root,
        "root_pc": view.root_pc,
        "pu_of_seq": pu_of_seq,
    }
    per_pu = {
        "pu_issue_width": pu_issue_width,
        "pu_fetch_width": pu_fetch_width,
        "pu_useful": pu_useful,
        "pu_occupied": pu_occupied,
    }
    per_pu_class = {"pu_fu": pu_fu, "pu_lat_extra": pu_lat_extra}
    # The kernel indexes these without bounds checks: a length that
    # disagrees with its dimension would corrupt memory, not raise.
    for group, length in ((per_trace, packed.n), (per_task, n_tasks),
                          (per_pu, n_pus), (per_pu_class, 4 * n_pus)):
        for name, buffer in group.items():
            if len(buffer) != length:
                raise ValueError(
                    f"native kernel input {name}: {len(buffer)} entries, "
                    f"expected {length}"
                )

    keep: list = []
    args = _In()
    args.n = packed.n
    args.n_tasks = n_tasks
    args.n_pus = n_pus
    buffers = {**per_trace, **per_task, **per_pu, **per_pu_class,
               "prod_flat": view.prod_flat}
    for name, buffer in buffers.items():
        setattr(args, name, _address(buffer, keep))

    def words_per_line(cache) -> int:
        return max(1, cache.line_bytes // config.word_bytes)

    spec = config.machine
    settings = {
        "out_of_order": int(config.out_of_order),
        "rob_size": config.rob_size,
        "issue_list_size": config.issue_list_size,
        "task_start_overhead": config.task_start_overhead,
        "task_end_overhead": config.task_end_overhead,
        "branch_mispredict_penalty": config.branch_mispredict_penalty,
        "task_mispredict_redirect": config.task_mispredict_redirect,
        "ring_bandwidth": config.ring_bandwidth,
        "ring_hop_latency": config.ring_hop_latency,
        "forward_policy": _FORWARD_POLICY[config.forward_policy],
        "release_lag": config.release_lag,
        "arb_latency": config.arb_latency,
        "arb_entries_per_pu": config.arb_entries_per_pu,
        "stlf_latency": config.stlf_latency,
        "sync_table_size": config.sync_table_size,
        "l1d_sets": config.l1d.sets,
        "l1d_assoc": config.l1d.assoc,
        "l1d_hit": config.l1d.hit_latency,
        "l1d_words_per_line": words_per_line(config.l1d),
        "l1i_sets": config.l1i.sets,
        "l1i_assoc": config.l1i.assoc,
        "l1i_hit": config.l1i.hit_latency,
        "l1i_words_per_line": words_per_line(config.l1i),
        "l2_sets": config.l2.sets,
        "l2_assoc": config.l2.assoc,
        "l2_hit": config.l2.hit_latency,
        "memory_latency": config.memory_latency,
        "max_cycles": config.max_cycles,
        "predictor": _PREDICTOR[spec.predictor if spec is not None else "path"],
    }
    for name, value in settings.items():
        setattr(args, name, value)
    args.log_events = int(monitor is not None or tracer is not None)
    complete = None
    if monitor is not None:
        complete = array("q", bytes(8 * packed.n))
        args.complete_out = _address(complete, keep)

    out = _Out()
    code = lib.ms_run(ctypes.byref(args), ctypes.byref(out))
    try:
        depths = out.squash_depths[:out.n_squash_depths]
        events = out.events[:EV_WIDTH * out.n_events]
    finally:
        lib.ms_free(ctypes.byref(out))
    del keep
    if code == _NOMEM:
        raise MemoryError("native cycle kernel ran out of memory")

    machine.retire_seq = out.retire_seq
    machine.next_seq = out.next_seq
    machine.pending_mispredict = (
        out.pending_mispredict if out.pending_mispredict >= 0 else None
    )
    machine.task_predictions = out.task_predictions
    machine.task_mispredictions = out.task_mispredictions
    machine.control_squashes = out.control_squashes
    machine.memory_squashes = out.memory_squashes
    reasons = list(out.reasons)
    machine._idle_accum = reasons[_R_IDLE]
    reasons[_R_IDLE] = 0
    machine._reason_accum = reasons
    machine._span_accum = out.span_accum
    machine.breakdown.charge_control_squash(out.control_penalty)
    machine.breakdown.charge_memory_squash(out.memory_penalty)
    machine.squash_depths = depths
    machine._pu_useful = pu_useful.tolist()
    machine._pu_occupied = pu_occupied.tolist()
    state.pu_of_seq[:] = pu_of_seq.tolist()
    hierarchy = machine.hierarchy
    for cache, hits, misses in (
        (hierarchy.l1d, out.l1d_hits, out.l1d_misses),
        (hierarchy.l1i, out.l1i_hits, out.l1i_misses),
        (hierarchy.l2, out.l2_hits, out.l2_misses),
    ):
        cache.hits = hits
        cache.misses = misses
    if complete is not None:
        state.complete[:] = complete.tolist()
    # Replay first: an invariant violation wins over SimulationStuck,
    # as it does in the reference loop.
    replay(events, monitor, tracer)
    if code == _MAX_CYCLES:
        raise machine._stuck(out.cycles, f"exceeded {config.max_cycles} cycles")
    if code == _LIVELOCK:
        raise machine._stuck(out.cycles, "no pending event (livelock)")
    return out.cycles
