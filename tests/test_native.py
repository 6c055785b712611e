"""The native cycle kernel (``repro.sim.native`` + ``_cycle.c``).

An ``engine="fast"`` run without a fault plan goes through the C
kernel whenever a C compiler is on the PATH, monitored and traced runs
included; these tests pin that routing and demand ``SimResult``
equality with the reference engine on the fuzz corpus, seeded
generated programs and every machine preset.  They also check that
the monitor fed from the kernel's event log names the invariant a
tampered log breaks.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path

import pytest

from repro.compiler import HeuristicLevel, SelectionConfig, select_tasks
from repro.compiler.regcomm import ReleaseAnalysis
from repro.experiments.runner import compile_benchmark, run_benchmark
from repro.ir import IRBuilder, parse_program
from repro.ir.interp import run_program
from repro.machines import machine_names, resolve_machine
from repro.machines.spec import with_predictor
from repro.reliability import FaultPlan, InvariantMonitor, InvariantViolation
from repro.sim import MultiscalarMachine, SimConfig, build_task_stream, native
from repro.sim.breakdown import REASONS, StallReason
from repro.sim.machine import SimulationStuck
from repro.synth import generate_program
from repro.synth.params import PRESETS
from repro.telemetry import TraceCollector

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.asm"))
LEVELS = list(HeuristicLevel)
SMALL = 0.05


def _program_stream(program, level):
    partition = select_tasks(program, SelectionConfig(level=level))
    trace = run_program(partition.program, max_instructions=200_000)
    return build_task_stream(trace, partition), ReleaseAnalysis(partition)


def _simulate(stream, release, **config):
    return MultiscalarMachine(stream, SimConfig(**config), release).run()


def assert_native_matches_reference(stream, release, **config):
    native_result = _simulate(stream, release, engine="fast", **config)
    reference = _simulate(stream, release, engine="reference", **config)
    assert native_result == reference


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    native._load.cache_clear()
    yield
    native._load.cache_clear()


def test_kernel_loads_whenever_a_compiler_exists():
    # Deliberately no skip: on a host with ``cc`` the fast-engine
    # sweeps of test_fastpath.py / test_machines.py must be shown to
    # run native, and a host without one must report why not.
    if shutil.which("cc"):
        assert native.status() == ("native", None)
    else:
        assert native.status() == ("python", "no C compiler ('cc') on PATH")


def test_hook_free_fast_runs_call_the_kernel(monkeypatch):
    calls = []
    run = native.run

    def counted(machine):
        calls.append(machine.label)
        return run(machine)

    monkeypatch.setattr(native, "run", counted)
    run_benchmark("compress", HeuristicLevel.TASK_SIZE, scale=SMALL)
    run_benchmark("compress", HeuristicLevel.TASK_SIZE, scale=SMALL,
                  sim=SimConfig(engine="reference"))
    assert calls == (["compress/task_size/4ooo"] if native.available() else [])


def test_hooked_fast_runs_call_the_kernel_unless_faults(monkeypatch):
    calls = []
    run = native.run

    def counted(machine):
        calls.append((machine.monitor is not None, machine.tracer is not None))
        return run(machine)

    monkeypatch.setattr(native, "run", counted)
    hooks = [
        dict(monitor=InvariantMonitor()),
        dict(tracer=TraceCollector()),
        dict(monitor=InvariantMonitor(), fault_plan=FaultPlan(seed=7,
                                                              faults=5)),
    ]
    for hooked in hooks:
        run_benchmark("compress", HeuristicLevel.TASK_SIZE, scale=SMALL,
                      **hooked)
    assert calls == ([(True, False), (False, True)]
                     if native.available() else [])


def test_stall_slots_match_the_kernel_enum():
    # _cycle.c numbers the reasons R_USEFUL .. R_IDLE in this order.
    assert [reason.name for reason in REASONS] == [
        "USEFUL", "TASK_START", "TASK_END", "INTRA_DEP", "INTER_COMM",
        "MEMORY", "SYNC_WAIT", "FETCH", "LOAD_IMBALANCE", "IDLE",
    ]
    assert REASONS[-1] is StallReason.IDLE


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
@pytest.mark.parametrize("level", LEVELS, ids=[lvl.value for lvl in LEVELS])
def test_native_matches_reference_on_corpus(path, level):
    program = parse_program(path.read_text(encoding="utf-8"))
    stream, release = _program_stream(program, level)
    assert_native_matches_reference(stream, release, n_pus=4)
    assert_native_matches_reference(stream, release, n_pus=2,
                                    out_of_order=False)


@pytest.mark.parametrize("seed", range(10))
def test_native_matches_reference_on_generated_programs(seed):
    level = LEVELS[seed % len(LEVELS)]
    stream, release = _program_stream(generate_program(seed), level)
    assert_native_matches_reference(stream, release, n_pus=4)
    assert_native_matches_reference(stream, release, n_pus=8,
                                    sync_table_size=2, arb_entries_per_pu=4)


@pytest.mark.parametrize("preset,seed,level,sync_table_size", [
    ("memory", 1, HeuristicLevel.BASIC_BLOCK, 2),
    ("memory", 10, HeuristicLevel.BASIC_BLOCK, 2),
    ("memory", 10, HeuristicLevel.TASK_SIZE, 256),
    ("loops", 6, HeuristicLevel.BASIC_BLOCK, 256),
])
def test_native_matches_reference_on_squash_heavy_programs(
        preset, seed, level, sync_table_size):
    # Generated programs picked for their memory violations.  With a
    # two-entry sync table the eviction order depends on the LRU touch
    # of every sync-table hit at issue time; memory seed 10 at
    # task_size has two loads of one task waiting on the same store,
    # so the victim choice decides which pair the table learns; loops
    # seed 6 squashes while the sequencer's resume cycle is the
    # squash cycle itself.
    program = generate_program(seed, PRESETS[preset])
    stream, release = _program_stream(program, level)
    assert_native_matches_reference(stream, release, n_pus=8,
                                    sync_table_size=sync_table_size)


def _recursive_program(depth: int, reps: int):
    """``main`` calls a function recursing ``depth`` levels, ``reps`` times."""
    b = IRBuilder()
    with b.function("rec"):
        base = b.new_label("base")
        step = b.new_label("step")
        cont = b.new_label("cont")
        b.beqz("r4", base, fallthrough=step)
        with b.block(step):
            b.addi("r4", "r4", -1)
            b.addi("r5", "r5", 1)
            b.call("rec", fallthrough=cont)
        with b.block(cont):
            b.ret()
        with b.block(base):
            b.ret()
    with b.function("main"):
        body = b.new_label("body")
        after = b.new_label("after")
        done = b.new_label("done")
        b.li("r1", 0)
        b.jump(body)
        with b.block(body):
            b.li("r4", depth)
            b.call("rec", fallthrough=after)
        with b.block(after):
            b.addi("r1", "r1", 1)
            b.slti("r9", "r1", reps)
            b.bnez("r9", body, fallthrough=done)
        with b.block(done):
            b.store("r5", "r0", 100)
            b.halt()
    return b.build()


@pytest.mark.parametrize("level", LEVELS, ids=[lvl.value for lvl in LEVELS])
def test_native_matches_reference_past_the_ras_depth(level):
    # 80 nested calls overflow the 64-entry return address stack.
    stream, release = _program_stream(_recursive_program(80, 3), level)
    assert_native_matches_reference(stream, release, n_pus=4)


def _preset_machines():
    machines = [resolve_machine(name) for name in machine_names()]
    # no preset uses the gshare task predictor, and only hetero-16
    # the hybrid one: cover both on the paper and big.LITTLE machines
    for name in ("paper-4x2", "big-little-8"):
        for predictor in ("gshare", "hybrid"):
            machines.append(with_predictor(resolve_machine(name), predictor))
    return machines


@pytest.mark.parametrize("bench", ["m88ksim", "tomcatv"])
@pytest.mark.parametrize(
    "machine", _preset_machines(),
    ids=lambda spec: f"{spec.name}-{spec.predictor}",
)
def test_native_matches_reference_on_machine_presets(machine, bench):
    compiled = compile_benchmark(bench, HeuristicLevel.TASK_SIZE, SMALL)
    assert_native_matches_reference(compiled.stream, compiled.release,
                                    machine=machine)


@pytest.mark.parametrize("sim,expected", [
    (SimConfig(max_cycles=50), "exceeded 50 cycles at cycle 51"),
    # no integer unit: the first integer instruction can never issue
    (SimConfig(int_units=0), "no pending event (livelock) at cycle 80"),
], ids=["max-cycles", "livelock"])
def test_stuck_message_equals_python_fast(monkeypatch, sim, expected):
    """The kernel's max-cycles message equals the reference fallback's;
    the livelock guard is the kernel's alone, monitored or not."""
    if not native.available():
        pytest.skip("needs the native kernel")

    def stuck_message(**hooks):
        with pytest.raises(SimulationStuck) as exc_info:
            run_benchmark("compress", HeuristicLevel.BASIC_BLOCK,
                          scale=SMALL, sim=sim, **hooks)
        return str(exc_info.value)

    from_native = stuck_message()
    assert expected in from_native
    assert stuck_message(monitor=InvariantMonitor()) == from_native
    if "livelock" not in expected:
        monkeypatch.setattr(native, "available", lambda: False)
        assert stuck_message() == from_native


def test_no_state_leaks_between_runs():
    compiled = compile_benchmark("compress", HeuristicLevel.CONTROL_FLOW,
                                 SMALL)
    stream, release = compiled.stream, compiled.release
    first = _simulate(stream, release, n_pus=4)
    other = _simulate(stream, release, machine="hetero-16")
    again = _simulate(stream, release, n_pus=4)
    assert again == first
    assert other != first


def test_machine_state_written_back():
    compiled = compile_benchmark("compress", HeuristicLevel.CONTROL_FLOW,
                                 SMALL)
    machines = [
        MultiscalarMachine(compiled.stream, SimConfig(engine=engine),
                           compiled.release)
        for engine in ("fast", "reference")
    ]
    for machine in machines:
        machine.run()
    fast, reference = machines
    assert fast.state.pu_of_seq == reference.state.pu_of_seq
    assert fast.hierarchy.stats() == reference.hierarchy.stats()
    for attr in ("retire_seq", "next_seq", "pending_mispredict", "cycle"):
        assert getattr(fast, attr) == getattr(reference, attr)


def test_missing_compiler_falls_back_visibly(fresh_loader, monkeypatch,
                                             capsys):
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    assert native.status() == ("python", "no C compiler ('cc') on PATH")
    assert not native.available()
    warning = capsys.readouterr().err.splitlines()
    assert len(warning) == 1 and "reference loop" in warning[0]


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_failed_build_warns_with_the_compiler_error(fresh_loader, tmp_path,
                                                    monkeypatch, capsys):
    broken = tmp_path / "_cycle.c"
    broken.write_text("int ms_run(void) { return missing_symbol; }\n")
    monkeypatch.setattr(native, "_SOURCE", broken)
    monkeypatch.setattr(native, "_build_dirs", lambda: iter([tmp_path]))
    kind, reason = native.status()
    assert kind == "python"
    assert reason.startswith("cc failed: ") and "missing_symbol" in reason
    warning = capsys.readouterr().err.splitlines()
    assert len(warning) == 1 and reason in warning[0]
    # the fallback still simulates, through the reference loop
    result = run_benchmark("compress", HeuristicLevel.TASK_SIZE, scale=SMALL)
    assert result.cycles > 0


def _first(rows, kind):
    number = native.EV_KINDS.index(kind)
    return next(i for i, row in enumerate(rows) if row[0] == number)


def _duplicate_retire(rows):
    at = _first(rows, "retire")
    rows.insert(at + 1, list(rows[at]))


def _wrong_penalty(rows):
    rows[_first(rows, "squash")][4] += 1


def _survivor(rows):
    row = rows[_first(rows, "post_squash")]
    row[3] = row[1]  # the squash point itself is still in flight


@pytest.mark.parametrize("tamper,invariant", [
    (_duplicate_retire, r"\[I[12]\]"),
    (_wrong_penalty, r"\[I4\]"),
    (_survivor, r"\[I3\] squash from seq \d+ at cycle \d+ left task"),
], ids=["duplicate-retire", "wrong-penalty", "survivor"])
def test_tampered_event_log_raises_the_named_invariant(monkeypatch, tamper,
                                                       invariant):
    if not native.available():
        pytest.skip("needs the native kernel")
    replay = native.replay

    def tampered(events, monitor, tracer):
        width = native.EV_WIDTH
        rows = [list(events[i:i + width])
                for i in range(0, len(events), width)]
        tamper(rows)
        replay([word for row in rows for word in row], monitor, tracer)

    monkeypatch.setattr(native, "replay", tampered)
    # m88ksim at control_flow squashes one real task on a memory
    # violation: every record kind the tampering needs is logged.
    compiled = compile_benchmark("m88ksim", HeuristicLevel.CONTROL_FLOW,
                                 SMALL)
    machine = MultiscalarMachine(compiled.stream, SimConfig(),
                                 compiled.release, monitor=InvariantMonitor())
    with pytest.raises(InvariantViolation, match=invariant):
        machine.run()
