"""Front-end reuse: structural IR clone, content-addressed traces and
profiles, one generation per synthetic program, exact bench counts."""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.cli import main
from repro.compiler import HeuristicLevel, SelectionConfig
from repro.compiler.strategy import REFERENCE_STRATEGIES, get_strategy
from repro.compiler.transforms import clone_program
from repro.experiments import runner
from repro.harness.serialize import record_to_dict
from repro.ir.asmtext import program_to_text
from repro.synth import check_program, generate_program, run_campaign
from repro.synth.params import PRESETS
from repro.synth.reduce import reduce_program
from repro.workloads import all_benchmarks, get_benchmark, registry


@pytest.fixture(autouse=True)
def _cold_caches():
    runner.clear_cache()
    yield
    runner.clear_cache()


def _cache_sizes():
    return {
        "compile": len(runner._compile_cache),
        "trace": len(runner._trace_cache),
        "synth_programs": len(registry._SYNTH_PROGRAMS),
        "synth_hashes": len(registry._SYNTH_HASHES),
    }


# ----------------------------------------------------------- clone


def _clone_subjects():
    subjects = [
        pytest.param(lambda bm=bm: bm.build(0.05), id=bm.name)
        for bm in all_benchmarks()
    ]
    subjects += [
        pytest.param(lambda p=params: generate_program(11, p),
                     id=f"synth-{preset}")
        for preset, params in PRESETS.items()
    ]
    return subjects


@pytest.mark.parametrize("build", _clone_subjects())
def test_clone_is_equivalent_and_independent(build):
    program = build()
    text = program_to_text(program)
    clone = clone_program(program)
    assert program_to_text(clone) == text

    assert clone.memory_image is not program.memory_image
    originals = {id(f) for f in program.functions()}
    blocks = {id(b) for f in program.functions() for b in f.blocks()}
    lists = {id(b.instructions)
             for f in program.functions() for b in f.blocks()}
    for func in clone.functions():
        assert id(func) not in originals
        for blk in func.blocks():
            assert id(blk) not in blocks
            assert id(blk.instructions) not in lists

    for name in REFERENCE_STRATEGIES:
        config = SelectionConfig(level=HeuristicLevel(name))
        get_strategy(config).transform(clone_program(program), config)
        assert program_to_text(program) == text, name


# ------------------------------------------------------ trace cache


def test_identical_transformed_programs_interpret_once(monkeypatch):
    calls = []
    real = runner.run_program

    def counting(program, max_instructions=2_000_000):
        calls.append(max_instructions)
        return real(program, max_instructions=max_instructions)

    monkeypatch.setattr(runner, "run_program", counting)
    bb = runner.compile_benchmark("compress", HeuristicLevel.BASIC_BLOCK,
                                  scale=0.05)
    cf = runner.compile_benchmark("compress", HeuristicLevel.CONTROL_FLOW,
                                  scale=0.05)
    assert (program_to_text(bb.partition.program)
            == program_to_text(cf.partition.program))
    assert len(calls) == 1
    assert cf.trace is bb.trace


def test_trace_key_covers_the_input():
    """Same code, different memory image: two traces, never one."""
    cross = runner.compile_benchmark(
        "compress", HeuristicLevel.DATA_DEPENDENCE, 0.3,
        profile_input="train",
    )
    same = runner.compile_benchmark(
        "compress", HeuristicLevel.DATA_DEPENDENCE, 0.3
    )
    assert len(cross.partition.profile_trace) != len(cross.trace)
    assert len(cross.trace) == len(same.trace)


def test_clear_cache_empties_every_cache():
    name = "synth:default:5"
    runner.compile_benchmark(name, HeuristicLevel.DATA_DEPENDENCE)
    registry.synth_source_hash(name)
    assert all(_cache_sizes().values()), _cache_sizes()
    runner.clear_cache()
    assert not any(_cache_sizes().values()), _cache_sizes()


def test_check_and_reduce_leave_caches_empty():
    program = generate_program(3, PRESETS["default"])
    assert check_program(program) == []
    reduce_program(program, lambda p: p.size > 0)
    assert not any(_cache_sizes().values()), _cache_sizes()


def test_figure5_cell_independent_of_warm_caches():
    cell = dict(n_pus=4, out_of_order=True, scale=0.05)
    cold = runner.run_benchmark("go", HeuristicLevel.BASIC_BLOCK, **cell)
    runner.clear_cache()
    # Fill the trace cache from another level first, so the cell's
    # compile reuses a trace recorded for a different config.
    runner.compile_benchmark("go", HeuristicLevel.DATA_DEPENDENCE,
                             scale=0.05)
    warm = runner.run_benchmark("go", HeuristicLevel.BASIC_BLOCK, **cell)
    assert record_to_dict(warm) == record_to_dict(cold)


def test_synth_program_generated_once_per_scale():
    name = "synth:loops:9"
    first = get_benchmark(name).build(0.5)
    assert get_benchmark(name).build(0.5) is first
    assert get_benchmark(name).build(1.0) is not first


# --------------------------------------------- determinism check


def test_source_hash_mismatch_is_reported(monkeypatch):
    """The worker's regeneration is independent of the generation that
    hashed the spec, so a generator that is not deterministic still
    shows up as a divergence."""
    from repro.synth import generator

    real = generator.parse_synth_name

    def shifted(name):
        preset, seed, params = real(name)
        return preset, seed + 1, params

    monkeypatch.setattr(generator, "parse_synth_name", shifted)
    result = run_campaign(budget=1, seed=1, jobs=1,
                          levels=(HeuristicLevel.BASIC_BLOCK,))
    assert any("source hash mismatch" in d for d in result.divergences), (
        result.summary()
    )


# ------------------------------------------------- bench counts


def _entry(**counts):
    entry = {"grid": "smoke", "engine": "fast", "wall_s": 1.0,
             "cells": 64, "sim_cycles": 100, "cycles_per_s": 100.0,
             "scale": 0.2, "jobs": 1}
    entry.update(counts)
    return {"grids": {"smoke@fast": entry}}


def test_check_regression_compares_work_counts_exactly():
    base = _entry(interp_runs=8, compile_hits=48)
    assert bench.check_regression(_entry(interp_runs=8, compile_hits=48),
                                  base) == []
    problems = bench.check_regression(
        _entry(interp_runs=9, compile_hits=48), base
    )
    assert len(problems) == 1 and "interp_runs is 9" in problems[0]
    # A baseline without counts gates wall time and cycles only.
    assert bench.check_regression(_entry(interp_runs=9), _entry()) == []


def test_bench_check_fails_on_count_mismatch(tmp_path, monkeypatch):
    baseline = tmp_path / "BENCH_sim.json"
    baseline.write_text(json.dumps(_entry(interp_runs=8, compile_hits=48)))
    record = dict(_entry(interp_runs=8, compile_hits=47),
                  commit="x", python="3")
    monkeypatch.setattr(bench, "run_bench", lambda **_: record)
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--grids", "smoke", "--check",
              "--baseline", str(baseline)])
    assert "REGRESSION: smoke@fast: compile_hits is 47" in str(exc.value)


def test_run_grid_records_counts_at_jobs_1():
    first = bench.run_grid("micro")
    second = bench.run_grid("micro")
    assert first["interp_runs"] > 0
    assert (first["interp_runs"], first["compile_hits"]) == (
        second["interp_runs"], second["compile_hits"]
    )
