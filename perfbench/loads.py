"""The benchmark's four workloads: set-up, timed pass, output checks.

Each workload is driven in one process with at most two pool workers
(``figure5-jobs2``); modelled caches start empty in every cell, as in
the paper.  A *pass* is one call into the public entry point
(``run_figure5``, ``tune``, ``run_campaign``) on inputs fixed by the
set-up; passes of one run do identical work and must produce
identical outputs.  Correctness checks that re-run cells on another
engine or through the oracle happen after timing, never inside a pass.

Why each workload exists is written up in ``README.md`` next to this
file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

from spans import SimCounter

#: figure5 grid scale: the int programs shrink with it, the fp
#: programs are near their floor already (see README.md)
FIGURE5_SCALE = 0.05
#: figure5 cells re-run on the reference engine and through the
#: oracle after timing, drawn from the run's seed
SPOT_CELLS = 3
TUNE_TARGETS = ("compress", "go", "tomcatv")
TUNE_SCALE = 0.1
#: GA campaigns per tune-ga pass, each of TUNE_BUDGET genomes
TUNE_CAMPAIGNS = 2
TUNE_BUDGET = 16
TUNE_POP = 8
FUZZ_BUDGET = 60
FUZZ_STRATEGIES = ("cost_model",)
FUZZ_MACHINES = ("big-little-8",)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_figure5.json")


def digest(payload) -> str:
    """sha256 of ``payload`` as canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Pass:
    """What one timed pass did and produced."""

    wall_s: float
    ops: int
    sim_cycles: int
    sim_insts: int
    #: digest of the pass's canonical outputs
    digest: str
    #: operations whose output check failed
    failed: int = 0
    #: units of the workload's own throughput (``Workload.items``)
    items: int = 0
    #: per-layer counts the workload reads from its own outputs
    layer_counts: Dict[str, int] = field(default_factory=dict)


@dataclass
class Checked:
    """Outcome of the after-timing checks of one run."""

    attempted: int = 0
    failed: int = 0
    #: name -> hex digest, printed so two commits compare exactly
    digests: Dict[str, str] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _cell_key(name, level, config) -> str:
    n_pus, ooo = config
    return f"{name}/{level.value}/{n_pus}{'ooo' if ooo else 'ino'}"


def record_digest(record) -> str:
    from repro.harness.serialize import record_to_dict

    return digest(record_to_dict(record))


def figure5_digests(records) -> Dict[str, str]:
    """Cell key -> record digest for a figure5 grid."""
    return {
        _cell_key(*key): record_digest(record)
        for key, record in records.items()
    }


def load_golden() -> Dict:
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return json.load(handle)


class Figure5:
    """All 18 registry programs x 4 levels x the 4 paper configs."""

    name = "figure5-cold"
    #: what ``Pass.items`` counts
    items = "cells"
    jobs = 1

    def setup(self, seed: int, workdir: str) -> None:
        from repro.experiments import runner
        from repro.experiments.figure5 import figure5_specs
        from repro.harness.cache import code_version
        import repro.machines  # noqa: F401  (validates the presets)

        self.runner = runner
        self.seed = seed
        self.workdir = workdir
        self.keys, _ = figure5_specs(scale=FIGURE5_SCALE)
        code_version()
        self.golden = load_golden()
        self.records = None

    def run_pass(self) -> Pass:
        from repro.experiments.figure5 import run_figure5

        self.runner.clear_cache()
        tmp = cache = ledger = None
        if self.jobs > 1:
            from repro.harness.cache import ArtifactCache
            from repro.harness.ledger import RunLedger

            tmp = tempfile.mkdtemp(dir=self.workdir)
            cache = ArtifactCache(os.path.join(tmp, "cache"))
            ledger = RunLedger(os.path.join(tmp, "ledger.jsonl"))
        layer_counts = {}
        try:
            start = time.perf_counter()
            result = run_figure5(scale=FIGURE5_SCALE, jobs=self.jobs,
                                 cache=cache, ledger=ledger)
            wall = time.perf_counter() - start
            if ledger is not None:
                layer_counts = _ledger_counts(ledger.path)
        finally:
            if tmp is not None:
                _reap_workers()
                shutil.rmtree(tmp, ignore_errors=True)
        records = result.records
        self.records = records
        cells = figure5_digests(records)
        expected = self.golden["cells"]
        failed = sum(1 for key in expected if cells.get(key) != expected[key])
        return Pass(
            wall_s=wall,
            ops=len(self.keys),
            sim_cycles=sum(r.cycles for r in records.values()),
            sim_insts=sum(r.instructions for r in records.values()),
            digest=digest(cells),
            failed=failed,
            items=len(records),
            layer_counts=layer_counts,
        )

    def failed_pass_ops(self) -> int:
        return len(self.keys)

    def check(self, passes: List[Pass]) -> Checked:
        """Golden digest, then a seeded sample of cells re-run on the
        reference engine and through ``verify_workload``."""
        from repro.experiments.runner import run_benchmark
        from repro.reliability.verify import verify_workload
        from repro.sim import SimConfig

        out = Checked()
        golden = self.golden["digest"]
        out.digests["figure5.records"] = passes[-1].digest if passes else ""
        out.digests["figure5.golden"] = golden
        for p in passes:
            if p.digest != golden:
                out.problems.append(
                    f"records digest {p.digest[:16]} != golden "
                    f"{golden[:16]} ({p.failed} cells differ)"
                )
        if self.records is None:
            return out
        rng = random.Random(self.seed)
        for key in rng.sample(sorted(self.records, key=str), SPOT_CELLS):
            name, level, (n_pus, ooo) = key
            label = _cell_key(*key)
            record = self.records[key]
            out.attempted += 1
            problems = []
            reference = run_benchmark(
                name, level, n_pus=n_pus, out_of_order=ooo,
                scale=FIGURE5_SCALE, sim=SimConfig(engine="reference"),
            )
            if record_digest(reference) != record_digest(record):
                problems.append(f"{label}: reference engine record differs")
            report = verify_workload(name, level, n_pus=n_pus,
                                     out_of_order=ooo, scale=FIGURE5_SCALE)
            if not report.ok or report.cycles != record.cycles:
                problems.append(f"{label}: oracle: {report.summary()}")
            out.digests[f"spot.{label}"] = record_digest(reference)
            if problems:
                out.failed += 1
                out.problems.extend(problems)
        return out


class Figure5Jobs2(Figure5):
    """The figure5 grid through the harness pool, cache and ledger."""

    name = "figure5-jobs2"
    jobs = 2


def _ledger_counts(path) -> Dict[str, int]:
    from repro.harness.ledger import read_ledger

    entries = read_ledger(path)
    cells = [e for e in entries if "cache" in e]
    return {
        "harness.ledger_entries": len(entries),
        "harness.cache_hits": sum(e["cache"] != "miss" for e in cells),
        "harness.cache_misses": sum(e["cache"] == "miss" for e in cells),
        "harness.retries": sum(int(e.get("retries", 0)) for e in cells),
    }


def _reap_workers(timeout: float = 60.0) -> None:
    """Wait until the pool's worker processes have exited.

    The scheduler shuts its pool down without waiting; reaping here
    keeps worker memory in ``RUSAGE_CHILDREN`` and leaves no process
    running when the benchmark exits.
    """
    import multiprocessing

    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.01)


class TuneGA:
    """Seeded GA campaigns over three registry targets on the paper
    machine.  A pass runs ``TUNE_CAMPAIGNS`` independent campaigns with
    seeds derived from the workload seed, so one pass averages over
    several random first generations."""

    name = "tune-ga"
    items = "genomes"

    def setup(self, seed: int, workdir: str) -> None:
        from repro.experiments import runner
        from repro.tune import ga
        from repro.workloads import get_benchmark
        import repro.machines  # noqa: F401

        self.runner = runner
        self.ga = ga
        self.seeds = [seed * TUNE_CAMPAIGNS + i for i in range(TUNE_CAMPAIGNS)]
        for target in TUNE_TARGETS:
            get_benchmark(target)
        self.results = []

    def run_pass(self) -> Pass:
        self.runner.clear_cache()
        counter = SimCounter()
        counter.install()
        try:
            start = time.perf_counter()
            results = [
                self.ga.tune(
                    TUNE_TARGETS, budget=TUNE_BUDGET, seed=seed,
                    algo="ga", jobs=1, pop_size=TUNE_POP, cache=None,
                    scale=TUNE_SCALE,
                )
                for seed in self.seeds
            ]
            wall = time.perf_counter() - start
        finally:
            counter.uninstall()
        self.results = results
        summaries = [
            {
                "seed": seed,
                "best_hash": result.best_hash,
                "best_fitness": result.best_fitness,
                "baseline_fitness": result.baseline_fitness,
                "evaluations": result.evaluations,
                "history": result.history,
            }
            for seed, result in zip(self.seeds, results)
        ]
        evaluations = sum(result.evaluations for result in results)
        # The paper genome is in every first population.
        failed = sum(result.best_fitness > result.baseline_fitness
                     for result in results)
        return Pass(
            wall_s=wall, ops=evaluations,
            sim_cycles=counter.cycles, sim_insts=counter.instructions,
            digest=digest(summaries), failed=failed, items=evaluations,
            layer_counts={"tune.evaluations": evaluations},
        )

    def failed_pass_ops(self) -> int:
        return TUNE_BUDGET * TUNE_CAMPAIGNS

    def check(self, passes: List[Pass]) -> Checked:
        """Each campaign's best genome re-scored on the reference
        engine and verified through the oracle on every target."""
        from repro.experiments.runner import run_benchmark
        from repro.reliability.verify import verify_workload
        from repro.sim import SimConfig

        out = Checked()
        _same_digest(passes, out, "tune")
        for seed, result in zip(self.seeds, self.results):
            out.digests[f"tune.seed{seed}.best_genome"] = result.best_hash
            out.digests[f"tune.seed{seed}.best_fitness"] = str(
                result.best_fitness
            )
            for target in TUNE_TARGETS:
                out.attempted += 1
                spec = result.best_genome.to_spec(target, scale=TUNE_SCALE)
                reference = run_benchmark(
                    target, spec.level, n_pus=spec.n_pus,
                    out_of_order=spec.out_of_order, scale=TUNE_SCALE,
                    selection=spec.selection,
                    sim=SimConfig(engine="reference"),
                )
                report = verify_workload(
                    target, spec.level, n_pus=spec.n_pus,
                    out_of_order=spec.out_of_order, scale=TUNE_SCALE,
                    selection=spec.selection,
                )
                expected = result.best_cycles[target]
                if reference.cycles != expected or not report.ok:
                    out.failed += 1
                    out.problems.append(
                        f"seed {seed} best genome on {target}: tuned "
                        f"{expected} cycles, reference engine "
                        f"{reference.cycles}; {report.summary()}"
                    )
        return out


class FuzzOracle:
    """A seeded differential fuzzing campaign over generated programs."""

    name = "fuzz-oracle"
    items = "programs"

    def setup(self, seed: int, workdir: str) -> None:
        from repro.experiments import runner
        from repro.machines import resolve_machine
        from repro.synth import campaign

        self.runner = runner
        self.campaign = campaign
        self.seed = seed
        for machine in FUZZ_MACHINES:
            resolve_machine(machine)

    def run_pass(self) -> Pass:
        self.runner.clear_cache()
        counter = SimCounter()
        counter.install()
        try:
            start = time.perf_counter()
            result = self.campaign.run_campaign(
                FUZZ_BUDGET, seed=self.seed, jobs=1,
                strategies=FUZZ_STRATEGIES, machines=FUZZ_MACHINES,
            )
            wall = time.perf_counter() - start
        finally:
            counter.uninstall()
        divergent_cells = {d.split("]")[0] for d in result.divergences}
        counters = result.metrics["counters"]
        return Pass(
            wall_s=wall, ops=result.cells,
            sim_cycles=counter.cycles, sim_insts=counter.instructions,
            digest=digest({
                "programs": result.programs, "cells": result.cells,
                "divergences": result.divergences,
                "metrics": result.metrics,
            }),
            failed=min(len(divergent_cells), result.cells),
            items=len(result.programs),
            layer_counts={
                "reliability.invariant_checks":
                    counters["fuzz.invariant_checks"],
                "reliability.divergences": len(result.divergences),
            },
        )

    def failed_pass_ops(self) -> int:
        return FUZZ_BUDGET

    def check(self, passes: List[Pass]) -> Checked:
        out = Checked()
        _same_digest(passes, out, "fuzz")
        for p in passes:
            if p.failed:
                out.problems.append(f"{p.failed} fuzz cell(s) diverged")
        return out


def _same_digest(passes: List[Pass], out: Checked, name: str) -> None:
    """Passes of one run did identical work: outputs must match."""
    digests = {p.digest for p in passes}
    if passes:
        out.digests[f"{name}.outputs"] = passes[0].digest
    if len(digests) > 1:
        out.problems.append(f"{name} outputs differ between passes")


WORKLOADS = {
    cls.name: cls for cls in (Figure5, Figure5Jobs2, TuneGA, FuzzOracle)
}
