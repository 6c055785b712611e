"""Tests for the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the persistent artifact cache at a per-test directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "compress"])
        assert args.benchmark == "compress"
        assert args.level == "data_dependence"
        assert args.pus == 4
        assert not args.in_order

    def test_figure5_options(self):
        args = build_parser().parse_args(
            ["figure5", "--benchmarks", "compress,go", "--pus", "8",
             "--scale", "0.2"]
        )
        assert args.benchmarks == "compress,go"
        assert args.pus == 8
        assert args.scale == 0.2
        assert args.jobs == 0  # auto: one worker per CPU
        assert not args.no_cache
        assert args.json == ""

    def test_harness_flags(self):
        args = build_parser().parse_args(
            ["table1", "--jobs", "3", "--no-cache", "--json", "out.json"]
        )
        assert args.jobs == 3
        assert args.no_cache
        assert args.json == "out.json"

    def test_cache_subcommand(self):
        assert build_parser().parse_args(["cache", "stats"]).action == "stats"
        assert build_parser().parse_args(["cache", "clear"]).action == "clear"
        assert build_parser().parse_args(
            ["cache", "doctor"]).action == "doctor"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "bogus"])

    def test_resume_flag(self):
        args = build_parser().parse_args(["table1", "--resume"])
        assert args.resume
        assert not build_parser().parse_args(["table1"]).resume

    def test_verify_options(self):
        args = build_parser().parse_args(
            ["verify", "compress", "tomcatv", "--faults", "50",
             "--seed", "7", "--scale", "0.2"]
        )
        assert args.benchmarks == ["compress", "tomcatv"]
        assert args.faults == 50
        assert args.seed == 7
        assert not args.all

    def test_trace_options(self):
        args = build_parser().parse_args(
            ["trace", "compress", "--level", "control_flow",
             "--engine", "reference", "-o", "out.json"]
        )
        assert args.benchmark == "compress"
        assert args.level == "control_flow"
        assert args.engine == "reference"
        assert args.output == "out.json"
        assert build_parser().parse_args(
            ["trace", "compress"]).output == "trace.json"

    @pytest.mark.parametrize("command", [
        ["run", "compress"],
        ["figure5"],
        ["verify", "compress"],
        ["trace", "compress"],
        ["profile-sim", "compress"],
    ], ids=lambda c: c[0])
    def test_engine_rejects_batched(self, command, capsys):
        for engine in ("fast", "reference"):
            args = build_parser().parse_args(command + ["--engine", engine])
            assert args.engine == engine
        for engine in ('batched', 'warp'):
            with pytest.raises(SystemExit) as exc_info:
                build_parser().parse_args(command + ["--engine", engine])
            assert exc_info.value.code == 2
            errors = [line for line in capsys.readouterr().err.splitlines()
                      if "error:" in line]
            assert len(errors) == 1
            assert f"invalid choice: '{engine}'" in errors[0]

    @pytest.mark.parametrize(
        "command", ["serve", "chaos", "submit", "jobs", "fetch"]
    )
    def test_removed_commands_are_gone(self, command, capsys):
        """The campaign-service commands are unknown choices."""
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args([command])
        assert exc_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert f"invalid choice: '{command}'" in errors[0]

    def test_fuzz_has_no_engine_option(self):
        """Every fuzz cell runs on both engines; there is nothing to
        choose."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fuzz", "--budget", "1", "--engine", "reference"]
            )

    def test_report_options(self):
        args = build_parser().parse_args(
            ["report", "a.json", "b.json", "--tolerance", "0.1"]
        )
        assert args.a == "a.json"
        assert args.b == "b.json"
        assert args.tolerance == 0.1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "only-one"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "tomcatv" in out
        assert "int" in out and "fp" in out
        # static code counts are part of the listing
        header, first = out.splitlines()[:2]
        for column in ("funcs", "blocks", "insts"):
            assert column in header
        assert any(token.isdigit() for token in first.split())

    def test_run(self, capsys):
        assert main(
            ["run", "compress", "--level", "control_flow",
             "--scale", "0.1", "--pus", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "window span" in out
        assert "2 PUs" in out

    def test_run_in_order(self, capsys):
        assert main(["run", "compress", "--scale", "0.1", "--in-order"]) == 0
        assert "in-order" in capsys.readouterr().out

    def test_figure5(self, capsys):
        assert main(
            ["figure5", "--benchmarks", "compress", "--pus", "4",
             "--scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "basic_block" in out

    def test_table1(self, capsys):
        assert main(
            ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "#dyn" in out and "compress" in out

    def test_breakdown(self, capsys):
        assert main(
            ["breakdown", "--benchmarks", "compress", "--scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "useful" in out

    def test_centralized(self, capsys):
        assert main(
            ["centralized", "--benchmarks", "compress", "--scale", "0.1",
             "--pus", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "break-even" in out

    def test_figure5_json_output(self, capsys, tmp_path):
        path = tmp_path / "fig5.json"
        assert main(
            ["figure5", "--benchmarks", "compress", "--pus", "4",
             "--scale", "0.1", "--json", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        assert payload["command"] == "figure5"
        assert payload["scale"] == 0.1
        # one benchmark x 4 levels x (4 PUs, ooo + in-order)
        assert len(payload["records"]) == 8
        assert {r["level"] for r in payload["records"]} == {
            "basic_block", "control_flow", "data_dependence", "task_size"
        }

    def test_warm_cache_second_run_is_all_hits(self, capsys, tmp_path):
        from repro.experiments import clear_cache
        from repro.harness import read_ledger

        argv = ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        clear_cache()  # in-memory compilations gone: disk cache only
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        entries = read_ledger(tmp_path / "cache" / "ledger.jsonl")
        assert [e["cache"] for e in entries[-3:]] == ["hit"] * 3

    def test_no_cache_bypasses_artifacts(self, capsys, tmp_path):
        assert main(
            ["table1", "--benchmarks", "compress", "--scale", "0.1",
             "--no-cache"]
        ) == 0
        assert not (tmp_path / "cache" / "records").exists()

    def test_cache_stats_and_clear(self, capsys):
        assert main(
            ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "cache root" in out and "records    : 3" in out
        assert main(["cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "records    : 0" in capsys.readouterr().out

    def test_verify_clean_workload(self, capsys):
        assert main(
            ["verify", "compress", "--scale", "0.1", "--levels",
             "control_flow,task_size", "--faults", "5", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "verified 2 cell(s): 2 ok, 0 diverged" in out

    def test_verify_without_benchmarks_exits(self):
        with pytest.raises(SystemExit, match="--all"):
            main(["verify"])

    def test_cache_doctor(self, capsys):
        assert main(
            ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "doctor"]) == 0
        out = capsys.readouterr().out
        assert "checked" in out and "quarantined: 0" in out

    def test_resume_second_run_skips_completed(self, capsys, tmp_path):
        from repro.experiments import clear_cache
        from repro.harness import read_ledger

        argv = ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        assert main(argv) == 0
        clear_cache()
        assert main(argv + ["--resume"]) == 0
        entries = read_ledger(tmp_path / "cache" / "ledger.jsonl")
        assert [e["cache"] for e in entries[-3:]] == ["resume"] * 3

    def test_unknown_benchmark_raises(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["run", "nonexistent", "--scale", "0.1"])
        assert str(exc_info.value.code).startswith(
            "repro run: unknown benchmark 'nonexistent'; known: "
        )

    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        from repro.telemetry import validate_chrome_trace_file

        path = tmp_path / "trace.json"
        assert main(
            ["trace", "compress", "--scale", "0.1", "-o", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "lifecycle event" in out and "perfetto" in out.lower()
        validate_chrome_trace_file(path)  # must not raise
        payload = json.loads(path.read_text())
        assert payload["otherData"]["n_pus"] == 4

    def test_report_ok_and_drift_exit_codes(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(
            ["figure5", "--benchmarks", "li", "--pus", "4",
             "--scale", "0.1", "--json", str(a)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(a.read_text())
        b.write_text(json.dumps(payload))
        assert main(["report", str(a), str(b)]) == 0
        assert "0 drifted" in capsys.readouterr().out
        payload["records"][0]["cycles"] += 1
        b.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match="DRIFT"):
            main(["report", str(a), str(b)])

    def test_report_rejects_unreadable_input(self):
        with pytest.raises(SystemExit, match="repro report"):
            main(["report", "no-such-file.json", "also-missing.json"])


class TestCacheAndListCLI:
    def test_cache_prune_parser(self):
        args = build_parser().parse_args(
            ["cache", "prune", "--max-bytes", "1024"]
        )
        assert args.action == "prune"
        assert args.max_bytes == 1024

    def test_cache_prune_requires_max_bytes(self):
        with pytest.raises(SystemExit, match="max-bytes"):
            main(["cache", "prune"])

    def test_cache_prune_rejects_negative(self):
        with pytest.raises(SystemExit, match="max-bytes"):
            main(["cache", "prune", "--max-bytes", "-5"])

    def test_cache_prune_evicts(self, capsys, tmp_path):
        assert main(
            ["figure5", "--benchmarks", "compress", "--scale", "0.1",
             "--jobs", "1"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out and "kept" in out
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "records    : 0" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {bm["name"] for bm in payload["benchmarks"]}
        assert "compress" in names and "tomcatv" in names
        sample = payload["benchmarks"][0]
        for key in ("suite", "functions", "blocks", "instructions",
                    "description"):
            assert key in sample

    def test_list_json_synth(self, capsys):
        assert main(["list", "--synth", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {p["name"] for p in payload["presets"]}
        assert "default" in names
        sample = payload["presets"][0]
        assert "region_weights" in sample


_BAD_INPUT = [
    pytest.param(["run", "nosuch"],
                 "repro run: unknown benchmark 'nosuch'; known: applu,",
                 id="run-nosuch"),
    pytest.param(["trace", "nosuch"],
                 "repro trace: unknown benchmark 'nosuch'; known: applu,",
                 id="trace-nosuch"),
    pytest.param(["profile-sim", "nosuch"],
                 "repro profile-sim: unknown benchmark 'nosuch'; known: "
                 "applu,",
                 id="profile-sim-nosuch"),
    pytest.param(["verify", "nosuch"],
                 "repro verify: unknown benchmark 'nosuch'; known: applu,",
                 id="verify-nosuch"),
    pytest.param(["figure5", "--benchmarks", "compress,nosuch"],
                 "repro figure5: unknown benchmark 'nosuch'; known: applu,",
                 id="figure5-nosuch"),
    pytest.param(["run", "compress", "--scale", "0"],
                 "repro run: error: argument --scale: invalid scale '0': "
                 "must be a finite number > 0",
                 id="scale-zero"),
    pytest.param(["run", "compress", "--scale", "-1"],
                 "repro run: error: argument --scale: invalid scale '-1': "
                 "must be a finite number > 0",
                 id="scale-negative"),
    pytest.param(["table1", "--scale", "nan"],
                 "repro table1: error: argument --scale: invalid scale "
                 "'nan': must be a finite number > 0",
                 id="scale-nan"),
    pytest.param(["run", "compress", "--pus", "3"],
                 "repro run: error: argument --pus: PU count 3 is not a "
                 "power of two",
                 id="pus-three"),
    pytest.param(["breakdown", "--pus", "0"],
                 "repro breakdown: error: argument --pus: needs at least "
                 "one PU",
                 id="pus-zero"),
    pytest.param(['run', 'compress', '--engine', 'batched'],
                 "repro run: error: argument --engine: invalid choice: "
                 "'batched'",
                 id="engine-batched"),
    pytest.param(["fuzz", "--budget", "-3"],
                 "repro fuzz: error: argument --budget: invalid count "
                 "'-3': must be >= 1",
                 id="fuzz-budget-negative"),
    pytest.param(["fuzz", "--budget", "0"],
                 "repro fuzz: error: argument --budget: invalid count "
                 "'0': must be >= 1",
                 id="fuzz-budget-zero"),
    pytest.param(["figure5", "--jobs", "-2"],
                 "repro figure5: error: argument --jobs: invalid count "
                 "'-2': must be >= 0",
                 id="figure5-jobs-negative"),
    pytest.param(["fuzz", "--budget", "1", "--jobs", "-1"],
                 "repro fuzz: error: argument --jobs: invalid count "
                 "'-1': must be >= 0",
                 id="fuzz-jobs-negative"),
    pytest.param(["verify", "compress", "--faults", "-1"],
                 "repro verify: error: argument --faults: invalid count "
                 "'-1': must be >= 0",
                 id="verify-faults-negative"),
    pytest.param(["profile-sim", "compress", "--top", "0"],
                 "repro profile-sim: error: argument --top: invalid count "
                 "'0': must be >= 1",
                 id="profile-sim-top-zero"),
    pytest.param(["trace", "compress", "-o", "/missing/x.json"],
                 "repro trace: error: argument -o/--output: invalid path "
                 "'/missing/x.json': no directory '/missing'",
                 id="trace-output-missing-dir"),
    pytest.param(["gen", "1", "-o", "/missing/p.asm"],
                 "repro gen: error: argument -o/--output: invalid path "
                 "'/missing/p.asm': no directory '/missing'",
                 id="gen-output-missing-dir"),
    pytest.param(["bench", "--grids", "smoke", "--json", "/missing/b.json"],
                 "repro bench: error: argument --json: invalid path "
                 "'/missing/b.json': no directory '/missing'",
                 id="bench-json-missing-dir"),
    pytest.param(["figure5", "--json", "/missing/y.json"],
                 "repro figure5: error: argument --json: invalid path "
                 "'/missing/y.json': no directory '/missing'",
                 id="figure5-json-missing-dir"),
    pytest.param(["scaling", "--json", "/missing/y.json"],
                 "repro scaling: error: argument --json: invalid path "
                 "'/missing/y.json': no directory '/missing'",
                 id="scaling-json-missing-dir"),
    pytest.param(["table1", "--json", "/missing/y.json"],
                 "repro table1: error: argument --json: invalid path "
                 "'/missing/y.json': no directory '/missing'",
                 id="table1-json-missing-dir"),
    pytest.param(["breakdown", "--json", "/missing/y.json"],
                 "repro breakdown: error: argument --json: invalid path "
                 "'/missing/y.json': no directory '/missing'",
                 id="breakdown-json-missing-dir"),
]


class TestInputBoundary:
    """Bad input exits non-zero with one error line, no traceback."""

    @pytest.mark.parametrize("argv,expected", _BAD_INPUT)
    def test_bad_input_fails_with_one_line(self, argv, expected):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        errors = [line for line in lines if line.startswith("repro ")]
        assert len(errors) == 1, proc.stderr
        assert errors[0].startswith(expected), proc.stderr
        # anything else is argparse's usage block
        usage = [line for line in lines if line not in errors]
        assert not usage or usage[0].startswith("usage: "), proc.stderr
