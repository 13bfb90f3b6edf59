"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestDevices:
    def test_prints_table1(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "HD7970" in out and "3788" in out


class TestTune:
    def test_tune_reports_optimum(self, capsys):
        code = main(
            ["tune", "--device", "GTX 680", "--setup", "lofar", "--dms", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimum" in out
        assert "real-time" in out
        assert "GTX 680" in out

    def test_zero_dm_flag(self, capsys):
        assert main(
            ["tune", "--device", "HD7970", "--dms", "32", "--zero-dm"]
        ) == 0
        assert "optimum" in capsys.readouterr().out

    def test_unknown_device_fails_cleanly(self, capsys):
        assert main(["tune", "--device", "RTX-4090", "--dms", "8"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_setup_fails_cleanly(self, capsys):
        assert main(["tune", "--setup", "ska", "--dms", "8"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["nan", "inf", "-1"])
    def test_non_finite_dm_step_fails_cleanly(self, step, capsys):
        assert main(["tune", "--dms", "16", "--dm-step", step]) == 2
        assert capsys.readouterr().err.startswith("error: step must be")

    def test_model_guided_strategy_reports_search_cost(self, capsys):
        code = main(
            ["tune", "--device", "HD7970", "--setup", "lofar",
             "--dms", "64", "--strategy", "model-guided"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimum" in out
        assert "search : model-guided" in out
        assert "% of the space" in out

    def test_exhaustive_prints_no_search_line(self, capsys):
        assert main(
            ["tune", "--device", "HD7970", "--setup", "lofar",
             "--dms", "32", "--strategy", "exhaustive"]
        ) == 0
        assert "search :" not in capsys.readouterr().out


class TestService:
    def test_serves_shuffled_load_and_prints_stats(self, capsys):
        code = main([
            "service",
            "--instances", "16,32",
            "--load", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "4 requests against" in out
        assert "sweeps executed" in out
        assert "hit rate" in out
        assert "16 DMs" in out and "32 DMs" in out

    def test_single_request(self, capsys):
        code = main([
            "service",
            "--instances", "16",
            "--load", "1",
            "--no-smoke",
        ])
        assert code == 0
        assert "sweeps executed" in capsys.readouterr().out

    def test_stats_count_sweeps_of_timed_out_requests(self, capsys):
        from repro.obs import use_registry

        # Both requests degrade at once; their sweeps finish in the
        # background and must be counted once the pool has drained.
        with use_registry() as registry:
            code = main([
                "service",
                "--instances", "16,32",
                "--load", "1",
                "--timeout", "0.0001",
                "--no-smoke",
            ])
        assert code == 0
        assert re.search(r"sweeps executed\s*: 2\b", capsys.readouterr().out)
        sweeps = [
            series.value for series in registry.series()
            if series.name == "repro_service_sweeps_total"
        ]
        assert sweeps == [2]

    def test_inf_timeout_waits_for_every_sweep(self, capsys):
        code = main([
            "service",
            "--instances", "16,32",
            "--load", "1",
            "--timeout", "inf",
            "--no-smoke",
        ])
        assert code == 0
        import re

        assert re.search(
            r"degraded \(timeout\)\s*: 0\b", capsys.readouterr().out
        )

    @pytest.mark.parametrize(
        "flag",
        [
            "--clients", "--requests", "--tenants", "--priority",
            "--admission-rate", "--admission-burst",
        ],
    )
    def test_retired_flag_spellings_rejected(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["service", "--instances", "16", flag, "1", "--no-smoke"])
        assert excinfo.value.code == 2

    def test_warm_up_reports_each_instance(self, capsys):
        code = main([
            "service",
            "--instances", "16,32",
            "--load", "1",
            "--warm-up",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "warm-up" in out
        # Every instance is swept: a cached neighbour seeds nothing.
        assert out.count("[sweep") == 2

    def test_store_dir_persists_sweeps(self, tmp_path, capsys):
        argv = [
            "service",
            "--instances", "16",
            "--load", "1",
            "--store", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        import re

        assert re.search(r"cache hits \(disk\)\s*: 1\b", out)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--instances", ""],
            ["--instances", "sixty-four"],
            ["--instances", "16", "--load", "0"],
            ["--instances", "16", "--timeout", "nan"],
            ["--instances", "16", "--timeout", "-1"],
        ],
        ids=[
            "no-instances", "non-integer-instances", "zero-load",
            "nan-timeout", "negative-timeout",
        ],
    )
    def test_rejects_empty_instances(self, argv, capsys):
        assert main(["service", *argv]) == 2
        assert "error" in capsys.readouterr().err


class TestExperiment:
    def test_table1_by_id(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_rejects_unknown_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestDDPlan:
    def test_prints_staged_plan(self, capsys):
        assert main(["ddplan", "--setup", "apertif", "--max-dm", "50"]) == 0
        out = capsys.readouterr().out
        assert "DDplan for Apertif" in out
        assert "total:" in out

    def test_unknown_setup_fails(self, capsys):
        assert main(["ddplan", "--setup", "ska"]) == 2


class TestSurvey:
    def test_runs_scenario_survey(self, capsys):
        assert main(["survey", "--beams", "2", "--chunks", "1"]) == 0
        out = capsys.readouterr().out
        assert "survey: giant_pulse_train" in out
        assert "coincidence:" in out
        assert "recall" in out

    def test_backend_both_runs_each_backend(self, capsys):
        assert main(
            ["survey", "--beams", "2", "--chunks", "1", "--backend", "both"]
        ) == 0
        out = capsys.readouterr().out
        assert "(tiled backend)" in out
        assert "(vectorized backend)" in out

    def test_backend_both_rejects_a_ledger(self, capsys, tmp_path):
        assert main(
            [
                "survey", "--backend", "both",
                "--ledger", str(tmp_path / "s.jsonl"),
            ]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_ledger_crash_then_resume(self, capsys, tmp_path):
        ledger = tmp_path / "survey.jsonl"
        args = ["survey", "--beams", "4", "--scenario", "rfi_storm",
                "--ledger", str(ledger)]
        assert main(args + ["--crash-after", "2"]) == 2
        assert "injected survey crash" in capsys.readouterr().err
        assert main(args + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out

    def test_inject_reports_fleet_faults(self, capsys):
        # One of the fleet's three devices crashes; the survivors retry
        # and requeue its shards and the survey still completes.
        assert main(["survey", "--inject", "--beams", "16"]) == 0
        out = capsys.readouterr().out
        match = re.search(
            r"fleet faults: (\d+) crashed worker\(s\), (\d+) retries, "
            r"(\d+) requeues",
            out,
        )
        assert match, out
        crashed, retries, requeues = map(int, match.groups())
        assert crashed == 1
        assert retries > 0
        assert requeues > 0
        assert "recall 1.00" in out


class TestExport:
    def test_experiment_export(self, capsys, tmp_path):
        assert main(
            ["experiment", "table1", "--export", str(tmp_path)]
        ) == 0
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table1.json").exists()


class TestSearch:
    ARGS = [
        "search",
        "--dms", "16",
        "--samples", "500",
        "--chunks", "2",
    ]

    def test_recovers_injected_candidate(self, capsys):
        assert main(self.ARGS + ["--backend", "vectorized"]) == 0
        out = capsys.readouterr().out
        assert "search:" in out
        assert "candidates:" in out
        assert "recovery [vectorized]: CORRECT" in out

    def test_both_backends_agree(self, capsys):
        assert main(self.ARGS + ["--backend", "both"]) == 0
        out = capsys.readouterr().out
        assert "recovery [tiled]: CORRECT" in out
        assert "recovery [vectorized]: CORRECT" in out

    def test_unknown_setup_fails_cleanly(self, capsys):
        assert main(["search", "--setup", "ska"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--chunks", "0"),
            ("--chunks", "-1"),
            ("--dm-step", "0"),
            ("--dm-step", "-1"),
            ("--dm-step", "nan"),
            ("--dm-step", "inf"),
        ],
    )
    def test_bad_stream_flags_fail_before_tuning(self, flag, value, capsys):
        assert main(["search", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} must be")
        assert captured.out == ""


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["study"],
            ["ablate"],
            ["demo"],
            ["obs", "export", "--format", "jsonl"],
        ],
        ids=["study", "ablate", "demo", "obs-export-jsonl"],
    )
    def test_retired_subcommands_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestTuneSaveLoad:
    def test_save_then_load_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        assert main(
            ["tune", "--device", "HD7970", "--dms", "32", "--save", str(path)]
        ) == 0
        assert path.exists()
        out_saved = capsys.readouterr().out

        assert main(
            ["tune", "--device", "HD7970", "--dms", "32", "--load", str(path)]
        ) == 0
        out_loaded = capsys.readouterr().out
        # The loaded sweep reports the same optimum.
        saved_line = [l for l in out_saved.splitlines() if "optimum:" in l]
        loaded_line = [l for l in out_loaded.splitlines() if "optimum:" in l]
        assert saved_line == loaded_line

    def test_load_reports_the_sweep_not_the_flags(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        saved = ["tune", "--device", "K20", "--setup", "lofar", "--dms", "64"]
        assert main([*saved, "--save", str(path)]) == 0
        out_saved = capsys.readouterr().out
        # The flags default to HD7970, Apertif and 1 024 DMs.
        assert main(["tune", "--load", str(path)]) == 0
        out_loaded = capsys.readouterr().out
        assert "device : K20" in out_loaded
        assert "setup  : LOFAR" in out_loaded
        assert "grid   : 64 DMs, step 0.25" in out_loaded
        # Real time is judged against LOFAR at 64 DMs, as when saved.
        needs = [l for l in out_saved.splitlines() if "real-time" in l]
        assert needs == [
            l for l in out_loaded.splitlines() if "real-time" in l
        ]
        assert out_loaded == out_saved.split("\n", 1)[1]

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read sweep at {path}: No such file"),
            ("{not json", "sweep at {path} is not JSON"),
            ('{"schema": 2}', "sweep at {path} has no 'device' field"),
        ],
        ids=["missing", "not-json", "no-field"],
    )
    def test_unreadable_sweep_fails_cleanly(
        self, capsys, tmp_path, content, message
    ):
        path = tmp_path / "sweep.json"
        if content is not None:
            path.write_text(content)
        assert main(["tune", "--load", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=path))


class TestScenarios:
    def test_list_prints_catalogue(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "clean_pulse" in out
        assert "hostile_tuning" in out
        assert "setups: low, high" in out

    def test_run_single_cell(self, capsys):
        code = main([
            "scenarios", "run",
            "--scenario", "noise_floor",
            "--setups", "low",
            "--backend", "tiled",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "noise_floor" in out and "PASS" in out

    def test_record_then_check_with_bench(self, capsys, tmp_path):
        goldens = tmp_path / "goldens"
        bench = tmp_path / "BENCH_scenarios.json"
        assert main([
            "scenarios", "record",
            "--scenario", "noise_floor",
            "--setups", "low",
            "--goldens", str(goldens),
        ]) == 0
        capsys.readouterr()
        assert (goldens / "low" / "noise_floor.json").exists()
        assert main([
            "scenarios", "check",
            "--scenario", "noise_floor",
            "--setups", "low",
            "--goldens", str(goldens),
            "--bench", str(bench),
        ]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        document = json.loads(bench.read_text())
        assert document["bench"] == "scenarios"
        assert document["passed"]

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["scenarios", "run", "--scenario", "warp_core"]) == 2
        assert "error" in capsys.readouterr().err

    def test_check_without_goldens_fails_cleanly(self, capsys, tmp_path):
        assert main([
            "scenarios", "check",
            "--scenario", "noise_floor",
            "--setups", "low",
            "--goldens", str(tmp_path / "absent"),
        ]) == 2
        assert "repro scenarios record" in capsys.readouterr().err
