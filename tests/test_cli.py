"""Tests for the command-line interface."""

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


class TestAblate:
    def test_reports_every_variant(self, capsys, tmp_path):
        out_path = tmp_path / "ablation.json"
        code = main(
            ["ablate", "--strategy", "model-guided", "--devices", "HD7970",
             "--setups", "lofar", "--instances", "64",
             "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        for variant in ("full", "no-prior", "no-surrogate", "no-ascent"):
            assert variant in out
        assert "optimum match" in out
        assert out_path.exists()

    def test_bad_instances_fail_cleanly(self, capsys):
        assert main(
            ["ablate", "--instances", "sixty-four"]
        ) == 2
        assert "error" in capsys.readouterr().err


class TestStudy:
    def test_runs_flag_built_study(self, capsys, tmp_path):
        out_path = tmp_path / "study.json"
        code = main(
            ["study", "--title", "smoke", "--devices", "HD7970",
             "--setups", "lofar", "--instances", "64",
             "--strategies", "model-guided", "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert "HD7970:lofar:64:model-guided" in out
        assert out_path.exists()

    def test_runs_config_file_study(self, capsys, tmp_path):
        import json

        from repro.tune import StudyConfig

        config = StudyConfig(
            title="from-file", devices=("HD7970",), setups=("lofar",),
            instances=(64,), strategies=("halving",),
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert main(["study", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "from-file" in out
        assert "halving" in out


class TestService:
    def test_serves_concurrent_tenants_and_prints_stats(self, capsys):
        code = main([
            "service",
            "--instances", "16,32",
            "--tenants", "2",
            "--load", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweeps executed" in out
        assert "hit rate" in out
        assert "16 DMs" in out and "32 DMs" in out
        assert "tenant tenant0" in out and "tenant tenant1" in out

    def test_single_tenant_single_request(self, capsys):
        code = main([
            "service",
            "--instances", "16",
            "--tenants", "1",
            "--load", "1",
            "--no-smoke",
        ])
        assert code == 0
        assert "sweeps executed" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--clients", "--requests"])
    def test_retired_flag_spellings_rejected(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["service", "--instances", "16", flag, "1", "--no-smoke"])
        assert excinfo.value.code == 2

    def test_warm_up_reports_each_instance(self, capsys):
        code = main([
            "service",
            "--instances", "16,32",
            "--tenants", "1",
            "--load", "1",
            "--warm-up",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "warm-up" in out
        assert "[warm" in out  # the second instance warm-started

    def test_store_dir_persists_sweeps(self, tmp_path, capsys):
        argv = [
            "service",
            "--instances", "16",
            "--tenants", "1",
            "--load", "1",
            "--store", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        import re

        assert re.search(r"cache hits \(disk\)\s*: 1\b", out)

    def test_admission_throttles_under_load(self, capsys):
        code = main([
            "service",
            "--instances", "16",
            "--tenants", "2",
            "--load", "4",
            "--admission-rate", "0.001",
            "--admission-burst", "1",
            "--no-smoke",
        ])
        assert code == 0
        out = capsys.readouterr().out
        import re

        match = re.search(r"(\d+) throttled;", out)
        assert match and int(match.group(1)) > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--instances", ""],
            ["--instances", "16", "--load", "0"],
            ["--instances", "16", "--tenants", "0"],
            ["--instances", "16", "--admission-rate", "1",
             "--admission-burst", "nan"],
        ],
        ids=["no-instances", "zero-load", "zero-tenants", "nan-burst"],
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


class TestDemo:
    def test_demo_detects_pulsar(self, capsys):
        assert main(["demo", "--dms", "8"]) == 0
        out = capsys.readouterr().out
        assert "CORRECT" in out


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


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


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
        import json

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
