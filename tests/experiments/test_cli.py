"""Tests for the toleo-repro command-line interface."""

import json

import pytest

from repro import cli
from repro.experiments.report import format_table
from repro.report import artifacts
from repro.report.artifacts import ArtifactSpec, load_artifact_registry, register_artifact


class TestParser:
    def test_list_command(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "table4", "fig6", "fig10", "sec62"):
            assert name in out

    def test_unknown_experiment_rejected(self):
        for name in ("not-an-experiment", "all"):  # 'all' is reproduce-all now
            with pytest.raises(SystemExit):
                cli.main([name])

    def test_every_registered_artifact_is_a_command(self):
        parser = cli.build_parser()
        for spec in load_artifact_registry():
            assert parser.parse_args([spec.name]).experiment == spec.name

    def test_a_runtime_registered_artifact_is_a_command(self, monkeypatch, capsys):
        # A private copy of the registry, so the throwaway spec leaves with it.
        monkeypatch.setattr(artifacts, "_REGISTRY", dict(artifacts._REGISTRY))
        register_artifact(
            ArtifactSpec(
                name="throwaway",
                kind="analysis",
                title="Throwaway artifact",
                description="Registered at runtime",
                data=lambda ctx: {
                    "payload": {"rows": [{"seed": ctx.seed, "accesses": ctx.num_accesses}]}
                },
                render=lambda payload: format_table(payload["rows"], title="Throwaway"),
            )
        )
        assert cli.main(["list"]) == 0
        assert "throwaway    Throwaway artifact" in capsys.readouterr().out
        assert cli.main(["throwaway", "--seed", "7", "--accesses", "99"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split() == ["7", "99"]

    def test_jobs_flag_parsed(self):
        args = cli.build_parser().parse_args(["bench", "--jobs", "4"])
        assert args.jobs == 4
        args = cli.build_parser().parse_args(["bench", "-j", "0"])
        assert args.jobs == 0

    def test_jobs_defaults_to_serial(self):
        args = cli.build_parser().parse_args(["fig6"])
        assert args.jobs == 1
        assert args.no_cache is False

    def test_no_cache_flag_parsed(self):
        args = cli.build_parser().parse_args(["bench", "--no-cache"])
        assert args.no_cache is True

    def test_reproduce_all_flags_parsed(self):
        args = cli.build_parser().parse_args(["reproduce-all", "--from-store"])
        assert args.experiment == "reproduce-all"
        assert args.from_store is True
        assert args.accesses is None  # tier budgets decide unless given

    def test_from_store_requires_reproduce_all(self):
        with pytest.raises(SystemExit):
            cli.main(["bench", "--from-store"])

    def test_quick_and_full_are_exclusive(self):
        with pytest.raises(SystemExit):
            cli.main(["reproduce-all", "--quick", "--full"])

    @pytest.mark.parametrize(
        "argv, message",
        (
            (
                ["bench", "--accesses", "500", "--param", "options.memory_level_parallelism=1,8"],
                "--param only applies to sweep",
            ),
            (["table3", "--shard-size", "100"], "--shard-size only applies to bench and sweep"),
            (["table3", "--modes", "CI"], "--modes only applies to bench and sweep"),
        ),
        ids=("param", "shard-size", "modes"),
    )
    def test_a_flag_outside_its_commands_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


class TestBenchmarkResolution:
    def test_explicit_benchmarks_win(self):
        args = cli.build_parser().parse_args(["bench", "--benchmarks", "bsw", "pr"])
        assert cli._resolve_benchmarks(args) == ("bsw", "pr")

    def test_full_flag_selects_all_twelve(self):
        args = cli.build_parser().parse_args(["bench", "--full"])
        assert len(cli._resolve_benchmarks(args)) == 12

    def test_default_is_quick_subset(self):
        args = cli.build_parser().parse_args(["bench"])
        assert 0 < len(cli._resolve_benchmarks(args)) < 12


class TestRendering:
    def test_static_experiment_prints_table(self, capsys):
        assert cli.main(["table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_simulated_experiment_with_tiny_run(self, capsys):
        assert cli.main(["fig7", "--benchmarks", "bsw", "--accesses", "3000"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out and "bsw" in out

    def test_output_directory(self, tmp_path, capsys):
        assert (
            cli.main(["table3", "--out", str(tmp_path)]) == 0
        )
        path = tmp_path / "table3.txt"
        assert path.exists()
        assert "Table 3" in path.read_text()

    def test_sec62_static_render(self, capsys):
        assert cli.main(["sec62"]) == 0
        assert "Section 6.2" in capsys.readouterr().out

    def test_ablations_render_with_tiny_run(self, capsys):
        assert cli.main(
            ["ablations", "--benchmarks", "memcached", "--accesses", "3000"]
        ) == 0
        out = capsys.readouterr().out
        assert "ablation" in out.lower()


class TestReproduceAll:
    def test_tiny_reproduce_all_end_to_end(self, tmp_path, capsys, monkeypatch):
        # reproduce-all reads BENCH_*.json from the cwd; pin it so the run is
        # hermetic regardless of where pytest was launched.
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "results"
        assert cli.main(
            ["reproduce-all", "--benchmarks", "bsw", "--accesses", "1200",
             "--scale", "0.004", "--out", str(out)]
        ) == 0
        stdout = capsys.readouterr().out
        assert "artifacts (quick tier)" in stdout
        assert (out / "index.html").exists()
        assert (out / "data" / "fig6.json").exists()
        # --scale overrides every artifact's budget, the space figures' too.
        manifest = json.loads((out / "manifest.json").read_text())
        scales = {e["name"]: e["provenance"]["params"]["scale"] for e in manifest["artifacts"]}
        assert set(scales.values()) == {0.004} and "fig10" in scales

        # --from-store re-render over the data just written: zero simulation.
        assert cli.main(
            ["reproduce-all", "--from-store", "--benchmarks", "bsw",
             "--accesses", "1200", "--out", str(out)]
        ) == 0
        assert "from store" in capsys.readouterr().out

    def test_from_store_without_data_is_a_clean_error(self, tmp_path, capsys):
        assert cli.main(
            ["reproduce-all", "--from-store", "--out", str(tmp_path / "nothing")]
        ) == 2
        err = capsys.readouterr().err
        assert "no precomputed data" in err and "Traceback" not in err


class TestList:
    def test_list_shows_benchmarks_with_descriptions(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "benchmarks" in out
        assert "GAP/graph" in out  # one-line benchmark description

    def test_list_shows_modes_with_descriptions(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "protection modes" in out
        for label in ("NoProtect", "Toleo", "CIF-Tree", "Client-SGX"):
            assert label in out
        assert "counter-tree freshness" in out

    def test_list_shows_registry_only_variants(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for label in ("Vault-Tree", "Scalable-SGX", "Toleo+Tree"):
            assert label in out


class TestModesFilter:
    def test_bench_modes_filter(self, capsys):
        assert cli.main(
            ["bench", "--benchmarks", "hyrise", "--accesses", "3000",
             "--modes", "CI", "Toleo"]
        ) == 0
        out = capsys.readouterr().out
        assert "CI" in out and "Toleo" in out
        assert "InvisiMem" not in out

    def test_bench_new_modes_simulate(self, capsys):
        assert cli.main(
            ["bench", "--benchmarks", "hyrise", "--accesses", "3000",
             "--modes", "CIF-Tree", "Client-SGX"]
        ) == 0
        out = capsys.readouterr().out
        assert "CIF-Tree" in out and "Client-SGX" in out

    def test_bench_variant_modes_simulate(self, capsys):
        # Registry-only modes (no enum member) are first-class on the CLI.
        assert cli.main(
            ["bench", "--benchmarks", "hyrise", "--accesses", "3000",
             "--modes", "Vault-Tree", "Scalable-SGX", "Toleo+Tree"]
        ) == 0
        out = capsys.readouterr().out
        for label in ("Vault-Tree", "Scalable-SGX", "Toleo+Tree"):
            assert label in out

    def test_unknown_mode_is_a_clean_error(self, capsys):
        assert cli.main(
            ["bench", "--benchmarks", "hyrise", "--modes", "nope"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown protection mode" in err and "Traceback" not in err

    def test_unknown_mode_error_lists_available_labels(self, capsys):
        assert cli.main(
            ["bench", "--benchmarks", "hyrise", "--modes", "nope"]
        ) == 2
        err = capsys.readouterr().err
        # The message doubles as discovery: every registered label is shown,
        # including registry-only variants.
        for label in ("NoProtect", "CI", "Toleo", "CIF-Tree", "Vault-Tree", "Toleo+Tree"):
            assert label in err

    def test_sweep_unknown_mode_lists_available_labels(self, capsys):
        assert cli.main(
            ["sweep", "--param", "scale=0.001", "--modes", "Tolio"]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown protection mode 'Tolio'" in err
        assert "Toleo" in err and "Traceback" not in err


class TestSweep:
    def test_sweep_two_point_grid(self, capsys):
        assert cli.main(
            ["sweep", "--param", "options.memory_level_parallelism=2,8",
             "--benchmarks", "hyrise", "--modes", "CI", "--accesses", "3000"]
        ) == 0
        out = capsys.readouterr().out
        assert "Parameter sweep" in out
        assert "options.memory_level_parallelism=2" in out
        assert "options.memory_level_parallelism=8" in out
        assert "2 grid points" in out

    def test_sweep_requires_params(self, capsys):
        assert cli.main(["sweep"]) == 2
        assert "--param" in capsys.readouterr().err

    def test_sweep_unknown_axis_is_a_clean_error(self, capsys):
        assert cli.main(["sweep", "--param", "bogus=1,2"]) == 2
        err = capsys.readouterr().err
        assert "unknown sweep axis" in err and "Traceback" not in err

    def test_sweep_bad_axis_value_is_a_clean_error(self, capsys):
        assert cli.main(["sweep", "--param", "scale=big"]) == 2
        err = capsys.readouterr().err
        assert "needs float values" in err and "Traceback" not in err


class TestBench:
    def test_unknown_benchmark_is_a_clean_error(self, capsys):
        assert cli.main(["bench", "--benchmarks", "nope", "--accesses", "1000"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark" in err and "Traceback" not in err

    def test_unknown_benchmark_in_experiment_is_a_clean_error(self, capsys):
        assert cli.main(["fig6", "--benchmarks", "nope", "--accesses", "1000"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bench_listed(self, capsys):
        assert cli.main(["list"]) == 0
        assert "bench" in capsys.readouterr().out.split()

    def test_bench_serial(self, capsys):
        assert cli.main(["bench", "--benchmarks", "hyrise", "--accesses", "3000"]) == 0
        out = capsys.readouterr().out
        assert "hyrise" in out
        assert "NoProtect" in out and "Toleo" in out
        assert "wall time" in out

    def test_bench_parallel_matches_serial(self, capsys):
        assert cli.main(
            ["bench", "--benchmarks", "bsw", "--accesses", "3000", "--no-cache"]
        ) == 0
        serial_table = capsys.readouterr().out.splitlines()
        assert cli.main(
            ["bench", "--benchmarks", "bsw", "--accesses", "3000", "--no-cache",
             "--jobs", "2"]
        ) == 0
        parallel_table = capsys.readouterr().out.splitlines()
        # Identical slowdown rows; only the wall-time/flags footer may differ.
        assert serial_table[:6] == parallel_table[:6]

    def test_bench_second_call_served_from_store(self, capsys):
        args = ["bench", "--benchmarks", "hyrise", "--accesses", "3100"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first.splitlines()[:6] == second.splitlines()[:6]


class TestStoreCommand:
    @pytest.fixture
    def own_store(self, tmp_path, monkeypatch):
        """Point the default store at a private directory for the test."""
        from repro.sim.store import set_default_store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        set_default_store(None)
        yield tmp_path
        set_default_store(None)

    def test_store_listed(self, capsys):
        assert cli.main(["list"]) == 0
        assert "store" in capsys.readouterr().out.split()

    def test_store_action_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["bench", "gc"])

    def test_kind_filter_requires_store(self):
        with pytest.raises(SystemExit):
            cli.main(["bench", "--kind", "suite"])

    def test_stats_on_empty_store(self, own_store, capsys):
        assert cli.main(["store", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries         0" in out
        assert str(own_store) in out

    def test_stats_is_the_default_action(self, own_store, capsys):
        assert cli.main(["store"]) == 0
        assert "entries" in capsys.readouterr().out

    def test_ls_and_stats_after_a_run(self, own_store, capsys):
        # --jobs 2 takes the parallel path, whose distillation pre-pass
        # persists the events entries (the serial path distills in-process).
        assert cli.main(
            ["bench", "--benchmarks", "hyrise", "--accesses", "3000", "--jobs", "2"]
        ) == 0
        capsys.readouterr()
        assert cli.main(["store", "ls"]) == 0
        listing = capsys.readouterr().out
        assert "suite-" in listing and "events-" in listing
        assert cli.main(["store", "ls", "--kind", "suite"]) == 0
        suites_only = capsys.readouterr().out
        assert "suite-" in suites_only and "events-" not in suites_only
        assert cli.main(["store", "stats"]) == 0
        stats = capsys.readouterr().out
        assert "suite" in stats and "events" in stats

    def test_gc_keeps_fresh_entries(self, own_store, capsys):
        assert cli.main(["bench", "--benchmarks", "hyrise", "--accesses", "3000"]) == 0
        capsys.readouterr()
        assert cli.main(["store", "gc"]) == 0
        out = capsys.readouterr().out
        assert "dropped 0 stale entries" in out
        # The store still serves the suite after compaction.
        assert cli.main(["store", "ls", "--kind", "suite"]) == 0
        assert "suite-" in capsys.readouterr().out

    def test_sweep_footer_reports_store_index(self, own_store, capsys):
        assert cli.main(
            ["sweep", "--param", "scale=0.002", "--benchmarks", "hyrise",
             "--modes", "CI", "--accesses", "3000"]
        ) == 0
        out = capsys.readouterr().out
        assert "store index:" in out and "suite entries" in out
