"""End-to-end reproduce-all: artifacts, stamps, byte-identical --from-store."""

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import cli
from repro.experiments.security62 import (
    PAPER_COLLISION_PROBABILITY,
    PAPER_PER_INTERVAL_NO_RESET,
    PAPER_REPLAY_SUCCESS,
)
from repro.report.artifacts import load_artifact_registry
from repro.report.provenance import parse_footer
from repro.report.reproduce import (
    DATA_FORMAT,
    ReproductionError,
    base_context,
    reproduce_all,
)
from repro.report.validate import validate_results_dir
from repro.sim.store import code_fingerprint
from repro.workloads.registry import BENCHMARKS

#: The tiny cold run every test here shares; the seed is not the default
#: one, so a path that drops ``--seed`` cannot match it.
TINY = dict(benchmarks=("bsw",), num_accesses=1500, seed=7)

#: The same run as ``repro <name>`` flags.
TINY_FLAGS = ["--benchmarks", "bsw", "--accesses", "1500", "--seed", "7"]


@contextmanager
def stable_cwd(path):
    """load_bench_records() globs BENCH_*.json in the cwd, so byte-identity
    between two runs only holds if both run from the same directory."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def tree_digests(out_dir: Path):
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """One tiny cold reproduce-all shared by every test in this module."""
    root = tmp_path_factory.mktemp("reproduce")
    out = root / "results"
    messages = []
    with stable_cwd(root):
        report = reproduce_all(tier="quick", out_dir=out, progress=messages.append, **TINY)
    return root, out, report, messages


class TestColdRun:
    def test_every_registered_artifact_reproduced(self, cold_run):
        _, _, report, _ = cold_run
        assert [a.name for a in report.artifacts] == [
            s.name for s in load_artifact_registry()
        ]

    def test_files_exist_and_stamps_validate(self, cold_run):
        _, _, report, _ = cold_run
        fingerprint = code_fingerprint()
        for artifact in report.artifacts:
            assert artifact.data_path.exists() and artifact.text_path.exists()
            artifact.stamp.validate(expect_fingerprint=fingerprint)
            assert artifact.stamp.tier == "quick"
            assert artifact.stamp.params["benchmarks"] == ["bsw"]
            assert artifact.stamp.params["num_accesses"] == 1500

    def test_text_trailer_round_trips_to_the_stamp(self, cold_run):
        _, _, report, _ = cold_run
        for artifact in report.artifacts:
            assert parse_footer(artifact.text_path.read_text()) == artifact.stamp

    def test_manifest_lists_everything(self, cold_run):
        _, _, report, _ = cold_run
        manifest = json.loads(report.manifest_path.read_text())
        assert manifest["format"] == DATA_FORMAT and manifest["tier"] == "quick"
        assert [e["name"] for e in manifest["artifacts"]] == [
            a.name for a in report.artifacts
        ]

    def test_index_html_has_a_section_per_artifact(self, cold_run):
        _, _, report, _ = cold_run
        html = report.index_path.read_text()
        for artifact in report.artifacts:
            assert f'id="{artifact.name}"' in html
        assert 'id="perf-trajectory"' in html

    def test_validator_accepts_the_output(self, cold_run):
        _, out, _, _ = cold_run
        assert validate_results_dir(out) == []

    def test_progress_messages_cover_every_artifact(self, cold_run):
        _, _, report, messages = cold_run
        joined = "\n".join(messages)
        for artifact in report.artifacts:
            assert artifact.name in joined

    def test_space_figures_share_one_store_entry(self, cold_run):
        """figs 10-12 declare identical budgets, so one space study (and one
        store entry) serves all three -- their stamps must agree."""
        _, _, report, _ = cold_run
        keys = {
            a.name: a.stamp.store_keys
            for a in report.artifacts
            if a.name in ("fig10", "fig11", "fig12")
        }
        assert len(keys) == 3
        assert len(set(keys.values())) == 1
        assert all("-" in key for key in keys["fig10"])

    def test_columns_keep_the_data_stages_order(self, cold_run):
        """Payloads keep the key order their data stage built, so a table
        whose columns come from its rows is not alphabetised."""
        _, _, report, _ = cold_run
        headers = {a.name: a.text.splitlines()[1] for a in report.artifacts}
        assert headers["table1"].startswith("Scheme")
        assert headers["sec62"].startswith("quantity")


class TestOnePath:
    """``repro <name>`` is reproduce-all's per-artifact step, run alone."""

    @pytest.mark.parametrize("name", [spec.name for spec in load_artifact_registry()])
    def test_the_command_prints_the_reproduced_text(self, cold_run, name, capsys):
        _, out, report, _ = cold_run
        (artifact,) = [a for a in report.artifacts if a.name == name]
        assert cli.main([name, *TINY_FLAGS]) == 0
        printed = capsys.readouterr().out
        assert printed == artifact.text
        assert (out / f"{name}.txt").read_text() == printed + "\n" + artifact.stamp.footer()

    def test_the_seed_reaches_the_artifact(self, cold_run, capsys):
        _, _, report, _ = cold_run
        (fig9,) = [a for a in report.artifacts if a.name == "fig9"]
        flags = [flag if flag != "7" else "1234" for flag in TINY_FLAGS]
        assert cli.main(["fig9", *flags]) == 0
        assert capsys.readouterr().out != fig9.text


class TestPaperConstantsOnTheArtifacts:
    """The paper's numbers the code cites, pinned on the published payloads
    (what ``results/data/*.json`` carries), not only on module functions."""

    @staticmethod
    def payload(cold_run, name):
        _, _, report, _ = cold_run
        (artifact,) = [a for a in report.artifacts if a.name == name]
        return artifact.payload

    def test_sec62_paper_column(self, cold_run):
        rows = self.payload(cold_run, "sec62")["rows"]
        paper = [float(row["paper"]) for row in rows]
        assert paper == pytest.approx(
            [PAPER_REPLAY_SUCCESS, PAPER_PER_INTERVAL_NO_RESET, PAPER_COLLISION_PROBABILITY],
            rel=5e-3,
        )
        assert (PAPER_REPLAY_SUCCESS, PAPER_PER_INTERVAL_NO_RESET, PAPER_COLLISION_PROBABILITY) == (
            2.0 ** -27, 1.6e-26, 1.7e-19,
        )

    def test_table2_paper_columns(self, cold_run):
        rows = self.payload(cold_run, "table2")["rows"]
        assert [row["bench"] for row in rows] == ["bsw"]
        for row in rows:
            info = BENCHMARKS[row["bench"]]
            assert (row["paper_rss_gb"], row["paper_mpki"]) == (info.rss_gb, info.llc_mpki)
        assert (rows[0]["paper_rss_gb"], rows[0]["paper_mpki"]) == (11.7, 1.21)
        assert BENCHMARKS["pr"].llc_mpki == 133.98

    def test_table4_reference_ratios(self, cold_run):
        ratios = {
            row["representation"]: row["data_to_version_ratio"]
            for row in self.payload(cold_run, "table4")["reference"]
        }
        assert ratios["Client SGX (Leaf)"] == pytest.approx(9.14, abs=0.01)
        assert ratios["VAULT (Leaf)"] == pytest.approx(64.0)
        assert ratios["MorphCtr-128 (Leaf)"] == pytest.approx(128.0)
        assert ratios["Toleo Stealth Flat"] == pytest.approx(341.3, abs=0.5)
        assert ratios["Toleo Stealth Avg."] == pytest.approx(240, abs=1)


class TestFromStore:
    def test_from_store_rerun_is_byte_identical(self, cold_run):
        root, out, _, _ = cold_run
        before = tree_digests(out)
        with stable_cwd(root):
            report = reproduce_all(tier="quick", out_dir=out, from_store=True, **TINY)
        assert all(a.from_store for a in report.artifacts)
        assert tree_digests(out) == before

    def test_from_store_without_data_is_a_clean_error(self, tmp_path):
        with stable_cwd(tmp_path):
            with pytest.raises(ReproductionError, match="no precomputed data"):
                reproduce_all(tier="quick", out_dir=tmp_path / "empty", from_store=True)

    def test_from_store_rejects_mislabelled_data_file(self, cold_run, tmp_path):
        root, out, _, _ = cold_run
        clone = tmp_path / "results"
        (clone / "data").mkdir(parents=True)
        first = load_artifact_registry()[0].name
        stolen = json.loads((out / "data" / f"{first}.json").read_text())
        stolen["artifact"] = "something-else"
        (clone / "data" / f"{first}.json").write_text(json.dumps(stolen))
        with stable_cwd(tmp_path):
            with pytest.raises(ReproductionError, match="claims artifact"):
                reproduce_all(tier="quick", out_dir=clone, from_store=True)


class TestBaseContext:
    def test_unknown_tier_rejected(self):
        with pytest.raises(ReproductionError, match="unknown tier"):
            base_context("leisurely")

    def test_tier_defaults_and_overrides(self):
        quick = base_context("quick")
        assert quick.tier == "quick" and len(quick.benchmarks) == 4
        full = base_context("full")
        assert len(full.benchmarks) == 12
        assert full.num_accesses > quick.num_accesses
        tiny = base_context("quick", benchmarks=["bsw"], num_accesses=99)
        assert tiny.benchmarks == ("bsw",) and tiny.num_accesses == 99


class TestValidatorDetectsDamage:
    def test_missing_text_file_reported(self, cold_run, tmp_path):
        import shutil

        _, out, _, _ = cold_run
        damaged = tmp_path / "damaged"
        shutil.copytree(out, damaged)
        (damaged / "fig6.txt").unlink()
        problems = validate_results_dir(damaged)
        assert any("fig6" in p for p in problems)

    def test_foreign_fingerprint_reported(self, cold_run, tmp_path):
        import shutil

        _, out, _, _ = cold_run
        damaged = tmp_path / "stale"
        shutil.copytree(out, damaged)
        data_path = damaged / "data" / "table1.json"
        envelope = json.loads(data_path.read_text())
        envelope["provenance"]["source_fingerprint"] = "0" * 64
        data_path.write_text(json.dumps(envelope))
        problems = validate_results_dir(damaged)
        assert any("table1" in p for p in problems)
        assert validate_results_dir(damaged, check_fingerprint=False) != problems
