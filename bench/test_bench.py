"""Smoke test of the host-time benchmark: ``python -m pytest bench/ -q``.

Every workload runs at smoke size, untraced and traced, in well under 90
seconds on a 2-CPU host.  The emitted metric names are compared with
``BENCHMARK.json`` so the two cannot drift apart.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
from plan import ARTIFACTS, MODES, PROFILES, WORKLOADS  # noqa: E402
from tracing import read_jsonl, tail_percentile  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section: str) -> set:
    return {entry["name"] for entry in SPEC[section]}


def run_cli(out: Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "1234",
         "--out", str(out), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((out / "results.json").read_text())
    return {"line": line, "results": results["workloads"]}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return run_cli(tmp_path_factory.mktemp("untraced"), "--repeats", "1")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return {"out": out, **run_cli(out, "--trace")}


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_op_lists_match_the_registries():
    from repro.report.artifacts import load_artifact_registry
    from repro.sim.configs import registered_modes

    assert tuple(spec.name for spec in load_artifact_registry()) == ARTIFACTS
    assert registered_modes() == MODES


def test_untraced_run_emits_declared_metrics_and_fails_nothing(untraced):
    line = untraced["line"]
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] > 0
    for workload in WORKLOADS:
        emitted = set(untraced["results"][workload]["metrics"]) - {"failed_frac"}
        assert emitted == declared("end_to_end")
        assert untraced["results"][workload]["metrics"]["failed_frac"]["value"] == 0
    assert {key.split(".", 1)[1] for key in line["metrics"]} == declared("end_to_end")
    assert all(value["value"] > 0 for value in line["metrics"].values())


def test_traced_run_emits_declared_metrics(traced):
    assert traced["line"]["correct"] is True
    for workload in WORKLOADS:
        result = traced["results"][workload]
        assert set(result["metrics"]) == declared("per_layer")
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
        assert all(NAME.match(name) for name in result["report_metrics"])
    report = traced["results"]["reproduce-quick"]["report_metrics"]
    assert {name for name in report if name.startswith("report.data_s.")} == {
        "report.data_s." + name for name in ARTIFACTS
    }


def test_trace_file_summarizes(traced):
    path = traced["out"] / "trace-suite-reads.jsonl"
    spans = read_jsonl(path)
    ids = {span.id for span in spans}
    assert all(span.parent is None or span.parent in ids for span in spans)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "summarize", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "replay.toleo" in proc.stdout and "store.get" in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 0.5
    assert tail_percentile(100) == 0.9
    assert tail_percentile(1000) == 0.99


def test_corrupted_expected_digest_counts_as_failure():
    plan = PROFILES["smoke"]["suite-writes"]
    pinned = json.loads((BENCH / "expected.json").read_text())["smoke"][plan.name]["1234"]
    corrupted = dict(pinned)
    corrupted[plan.ops[3]] = "0" * 64
    result = bench_run.measure(plan, "smoke", 1234, 1, 0.0, corrupted)
    assert result["failed"] == 1
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite-reads", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
