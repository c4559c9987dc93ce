"""Tests for the HTML report's benchmark-record loading and rendering."""

import json
import re
from pathlib import Path

from repro.report.htmlreport import _bench_section, load_bench_records


def _write_record(root, name, wall=1.0):
    (root / name).write_text(json.dumps({"wall_seconds": wall}))


class TestBenchRecordOrdering:
    def test_numeric_pr_order_not_lexicographic(self, tmp_path):
        # Lexicographically BENCH_PR10 sorts before BENCH_PR5; the perf
        # trajectory must follow the numeric PR suffix instead.
        for name in ("BENCH_PR10.json", "BENCH_PR5.json", "BENCH_PR7.json"):
            _write_record(tmp_path, name)
        records = load_bench_records(tmp_path)
        assert [r["_file"] for r in records] == [
            "BENCH_PR5.json",
            "BENCH_PR7.json",
            "BENCH_PR10.json",
        ]

    def test_unnumbered_records_sort_after_numbered_by_name(self, tmp_path):
        for name in ("BENCH_PR12.json", "BENCH_baseline.json", "BENCH_PR2.json"):
            _write_record(tmp_path, name)
        records = load_bench_records(tmp_path)
        assert [r["_file"] for r in records] == [
            "BENCH_PR2.json",
            "BENCH_PR12.json",
            "BENCH_baseline.json",
        ]

    def test_unreadable_record_skipped(self, tmp_path):
        _write_record(tmp_path, "BENCH_PR5.json")
        (tmp_path / "BENCH_PR6.json").write_text("{ not json")
        records = load_bench_records(tmp_path)
        assert [r["_file"] for r in records] == ["BENCH_PR5.json"]


ROOT = Path(__file__).resolve().parents[2]

#: A paired record in the shape ``bench/run.py`` comparisons are committed in.
PAIRED = {
    "_file": "BENCH_PR99.json",
    "pairs": {
        "suite-writes": {
            "wall_s": {
                "unit": "s",
                "parent": {"median": 6.0, "q1": 5.5, "q3": 6.5},
                "change": {"median": 3.0, "q1": 2.9, "q3": 3.1},
                "wins": 10,
                "n": 10,
            },
        },
    },
    "traced": {
        "suite-writes": {
            "core.toleo_update_us.p8k": {"unit": "us", "parent": 2500.0, "change": 12.5},
        },
    },
}


OLD_RECORDS = ("BENCH_PR5.json", "BENCH_PR7.json")

#: BENCH_PR7.json's rows as the pass table rendered them before paired
#: records existed.
OLD_ROWS = (
    "<tr><td>BENCH_PR7.json</td><td>undistilled</td><td>10.687</td>"
    "<td>replay 10.687s</td><td>74,857</td><td></td></tr>",
    "<tr><td>BENCH_PR7.json</td><td>distilled</td><td>3.071</td>"
    "<td>distill 0.288s + replay 2.783s</td><td>260,501</td><td>3.48x</td></tr>",
    "<tr><td>BENCH_PR7.json</td><td>vectorized</td><td>1.846</td>"
    "<td>distill 0.12s + mac_tier 0.028s + replay 1.698s</td><td>433,369</td>"
    "<td>5.79x</td></tr>",
)


def _tables(html):
    return re.findall(r'<table class="bench">.*?</table>', html, flags=re.S)


class TestBenchSection:
    def test_paired_record_renders_workload_metric_rows(self):
        html = _bench_section([PAIRED])
        assert len(_tables(html)) == 1
        rows = re.findall(r"<tr><td>.*?</tr>", html)
        assert rows == [
            "<tr><td>BENCH_PR99.json</td><td>suite-writes</td><td>wall_s (s)</td>"
            "<td>6 [5.5, 6.5]</td><td>3 [2.9, 3.1]</td><td>-50.0%</td>"
            "<td>10/10</td></tr>",
            "<tr><td>BENCH_PR99.json</td><td>suite-writes (traced)</td>"
            "<td>core.toleo_update_us.p8k (us)</td><td>2500</td><td>12.5</td>"
            "<td>-99.5%</td><td></td></tr>",
        ]

    def test_pass_records_rows_unchanged_beside_a_paired_record(self):
        old = [r for r in load_bench_records(ROOT) if r["_file"] in OLD_RECORDS]
        assert [r["_file"] for r in old] == list(OLD_RECORDS)
        alone = _tables(_bench_section(old))
        beside = _tables(_bench_section(old + [PAIRED]))
        assert len(alone) == 1 and len(beside) == 2
        assert beside[0] == alone[0]
        for row in OLD_ROWS:
            assert row in alone[0]

    def test_every_committed_record_renders_rows(self):
        records = load_bench_records(ROOT)
        assert records
        for record in records:
            assert "<tr><td>" in _bench_section([record]), record["_file"]

    def test_record_without_rows_says_so(self):
        html = _bench_section([{"_file": "BENCH_PR1.json", "wall_seconds": 1.0}])
        assert not _tables(html)
        assert "has rows to show" in html

