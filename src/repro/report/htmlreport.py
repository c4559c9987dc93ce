"""Self-contained HTML report assembling every reproduced artifact.

``results/index.html`` is one file with inline CSS and zero external
dependencies (no JS, no fonts, no network): every rendered table/figure as a
monospace block with its provenance stamp, plus the measured performance
trajectory across the committed ``BENCH_*.json`` throughput records.

Determinism contract: the HTML is a pure function of the artifact payloads,
their provenance stamps and the benchmark-record files -- no timestamps, no
environment details, no iteration-order dependence -- so a ``--from-store``
re-render over the same data produces a byte-identical report (asserted by
``tests/report/test_reproduce.py`` and the CI ``reproduce-smoke`` job).
"""

from __future__ import annotations

import json
import re
from html import escape
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.report.provenance import ProvenanceStamp

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif; margin: 0;
       background: #f6f7f9; color: #1f2430; }
main { max-width: 980px; margin: 0 auto; padding: 2rem 1.5rem 4rem; }
h1 { font-size: 1.6rem; margin-bottom: 0.25rem; }
h2 { font-size: 1.2rem; margin-top: 2.5rem; border-bottom: 1px solid #d6dae1;
     padding-bottom: 0.3rem; }
p.sub { color: #5a6472; margin-top: 0; }
table.meta { border-collapse: collapse; font-size: 0.85rem; margin: 0.75rem 0; }
table.meta td { padding: 0.15rem 0.75rem 0.15rem 0; vertical-align: top; }
table.meta td:first-child { color: #5a6472; white-space: nowrap; }
table.bench { border-collapse: collapse; font-size: 0.9rem; margin: 0.75rem 0; }
table.bench th, table.bench td { border: 1px solid #d6dae1; padding: 0.3rem 0.7rem;
     text-align: right; }
table.bench th:first-child, table.bench td:first-child { text-align: left; }
table.bench th { background: #eceff3; }
pre { background: #ffffff; border: 1px solid #d6dae1; border-radius: 6px;
      padding: 0.9rem 1.1rem; overflow-x: auto; font-size: 0.82rem;
      line-height: 1.35; }
details { margin: 0.5rem 0 1.5rem; }
summary { cursor: pointer; color: #5a6472; font-size: 0.85rem; }
code { background: #eceff3; padding: 0.05rem 0.3rem; border-radius: 4px;
       font-size: 0.85em; word-break: break-all; }
nav ul { columns: 2; list-style: none; padding-left: 0; font-size: 0.92rem; }
nav li { margin: 0.2rem 0; }
a { color: #2458c5; text-decoration: none; }
a:hover { text-decoration: underline; }
"""


def _bench_sort_key(path: Path) -> tuple:
    """Chronological order for ``BENCH_*.json`` record files.

    Records are committed one per performance PR (``BENCH_PR5.json``, ...),
    so the numeric PR suffix is the chronology -- a lexicographic sort would
    put ``BENCH_PR10`` before ``BENCH_PR5``.  Files without the ``PR<n>``
    shape sort after the numbered ones, by name.
    """
    match = re.fullmatch(r"BENCH_PR(\d+)", path.stem)
    if match:
        return (0, int(match.group(1)), path.name)
    return (1, 0, path.name)


def load_bench_records(root: Optional[Path] = None) -> List[Dict[str, Any]]:
    """Parse the committed ``BENCH_*.json`` throughput records, oldest first.

    The files are committed one per performance PR (``BENCH_PR5.json``, ...),
    ordered by the numeric PR suffix -- the chronological perf trajectory.
    Unreadable files are skipped, never fatal.
    """
    root = Path.cwd() if root is None else Path(root)
    records: List[Dict[str, Any]] = []
    for path in sorted(root.glob("BENCH_*.json"), key=_bench_sort_key):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict):
            payload["_file"] = path.name
            records.append(payload)
    return records


def _meta_table(rows: Sequence[tuple]) -> str:
    cells = "\n".join(
        f"<tr><td>{escape(str(k))}</td><td>{v}</td></tr>" for k, v in rows
    )
    return f'<table class="meta">\n{cells}\n</table>'


#: Known per-pass stages, rendered in pipeline order; unknown stage names
#: (future records) follow alphabetically so the output stays deterministic.
_STAGE_ORDER = ("distill", "mac_tier", "replay")


def _stage_breakdown(data: Mapping[str, Any]) -> str:
    """``distill 0.1s + replay 2.9s`` from a pass's ``stages`` dict.

    Records that predate per-stage timing (``BENCH_PR5.json``) have no
    ``stages`` key and render an empty cell.
    """
    stages = data.get("stages")
    if not isinstance(stages, Mapping) or not stages:
        return ""
    known = [name for name in _STAGE_ORDER if name in stages]
    extra = sorted(name for name in stages if name not in _STAGE_ORDER)
    return " + ".join(f"{name} {stages[name]}s" for name in known + extra)


def _pass_rows(record: Mapping[str, Any]) -> List[str]:
    """Rows of a pass record: one per undistilled/distilled/vectorized replay pass."""
    name = escape(str(record.get("_file", "?")))
    # Each variant's speedup is relative to the record's undistilled run.
    variant_speedups = {
        "distilled": record.get("speedup", ""),
        "vectorized": record.get("vectorized_speedup", ""),
    }
    rows: List[str] = []
    for variant in ("undistilled", "distilled", "vectorized"):
        data = record.get(variant)
        if not isinstance(data, Mapping):
            continue
        rate = data.get("accesses_per_second", 0)
        rate_text = f"{rate:,}" if isinstance(rate, (int, float)) else str(rate)
        speedup = variant_speedups.get(variant, "")
        speedup_text = f"{speedup}x" if speedup else ""
        rows.append(
            "<tr>"
            f"<td>{name}</td>"
            f"<td>{escape(variant)}</td>"
            f"<td>{escape(str(data.get('seconds', '')))}</td>"
            f"<td>{escape(_stage_breakdown(data))}</td>"
            f"<td>{escape(rate_text)}</td>"
            f"<td>{escape(speedup_text)}</td>"
            "</tr>"
        )
    return rows


def _side(value: Any) -> tuple:
    """(median, cell text) of one side of a paired metric.

    A side is either a bare number (a single traced run) or a
    ``{"median", "q1", "q3"}`` summary of the paired runs; anything else
    renders an empty cell.
    """
    if isinstance(value, (int, float)):
        return value, f"{value:.4g}"
    if isinstance(value, Mapping) and all(
        isinstance(value.get(key), (int, float)) for key in ("median", "q1", "q3")
    ):
        median = value["median"]
        return median, f"{median:.4g} [{value['q1']:.4g}, {value['q3']:.4g}]"
    return None, ""


def _paired_rows(record: Mapping[str, Any]) -> List[str]:
    """Rows of a paired record (``bench/run.py`` parent vs change runs).

    One row per workload x metric of its ``pairs`` section, then of its
    ``traced`` section, in file order.
    """
    name = escape(str(record.get("_file", "?")))
    rows: List[str] = []
    for section in ("pairs", "traced"):
        workloads = record.get(section)
        if not isinstance(workloads, Mapping):
            continue
        for workload, metrics in workloads.items():
            if not isinstance(metrics, Mapping):
                continue
            label = workload if section == "pairs" else f"{workload} (traced)"
            for metric, cell in metrics.items():
                if not isinstance(cell, Mapping):
                    continue
                parent, parent_text = _side(cell.get("parent"))
                change, change_text = _side(cell.get("change"))
                delta = (
                    f"{(change - parent) / parent * 100:+.1f}%"
                    if parent and change is not None
                    else ""
                )
                wins = (
                    f"{cell['wins']}/{cell['n']}" if "wins" in cell and "n" in cell else ""
                )
                unit = cell.get("unit")
                metric_text = f"{metric} ({unit})" if unit else str(metric)
                rows.append(
                    "<tr>"
                    f"<td>{name}</td>"
                    f"<td>{escape(str(label))}</td>"
                    f"<td>{escape(metric_text)}</td>"
                    f"<td>{escape(parent_text)}</td>"
                    f"<td>{escape(change_text)}</td>"
                    f"<td>{escape(delta)}</td>"
                    f"<td>{escape(wins)}</td>"
                    "</tr>"
                )
    return rows


def _bench_section(records: Sequence[Mapping[str, Any]]) -> str:
    if not records:
        return (
            "<p>No committed <code>BENCH_*.json</code> records found next to "
            "the working directory.</p>"
        )
    pass_header = (
        "<tr><th>record</th><th>configuration</th><th>wall&nbsp;time&nbsp;(s)</th>"
        "<th>stage&nbsp;breakdown</th><th>accesses/s</th><th>speedup</th></tr>"
    )
    paired_header = (
        "<tr><th>record</th><th>workload</th><th>metric</th>"
        "<th>parent&nbsp;median&nbsp;[q1,&nbsp;q3]</th>"
        "<th>change&nbsp;median&nbsp;[q1,&nbsp;q3]</th><th>&Delta;</th>"
        "<th>change&nbsp;wins</th></tr>"
    )
    pass_rows = [row for record in records for row in _pass_rows(record)]
    paired_rows = [row for record in records for row in _paired_rows(record)]
    tables = [
        f'<table class="bench">\n{header}\n' + "\n".join(rows) + "\n</table>"
        for header, rows in ((pass_header, pass_rows), (paired_header, paired_rows))
        if rows
    ]
    if not tables:
        return "<p>No committed <code>BENCH_*.json</code> record has rows to show.</p>"
    return "\n".join(tables)


def _stamp_details(stamp: ProvenanceStamp) -> str:
    keys = (
        "<br>".join(f"<code>{escape(k)}</code>" for k in stamp.store_keys)
        if stamp.store_keys
        else "(none; computed directly, no store entries)"
    )
    rows = [
        ("store keys", keys),
        ("source fingerprint", f"<code>{escape(stamp.source_fingerprint)}</code>"),
        ("git", f"<code>{escape(stamp.git)}</code>"),
        ("seed", escape(str(stamp.seed))),
        ("modes", escape(", ".join(stamp.modes)) or "(none)"),
        (
            "params",
            f"<code>{escape(json.dumps(dict(stamp.params), sort_keys=True))}</code>",
        ),
        ("tier", escape(stamp.tier)),
    ]
    return (
        "<details><summary>provenance</summary>"
        + _meta_table(rows)
        + "</details>"
    )


def build_index_html(
    entries: Sequence[Mapping[str, Any]],
    tier: str,
    bench_records: Sequence[Mapping[str, Any]] = (),
) -> str:
    """Assemble the report from rendered artifacts.

    Each entry is a mapping with ``name``, ``kind``, ``title``, ``text`` (the
    rendered artifact, without its plain-text provenance trailer) and
    ``stamp`` (a :class:`ProvenanceStamp`).  Entry order is preserved.
    """
    first_stamp = entries[0]["stamp"] if entries else None
    head_rows = [("tier", escape(tier)), ("artifacts", str(len(entries)))]
    if first_stamp is not None:
        head_rows += [
            ("git", f"<code>{escape(first_stamp.git)}</code>"),
            (
                "source fingerprint",
                f"<code>{escape(first_stamp.source_fingerprint)}</code>",
            ),
            ("seed", escape(str(first_stamp.seed))),
        ]

    toc = "\n".join(
        f'<li><a href="#{escape(str(e["name"]))}">{escape(str(e["title"]))}</a></li>'
        for e in entries
    )
    sections: List[str] = []
    for entry in entries:
        name = escape(str(entry["name"]))
        sections.append(
            f'<h2 id="{name}">{escape(str(entry["title"]))}</h2>\n'
            f"<pre>{escape(str(entry['text']).rstrip())}</pre>\n"
            + _stamp_details(entry["stamp"])
        )

    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        "<title>Toleo reproduction report</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n<main>\n"
        "<h1>Toleo reproduction report</h1>\n"
        '<p class="sub">Every table and figure of the ASPLOS 2024 Toleo '
        "evaluation, rebuilt by <code>repro reproduce-all</code> with "
        "per-artifact provenance.</p>\n"
        + _meta_table(head_rows)
        + "\n<h2>Contents</h2>\n<nav><ul>\n"
        + toc
        + "\n</ul></nav>\n"
        + "\n".join(sections)
        + "\n<h2 id=\"perf-trajectory\">Performance trajectory</h2>\n"
        "<p>Measured host time across the committed <code>BENCH_*.json</code> "
        "records (one per performance PR): replay throughput per pass, then "
        "paired parent/change runs of <code>bench/run.py</code>.</p>\n"
        + _bench_section(bench_records)
        + "\n</main>\n</body>\n</html>\n"
    )


__all__ = ["build_index_html", "load_bench_records"]
