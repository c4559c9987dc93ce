"""In-memory spans for the traced benchmark run.

A :class:`Tracer` records one span per call the benchmark makes into a layer
of the simulator: id, parent id, name, start and end ``perf_counter_ns`` and
free-form attributes.  Spans stay in memory while the run executes and are
written out as JSON lines once it ends, so writing costs nothing inside the
timed calls.  The tracer is single-threaded: child spans never overlap, so a
span's self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional

#: Percentiles considered for the tail column of :func:`summarize`.
TAIL_LADDER = (0.5, 0.9, 0.95, 0.99, 0.999)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start_ns: int
    end_ns: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, attrs))

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def read_jsonl(path: Path) -> List[Span]:
    with open(path) as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


def self_times_ns(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> duration minus the time its direct children cover."""
    spans = list(spans)
    own = {span.id: span.duration_ns for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration_ns
    return own


def layer_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per span name, in seconds."""
    spans = list(spans)
    own = self_times_ns(spans)
    totals: Dict[str, int] = {}
    for span in spans:
        totals[span.name] = totals.get(span.name, 0) + own[span.id]
    return {name: ns / 1e9 for name, ns in totals.items()}


def coverage(spans: Iterable[Span], wall_ns: int) -> float:
    """Share of the traced wall time that top-level spans account for."""
    top = sum(span.duration_ns for span in spans if span.parent is None)
    return top / wall_ns


def _rank(q: float, n: int) -> int:
    """Nearest-rank position (1-based) of quantile ``q`` among ``n`` samples."""
    return max(1, math.ceil(q * n - 1e-9))


def _quantile(ordered: List[int], q: float) -> int:
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten of ``n`` samples above it."""
    usable = [q for q in TAIL_LADDER if n - _rank(q, n) >= 10]
    return usable[-1] if usable else None


def summarize(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """One row per span name: count, total, self, p50 and the tail percentile."""
    spans = list(spans)
    own = self_times_ns(spans)
    groups: Dict[str, List[Span]] = {}
    for span in spans:
        groups.setdefault(span.name, []).append(span)
    rows = []
    for name, members in groups.items():
        durations = sorted(span.duration_ns for span in members)
        tail = tail_percentile(len(durations))
        rows.append(
            {
                "name": name,
                "count": len(durations),
                "total_s": sum(durations) / 1e9,
                "self_s": sum(own[span.id] for span in members) / 1e9,
                "p50_ms": _quantile(durations, 0.5) / 1e6,
                "tail": None if tail is None else f"p{tail * 100:g}",
                "tail_ms": None if tail is None else _quantile(durations, tail) / 1e6,
            }
        )
    rows.sort(key=lambda row: -row["self_s"])
    return rows


def format_summary(rows: List[Dict[str, Any]]) -> str:
    header = f"{'layer':<34} {'count':>7} {'total s':>9} {'self s':>9} {'p50 ms':>10}  tail"
    lines = [header, "-" * len(header)]
    for row in rows:
        tail = "-" if row["tail"] is None else f"{row['tail']}={row['tail_ms']:.3f} ms"
        lines.append(
            f"{row['name']:<34} {row['count']:>7} {row['total_s']:>9.3f} "
            f"{row['self_s']:>9.3f} {row['p50_ms']:>10.3f}  {tail}"
        )
    return "\n".join(lines)
