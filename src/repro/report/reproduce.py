"""``repro reproduce-all``: one command, every figure and table, stamped.

The ASPLOS artifact-evaluation flow this implements (PIM-DL's ``run-all.sh``
single entry point, comp-gen's data/plot separation with a precomputed-data
fallback):

1. For every artifact in the declarative registry
   (:mod:`repro.report.artifacts`, populated by the ``repro.experiments.*``
   modules), run its **data stage** against the persistent
   :class:`~repro.sim.store.ResultStore` -- parallel, sharded and distilled
   execution all happen below this layer, and a warm store means zero
   re-simulation -- and write the result to ``<out>/data/<name>.json``
   together with its :class:`~repro.report.provenance.ProvenanceStamp`.
2. Run its **render stage** over the (JSON-normalised) data alone and write
   ``<out>/<name>.txt`` with the stamp as a plain-text trailer.

   The two stages are :func:`reproduce_artifact`, the one per-artifact
   step; ``repro <artifact>`` runs it alone and prints the same text,
   without the trailer.
3. Assemble everything, plus the committed ``BENCH_*.json`` perf trajectory,
   into the self-contained ``<out>/index.html``, and write
   ``<out>/manifest.json`` listing every artifact and stamp.

``from_store=True`` is the comp-gen fallback for readers without hours of
compute: the data stage is skipped entirely and the payloads are loaded back
from ``<out>/data/*.json``; because the render stage is a pure function of
the JSON-normalised payload, the regenerated artifacts are **byte-identical**
to the original run's (pinned by ``tests/report/test_reproduce.py`` and the
CI ``reproduce-smoke`` job).

Tiers bound the compute budget: ``quick`` reproduces every artifact on the
representative 4-benchmark subset in a couple of minutes; ``full`` runs all
twelve paper benchmarks at paper-scale trace lengths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments import harness
from repro.experiments.harness import DEFAULT_BENCHMARKS, QUICK_BENCHMARKS
from repro.report.artifacts import (
    ArtifactSpec,
    ReproContext,
    load_artifact_registry,
)
from repro.report.htmlreport import build_index_html, load_bench_records
from repro.report.provenance import ProvenanceStamp
from repro.sim.store import default_store

#: Envelope format of the ``data/*.json`` files and ``manifest.json``.
DATA_FORMAT = 1

#: Tier name -> base context (per-artifact budgets override on top).
TIERS: Dict[str, Dict[str, Any]] = {
    "quick": {"benchmarks": QUICK_BENCHMARKS, "scale": 0.002, "num_accesses": 20_000},
    "full": {"benchmarks": DEFAULT_BENCHMARKS, "scale": 0.002, "num_accesses": 60_000},
}


class ReproductionError(RuntimeError):
    """Raised when a reproduction run cannot complete (e.g. ``--from-store``
    with no precomputed data)."""


@dataclass
class ArtifactResult:
    """One reproduced artifact: its files, data and provenance."""

    name: str
    kind: str
    title: str
    text: str
    payload: Dict[str, Any]
    stamp: ProvenanceStamp
    data_path: Path
    text_path: Path
    from_store: bool = False


@dataclass
class ReproductionReport:
    """Outcome of one ``reproduce-all`` run."""

    tier: str
    out_dir: Path
    artifacts: List[ArtifactResult] = field(default_factory=list)

    @property
    def index_path(self) -> Path:
        return self.out_dir / "index.html"

    @property
    def manifest_path(self) -> Path:
        return self.out_dir / "manifest.json"


def _normalise(payload: Any) -> Any:
    """Round-trip a payload through JSON.

    Both the cold path (fresh in-memory data) and the ``--from-store`` path
    (data loaded from disk) feed the render stage *this* form, so number
    formatting can never differ between the two -- the root of the
    byte-identical guarantee.  Keys keep the order the data stage built them
    in (deterministic, and what ``format_table`` takes its columns from), and
    the data file keeps it too, so a re-render reads the same order.
    """
    return json.loads(json.dumps(payload))


def _data_envelope(spec: ArtifactSpec, payload: Any, stamp: ProvenanceStamp) -> Dict[str, Any]:
    return {
        "format": DATA_FORMAT,
        "artifact": spec.name,
        "kind": spec.kind,
        "title": spec.title,
        "payload": payload,
        "provenance": stamp.to_dict(),
    }


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _tier(tier: str) -> Dict[str, Any]:
    if tier not in TIERS:
        raise ReproductionError(f"unknown tier {tier!r}; expected one of {sorted(TIERS)}")
    return TIERS[tier]


def base_context(
    tier: str,
    seed: int = 1234,
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: Optional[int] = None,
) -> ReproContext:
    """Resolve the tier's base context, with optional global overrides.

    Per-artifact budgets apply on top of it, and :func:`reproduce_artifact`
    applies its ``benchmarks``/``num_accesses``/``scale`` overrides *after*
    the budgets -- they exist so CI smoke runs, tests and the single-artifact
    commands can shrink every artifact uniformly.
    """
    base = _tier(tier)
    return ReproContext(
        tier=tier,
        benchmarks=tuple(benchmarks) if benchmarks is not None else tuple(base["benchmarks"]),
        scale=base["scale"],
        num_accesses=num_accesses if num_accesses is not None else base["num_accesses"],
        seed=seed,
    )


def _render(spec: ArtifactSpec, payload: Any) -> str:
    """The artifact's text: its render stage over the normalised payload."""
    text = spec.render(payload)
    return text if text.endswith("\n") else text + "\n"


def reproduce_artifact(
    spec: ArtifactSpec,
    tier: str = "quick",
    seed: int = 1234,
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: Optional[int] = None,
    scale: Optional[float] = None,
    jobs: int = 1,
    use_cache: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[Any, ProvenanceStamp, str]:
    """Compute and render one artifact; returns ``(payload, stamp, text)``.

    The context is the tier's base context, then the spec's budgets for the
    tier, then whichever of ``benchmarks``/``num_accesses``/``scale`` is
    given.  The data stage runs with ``jobs``/``use_cache`` published as the
    harness defaults (the figure modules drive the harness themselves), and
    the text is rendered from the JSON-normalised payload, as a
    ``--from-store`` re-render does.  ``reproduce-all`` and every
    ``repro <artifact>`` command run this one step.
    """
    overrides = {
        name: value
        for name, value in (
            ("benchmarks", benchmarks),
            ("num_accesses", num_accesses),
            ("scale", scale),
        )
        if value is not None
    }
    ctx = spec.context_for(base_context(tier, seed=seed)).replace(**overrides)
    if progress is not None:
        progress(f"{spec.name}: data stage "
                 f"({len(ctx.benchmarks)} benchmarks, {ctx.num_accesses} accesses)")
    previous = harness.configure(jobs=jobs, use_cache=use_cache)
    try:
        result = spec.run_data(ctx)
    finally:
        harness.configure(**previous)
    stamp = ProvenanceStamp.create(
        artifact=spec.name,
        kind=spec.kind,
        tier=ctx.tier,
        seed=ctx.seed,
        modes=result["modes"],
        store_keys=result["store_keys"],
        params={
            "benchmarks": list(ctx.benchmarks),
            "scale": ctx.scale,
            "num_accesses": ctx.num_accesses,
        },
    )
    payload = _normalise(result["payload"])
    return payload, stamp, _render(spec, payload)


def reproduce_all(
    tier: str = "quick",
    out_dir: Any = "results",
    jobs: int = 1,
    use_cache: bool = True,
    from_store: bool = False,
    benchmarks: Optional[Sequence[str]] = None,
    num_accesses: Optional[int] = None,
    scale: Optional[float] = None,
    seed: int = 1234,
    progress: Optional[Callable[[str], None]] = None,
) -> ReproductionReport:
    """Rebuild every registered artifact and assemble the HTML report.

    Each artifact is one :func:`reproduce_artifact` step;
    ``benchmarks``/``num_accesses``/``scale`` uniformly override the tier and
    per-artifact budgets (smoke runs).  ``from_store=True`` skips every data
    stage and re-renders from ``<out>/data/*.json``.
    """
    _tier(tier)  # an unknown tier fails before anything is written
    specs = load_artifact_registry()
    out = Path(out_dir)
    data_dir = out / "data"
    out.mkdir(parents=True, exist_ok=True)
    data_dir.mkdir(exist_ok=True)
    report = ReproductionReport(tier=tier, out_dir=out)
    say = progress if progress is not None else lambda _message: None

    for index, spec in enumerate(specs, start=1):
        data_path = data_dir / f"{spec.name}.json"
        text_path = out / f"{spec.name}.txt"
        step = f"[{index}/{len(specs)}]"
        if from_store:
            envelope = _load_envelope(spec, data_path)
            payload = envelope["payload"]
            stamp = ProvenanceStamp.from_dict(envelope["provenance"])
            say(f"{step} {spec.name}: precomputed data ({data_path})")
            text = _render(spec, payload)
        else:
            payload, stamp, text = reproduce_artifact(
                spec,
                tier,
                seed=seed,
                benchmarks=benchmarks,
                num_accesses=num_accesses,
                scale=scale,
                jobs=jobs,
                use_cache=use_cache,
                progress=lambda message: say(f"{step} {message}"),
            )
            _write_json(data_path, _data_envelope(spec, payload, stamp))
        text_path.write_text(text + "\n" + stamp.footer())
        report.artifacts.append(
            ArtifactResult(
                name=spec.name,
                kind=spec.kind,
                title=spec.title,
                text=text,
                payload=payload,
                stamp=stamp,
                data_path=data_path,
                text_path=text_path,
                from_store=from_store,
            )
        )

    entries = [
        {"name": a.name, "kind": a.kind, "title": a.title, "text": a.text, "stamp": a.stamp}
        for a in report.artifacts
    ]
    report.index_path.write_text(
        build_index_html(entries, tier=tier, bench_records=load_bench_records())
    )
    _write_json(
        report.manifest_path,
        {
            "format": DATA_FORMAT,
            "tier": tier,
            "report": "index.html",
            "artifacts": [
                {
                    "name": a.name,
                    "kind": a.kind,
                    "title": a.title,
                    "data": f"data/{a.name}.json",
                    "text": f"{a.name}.txt",
                    "provenance": a.stamp.to_dict(),
                }
                for a in report.artifacts
            ],
        },
    )
    say(f"report: {report.index_path} ({len(report.artifacts)} artifacts)")
    # Provenance of the run's cache: what the persistent index now holds, so a
    # reader of the log knows what a re-run can be served from.  Progress-only
    # (never written into results/), so --from-store stays byte-identical.
    stats = default_store().stats()
    say(
        f"store index: {stats['entries']} entries "
        f"({stats['bytes']:,} payload bytes, {stats['stale_entries']} stale) "
        f"in {stats['root']}"
    )
    return report


def _load_envelope(spec: ArtifactSpec, data_path: Path) -> Dict[str, Any]:
    """Load one artifact's precomputed data file (``--from-store``)."""
    if not data_path.exists():
        raise ReproductionError(
            f"--from-store: no precomputed data for {spec.name!r} at {data_path}; "
            "run `repro reproduce-all` once without --from-store to generate it"
        )
    try:
        envelope = json.loads(data_path.read_text())
    except (OSError, ValueError) as error:
        raise ReproductionError(f"unreadable data file {data_path}: {error}") from None
    if not isinstance(envelope, dict) or envelope.get("format") != DATA_FORMAT:
        raise ReproductionError(
            f"{data_path}: unsupported data format "
            f"{envelope.get('format') if isinstance(envelope, dict) else '?'}"
        )
    if envelope.get("artifact") != spec.name:
        raise ReproductionError(
            f"{data_path}: file claims artifact {envelope.get('artifact')!r}, "
            f"expected {spec.name!r}"
        )
    return envelope


__all__ = [
    "DATA_FORMAT",
    "TIERS",
    "ArtifactResult",
    "ReproductionError",
    "ReproductionReport",
    "base_context",
    "reproduce_all",
    "reproduce_artifact",
]
