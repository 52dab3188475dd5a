"""Cost breakdown of a saved trace: ``repro stats OUT.json``.

Loads a run record (or bare Chrome trace), computes **exclusive time**
per span — duration minus the duration of its direct children, i.e.
the time genuinely spent at that level of the stack — and aggregates
by span name (or category, or a tag), rendering the top-k rows as a
table.  Exclusive times partition each root span exactly, so the
"total" column sums consistently: attribution never double-counts.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional

from .export import load_spans

__all__ = ["SpanStats", "aggregate", "coverage", "histogram_summaries",
           "render_stats", "load_trace"]


def load_trace(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class SpanStats:
    """Aggregated cost of one span group."""

    __slots__ = ("key", "cat", "count", "total", "exclusive")

    def __init__(self, key: str, cat: str):
        self.key = key
        self.cat = cat
        self.count = 0
        self.total = 0.0
        self.exclusive = 0.0


def _exclusive_times(spans: List[dict]) -> Dict[int, float]:
    """span id -> duration minus direct children's durations."""
    exclusive = {rec["id"]: float(rec.get("dur") or 0.0) for rec in spans}
    for rec in spans:
        parent = rec.get("parent")
        if parent is not None and parent in exclusive:
            exclusive[parent] -= float(rec.get("dur") or 0.0)
    return exclusive


def aggregate(spans: List[dict], by: str = "name") -> List[SpanStats]:
    """Group spans by ``name`` / ``cat`` / ``tag:<key>``; sorted by
    exclusive time, descending."""
    exclusive = _exclusive_times(spans)
    groups: Dict[str, SpanStats] = {}
    for rec in spans:
        if rec.get("ph") == "i":
            continue
        if by == "name":
            key = f"{rec.get('cat', 'repro')}:{rec['name']}"
        elif by == "cat":
            key = rec.get("cat", "repro")
        elif by.startswith("tag:"):
            args = rec.get("args") or {}
            key = str(args.get(by[4:], "-"))
        else:
            raise ValueError(f"unknown grouping {by!r}")
        stats = groups.get(key)
        if stats is None:
            stats = groups[key] = SpanStats(key, rec.get("cat", "repro"))
        stats.count += 1
        stats.total += float(rec.get("dur") or 0.0)
        stats.exclusive += max(0.0, exclusive[rec["id"]])
    return sorted(groups.values(), key=lambda s: -s.exclusive)


def _roots(spans: List[dict]) -> List[dict]:
    ids = {rec["id"] for rec in spans}
    return [
        rec for rec in spans
        if rec.get("ph") != "i"
        and (rec.get("parent") is None or rec["parent"] not in ids)
    ]


def coverage(spans: List[dict], wall_seconds: Optional[float] = None) -> dict:
    """How much wall time the span tree accounts for.

    ``root_seconds`` is the summed duration of root spans;
    ``child_coverage`` is the fraction of root time covered by their
    direct children (attribution depth); ``wall_coverage`` compares the
    roots against the recorded process wall time when available.
    """
    roots = _roots(spans)
    root_seconds = sum(float(r.get("dur") or 0.0) for r in roots)
    root_ids = {r["id"] for r in roots}
    child_seconds = sum(
        float(rec.get("dur") or 0.0)
        for rec in spans
        if rec.get("ph") != "i" and rec.get("parent") in root_ids
    )
    out = {
        "n_spans": sum(1 for r in spans if r.get("ph") != "i"),
        "n_roots": len(roots),
        "root_seconds": root_seconds,
        "child_coverage": (child_seconds / root_seconds) if root_seconds else 0.0,
    }
    if wall_seconds:
        out["wall_seconds"] = wall_seconds
        out["wall_coverage"] = min(1.0, root_seconds / wall_seconds)
    return out


_HIST_KEY = re.compile(
    r"^(?P<name>.+)_(?P<part>count|sum|p50|p95|p99)(?P<labels>\{.*\})?$"
)

_HIST_PARTS = frozenset({"count", "sum", "p50", "p95", "p99"})


def histogram_summaries(series: Dict[str, float]) -> List[dict]:
    """Histogram rows reconstructed from a flat metrics snapshot.

    A histogram contributes ``<name>_count/_sum/_p50/_p95/_p99`` per
    label set to :meth:`MetricsRegistry.snapshot`; a series group is
    only reported as a histogram when all five parts are present, so
    counters that merely end in ``_count`` never alias."""
    groups: Dict[tuple, Dict[str, float]] = {}
    for key, value in series.items():
        match = _HIST_KEY.match(key)
        if match is None:
            continue
        gkey = (match.group("name"), match.group("labels") or "")
        groups.setdefault(gkey, {})[match.group("part")] = value
    out = []
    for (name, labels), parts in sorted(groups.items()):
        if not _HIST_PARTS <= parts.keys():
            continue
        out.append({"name": name + labels, **parts})
    return out


def render_stats(payload: dict, top: int = 20, by: str = "name") -> str:
    """The human-readable breakdown table for one loaded trace."""
    spans = load_spans(payload)
    meta = payload.get("meta", {}) if isinstance(payload, dict) else {}
    rows = aggregate(spans, by=by)
    # Retained slow-request traces (the daemon's flight recorder) stamp
    # the request latency as "seconds"; CLI --trace records stamp
    # "wall_seconds".  Either anchors the coverage line.
    cov = coverage(spans, meta.get("wall_seconds") or meta.get("seconds"))
    total_excl = sum(r.exclusive for r in rows) or 1.0

    lines = []
    what = meta.get("command") or meta.get("argv") or "trace"
    if meta.get("request_id"):
        what = f"{what} [request {meta['request_id']}]"
    if meta.get("scenario"):
        what = f"{what} ({meta['scenario']})"
    lines.append(f"trace: {what} — {cov['n_spans']} spans, "
                 f"{cov['root_seconds']:.3f}s under {cov['n_roots']} root(s)")
    if "wall_coverage" in cov:
        lines.append(f"wall-time coverage: {cov['wall_coverage']:.1%} of "
                     f"{cov['wall_seconds']:.3f}s recorded wall time")
    width = max([len(r.key) for r in rows[:top]] + [8])
    lines.append("")
    lines.append(f"{'span':<{width}}  {'count':>7}  {'total s':>9}  "
                 f"{'excl s':>9}  {'excl %':>7}")
    for row in rows[:top]:
        lines.append(
            f"{row.key:<{width}}  {row.count:>7}  {row.total:>9.3f}  "
            f"{row.exclusive:>9.3f}  {row.exclusive / total_excl:>6.1%}"
        )
    if len(rows) > top:
        rest = sum(r.exclusive for r in rows[top:])
        lines.append(f"{'(other)':<{width}}  {sum(r.count for r in rows[top:]):>7}  "
                     f"{'':>9}  {rest:>9.3f}  {rest / total_excl:>6.1%}")

    metrics = payload.get("metrics") if isinstance(payload, dict) else None
    series = (metrics or {}).get("series", {})
    for prefixes, width, heading in (
        (("repro_encoder_",), 32,
         "encoder work (terms visited, clauses, int32 lits, flushes, "
         "template steps instanced):"),
        (("repro_ic3_", "repro_kinduction_", "repro_proof_temp_clauses_"), 40,
         "proof search (IC3 frames and clause pushes, k-induction "
         "deepenings, single-query clauses):"),
        (("repro_solver_pool_leases_",), 50,
         "warm-solver leases (hit = built for these names, shared = for "
         "another slice of the shape, miss = built now):"),
    ):
        keys = sorted(k for k in series if k.startswith(prefixes))
        if keys:
            lines.append("")
            lines.append(heading)
            lines.extend(f"{key:<{width}}  {int(series[key]):>10}" for key in keys)
    hists = histogram_summaries(series)
    if hists:
        hwidth = max([len(h["name"]) for h in hists] + [9])
        lines.append("")
        lines.append("histograms (bucket-estimated percentiles):")
        lines.append(f"{'series':<{hwidth}}  {'count':>7}  {'sum':>10}  "
                     f"{'p50':>9}  {'p95':>9}  {'p99':>9}")
        for h in hists:
            lines.append(
                f"{h['name']:<{hwidth}}  {int(h['count']):>7}  "
                f"{h['sum']:>10.3f}  {h['p50']:>9.4f}  {h['p95']:>9.4f}  "
                f"{h['p99']:>9.4f}"
            )
    return "\n".join(lines)
