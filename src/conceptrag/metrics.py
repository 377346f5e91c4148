"""Evaluation metrics: answer accuracy, area-under-curve integration,
compression ratio, and latency summaries, plus report rendering.

Aggregation is one single-threaded pass over each run's records, in record
order, so floating-point summation order is deterministic.
"""

from __future__ import annotations

import json
import math
import re
from itertools import islice
from pathlib import Path
from typing import Iterable, NamedTuple

_WS_RE = re.compile(r"\s+")
# deletes the characters of string.punctuation
_PUNCT_TABLE = str.maketrans("", "", "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~")


class MetricsError(ValueError):
    """Invalid metric input (e.g. a curve missing points inside an interval)."""


class PipelineRecord(NamedTuple):
    """Outcome of one question, as one entry of ``records.json``: the prompt
    sent, the raw answer, latency, whether it matched a gold answer, the
    whitespace-split word counts of the documents before and after
    compression, and a failed pair's error with its kind, "backend" or "data".
    Fields are in key order; :mod:`conceptrag.schema` reads and writes them."""

    question: str = ""
    gold_answers: tuple[str, ...] = ()
    k: int = 0
    mode: str = ""
    backend: str = ""
    prompt: str = ""
    raw_answer: str = ""
    latency_ms: float = 0.0
    correct: bool = False
    original_words: int = 0
    compressed_words: int = 0
    error: str | None = None
    error_kind: str | None = None
    _required = ("k", "correct")  # for from_json; the defaults only keep the key order


# a record's mode: which representation of the documents reached the model
MODES = ("vanilla", "concepts", "keywords", "summary")


class _IntervalFields(NamedTuple):
    x_s: int
    x_e: int


class Interval(_IntervalFields):
    """Closed integer interval of document counts, checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.x_s >= self.x_e:
            raise ValueError(f"interval start {self.x_s} must be below end {self.x_e}")
        return self

    @property
    def name(self) -> str:
        return _INTERVAL_NAMES.get(self, f"{self.x_s},{self.x_e}")


_NAMED_INTERVALS = {"normal": Interval(1, 10), "long": Interval(6, 10)}
_INTERVAL_NAMES = {interval: name for name, interval in _NAMED_INTERVALS.items()}
NORMAL_INTERVAL, LONG_INTERVAL = _NAMED_INTERVALS.values()


def parse_interval(text: str) -> Interval:
    """Accepts 'normal', 'long', or 'a,b'."""
    if text in _NAMED_INTERVALS:
        return _NAMED_INTERVALS[text]
    parts = text.split(",")
    if len(parts) != 2:
        raise MetricsError(f"interval must be 'normal', 'long', or 'a,b', got {text!r}")
    try:
        return Interval(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise MetricsError(f"invalid interval {text!r}: {exc}") from None


class _EvalCurveFields(NamedTuple):
    points: dict[int, float]
    label: str = ""


class EvalCurve(_EvalCurveFields):
    """Accuracy (percent) per document count K, checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for k, acc in self.points.items():
            if k < 1 or not 0.0 <= acc <= 100.0:
                raise ValueError(f"invalid curve point K={k}, Acc={acc}")
        return self


class IntgReport(NamedTuple):
    intg: float
    interval: Interval
    delta: float | None = None


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return _WS_RE.sub(" ", text.lower().translate(_PUNCT_TABLE)).strip()


def answer_match(candidate: str, gold_answers: list[str]) -> bool:
    """True iff any normalized gold answer is a substring of the normalized
    candidate."""
    if not gold_answers:
        raise MetricsError("gold answer list must be non-empty")
    normalized = normalize_answer(candidate)
    for gold in gold_answers:
        gold_norm = normalize_answer(gold)
        if gold_norm and gold_norm in normalized:
            return True
    return False


def tally(records: Iterable[PipelineRecord]) -> tuple:
    """One pass over a run that keeps only sums. Returns its per-K accuracy points, its
    latency rows, each marked as the ``"run"``, and its counts of records, failures, and
    words before and after compression (failed records left out): plain values, which
    ``marshal`` can carry from a worker process."""
    original = compressed = 0
    per_k: dict[tuple[int, bool], int] = {}
    groups: dict[tuple[str, str], list[float]] = {}
    for _, _, k, mode, backend, _, _, latency_ms, correct, words, kept, error, _ in records:
        per_k[k, correct] = per_k.get((k, correct), 0) + 1
        if not error:
            original += words
            compressed += kept
            groups.setdefault((backend, mode), []).append(latency_ms)
    totals: dict[int, int] = {}
    for (k, _), count in per_k.items():
        totals[k] = totals.get(k, 0) + count
    points = {k: 100.0 * per_k.get((k, True), 0) / n for k, n in totals.items()}
    rows = []
    for (backend, mode), latencies in sorted(groups.items()):
        mean = sum(latencies) / len(latencies)  # summed in record order
        latencies.sort()
        rows.append({"run": "run", "backend": backend, "mode": mode, "count": len(latencies),
                     "mean_ms": mean, "p50_ms": _nearest_rank(latencies, 50),
                     "p95_ms": _nearest_rank(latencies, 95)})
    count = sum(totals.values())
    return points, rows, count, count - sum(map(len, groups.values())), original, compressed


def accuracy_curve(records: Iterable[PipelineRecord], label: str = "") -> EvalCurve:
    """Per-K accuracy: 100 x correct / total among pairs with that K."""
    return EvalCurve(tally(records)[0], label)


def integrate(
    curve: EvalCurve, interval: Interval, baseline: EvalCurve | None = None
) -> IntgReport:
    """Trapezoidal area under the accuracy curve over unit K steps.

    The curve must define Acc at every integer K in the interval. When a
    baseline is supplied, ``delta`` is this curve's area minus the
    baseline's.
    """
    area = _trapezoid_area(curve, interval)
    delta = None
    if baseline is not None:
        delta = area - _trapezoid_area(baseline, interval)
    return IntgReport(intg=area, interval=interval, delta=delta)


def _trapezoid_area(curve: EvalCurve, interval: Interval) -> float:
    x_s, x_e = interval
    # counted from the curve's points, so a wide interval costs no more than a narrow one
    missing = x_e - x_s + 1 - sum(x_s <= k <= x_e for k in curve.points)
    if missing:
        first = list(islice((k for k in range(x_s, x_e + 1) if k not in curve.points), 3))
        named = first if missing <= 3 else f"[{', '.join(map(str, first))}, ...] ({missing} Ks)"
        raise MetricsError(f"curve {curve.label!r} lacks Acc at K={named} inside [{x_s},{x_e}]")
    return sum(0.5 * (curve.points[k] + curve.points[k - 1]) for k in range(x_s + 1, x_e + 1))


def compression_ratio(original_words: int, compressed_words: int) -> float:
    """Word-level size of the compressed texts as a percentage of the
    originals (the uncompressed baseline is 100.0), from their word counts."""
    if original_words == 0:
        raise MetricsError("original texts contain no words")
    return 100.0 * compressed_words / original_words


def _nearest_rank(ordered: list[float], q: float) -> float:
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def latency_summary(records: Iterable[PipelineRecord]) -> list[dict]:
    """Mean/p50/p95 latency in ms per (backend, mode) group, each row marked as
    the ``"run"``. Failed records are left out: their latency is 0, not the time they took."""
    return tally(records)[1]


# --- report assembly ---------------------------------------------------------


def build_report(
    run: tuple, intervals: list[Interval], baseline: tuple | None = None, label: str = "run"
) -> tuple[dict, list[EvalCurve]]:
    """Assemble a run's :func:`tally` (optionally against a baseline run's) into one
    report structure with per-K accuracy, Intg (and delta) per interval, the word-level
    compression ratio, and the latency table, whose rows keep the two runs apart.
    Failed records count as wrong answers but are left out of the ratio and the latency
    table. Also returns the accuracy curves: the run's, then the baseline's."""
    points, latency, count, errors, original, compressed = run
    curve = EvalCurve(points, label)
    baseline_curve = None if baseline is None else EvalCurve(baseline[0], "baseline")
    baseline_latency = [{**row, "run": "baseline"} for row in baseline[1]] if baseline else []
    # sorted as one table; the sort is stable, so a run's row precedes its baseline's
    latency = sorted(latency + baseline_latency, key=lambda row: (row["backend"], row["mode"]))
    intg_rows = []
    for interval in intervals:
        try:
            report = integrate(curve, interval, baseline=baseline_curve)
        except MetricsError as exc:
            intg_rows.append({"interval": interval.name, "error": str(exc)})
            continue
        row = {"interval": interval.name, "intg": report.intg}
        if report.delta is not None:
            row["delta"] = report.delta
        intg_rows.append(row)

    report = {
        "label": label,
        "records": count,
        "errors": errors,
        "accuracy_per_k": {str(k): curve.points[k] for k in sorted(curve.points)},
        "intg": intg_rows,
        "compression_ratio": compression_ratio(original, compressed) if original else None,
        "latency": latency,
    }
    return report, [curve, baseline_curve] if baseline_curve else [curve]


def render_report_tsv(report: dict) -> str:
    """Tab-separated rendering; accuracies shown with 2-decimal rounding."""
    lines = [f"# report\t{report['label']}\trecords={report['records']}\terrors={report['errors']}"]
    lines.append("K\tAcc")
    for k, acc in report["accuracy_per_k"].items():
        lines.append(f"{k}\t{acc:.2f}")
    lines.append("interval\tIntg\tdelta")
    for row in report["intg"]:
        if "error" in row:
            lines.append(f"{row['interval']}\tERROR: {row['error']}\t")
        else:
            delta = f"{row['delta']:+.2f}" if "delta" in row else ""
            lines.append(f"{row['interval']}\t{row['intg']:.2f}\t{delta}")
    if report["compression_ratio"] is not None:
        lines.append(f"compression_ratio\t{report['compression_ratio']:.2f}")
    lines.append("run\tbackend\tmode\tcount\tmean_ms\tp50_ms\tp95_ms")
    for row in report["latency"]:
        lines.append(
            f"{row['run']}\t{row['backend']}\t{row['mode']}\t{row['count']}"
            f"\t{row['mean_ms']:.2f}\t{row['p50_ms']:.2f}\t{row['p95_ms']:.2f}"
        )
    return "\n".join(lines) + "\n"


def write_report(report: dict, out_dir: str | Path) -> str:
    """Write ``report.json`` and ``report.tsv`` into ``out_dir``; returns the TSV text."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    tsv = render_report_tsv(report)
    (out / "report.tsv").write_text(tsv, encoding="utf-8")
    return tsv


# --- SVG accuracy plot ---------------------------------------------------------


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape would import urllib.request and http.client
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_accuracy_svg(curves: list[EvalCurve], title: str = "") -> str:
    """A static accuracy-vs-K line chart as a standalone SVG document; the
    title and curve labels are XML-escaped."""
    if not curves or not any(c.points for c in curves):
        raise MetricsError("nothing to plot")
    width, height, margin = 640, 420, 50
    ks = sorted({k for c in curves for k in c.points})
    k_min, k_max = ks[0], ks[-1]
    span = max(k_max - k_min, 1)

    def x_at(k: int) -> float:
        return margin + (k - k_min) / span * (width - 2 * margin)

    def y_at(acc: float) -> float:
        return height - margin - acc / 100.0 * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">'
        f"{_escape(title)}</text>",
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        'stroke="black"/>',
    ]
    for k in ks:
        parts.append(
            f'<text x="{x_at(k):.1f}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-size="11">{k}</text>'
        )
    for acc in range(0, 101, 20):
        parts.append(
            f'<text x="{margin - 8}" y="{y_at(acc) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{acc}</text>'
        )
    for i, curve in enumerate(curves):
        color = palette[i % len(palette)]
        pts = " ".join(
            f"{x_at(k):.1f},{y_at(curve.points[k]):.1f}" for k in sorted(curve.points)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i + 10}" font-size="11" '
            f'fill="{color}">{_escape(curve.label or f"curve {i + 1}")}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
