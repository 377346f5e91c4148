"""Spans around the calls into conceptrag's modules, installed from outside.

``install`` replaces each traced function with a wrapper in every loaded
``conceptrag`` module that holds it by name (``cli`` and ``ragpipe`` import
``parse_amr``, ``load_dataset`` and others by name, ``distill`` imports
``split_sentences`` and ``dfs_nodes``). A span records its name, start, end
and parent; spans stay in memory and are written out once, at the end.
Span stacks are per thread. A span opened on a worker thread with an empty
stack takes the innermost open span of the main thread as its parent, which
is ``run_pipeline`` while its thread pool runs.

``layer_metrics`` turns the spans into the per-layer metrics. A span's self
time is its duration minus the part of it covered by its children (children
on two threads may overlap, so their union is subtracted).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict

# (span name, module, attribute); the span name is "<layer>.<function>"
TARGETS = [
    ("corpus.load_dataset", "conceptrag.corpus", "load_dataset"),
    ("corpus.screen_pairs", "conceptrag.corpus", "screen_pairs"),
    ("penman.lex", "conceptrag.penman", "_lex"),
    ("penman.parse_amr", "conceptrag.penman", "parse_amr"),
    ("penman.split_sentences", "conceptrag.penman", "split_sentences"),
    ("penman.dfs_nodes", "conceptrag.penman", "dfs_nodes"),
    ("distill.distill_concepts", "conceptrag.distill", "distill_concepts"),
    ("distill.concept_format", "conceptrag.distill", "concept_format"),
    ("distill.concept_backtrace", "conceptrag.distill", "concept_backtrace"),
    ("ragpipe.run_pipeline", "conceptrag.ragpipe", "run_pipeline"),
    ("ragpipe.query_llm", "conceptrag.ragpipe", "query_llm"),
    ("ragpipe.prompt", "conceptrag.ragpipe", "fact_prompt_from_strings"),
    ("ragpipe.prompt", "conceptrag.ragpipe", "build_baseline_prompt"),
    ("ragpipe.build_run_manifest", "conceptrag.ragpipe", "build_run_manifest"),
    ("metrics.answer_match", "conceptrag.metrics", "answer_match"),
    ("metrics.build_report", "conceptrag.metrics", "build_report"),
    ("metrics.accuracy_curve", "conceptrag.metrics", "accuracy_curve"),
    ("metrics.integrate", "conceptrag.metrics", "integrate"),
    ("metrics.latency_summary", "conceptrag.metrics", "latency_summary"),
    ("metrics.write_report", "conceptrag.metrics", "write_report"),
    ("metrics.render_accuracy_svg", "conceptrag.metrics", "render_accuracy_svg"),
    ("cli.load_records", "conceptrag.cli", "_load_records"),
]
ROOT_SPAN = "cli.main"


def _count_kept(counters, args, result, prefix):
    counters[prefix + ".in"] += len(args[0])
    counters[prefix + ".out"] += len(result)


def _count_nodes(counters, args, result):
    counters["penman.nodes"] += len(result.nodes)


def _count_backtrace(counters, args, result):
    counters["distill.concept_backtrace.all"] += len(result)
    counters["distill.concept_backtrace.hit"] += sum(c.source_span is not None for c in result)


# counters taken from a traced call's arguments and result
COUNTS = {
    "corpus.screen_pairs": functools.partial(_count_kept, prefix="corpus.screen_pairs"),
    "distill.concept_format": functools.partial(_count_kept, prefix="distill.concept_format"),
    "penman.parse_amr": _count_nodes,
    "distill.concept_backtrace": _count_backtrace,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func):
        count = COUNTS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def install(tracer: Tracer) -> None:
    """Wrap every target in each conceptrag module that holds it by name."""
    for name, module_name, attr in TARGETS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = tracer.wrap(name, original)
        for module in list(sys.modules.values()):
            in_package = getattr(module, "__name__", "").partition(".")[0] == "conceptrag"
            if in_package and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(max(1, math.ceil(q / 100.0 * len(ordered))), len(ordered)) - 1]


def span_summary(dump: dict) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds, self seconds and the
    inclusive durations."""
    children = defaultdict(list)
    for span_id, _, start, end, parent in dump["spans"]:
        if parent is not None:
            children[parent].append((start, end))
    summary: dict[str, dict] = {}
    for span_id, name, start, end, _ in dump["spans"]:
        row = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "durations": []})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(span_id, []), start, end)
        row["durations"].append(end - start)
    return summary


def _ratio(counters: dict, prefix: str, num: str, den: str) -> float:
    total = counters.get(f"{prefix}.{den}", 0)
    return counters.get(f"{prefix}.{num}", 0) / total if total else 0.0


def layer_metrics(dump: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run; 0 where the run did not
    exercise the layer."""
    summary = span_summary(dump)
    counters = dump["counters"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def row(name):
        return summary.get(name, empty)

    out = {
        "corpus.load_dataset.s": row("corpus.load_dataset")["total_s"],
        "corpus.screen_pairs.kept_ratio": _ratio(counters, "corpus.screen_pairs", "out", "in"),
        "penman.lex.self_s": row("penman.lex")["self_s"],
        "penman.nodes": counters.get("penman.nodes", 0),
        "distill.format_kept_ratio": _ratio(counters, "distill.concept_format", "out", "in"),
        "distill.backtrace_hit_ratio": _ratio(counters, "distill.concept_backtrace", "hit",
                                              "all"),
        "ragpipe.query_llm.busy_s": row("ragpipe.query_llm")["total_s"],
        "ragpipe.build_run_manifest.s": row("ragpipe.build_run_manifest")["total_s"],
        "metrics.write_report.s": row("metrics.write_report")["total_s"],
        "metrics.render_accuracy_svg.s": row("metrics.render_accuracy_svg")["total_s"],
        "cli.load_records.s": row("cli.load_records")["total_s"],
        "cli.self_s": row(ROOT_SPAN)["self_s"],
    }
    for name in ("penman.parse_amr", "distill.distill_concepts", "ragpipe.query_llm"):
        durations = row(name)["durations"]
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.p50_ms"] = 1000.0 * percentile(durations, 50)
        out[f"{name}.p99_ms"] = 1000.0 * percentile(durations, 99)
    for name in ("penman.parse_amr", "penman.split_sentences", "penman.dfs_nodes",
                 "distill.distill_concepts", "distill.concept_format",
                 "distill.concept_backtrace", "ragpipe.run_pipeline", "ragpipe.prompt",
                 "metrics.answer_match", "metrics.build_report", "metrics.accuracy_curve",
                 "metrics.integrate", "metrics.latency_summary"):
        out[f"{name}.self_s"] = row(name)["self_s"]
    pipeline_s = row("ragpipe.run_pipeline")["total_s"]
    out["ragpipe.query_llm.concurrency"] = (
        out["ragpipe.query_llm.busy_s"] / pipeline_s if pipeline_s else 0.0)
    # parse plus distill time, for the size exponent
    out["parse_distill_s"] = (row("penman.parse_amr")["total_s"]
                              + row("distill.distill_concepts")["total_s"])
    return out
