"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them inline).
"""

import functools
import random
import time
from collections import Counter

from conceptrag.corpus import load_dataset
from conceptrag.distill import DistillConfig, distill_concepts, handle_date
from conceptrag.metrics import (
    LONG_INTERVAL,
    NORMAL_INTERVAL,
    EvalCurve,
    Interval,
    accuracy_curve,
    integrate,
)
from conceptrag.penman import parse_amr, serialize_amr
from conceptrag.ragpipe import LlmBackendSpec, run_pipeline
from graphgen import random_penman

TOL = 0.01 + 1e-9  # inclusive +-0.01
ORACLE = LlmBackendSpec(kind="stub", policy="oracle-substring")


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {description}")
                raise
            elapsed = time.perf_counter() - started
            print(f"\nACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")

        return wrapper

    return decorate


def curve_from_row(accs):
    return EvalCurve({k: accs[k - 1] for k in range(1, 11)})


@criterion(1, "Intg metric reproduces the published GPT-Neo-1.3B values and 12 random table cells to +-0.01")
def test_metric_oracle_reproduction(published_tables):
    popqa = published_tables["datasets"]["popqa"]["acc"]["gpt-neo-1.3b"]
    vanilla = integrate(curve_from_row(popqa["vanilla"]), NORMAL_INTERVAL).intg
    ours = integrate(curve_from_row(popqa["ours"]), LONG_INTERVAL).intg
    assert abs(vanilla - 620.68) <= TOL, vanilla
    assert abs(ours - 322.37) <= TOL, ours

    # sample random (dataset, model, method, interval) cells; two summary
    # cells are known digit transpositions in the source tables and are
    # excluded from the sampling population (see test_metrics for the
    # exhaustive sweep that pins their recomputed values)
    known_bad = {tuple(cell) for cell in published_tables["known_inconsistent"]}
    cells = [
        (ds, model, method, interval)
        for ds in published_tables["datasets"]
        for model in published_tables["models"]
        for method in published_tables["methods"]
        for interval in ("normal", "long")
        if (ds, model, method, interval) not in known_bad
    ]
    rng = random.Random(92)
    for ds, model, method, interval_name in rng.sample(cells, 12):
        dataset = published_tables["datasets"][ds]
        curve = curve_from_row(dataset["acc"][model][method])
        interval = NORMAL_INTERVAL if interval_name == "normal" else LONG_INTERVAL
        got = integrate(curve, interval).intg
        expected = dataset["intg"][interval_name][model][method]
        assert abs(got - expected) <= TOL, (ds, model, method, interval_name, got, expected)


@criterion(2, "worked-example graph distills to the published concepts in DFS order")
def test_worked_example_distillation(table_a1_penman, table_a1_doc):
    concepts = distill_concepts(parse_amr(table_a1_penman), table_a1_doc)
    expected = [
        "Alexander Rinnooy Kan",
        "Amsterdam",
        "worked",
        "mathematician",
        "Spectrum Encyclopedia",
        "1972",
        "1973",
    ]
    assert concepts.texts() == expected  # exact order, hence equal multiset

    date_edges = parse_amr("(d / date-entity :day 19 :month 4 :year 2024)").children["d"]
    assert handle_date("d", date_edges).text == "19 April 2024"


@criterion(3, "oracle-stub pipeline: 100% accuracy in concepts and vanilla; an answer-dropping stoplist degrades concepts below vanilla")
def test_stub_pipeline_accuracy(fixture_dataset_path):
    started = time.perf_counter()
    pairs = load_dataset(fixture_dataset_path)
    assert len(pairs) == 20

    concepts_records = run_pipeline(pairs, "concepts", ORACLE)
    vanilla_records = run_pipeline(pairs, "vanilla", ORACLE)
    concepts_acc = 100.0 * sum(r.correct for r in concepts_records) / len(concepts_records)
    vanilla_acc = 100.0 * sum(r.correct for r in vanilla_records) / len(vanilla_records)
    assert concepts_acc == 100.0
    assert vanilla_acc == 100.0

    # stoplisting every gold answer label removes it from the concept sets
    aggressive = DistillConfig(
        stoplist_add=tuple(answer for pair in pairs for answer in pair.gold_answers)
    )
    degraded_records = run_pipeline(pairs, "concepts", ORACLE, config=aggressive)
    degraded_acc = 100.0 * sum(r.correct for r in degraded_records) / len(degraded_records)
    assert degraded_acc < vanilla_acc

    assert time.perf_counter() - started < 10.0


@criterion(4, "every fixture document compresses at word level; mean reduction exceeds 30%")
def test_compression_direction(fixture_dataset_path):
    started = time.perf_counter()
    pairs = load_dataset(fixture_dataset_path)
    ratios = []
    for pair in pairs:
        for doc in pair.documents:
            concepts = distill_concepts(parse_amr(doc.amr), doc.text)
            concept_words = len(concepts.facts_string().split())
            source_words = len(doc.text.split())
            assert concept_words < source_words, doc.text
            ratios.append(concept_words / source_words)
    mean_reduction = 100.0 * (1.0 - sum(ratios) / len(ratios))
    print(f"\nfixture mean word-level reduction: {mean_reduction:.1f}% over {len(ratios)} docs")
    assert mean_reduction > 30.0
    assert time.perf_counter() - started < 5.0


@criterion(5, "1000 random graphs: serialize/parse round-trip, traversal-mode multiset equality, local-random sentence monotonicity")
def test_parser_property_suite():
    started = time.perf_counter()
    doc = "shared placeholder source document"
    for seed in range(1000):
        graph = parse_amr(random_penman(seed))
        assert parse_amr(serialize_amr(graph)) == graph, seed

        reference = Counter(distill_concepts(graph, doc).texts())
        for traversal in ("global-random", "local-random"):
            config = DistillConfig(traversal=traversal, seed=seed)
            concepts = distill_concepts(graph, doc, config=config)
            assert Counter(concepts.texts()) == reference, (seed, traversal)
            if traversal == "local-random":
                order = [c.sentence_index for c in concepts.concepts]
                assert order == sorted(order), seed
    assert time.perf_counter() - started < 30.0


@criterion(6, "trapezoid integration: affine exactness under 1e-12 and [1,6]+[6,10]=[1,10] additivity on 100 random curves")
def test_trapezoid_properties():
    started = time.perf_counter()
    rng = random.Random(17)
    for _ in range(100):
        slope = rng.uniform(-10, 10)
        low = max(0.0, -slope * 10)
        high = min(100.0, 100.0 - slope * 10)
        intercept = rng.uniform(min(low, high), max(low, high))
        affine = EvalCurve({k: intercept + slope * k for k in range(1, 11)})
        exact = 0.5 * (affine.points[1] + affine.points[10]) * 9
        got = integrate(affine, NORMAL_INTERVAL).intg
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

        noisy = EvalCurve({k: rng.uniform(0, 100) for k in range(1, 11)})
        whole = integrate(noisy, Interval(1, 10)).intg
        split = integrate(noisy, Interval(1, 6)).intg + integrate(noisy, Interval(6, 10)).intg
        assert abs(whole - split) <= 1e-9
    assert time.perf_counter() - started < 1.0


@criterion("extra", "cross-check: accuracy_curve over a stub run feeds integrate consistently")
def test_curve_integration_cross_check(fixture_dataset_path):
    # supplementary, not a numbered criterion; ties the pipeline and metric
    # paths together the way the CLI report does
    pairs = load_dataset(fixture_dataset_path)
    records = run_pipeline(pairs, "concepts", ORACLE)
    curve = accuracy_curve(records, label="stub run")
    report = integrate(curve, NORMAL_INTERVAL)
    assert report.intg == 900.0  # 9 unit trapezoids at 100%
