"""Accuracy matching, curve integration, compression, and latency metrics."""

import math
import random
import re
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptrag.metrics import (
    LONG_INTERVAL,
    NORMAL_INTERVAL,
    EvalCurve,
    Interval,
    MetricsError,
    accuracy_curve,
    answer_match,
    build_report,
    compression_ratio,
    integrate,
    latency_summary,
    normalize_answer,
    parse_interval,
    render_accuracy_svg,
    render_report_tsv,
    tally,
)
from conceptrag.ragpipe import PipelineRecord

TOL = 0.01 + 1e-9  # inclusive +-0.01


def view(k=1, correct=True, backend="stub", mode="concepts", latency_ms=1.0):
    return PipelineRecord(k=k, correct=correct, backend=backend, mode=mode, latency_ms=latency_ms)


class TestAnswerMatch:
    def test_substring_containment(self):
        assert answer_match("It was Amsterdam.", ["Amsterdam"])

    def test_no_match(self):
        assert not answer_match("unknown", ["Amsterdam"])

    def test_casing_and_punctuation_invariance(self):
        assert answer_match("AMSTERDAM!!!", ["amsterdam"])
        assert answer_match("...amsterdam...", ["Amsterdam"])

    def test_whitespace_collapse(self):
        assert answer_match("new    york", ["New York"])

    def test_empty_gold_list_rejected(self):
        with pytest.raises(MetricsError):
            answer_match("x", [])

    def test_punctuation_only_gold_never_matches(self):
        assert not answer_match("anything", ["?!"])

    @given(
        st.text(alphabet="ab X.,!", max_size=12),
        st.lists(st.text(alphabet="ab X.,!", max_size=6), min_size=1, max_size=3),
    )
    @settings(max_examples=200)
    def test_agrees_with_bruteforce_containment(self, candidate, golds):
        def brute_contains(haystack, needle):
            if not needle:
                return False
            return any(
                haystack[i : i + len(needle)] == needle
                for i in range(len(haystack) - len(needle) + 1)
            )

        expected = any(
            brute_contains(normalize_answer(candidate), normalize_answer(g)) for g in golds
        )
        assert answer_match(candidate, golds) == expected


class TestAccuracyCurve:
    def test_half_correct(self):
        records = [view(k=3, correct=c) for c in (True, True, False, False)]
        assert accuracy_curve(records).points == {3: 50.0}

    def test_all_correct(self):
        records = [view(k=k) for k in (1, 2, 2)]
        assert accuracy_curve(records).points == {1: 100.0, 2: 100.0}

    def test_counts_match_direct_tally(self):
        rng = random.Random(11)
        records = [view(k=rng.randint(1, 10), correct=rng.random() < 0.6) for _ in range(500)]
        curve = accuracy_curve(records)
        for k in set(r.k for r in records):
            at_k = [r for r in records if r.k == k]
            assert curve.points[k] == pytest.approx(
                100.0 * sum(r.correct for r in at_k) / len(at_k)
            )

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            EvalCurve({0: 50.0})
        with pytest.raises(ValueError):
            EvalCurve({1: 101.0})


class TestIntegrate:
    def test_constant_curve(self):
        curve = EvalCurve({k: 50.0 for k in range(1, 11)})
        assert integrate(curve, NORMAL_INTERVAL).intg == pytest.approx(450.0)

    def test_published_ours_long_interval(self, published_tables):
        accs = published_tables["datasets"]["popqa"]["acc"]["gpt-neo-1.3b"]["ours"]
        curve = EvalCurve({k: accs[k - 1] for k in range(1, 11)})
        assert abs(integrate(curve, LONG_INTERVAL).intg - 322.37) <= TOL

    def test_published_vanilla_normal_interval(self, published_tables):
        accs = published_tables["datasets"]["popqa"]["acc"]["gpt-neo-1.3b"]["vanilla"]
        curve = EvalCurve({k: accs[k - 1] for k in range(1, 11)})
        assert abs(integrate(curve, NORMAL_INTERVAL).intg - 620.68) <= TOL

    def test_every_consistent_table_cell_reproduces(self, published_tables):
        known_bad = {tuple(cell) for cell in published_tables["known_inconsistent"]}
        checked = 0
        for ds_name, dataset in published_tables["datasets"].items():
            for model, methods in dataset["acc"].items():
                for method, accs in methods.items():
                    curve = EvalCurve({k: accs[k - 1] for k in range(1, 11)})
                    for interval_name, interval in (
                        ("normal", NORMAL_INTERVAL),
                        ("long", LONG_INTERVAL),
                    ):
                        expected = dataset["intg"][interval_name][model][method]
                        got = integrate(curve, interval).intg
                        if (ds_name, model, method, interval_name) in known_bad:
                            assert abs(got - expected) > TOL
                        else:
                            assert abs(got - expected) <= TOL, (
                                ds_name, model, method, interval_name, got, expected,
                            )
                        checked += 1
        assert checked == 200

    def test_missing_k_rejected(self):
        curve = EvalCurve({1: 10.0, 3: 30.0})
        with pytest.raises(MetricsError, match="K=\\[2\\]"):
            integrate(curve, Interval(1, 3))

    @pytest.mark.parametrize(
        "points, interval, named",
        [
            ({2: 1.0, 4: 1.0}, Interval(1, 5), "K=[1, 3, 5] inside [1,5]"),
            ({2: 1.0}, Interval(1, 5), "K=[1, 3, 4, ...] (4 Ks) inside [1,5]"),
            ({1: 1.0, 50: 1.0}, Interval(1, 10**9), "K=[2, 3, 4, ...] (999999998 Ks)"),
        ],
    )
    def test_missing_ks_named_first_few_then_counted(self, points, interval, named):
        with pytest.raises(MetricsError, match=re.escape(named)):
            integrate(EvalCurve(points), interval)

    def test_delta_against_baseline(self):
        ours = EvalCurve({k: 60.0 for k in range(1, 11)})
        vanilla = EvalCurve({k: 50.0 for k in range(1, 11)})
        report = integrate(ours, NORMAL_INTERVAL, baseline=vanilla)
        assert report.delta == pytest.approx(90.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_affine_exactness(self, seed):
        rng = random.Random(seed)
        slope = rng.uniform(-10, 10)
        intercept = rng.uniform(max(0.0, -slope * 10), min(100.0, 100 - slope * 10))
        f = {k: max(0.0, min(100.0, intercept + slope * k)) for k in range(1, 11)}
        curve = EvalCurve(f)
        got = integrate(curve, NORMAL_INTERVAL).intg
        exact = 0.5 * (f[1] + f[10]) * 9
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_interval_additivity(self, seed):
        rng = random.Random(seed)
        curve = EvalCurve({k: rng.uniform(0, 100) for k in range(1, 11)})
        whole = integrate(curve, Interval(1, 10)).intg
        split = integrate(curve, Interval(1, 6)).intg + integrate(curve, Interval(6, 10)).intg
        assert math.isclose(whole, split, rel_tol=1e-12, abs_tol=1e-9)

    def test_delta_antisymmetry(self):
        rng = random.Random(3)
        a = EvalCurve({k: rng.uniform(0, 100) for k in range(1, 11)})
        b = EvalCurve({k: rng.uniform(0, 100) for k in range(1, 11)})
        ab = integrate(a, NORMAL_INTERVAL, baseline=b).delta
        ba = integrate(b, NORMAL_INTERVAL, baseline=a).delta
        assert ab == pytest.approx(-ba)


class TestInterval:
    def test_named_constants(self):
        assert (NORMAL_INTERVAL.x_s, NORMAL_INTERVAL.x_e) == (1, 10)
        assert (LONG_INTERVAL.x_s, LONG_INTERVAL.x_e) == (6, 10)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 5)

    def test_parse_interval(self):
        assert parse_interval("normal") == NORMAL_INTERVAL
        assert parse_interval("long") == LONG_INTERVAL
        assert parse_interval("2,7") == Interval(2, 7)
        with pytest.raises(MetricsError):
            parse_interval("bogus")


class TestCompressionRatio:
    def test_identical_texts_are_baseline(self):
        assert compression_ratio(3, 3) == pytest.approx(100.0)

    def test_fully_compressed(self):
        assert compression_ratio(3, 0) == pytest.approx(0.0)

    def test_halved_corpus(self):
        originals = 4 + 2  # "w1 w2 w3 w4", "w5 w6"
        halved = 2 + 1  # "w1 w2", "w5"
        assert compression_ratio(originals, halved) == pytest.approx(50.0)

    def test_zero_original_words_rejected(self):
        with pytest.raises(MetricsError):
            compression_ratio(0, 0)


class TestLatency:
    def test_mean_of_three(self):
        records = [view(latency_ms=v) for v in (10.0, 20.0, 30.0)]
        [row] = latency_summary(records)
        assert row["mean_ms"] == pytest.approx(20.0)

    def test_single_record_collapses(self):
        [row] = latency_summary([view(latency_ms=42.0)])
        assert row["mean_ms"] == row["p50_ms"] == row["p95_ms"] == 42.0

    def test_groups_by_backend_and_mode(self):
        records = [
            view(backend="stub", mode="vanilla", latency_ms=1.0),
            view(backend="stub", mode="concepts", latency_ms=2.0),
            view(backend="http:m", mode="concepts", latency_ms=3.0),
        ]
        rows = latency_summary(records)
        assert {(r["backend"], r["mode"]) for r in rows} == {
            ("stub", "vanilla"), ("stub", "concepts"), ("http:m", "concepts"),
        }

    def test_rows_are_marked_as_the_run(self):
        assert [row["run"] for row in latency_summary([view()])] == ["run"]

    def test_summary_percentiles_of_unordered_latencies(self):
        rng = random.Random(3)
        values = [rng.uniform(0, 100) for _ in range(101)]
        ordered = sorted(values)
        [row] = latency_summary([view(latency_ms=v) for v in values])
        assert (row["p50_ms"], row["p95_ms"]) == (
            ordered[math.ceil(0.50 * 101) - 1], ordered[math.ceil(0.95 * 101) - 1]
        )
        assert row["mean_ms"] == sum(values) / len(values)

    def test_percentiles_match_sort_oracle(self):
        rng = random.Random(2)
        values = [rng.uniform(0, 1000) for _ in range(1000)]
        ordered = sorted(values)
        [row] = latency_summary([view(latency_ms=v) for v in values])
        assert row["p50_ms"] == ordered[math.ceil(0.50 * 1000) - 1]
        assert row["p95_ms"] == ordered[math.ceil(0.95 * 1000) - 1]


class TestReport:
    def make_records(self):
        rng = random.Random(8)
        records = []
        for k in range(1, 11):
            for _ in range(4):
                records.append(
                    PipelineRecord(
                        k=k,
                        correct=rng.random() < 0.7,
                        backend="stub",
                        mode="concepts",
                        latency_ms=rng.uniform(1, 5),
                        original_words=20,
                        compressed_words=8,
                    )
                )
        return records

    def test_report_structure(self):
        report, _ = build_report(tally(self.make_records()), [NORMAL_INTERVAL, LONG_INTERVAL])
        assert set(report["accuracy_per_k"]) == {str(k) for k in range(1, 11)}
        assert [row["interval"] for row in report["intg"]] == ["normal", "long"]
        assert report["compression_ratio"] == pytest.approx(40.0)

    def test_report_delta_with_baseline(self):
        records = self.make_records()
        baseline = [
            PipelineRecord(k=r.k, correct=False, backend="stub", mode="vanilla", latency_ms=1.0)
            for r in records
        ]
        report, _ = build_report(tally(records), [NORMAL_INTERVAL], baseline=tally(baseline))
        assert report["intg"][0]["delta"] == pytest.approx(report["intg"][0]["intg"])

    def test_latency_rows_keep_the_two_runs_apart(self):
        # a run and its baseline that share (backend, mode), as in a traversal ablation
        records = self.make_records()
        baseline = [r._replace(latency_ms=100.0) for r in records]
        report, _ = build_report(tally(iter(records)), [NORMAL_INTERVAL], tally(iter(baseline)))
        baseline_rows = [{**row, "run": "baseline"} for row in latency_summary(baseline)]
        assert report["latency"] == [*latency_summary(records), *baseline_rows]
        assert [(row["run"], row["count"]) for row in report["latency"]] == [
            ("run", 40), ("baseline", 40)
        ]
        assert report["latency"][1]["mean_ms"] == 100.0

    def test_rows_of_both_runs_are_sorted_by_backend_and_mode(self):
        records = [view(backend="stub", mode="vanilla"), view(backend="a", mode="concepts")]
        baseline = [view(backend="stub", mode="concepts"), view(backend="stub", mode="vanilla")]
        report, _ = build_report(tally(records), [NORMAL_INTERVAL], tally(baseline))
        assert [(row["run"], row["backend"], row["mode"]) for row in report["latency"]] == [
            ("run", "a", "concepts"), ("baseline", "stub", "concepts"),
            ("run", "stub", "vanilla"), ("baseline", "stub", "vanilla"),
        ]

    def test_each_run_is_read_once(self):
        reads = []

        def once(records, name):
            reads.append(name)
            yield from records

        records = self.make_records()
        report, curves = build_report(tally(once(records, "run")), [NORMAL_INTERVAL],
                                      tally(once(records, "baseline")))
        assert reads == ["run", "baseline"]
        assert report["records"] == 40 and curves[1] == accuracy_curve(records, "baseline")

    def test_failed_records_leave_ratio_and_latency_unchanged(self):
        records = self.make_records()
        failed = PipelineRecord(
            k=3, correct=False, backend="stub", mode="concepts", original_words=20,
            error="BackendTimeout: backend timed out",
        )
        report, curves = build_report(tally(records), [NORMAL_INTERVAL])
        with_failure, failed_curves = build_report(tally([*records, failed]), [NORMAL_INTERVAL])
        assert with_failure["compression_ratio"] == report["compression_ratio"]
        assert with_failure["latency"] == report["latency"]
        assert with_failure["errors"] == 1
        # the failure still counts as a wrong answer at its K
        assert failed_curves[0].points[3] < curves[0].points[3]

    def test_returns_the_curves_it_reports(self):
        records = self.make_records()
        baseline = [PipelineRecord(k=r.k, correct=True) for r in records]
        report, curves = build_report(tally(records), [NORMAL_INTERVAL],
                                      baseline=tally(baseline))
        assert curves == [
            accuracy_curve(records, label="run"), accuracy_curve(baseline, label="baseline")
        ]
        assert report["accuracy_per_k"] == {str(k): v for k, v in curves[0].points.items()}

    def test_tsv_rendering_rounds_to_two_decimals(self):
        report, _ = build_report(tally(self.make_records()), [NORMAL_INTERVAL])
        tsv = render_report_tsv(report)
        assert "K\tAcc" in tsv
        for line in tsv.splitlines():
            if line.startswith("1\t"):
                assert len(line.split("\t")[1].split(".")[1]) == 2

    def test_svg_contains_polyline(self):
        curve = EvalCurve({k: 10.0 * k for k in range(1, 11)}, label="run")
        svg = render_accuracy_svg([curve], title="Accuracy vs K")
        assert svg.startswith("<svg") and "<polyline" in svg and "Accuracy vs K" in svg

    def test_svg_escapes_title_and_labels(self):
        curve = EvalCurve({1: 50.0, 2: 75.0}, label="a<b & c")
        root = ElementTree.fromstring(render_accuracy_svg([curve], title="Acc & K"))
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "Acc & K" in texts and "a<b & c" in texts

    def test_svg_rejects_empty(self):
        with pytest.raises(MetricsError):
            render_accuracy_svg([])
