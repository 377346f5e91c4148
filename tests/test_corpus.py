"""Dataset ingestion, screening, and per-K counts."""

import json
import random

import pytest

from conceptrag.corpus import (
    DatasetError,
    QadPair,
    SupportDoc,
    count_by_k,
    format_stats_tsv,
    load_dataset,
    screen_pairs,
)


def make_pair(k=1, hasanswer=True, s_pop=None, question="q", answer="a"):
    docs = tuple(SupportDoc(f"doc {i} contains {answer}", hasanswer) for i in range(k))
    return QadPair(question, (answer,), docs, s_pop)


def write_jsonl(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoad:
    def test_single_record(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [json.dumps({
            "question": "Where?",
            "answers": ["Amsterdam"],
            "docs": [{"text": "In Amsterdam.", "hasanswer": True}],
        })])
        [pair] = load_dataset(path)
        assert pair.k == 1
        assert pair.gold_answers == ("Amsterdam",)
        assert pair.documents[0].amr is None

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [json.dumps({
            "question": "q", "answers": ["a"], "extra": 1,
            "docs": [{"text": "t", "hasanswer": False, "score": 0.3}],
        })])
        assert load_dataset(path)[0].documents[0].hasanswer is False

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = json.dumps({"question": "q", "answers": ["a"],
                           "docs": [{"text": "t", "hasanswer": True}]})
        write_jsonl(path, [good, good, good, "{not json"])
        with pytest.raises(DatasetError, match="line 4"):
            load_dataset(path)

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [json.dumps({"question": "q", "docs": []})])
        with pytest.raises(DatasetError, match="line 1.*answers"):
            load_dataset(path)


class TestScreen:
    def test_all_hasanswer_kept(self):
        assert screen_pairs([make_pair(k=2)]) == [make_pair(k=2)]

    def test_any_false_dropped(self):
        pair = QadPair("q", ("a",), (SupportDoc("t", True), SupportDoc("t", False)))
        assert screen_pairs([pair]) == []

    def test_s_pop_cap(self):
        popular = make_pair(s_pop=600)
        rare = make_pair(s_pop=120)
        boundary = make_pair(s_pop=500)
        assert screen_pairs([popular, rare, boundary], s_pop_max=500) == [rare]

    def test_missing_s_pop_retained_under_cap(self):
        pair = make_pair(s_pop=None)
        assert screen_pairs([pair], s_pop_max=500) == [pair]

    def test_screening_is_idempotent_subset(self):
        pairs = [make_pair(k=1), make_pair(k=2, hasanswer=False), make_pair(s_pop=900)]
        once = screen_pairs(pairs, s_pop_max=500)
        assert set(id(p) for p in once) <= set(id(p) for p in pairs)
        assert screen_pairs(once, s_pop_max=500) == once


class TestCountByK:
    def test_small_partition(self):
        pairs = [make_pair(k=1), make_pair(k=1), make_pair(k=2)]
        rows = count_by_k(pairs)
        assert rows[0] == ("1", 2) and rows[1] == ("2", 1)

    def test_empty_input(self):
        rows = count_by_k([])
        assert all(count == 0 for _, count in rows)

    def test_counts_match_brute_force(self):
        rng = random.Random(5)
        pairs = [make_pair(k=rng.randint(1, 10)) for _ in range(1000)]
        rows = count_by_k(pairs)
        for k in range(1, 11):
            expected = sum(1 for p in pairs if p.k == k)
            assert rows[k - 1] == (str(k), expected)
        assert sum(count for _, count in rows) == len(pairs)

    def test_overflow_bucket(self):
        rows = count_by_k([make_pair(k=12)])
        assert rows[-1] == (">10", 1)

    def test_stats_tsv_shape(self):
        tsv = format_stats_tsv(count_by_k([make_pair(k=3)]))
        lines = tsv.strip().splitlines()
        assert lines[0] == "K\tpairs"
        assert lines[3] == "3\t1"
        assert len(lines) == 12
