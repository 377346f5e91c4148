"""The README's descriptions of the JSON files the CLI reads."""

import json
import re
from pathlib import Path

import pytest

from conceptrag.cli import main
from conceptrag.distill import DistillConfig
from conceptrag.ragpipe import LlmBackendSpec, PipelineRecord
from conceptrag.schema import from_json, to_json

README = Path(__file__).resolve().parents[1] / "README.md"
RECORDS = "`records.json`"
BACKEND = "Backend spec (JSON, via `--backend`)"
CONFIG = "Distill config (JSON, via `--config`)"
DISTILL_JSON = "`distill --json` output"


def section(title: str) -> str:
    """The README text from a ``###`` heading up to the next heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n### {title}\n")
    return text[start : text.index("\n#", start + 1)]


@pytest.mark.parametrize(
    "title, cls", [(RECORDS, PipelineRecord), (BACKEND, LlmBackendSpec), (CONFIG, DistillConfig)]
)
def test_key_table_lists_the_fields_in_order(title, cls):
    keys = re.findall(r"^\| `(\w+)` \|", section(title), re.M)
    assert keys == list(cls._fields)


@pytest.mark.parametrize(
    "title, cls, kind",
    [(BACKEND, LlmBackendSpec, "backend spec"), (CONFIG, DistillConfig, "distill config")],
)
def test_json_example_loads(title, cls, kind):
    example = re.search(r"```json\n(.*?)```", section(title), re.S).group(1)
    assert isinstance(from_json(cls, json.loads(example), kind), cls)


RECORD = {"question": "q", "gold_answers": ("a", "b"), "k": 2, "mode": "concepts",
          "backend": "stub:echo-facts", "prompt": "p", "raw_answer": "a", "correct": True,
          "original_words": 9, "compressed_words": 3}


@pytest.mark.parametrize(
    "title, kind, value",
    [
        (RECORDS, "record", PipelineRecord(**RECORD, latency_ms=1.5)),
        (RECORDS, "record", PipelineRecord(**RECORD, latency_ms=2)),
        (RECORDS, "record",
         PipelineRecord(**RECORD, error="BackendTimeout: x", error_kind="backend")),
        (BACKEND, "backend spec", LlmBackendSpec(
            kind="http-chat", endpoint_url="http://127.0.0.1:9/v1", model="m", auth_env="KEY",
            timeout_s=5, max_parallel=2, temperature=0.5, max_tokens=8, retries=1)),
        (CONFIG, "distill config", DistillConfig(
            stoplist_add=("violin",), stoplist_remove=("it",), idf_threshold=0.25,
            idf_enabled=True, min_backtrace_overlap=3, traversal="local-random", seed=3)),
    ],
)
def test_json_form_round_trips_with_the_keys_in_order(title, kind, value):
    # json.dump would write the NamedTuple itself as a list
    data = to_json(value)
    assert type(data) is dict
    assert list(data) == re.findall(r"^\| `(\w+)` \|", section(title), re.M)
    text = json.dumps(data)
    loaded = from_json(type(value), json.loads(text), kind)
    assert loaded == value and type(loaded) is type(value)
    assert json.dumps(to_json(loaded)) == text  # an int latency stays an int


@pytest.mark.parametrize(
    "cls, kind, data",
    [
        (DistillConfig, "distill config", {"traversal": "bfs"}),
        (DistillConfig, "distill config", {"traversal": "global-random"}),
        (DistillConfig, "distill config", {"idf_threshold": 1.5}),
        (DistillConfig, "distill config", {"min_backtrace_overlap": -1}),
        (LlmBackendSpec, "backend spec", {"kind": "grpc"}),
        (LlmBackendSpec, "backend spec", {"kind": "http-chat"}),
        (LlmBackendSpec, "backend spec", {"kind": "http-chat", "endpoint_url": "http://u:p@h/x"}),
        (LlmBackendSpec, "backend spec", {"kind": "stub", "policy": "nope"}),
        (LlmBackendSpec, "backend spec", {"kind": "stub", "timeout_s": 0}),
        (LlmBackendSpec, "backend spec", {"kind": "stub", "max_parallel": 0}),
        (LlmBackendSpec, "backend spec", {"kind": "stub", "max_tokens": 0}),
        (LlmBackendSpec, "backend spec", {"kind": "stub", "retries": -1}),
    ],
)
def test_each_check_says_the_same_through_from_json(cls, kind, data):
    with pytest.raises(ValueError) as built:
        cls(**data)
    with pytest.raises(ValueError) as loaded:
        from_json(cls, dict(data), kind)
    assert str(loaded.value) == str(built.value)


def test_distill_json_keys_are_the_emitted_ones(tmp_path, table_a1_penman, table_a1_doc, capsys):
    keys = re.findall(r"^\| `(\w+)` \|", section(DISTILL_JSON), re.M)
    amr, doc = tmp_path / "g.amr", tmp_path / "d.txt"
    amr.write_text(table_a1_penman, encoding="utf-8")
    doc.write_text(table_a1_doc, encoding="utf-8")
    assert main(["distill", str(amr), str(doc), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload and all(list(item) == keys for item in payload)
