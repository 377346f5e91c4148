"""The README's descriptions of the JSON files the CLI reads."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from conceptrag.cli import main
from conceptrag.distill import DistillConfig
from conceptrag.ragpipe import LlmBackendSpec, PipelineRecord
from conceptrag.schema import from_json

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
    assert keys == [f.name for f in fields(cls)]


@pytest.mark.parametrize(
    "title, cls, kind",
    [(BACKEND, LlmBackendSpec, "backend spec"), (CONFIG, DistillConfig, "distill config")],
)
def test_json_example_loads(title, cls, kind):
    example = re.search(r"```json\n(.*?)```", section(title), re.S).group(1)
    assert isinstance(from_json(cls, json.loads(example), kind), cls)


def test_distill_json_keys_are_the_emitted_ones(tmp_path, table_a1_penman, table_a1_doc, capsys):
    keys = re.findall(r"^\| `(\w+)` \|", section(DISTILL_JSON), re.M)
    amr, doc = tmp_path / "g.amr", tmp_path / "d.txt"
    amr.write_text(table_a1_penman, encoding="utf-8")
    doc.write_text(table_a1_doc, encoding="utf-8")
    assert main(["distill", str(amr), str(doc), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload and all(list(item) == keys for item in payload)
