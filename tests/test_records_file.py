"""``records.json`` as ``eval`` writes it and as ``report`` reads it: the
layout, the reader against ``json.loads``, its block check against the
per-record check, its messages for faulty files, its memory, and the report
output pinned byte for byte."""

import copy
import json
import os
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptrag import cli, schema
from conceptrag.cli import _BLOCK_ITEMS, EXIT_DATA, EXIT_OK, _load_records, main
from conceptrag.corpus import DatasetError
from conceptrag.ragpipe import PipelineRecord
from conceptrag.schema import _raise_fault, from_json, from_json_block

PINNED = Path(__file__).parent / "data" / "report"

OPTIONAL_VALUES = {
    "question": st.text(max_size=12),
    "gold_answers": st.lists(st.text(max_size=6), max_size=3),
    "mode": st.sampled_from(["vanilla", "concepts"]),
    "backend": st.sampled_from(["stub:oracle-substring", "http:m"]),
    "prompt": st.text(max_size=30),
    "latency_ms": st.integers(0, 10**6) | st.floats(0, 1e6, allow_nan=False),
    "original_words": st.integers(0, 500),
    "raw_answer": st.text(max_size=6),
    "compressed_words": st.integers(0, 500),
    "error": st.none() | st.text(max_size=10),
    "error_kind": st.none() | st.sampled_from(["backend", "data"]),
}
RECORD = st.fixed_dictionaries(
    {"k": st.integers(1, 10), "correct": st.booleans()}, optional=OPTIONAL_VALUES
)
RECORDS = st.lists(RECORD, max_size=6)


def write_records(run: Path, text: str, encoding="utf-8", errors="strict") -> bytes:
    run.mkdir(parents=True, exist_ok=True)
    data = text.encode(encoding, errors)
    (run / "records.json").write_bytes(data)
    return data


@settings(max_examples=60, deadline=None)
@given(
    records=RECORDS,
    indent=st.sampled_from([None, 0, 2, "\t"]),
    ensure_ascii=st.booleans(),
    crlf=st.booleans(),
    encoding=st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-32"]),
)
def test_reader_builds_what_json_loads_builds(
    records, indent, ensure_ascii, crlf, encoding, tmp_path_factory
):
    text = json.dumps(records, indent=indent, ensure_ascii=ensure_ascii)
    if crlf:  # a newline inside a string is written as \n, so only the layout changes
        text = text.replace("\n", "\r\n")
    run = tmp_path_factory.mktemp("run")
    data = write_records(run, text, encoding)
    expected = [from_json(PipelineRecord, item, "record") for item in json.loads(data)]
    assert list(_load_records(str(run))) == expected


def test_a_lone_surrogate_loads_as_json_loads_loads_it(tmp_path):
    # json decodes bytes with "surrogatepass": UTF-8 bytes of U+D800 are no error
    data = write_records(tmp_path, '[{"k": 1, "correct": true, "question": "\ud800"}]',
                         "utf-8", "surrogatepass")
    [record] = _load_records(str(tmp_path))
    assert record.question == json.loads(data)[0]["question"] == "\ud800"


def test_reader_reads_the_file_only_when_iteration_starts(tmp_path):
    records = _load_records(str(tmp_path))  # no records.json yet
    write_records(tmp_path, '[{"k": 1, "correct": true}]')
    assert list(records) == [PipelineRecord(k=1, correct=True)]


GOOD = '{"k": 1, "correct": true}'


@pytest.mark.parametrize(
    "text, encoding",
    [
        (f"[\n{GOOD},\n{GOOD},\n]\n", "utf-8"),  # a trailing comma
        (f"[\n{GOOD}\n{GOOD}\n]\n", "utf-8"),  # a missing comma
        (f"[\n{GOOD},\n{GOOD[:12]}", "utf-8"),  # a truncated file
        (f"[\n{GOOD},\n{GOOD}", "utf-8"),  # truncated after a record
        (f"[\n{GOOD}\n]\nmore", "utf-8"),  # trailing text
        (f"[{GOOD}]]", "utf-8"),
        (f"[{GOOD}[{GOOD}]]", "utf-8"),
        (f"[{GOOD}[{GOOD}]", "utf-8"),
        (f"[,{GOOD}]", "utf-8"),
        ("[", "utf-8"),
        ("]", "utf-8"),
        ("{}", "utf-8"),
        ('"[]"', "utf-8"),
        ("7", "utf-8"),
        ("", "utf-8"),
        ("  \n", "utf-8"),
        (f"[\r\n{GOOD},\r\n{GOOD}\r\n{GOOD}]", "utf-8"),  # positions count the \r
        (f"[\n{GOOD}\n{GOOD}]", "utf-8-sig"),
        (f"[\n{GOOD}\n{GOOD}]", "utf-16"),
        ("\ufeff[" + GOOD + "]", "utf-8-sig"),  # a second BOM is text, and no JSON
        (f'[{GOOD},\n{{"k": 1, "correct": true, "latency_ms": NaN}}]', "utf-8"),
        (f'[{GOOD},\n{{"k": 1, "correct": -Infinity}}]', "utf-8"),
        ('[{"k": 1, "correct": true, "question": "unterminated}]', "utf-8"),
    ],
)
def test_a_faulty_file_gets_the_message_json_loads_gives(text, encoding, tmp_path, capsys):
    data = write_records(tmp_path / "run", text, encoding)
    path = tmp_path / "run" / "records.json"

    def reject(constant):
        raise DatasetError(f"records file {path} holds {constant}, which is not a JSON number")

    try:
        loaded = json.loads(data, parse_constant=reject)
    except json.JSONDecodeError as exc:  # a syntax error names the file first
        expected = f"records file {path} is not valid JSON: {exc}"
    except ValueError as exc:
        expected = str(exc)
    else:
        assert type(loaded) is not list
        expected = f"{path} must hold a JSON list of records"
    assert main(["report", str(tmp_path / "run")]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("text", ["[]", " [ ]\n", "[\r\n]\r\n"])
def test_an_empty_list_is_a_run_without_records(text, tmp_path, capsys):
    write_records(tmp_path, text)
    assert list(_load_records(str(tmp_path))) == []
    assert main(["report", str(tmp_path)]) == EXIT_OK
    assert json.loads((tmp_path / "report.json").read_text())["records"] == 0


def test_the_first_fault_in_file_order_is_the_one_reported(tmp_path, capsys):
    # json.loads would stop at the trailing comma before any record was built
    write_records(tmp_path, f'[{{"k": "x", "correct": true}},\n{GOOD},\n]')
    assert main(["report", str(tmp_path)]) == EXIT_DATA
    assert "record key 'k' must be an integer" in capsys.readouterr().err


def test_eval_writes_one_record_per_line(tmp_path, fixture_dataset_path, capsys):
    backend = tmp_path / "backend.json"
    backend.write_text('{"kind": "stub", "policy": "oracle-substring"}')
    argv = ["eval", str(fixture_dataset_path), "--backend", str(backend), "--mode", "vanilla"]
    assert main([*argv, "--out", str(tmp_path / "run")]) == EXIT_OK
    lines = (tmp_path / "run" / "records.json").read_text(encoding="utf-8").split("\n")
    assert lines[0] == "[" and lines[-2:] == ["]", ""]
    records = [json.loads(line.removesuffix(",")) for line in lines[1:-2]]
    assert len(records) == 20 and all(list(r) == list(PipelineRecord._fields) for r in records)
    assert all(line.endswith(",") for line in lines[1:-3]) and not lines[-3].endswith(",")
    # a run that screening left empty is still a JSON list
    assert main([*argv, "--s-pop-max", "0", "--out", str(tmp_path / "empty")]) == EXIT_OK
    assert (tmp_path / "empty" / "records.json").read_text(encoding="utf-8") == "[]\n"


def _synthetic_run(run: Path, n: int, seed: int) -> int:
    """``n`` records of the size eval writes for a concepts run, laid out as
    eval lays them out; returns the file's size."""
    rng = random.Random(seed)
    words = ["violin", "Lisbon", "played", "bureau", "crescent", "of", "the", "in"]
    rows = []
    for i in range(n):
        question = " ".join(rng.choices(words, k=10)) + "?"
        rows.append(json.dumps({
            "question": question, "gold_answers": [rng.choice(words)], "k": 1 + i % 10,
            "mode": "concepts", "backend": "stub:oracle-substring",
            "prompt": "Refer to the following facts to answer the question. Facts: "
            + ", ".join(rng.choices(words, k=6)) + ". Question: " + question,
            "raw_answer": rng.choice(words), "latency_ms": rng.uniform(0.5, 40.0),
            "correct": rng.random() < 0.7, "original_words": rng.randint(100, 900),
            "compressed_words": rng.randint(20, 300), "error": None, "error_kind": None,
        }))
    text = "[\n" + ",\n".join(rows) + "\n]\n"
    write_records(run, text)
    return len(text)


def test_report_memory_stays_near_the_larger_file(tmp_path, monkeypatch, capsys):
    # both files pass report's size rule: on one usable CPU they are read in this process
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    sizes = [_synthetic_run(tmp_path / "run", 5000, 1), _synthetic_run(tmp_path / "base", 4000, 2)]
    argv = ["report", str(tmp_path / "run"), "--baseline", str(tmp_path / "base"),
            "--svg", str(tmp_path / "curve.svg")]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the larger file's bytes and its decoded text; every parsed record at once is ~5x
    assert peak < 3 * max(sizes), peak / max(sizes)


def test_report_output_is_pinned(tmp_path, monkeypatch, capsys):
    """Two runs of the fixture in concepts mode (dfs, and local-random with
    seed 11; stub echo-facts backend), their latencies fixed, some answers
    made wrong and one baseline pair made a backend failure. Both runs share
    (backend, mode), so the latency table holds one row for each."""
    monkeypatch.chdir(PINNED)  # the report's label is the path as given
    out = tmp_path / "out"
    argv = ["report", "run", "--baseline", "baseline", "--out", str(out),
            "--svg", str(out / "curve.svg")]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (PINNED / "report.tsv").read_text(encoding="utf-8")
    for name in ("report.json", "report.tsv", "curve.svg"):
        assert (out / name).read_bytes() == (PINNED / name).read_bytes(), name


# --- the block check: each block of list items is checked and built at once,
# and a block with a fault is read again record by record, for the message


def per_record(items: list) -> list | str:
    """What the per-key check makes of ``items``: their records, or the message
    of the first fault."""
    records = []
    for item in items:
        try:
            _raise_fault(PipelineRecord, item, "record")
        except DatasetError as exc:
            return str(exc)
        values = {key: tuple(v) if type(v) is list else v for key, v in item.items()}
        records.append(PipelineRecord(**values))
    return records


def loaded(run: Path) -> list | str:
    """The records ``_load_records`` reads from ``run``, or the message of its fault."""
    try:
        return list(_load_records(str(run)))
    except DatasetError as exc:
        return str(exc)


def assert_reported(run: Path, expected: list | str, capsys) -> None:
    """``run`` loads as ``expected``; a message is also report's, with exit code 2."""
    assert loaded(run) == expected
    if type(expected) is str:
        assert main(["report", str(run)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {expected}\n"


def full_record(i: int) -> dict:
    return {"question": f"q{i}", "gold_answers": [f"a{i}"], "k": 1 + i % 10, "mode": "concepts",
            "backend": "stub:oracle-substring", "prompt": "p", "raw_answer": "a",
            "latency_ms": 1.5, "correct": i % 3 > 0, "original_words": 9,
            "compressed_words": 4, "error": None, "error_kind": None}


@pytest.mark.parametrize(
    "faults, message",
    [
        ({1023: ("k", "x")}, "record key 'k' must be an integer, not \"x\""),
        ({1024: ("gold_answers", ["a", 1])},
         "record key 'gold_answers' must be a list of strings, not [\"a\", 1]"),
        ({1023: ("unknown", 1), 1024: ("k", "x")}, "record has unknown keys: unknown"),
        ({1024: ("unknown", 1), 2047: ("k", "x")}, "record has unknown keys: unknown"),
        ({2047: ("correct", 1)}, "record key 'correct' must be a boolean, not 1"),
    ],
)
def test_a_fault_at_a_block_edge_is_found_as_record_by_record(
    faults, message, tmp_path, capsys
):
    assert _BLOCK_ITEMS == 1024  # record 1,024 ends the first block, 1,025 starts the next
    items = [full_record(i) for i in range(2100)]
    for at, (key, value) in faults.items():
        items[at][key] = value
    write_records(tmp_path, json.dumps(items))
    assert per_record(items) == message
    assert_reported(tmp_path, message, capsys)


def test_only_a_block_with_a_fault_is_read_record_by_record(monkeypatch):
    # the output is the same either way; what the block check saves is the
    # per-record reading, which a clean block must never reach
    items = [full_record(i) for i in range(5)]
    expected = per_record(items)
    calls = []

    def spy(cls, data, kind):
        calls.append(data)
        return _raise_fault(cls, data, kind)

    monkeypatch.setattr(schema, "_raise_fault", spy)
    assert from_json_block(PipelineRecord, items, "record") == expected
    assert calls == []
    items[3]["k"] = "x"
    with pytest.raises(DatasetError, match="record key 'k' must be an integer"):
        from_json_block(PipelineRecord, items, "record")
    assert calls == items[:4]


def test_a_good_file_across_blocks_gives_the_records_record_by_record(tmp_path):
    items = [full_record(i) for i in range(2 * 1024 + 1)]
    write_records(tmp_path, json.dumps(items, indent=1))
    assert loaded(tmp_path) == per_record(items)


@pytest.mark.parametrize("after", ['{"k": 1 "correct": true}', "[" * 20_000 + "]" * 20_000])
def test_a_mistyped_record_ahead_of_a_list_fault_in_its_block_comes_first(
    after, tmp_path, capsys
):
    write_records(tmp_path, f'[{GOOD},\n{{"k": "x", "correct": true}},\n{GOOD},\n{after}]')
    assert_reported(tmp_path, "record key 'k' must be an integer, not \"x\"", capsys)


def test_a_too_deep_item_after_good_records_is_named(tmp_path, capsys):
    write_records(tmp_path, f'[{GOOD},\n{"[" * 20_000 + "]" * 20_000}]')
    path = tmp_path / "records.json"
    assert_reported(tmp_path, f"records file {path} is nested too deeply", capsys)


@pytest.mark.parametrize(
    "items, expected",
    [
        # the optional error_kind given in some records of a block and not in others
        ([{"k": 1, "correct": True, "error_kind": "data"}, {"k": 2, "correct": False},
          {"k": 3, "correct": True, "error_kind": None}],
         [PipelineRecord(k=1, correct=True, error_kind="data"),
          PipelineRecord(k=2, correct=False), PipelineRecord(k=3, correct=True)]),
        ([{"k": 1, "correct": True, "latency_ms": 7, "gold_answers": ["a"]}],
         [PipelineRecord(k=1, correct=True, latency_ms=7, gold_answers=("a",))]),
        ([{"k": 1, "correct": True}, {"k": True, "correct": True}],
         "record key 'k' must be an integer, not true"),
        ([{"k": 1, "correct": True, "gold_answers": ["a", None]}],
         "record key 'gold_answers' must be a list of strings, not [\"a\", null]"),
        ([{"k": 1, "correct": True}, [1]], "record must be a JSON object, not [1]"),
        ([{"k": 1, "correct": True, "kk": 1, "extra": 2}], "record has unknown keys: extra, kk"),
        ([{"k": 1}], "record is missing required keys: correct"),
    ],
)
def test_the_block_check_gives_what_the_per_record_check_gives(
    items, expected, tmp_path, capsys
):
    assert per_record(items) == expected
    write_records(tmp_path, json.dumps(items))
    assert_reported(tmp_path, expected, capsys)
    if type(expected) is list:  # a list of strings is a tuple in the record
        assert loaded(tmp_path)[-1].gold_answers == expected[-1].gold_answers


FAULTS = st.sampled_from(["object", "mistype", "unknown", "drop", "list item"])
# each draw a fresh copy, so that no fault puts one list or dict inside itself
WRONG = st.sampled_from([True, 1, 1.5, "s", None, [], ["s"], {}]).map(copy.deepcopy)


@st.composite
def faulty_records(draw):
    """A list of records with a few random faults."""
    items = draw(st.lists(RECORD, max_size=9))
    for _ in range(draw(st.integers(0, 2))):
        if not items:
            break
        at = draw(st.integers(0, len(items) - 1))
        fault, item = draw(FAULTS), items[at]
        if fault == "object":
            items[at] = draw(WRONG)
        elif type(item) is dict and fault == "mistype":
            item[draw(st.sampled_from(PipelineRecord._fields))] = draw(WRONG)
        elif type(item) is dict and fault == "unknown":
            item[draw(st.sampled_from(["x", "K", "errors"]))] = 1
        elif type(item) is dict and fault == "drop":
            item.pop(draw(st.sampled_from(["k", "correct", "error"])), None)
        elif type(item) is dict:  # an earlier fault may have made the list a scalar
            gold = item.get("gold_answers", [])
            item["gold_answers"] = [*(gold if type(gold) is list else [gold]), draw(WRONG)]
    return items


@settings(max_examples=150, deadline=None)
@given(items=faulty_records(), block=st.integers(1, 4))
def test_blocks_give_what_the_per_record_check_gives(items, block, tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    write_records(run, json.dumps(items))
    with mock.patch.object(cli, "_BLOCK_ITEMS", block):
        assert loaded(run) == per_record(items)
