"""``records.json`` as ``eval`` writes it and as ``report`` reads it: the
layout, the record-by-record reader against ``json.loads``, its messages for
faulty files, its memory, and the report output pinned byte for byte."""

import json
import os
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptrag.cli import EXIT_DATA, EXIT_OK, _load_records, main
from conceptrag.corpus import DatasetError
from conceptrag.ragpipe import PipelineRecord
from conceptrag.schema import from_json

PINNED = Path(__file__).parent / "data" / "report"

OPTIONAL_VALUES = {
    "question": st.text(max_size=12),
    "gold_answers": st.lists(st.text(max_size=6), max_size=3),
    "mode": st.sampled_from(["vanilla", "concepts"]),
    "backend": st.sampled_from(["stub:oracle-substring", "http:m"]),
    "prompt": st.text(max_size=30),
    "latency_ms": st.integers(0, 10**6) | st.floats(0, 1e6, allow_nan=False),
    "original_words": st.integers(0, 500),
    "error": st.none() | st.text(max_size=10),
}
RECORDS = st.lists(
    st.fixed_dictionaries(
        {"k": st.integers(1, 10), "correct": st.booleans()}, optional=OPTIONAL_VALUES
    ),
    max_size=6,
)


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
