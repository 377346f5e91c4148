"""Hostile files through every subcommand of ``cli.main``: whatever a file
holds (deep nesting, huge or non-finite numbers, a mistyped, missing or
unknown key, an odd encoding, a cut), the command ends with a documented
exit code and prints no traceback."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conceptrag.cli import main

DATA = Path(__file__).parent / "data"
GRAPH = (DATA / "table_a1.amr").read_text(encoding="utf-8")
DOCUMENT = (DATA / "table_a1.txt").read_text(encoding="utf-8")
PAIRS = [json.loads(line) for line in (DATA / "fixture_pairs.jsonl").read_text().splitlines()]
RECORDS = json.loads((DATA / "report" / "run" / "records.json").read_text(encoding="utf-8"))
# every key of each JSON file the CLI reads, so that an edit can mistype any of them;
# no endpoint is live: port 9 on the loopback refuses the connection
SPECS = [
    {"kind": "stub", "policy": "echo-facts"},
    {"kind": "http-chat", "endpoint_url": "http://127.0.0.1:9/v1", "model": "m", "auth_env": "",
     "timeout_s": 0.5, "max_parallel": 2, "temperature": 0.0, "max_tokens": 8, "retries": 1,
     "policy": "oracle-substring"},
]
CONFIG = {"stoplist_add": ["boy"], "stoplist_remove": ["person"], "idf_threshold": 0.5,
          "idf_enabled": False, "min_backtrace_overlap": 4, "traversal": "dfs", "seed": None}
# bounds that keep a generated spec cheap: a few threads, a few retries
SPEC_CAPS = {"max_parallel": 8, "retries": 2}

VALUES = st.sampled_from(
    ["", "x", " ", "ü\x00", 0, -1, 1, 3, 2.5, -0.0, True, False, None, [], {}, ["x", 1],
     {"k": 1}, 10**30, -(10**30), 1e300, -1e300]
)
RAW = "@raw@"  # a string value that the file's text replaces with a JSON text below
RAW_TEXTS = st.sampled_from(
    ["1e400", "-1e400", "1e-400", "NaN", "Infinity", "-Infinity", "1.7976931348623157e308"]
)
DEPTHS = st.sampled_from([50, 999, 1_000, 20_000])
PENMAN_DEPTHS = st.sampled_from([50, 1_000, 3_000])
PENMAN_PIECES = st.sampled_from(
    ["(", ")", ":ARG0", ' "x', "~e.1", "#", "/", " ", "-", "1e400", "(x / y)", ":snt1"]
)
EDITS = st.sampled_from([0, 1, 1, 2, 3])
JSON_EDITS = st.sampled_from(["mistype", "raw", "deep"] * 2 + ["drop", "unknown"])
# the hostile choices are a few among valid ones, so that most files are read through
ENCODINGS = st.sampled_from(["utf-8"] * 4 + ["utf-8-sig", "utf-16", "utf-32", "latin-1"])
BYTE_EDITS = st.sampled_from(["none"] * 5 + ["junk", "cut", "empty"])
JUNK = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00", b"\xef\xbb\xbf", b"\r"])
FLAG_VALUES = st.sampled_from(["7"] * 4 + ["-1", "x", "99999999999999999999", "٣"])
TRAVERSALS = st.sampled_from(["dfs", "local-random", "global-random"] * 2 + ["bogus"])
INTERVALS = st.sampled_from(
    ["normal", "long", "1,10", "2,5", "5,5", "10,1", "-3,2", "0,30", "a,b", "1,2,3", "", "٣,9"]
)
TMP = "@tmp@"  # in a path: the directory the call runs in


def slots(value, found=None):
    """Every (container, key) pair in a JSON value, outermost first."""
    found = [] if found is None else found
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in list(items):
        found.append((value, key))
        if isinstance(item, (dict, list)):
            slots(item, found)
    return found


@st.composite
def json_text(draw, value):
    """``value``'s JSON text after up to three hostile edits."""
    value = json.loads(json.dumps(value))
    raws = []
    for _ in range(draw(EDITS)):
        places = slots(value)
        if not places:
            break
        container, key = draw(st.sampled_from(places))
        edit = draw(JSON_EDITS)
        if edit == "mistype":
            container[key] = copy.deepcopy(draw(VALUES))  # later edits may change it
        elif edit == "raw":
            container[key] = RAW
            raws.append(draw(RAW_TEXTS))
        elif edit == "deep":
            container[key] = RAW
            depth = draw(DEPTHS)
            raws.append("[" * depth + "]" * depth)
        elif isinstance(container, dict):
            if edit == "drop":
                del container[key]
            else:
                container["unknown_key"] = 1
    if isinstance(value, dict):
        for key, cap in SPEC_CAPS.items():
            if type(value.get(key)) is int and value[key] > cap:
                value[key] = cap
    text = json.dumps(value, indent=draw(st.sampled_from([None, 2])))
    quoted = json.dumps(RAW)
    for raw in raws:  # in the order the edits were made; a raw value may be overwritten
        text = text.replace(quoted, raw, 1)
    return text


@st.composite
def penman_text(draw):
    text = GRAPH
    if draw(st.booleans()):
        depth = draw(PENMAN_DEPTHS)
        text = "".join(f"(v{i} / a :ARG0 " for i in range(depth)) + "(b / boy" + ")" * (depth + 1)
    for _ in range(draw(EDITS)):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(PENMAN_PIECES) + text[at:]
    return text


@st.composite
def dataset_text(draw, pairs):
    """The JSONL lines of ``pairs``, one of them edited."""
    lines = [json.dumps(pair) for pair in pairs]
    at = draw(st.integers(0, len(lines) - 1))
    lines[at] = draw(json_text(pairs[at])).replace("\n", " ")
    return "\n".join(lines) + "\n"


@st.composite
def file_bytes(draw, text):
    """``text`` in an odd encoding, with junk bytes put in or the end cut off."""
    data = text.encode(draw(ENCODINGS), "replace")
    edit = draw(BYTE_EDITS)
    at = draw(st.integers(0, len(data)))
    if edit == "junk":
        data = data[:at] + draw(JUNK) + data[at:]
    elif edit == "cut":
        data = data[:at]
    elif edit == "empty":
        data = b""
    return data


@st.composite
def command(draw):
    """An argument list for one subcommand, and the files it reads by their
    paths under ``TMP``. One file is hostile; the others are valid, so that
    a fault anywhere in the command is reached."""
    name = draw(st.sampled_from(["parse", "distill", "stats", "eval", "report"]))
    files = {}  # path -> (its valid text, a strategy for a hostile one)

    def maybe(*options):
        return draw(st.sampled_from([[], *options]))

    def distill_flags():
        flags = []
        if draw(st.booleans()):
            files["config.json"] = (json.dumps(CONFIG), json_text(CONFIG))
            flags += ["--config", f"{TMP}/config.json"]
        traversal, seed = ["--traversal", draw(TRAVERSALS)], ["--seed", draw(FLAG_VALUES)]
        return flags + maybe(traversal + seed, traversal, seed)

    def screen_flags():
        return maybe(["--no-screen"], ["--s-pop-max", draw(FLAG_VALUES)])

    if name in ("parse", "distill"):
        files["g.amr"] = (GRAPH, penman_text())
    if name == "parse":
        argv = ["parse", f"{TMP}/g.amr", *maybe(["--out", f"{TMP}/out"])]
    elif name == "distill":
        files["d.txt"] = (DOCUMENT, st.just(DOCUMENT))
        argv = ["distill", f"{TMP}/g.amr", f"{TMP}/d.txt", *distill_flags(), *maybe(["--json"])]
    elif name in ("stats", "eval"):
        pairs = draw(st.lists(st.sampled_from(PAIRS[:6]), min_size=1, max_size=3))
        files["data.jsonl"] = ("".join(json.dumps(p) + "\n" for p in pairs), dataset_text(pairs))
        argv = [name, f"{TMP}/data.jsonl", *screen_flags()]
        if name == "eval":
            spec = draw(st.sampled_from(SPECS))
            files["backend.json"] = (json.dumps(spec), json_text(spec))
            mode = draw(st.sampled_from(["vanilla", "concepts", "keywords", "summary"]))
            argv += ["--backend", f"{TMP}/backend.json", "--mode", mode, "--out", f"{TMP}/out",
                     *distill_flags(), *maybe(["--parse-endpoint", "http://127.0.0.1:9/parse"])]
    else:
        # a baseline may lack its records.json
        for run in ["run", *maybe(["baseline"])]:
            files[f"{run}/records.json"] = (json.dumps(RECORDS), json_text(RECORDS))
        argv = ["report", f"{TMP}/run", *maybe(["--baseline", f"{TMP}/baseline"]),
                *maybe(["--interval", draw(INTERVALS)]), *maybe(["--svg", f"{TMP}/c.svg"])]
    hostile = draw(st.sampled_from(sorted(files)))
    written = {path: valid.encode() for path, (valid, _) in files.items()}
    written[hostile] = draw(file_bytes(draw(files[hostile][1])))
    return argv, written


@given(command())
@settings(max_examples=300, deadline=None)
def test_no_traceback_from_hostile_files(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            path = Path(tmp, name)
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(data)
        # stdout encodes as a UTF-8 console does; stderr escapes what it cannot encode
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
        argv = [arg.replace(TMP, tmp) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err.seek(0)
        stderr = err.read()
    assert code in (0, 1, 2, 3), (argv, stderr)
    assert "Traceback" not in stderr, (argv, stderr)
