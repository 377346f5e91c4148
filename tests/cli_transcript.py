"""The CLI's help, version and usage-error texts, as one transcript per Python
minor version (tests/data/cli/3.N.txt). argparse words help and errors
differently across Python versions, so each transcript is compared only on the
minor version that wrote it. Help is wrapped at ``COLUMNS=80``. Only 3.10 and
3.11 are kept: they take security fixes alone, so their wording no longer
changes between patch releases (3.12.1 and 3.13.0 wrote the same text). Run
directly, with the package importable, to write the running Python's
transcript:

    PYTHONPATH=src python3 tests/cli_transcript.py
"""

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

from conceptrag.cli import main

EVAL = ["eval", "pairs.jsonl", "--backend", "backend.json"]
CASES = [
    ["--help"],
    *([command, "--help"] for command in ("parse", "distill", "stats", "eval", "report")),
    ["--version"],
    [],
    ["eval"],
    ["frobnicate"],
    ["parse", "graph.amr", "--frob"],
    [*EVAL, "--out", "run"],
    [*EVAL, "--mode", "frob", "--out", "run"],
    ["distill", "graph.amr", "doc.txt", "--seed", "x"],
    ["distill", "graph.amr"],
    ["parse", "a.amr", "b.amr"],
    ["parse", "graph.amr", "--out"],
    [*EVAL, "--mode", "concepts", "--out", "run", "--s", "3"],
]


def path() -> Path:
    """The running Python's transcript file."""
    major, minor = sys.version_info[:2]
    return Path(__file__).parent / "data" / "cli" / f"{major}.{minor}.txt"


def run(argv: list[str]) -> str:
    """``main(argv)`` at 80 columns: its exit code, standard output and error."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return (f"$ conceptrag {shlex.join(argv)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")


def transcript() -> str:
    return "".join(map(run, CASES))


if __name__ == "__main__":
    path().parent.mkdir(exist_ok=True)
    path().write_text(transcript(), encoding="utf-8")
