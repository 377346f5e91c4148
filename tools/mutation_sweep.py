"""Mutation sweep: does the test suite notice small faults in the source?

Each mutant makes one change to one source file: a ``raise`` statement
becomes ``pass``, or a boundary comparison flips (``<`` and ``<=``, ``>``
and ``>=``, each into the other). The sweep copies the repository into a
temporary directory, applies one mutant at a time there, and runs pytest on
the copy, for at most ``TIMEOUT`` seconds a mutant. A mutant the tests pass
on has survived: no test sees that fault. The working tree is never written.
The copy holds the files git tracks or would track, so nothing that
``.gitignore`` excludes is copied; outside a git checkout it holds the whole
tree but for ``_IGNORE``: ``.git``, the bench's work and caches.

    python tools/mutation_sweep.py src/conceptrag/penman.py src/conceptrag/distill.py
    python tools/mutation_sweep.py --list src/conceptrag/schema.py
    python tools/mutation_sweep.py --pytest-args "tests/test_distill.py -q -x" FILE

``--list`` only prints the sites and their count; no copy is made and no
test runs. The sweep prints one line per mutant, then the survivors, and
exits 1 when the unmutated copy already fails its tests.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
_FLIPS = {ast.Lt: (b"<", b"<="), ast.LtE: (b"<=", b"<"), ast.Gt: (b">", b">="),
          ast.GtE: (b">=", b">")}
TIMEOUT = 120.0  # seconds each test run may take
_IGNORE = (".git", ".bench_work", "__pycache__", ".hypothesis", ".pytest_cache")


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    line: int
    col: int  # 1-based, in bytes
    kind: str  # 'raise -> pass', or e.g. '< -> <=' for a flipped comparison
    start: int  # byte offsets of the replaced text in the file
    end: int
    replacement: bytes


def find_mutants(path: str) -> list[Mutant]:
    """Every mutant of the file at ``path`` (relative to the root), in file order."""
    source = (ROOT / path).read_bytes()
    starts = [0]  # the byte offset of each line, as ast counts lines
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line: int, col: int) -> int:
        return starts[line - 1] + col  # ast's columns are UTF-8 byte offsets

    mutants = []

    def add(start: int, end: int, kind: str, replacement: bytes) -> None:
        line = bisect.bisect_right(starts, start)
        mutants.append(Mutant(path, line, start - starts[line - 1] + 1, kind, start, end,
                              replacement))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            start = offset(node.lineno, node.col_offset)
            add(start, offset(node.end_lineno, node.end_col_offset), "raise -> pass", b"pass")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) not in _FLIPS:
                    continue
                old, new = _FLIPS[type(op)]
                gap_start = offset(left.end_lineno, left.end_col_offset)
                gap = source[gap_start : offset(right.lineno, right.col_offset)]
                # the operator is the gap's only '<' or '>'; brackets and blanks may surround it
                start = gap_start + gap.find(old[:1])
                add(start, start + len(old), f"{old.decode()} -> {new.decode()}", new)
    return sorted(mutants, key=lambda m: m.start)


def apply(source: bytes, mutant: Mutant) -> bytes:
    return source[: mutant.start] + mutant.replacement + source[mutant.end :]


def copy_checkout(dest: Path) -> None:
    """Copy the tracked and the untracked, not ignored files into ``dest``; outside
    a git checkout (say, a ``git archive`` export), the whole tree but for ``_IGNORE``."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT, capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):  # no git, or no checkout here
        shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(*_IGNORE))
        return
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted in the working tree
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_tests(copy: Path, pytest_args: list[str]) -> str:
    """'pass', 'fail' or 'timeout' for pytest in ``copy``. A run over time is
    killed with its whole process group, so forked workers go too."""
    # the copy's package comes first; the rest of the path may hold pytest
    path = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1",
           "HYPOTHESIS_PROFILE": "ci"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", *pytest_args], cwd=copy, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return "pass" if code == 0 else "fail"


def sweep(mutants: list[Mutant], pytest_args: list[str]) -> list[Mutant] | None:
    """Run the tests on a copy once per mutant; the survivors, or None when the
    unmutated copy already fails."""
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        copy = Path(tmp) / "repo"
        copy_checkout(copy)
        if run_tests(copy, pytest_args) != "pass":
            return None
        survivors = []
        for m in mutants:
            target = copy / m.path
            original = target.read_bytes()
            target.write_bytes(apply(original, m))
            began = time.monotonic()
            try:
                outcome = run_tests(copy, pytest_args)
            finally:
                target.write_bytes(original)
            print(f"{m.path}:{m.line}:{m.col}: {m.kind}: {outcome}"
                  f" ({time.monotonic() - began:.1f} s)", flush=True)
            if outcome == "pass":
                survivors.append(m)
    return survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="source files, relative to the repository root")
    parser.add_argument("--list", action="store_true", help="only print the sites and count them")
    parser.add_argument("--pytest-args", default="tests -q -x -p no:cacheprovider",
                        help="arguments for pytest, run in the copy (default: %(default)s)")
    args = parser.parse_args(argv)
    mutants = [m for path in args.files for m in find_mutants(path)]
    if args.list:
        for m in mutants:
            print(f"{m.path}:{m.line}:{m.col}: {m.kind}")
        print(f"{len(mutants)} sites")
        return 0
    survivors = sweep(mutants, shlex.split(args.pytest_args))
    if survivors is None:
        print("the unmutated copy does not pass its tests", file=sys.stderr)
        return 1
    print(f"{len(mutants)} mutants, {len(survivors)} survived")
    for m in survivors:
        print(f"survived: {m.path}:{m.line}:{m.col}: {m.kind}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
