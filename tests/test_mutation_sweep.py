"""tools/mutation_sweep.py: its sites, and a run that mutates only a copy."""

import importlib.util
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "tools" / "mutation_sweep.py"
SCHEMA = "src/conceptrag/schema.py"


def sweep(*args: str) -> str:
    done = subprocess.run([sys.executable, str(SWEEP), *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=300, check=True)
    return done.stdout


def test_list_finds_every_raise_in_schema():
    source = (ROOT / SCHEMA).read_text(encoding="utf-8")
    raises = [tok.start for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type == tokenize.NAME and tok.string == "raise"]
    lines = sweep("--list", SCHEMA).splitlines()
    listed = [line for line in lines if line.endswith(": raise -> pass")]
    assert listed == [f"{SCHEMA}:{row}:{col + 1}: raise -> pass" for row, col in raises]
    assert lines[-1] == f"{len(lines) - 1} sites"


def test_a_run_mutates_a_copy_and_leaves_src_unchanged(capsys):
    spec = importlib.util.spec_from_file_location("mutation_sweep", SWEEP)
    mutation_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutation_sweep)
    before = {path: path.read_bytes() for path in (ROOT / "src").rglob("*.py")}
    # the first mutant lets a non-object config through, which this test sees
    pytest_args = ["tests/test_cli.py", "-q", "-x", "-p", "no:cacheprovider",
                   "-k", "malformed_config_is_data_error"]
    first = mutation_sweep.find_mutants(SCHEMA)[0]
    assert mutation_sweep.sweep([first], pytest_args) == []
    assert {path: path.read_bytes() for path in (ROOT / "src").rglob("*.py")} == before
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith(sweep("--list", SCHEMA).splitlines()[0] + ": fail (")
