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


def load_sweep():
    spec = importlib.util.spec_from_file_location("mutation_sweep", SWEEP)
    mutation_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutation_sweep)
    return mutation_sweep


def test_outside_a_checkout_the_tree_is_copied_but_git_and_caches(tmp_path, monkeypatch):
    mutation_sweep = load_sweep()

    def no_checkout(args, **kwargs):
        raise subprocess.CalledProcessError(128, args)

    monkeypatch.setattr(mutation_sweep.subprocess, "run", no_checkout)
    mutation_sweep.copy_checkout(tmp_path / "copy")
    copied = {path.relative_to(tmp_path / "copy") for path in (tmp_path / "copy").rglob("*")}
    assert Path(SCHEMA) in copied and Path("tests/test_mutation_sweep.py") in copied
    assert not {part for path in copied for part in path.parts} & set(mutation_sweep._IGNORE)


def test_a_run_mutates_a_copy_and_leaves_src_unchanged(capsys):
    mutation_sweep = load_sweep()
    before = {path: path.read_bytes() for path in (ROOT / "src").rglob("*.py")}
    # the first mutant lets a non-object config through, which this test sees
    pytest_args = ["tests/test_cli.py", "-q", "-x", "-p", "no:cacheprovider",
                   "-k", "malformed_config_is_data_error"]
    first = mutation_sweep.find_mutants(SCHEMA)[0]
    assert mutation_sweep.sweep([first], pytest_args) == []
    assert {path: path.read_bytes() for path in (ROOT / "src").rglob("*.py")} == before
    [line] = capsys.readouterr().out.splitlines()
    assert line.startswith(sweep("--list", SCHEMA).splitlines()[0] + ": fail (")
