"""``report`` with a baseline tallies the run and the baseline each in a forked
worker once the smaller ``records.json`` passes the size rule. Its output, messages
and exit codes are those of reading both runs in process, the run first. The size
rules of report and of concepts mode each fork from their boundary on."""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conceptrag import cli, ragpipe
from conceptrag.cli import EXIT_DATA, EXIT_INTERRUPTED, EXIT_OK, main
from conceptrag.corpus import load_dataset
from conceptrag.ragpipe import LlmBackendSpec, run_pipeline

PINNED = Path(__file__).parent / "data" / "report"
OUTPUTS = ("report.json", "report.tsv", "curve.svg")


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks of this process; the real ``os.fork`` does the work."""
    assert threading.active_count() == 1, "the pool runs only for a caller with one thread"
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.fixture
def pooled(monkeypatch):
    """Two usable CPUs and a size rule of one byte: every report whose run and
    baseline both have a records.json forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(cli, "_POOL_MIN_RECORDS_BYTES", 1)


def assert_nothing_left_running():
    with pytest.raises(ChildProcessError):  # no child at all, not even one to reap
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == 1


def report(out: Path, capsys) -> tuple:
    """``report run --baseline baseline --svg`` into ``out``: the exit code, the
    standard output and error, and the files written."""
    code = main(["report", "run", "--baseline", "baseline", "--out", str(out),
                 "--svg", str(out / "curve.svg")])
    files = {name: (out / name).read_bytes() for name in OUTPUTS if (out / name).exists()}
    return code, *capsys.readouterr(), files


def test_pinned_runs_give_the_pinned_report_from_workers(
    tmp_path, monkeypatch, capsys, pooled, forks
):
    monkeypatch.chdir(PINNED)  # the report's label is the path as given
    code, out, err, files = report(tmp_path, capsys)
    assert len(forks) == 2
    assert (code, out, err) == (EXIT_OK, (PINNED / "report.tsv").read_text("utf-8"), "")
    assert files == {name: (PINNED / name).read_bytes() for name in OUTPUTS}
    assert_nothing_left_running()


def test_a_run_without_a_baseline_is_tallied_in_process(
    tmp_path, monkeypatch, capsys, pooled, forks
):
    monkeypatch.chdir(PINNED)
    assert main(["report", "run", "--out", str(tmp_path)]) == EXIT_OK
    assert forks == []


def mistyped_k(text: str) -> str:
    """The last record's ``k`` made a string."""
    head, tail = text.rsplit('"k": ', 1)
    return f'{head}"k": "x"{tail[tail.index(","):]}'


def cut(text: str) -> str:
    """A syntax error at the end: the closing bracket is gone."""
    return text.removesuffix("\n]\n")


@pytest.mark.parametrize("run_fault, baseline_fault, message, forked", [
    (None, mistyped_k, "record key 'k' must be an integer", 2),
    (cut, None, f"records file {Path('run', 'records.json')} is not valid JSON", 2),
    (mistyped_k, cut, "record key 'k' must be an integer", 2),  # the run's fault first
    (None, "missing", "no records.json in baseline", 0),
], ids=["baseline", "run", "both", "missing-baseline"])
def test_a_fault_gives_the_message_of_reading_in_process(
    run_fault, baseline_fault, message, forked, tmp_path, monkeypatch, capsys, pooled, forks
):
    for name, fault in (("run", run_fault), ("baseline", baseline_fault)):
        if fault != "missing":
            text = (PINNED / name / "records.json").read_text("utf-8")
            (tmp_path / name).mkdir()
            (tmp_path / name / "records.json").write_text(fault(text) if fault else text)
    monkeypatch.chdir(tmp_path)
    code, out, err, _ = report(tmp_path / "out", capsys)
    assert len(forks) == forked
    assert (code, out) == (EXIT_DATA, "") and err.startswith(f"error: {message}")
    assert_nothing_left_running()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert report(tmp_path / "out", capsys)[:3] == (code, out, err)
    assert len(forks) == forked


def test_a_killed_worker_has_its_run_tallied_in_process(
    tmp_path, monkeypatch, capsys, pooled, forks
):
    parent, load_records, read_here = os.getpid(), cli._load_records, []

    def killed_on_the_baseline(results_dir):
        if os.getpid() != parent and results_dir == "baseline":
            os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer would
        read_here.append(results_dir)
        yield from load_records(results_dir)

    monkeypatch.setattr(cli, "_load_records", killed_on_the_baseline)
    monkeypatch.chdir(PINNED)
    code, out, err, files = report(tmp_path, capsys)
    assert len(forks) == 2 and read_here == ["baseline"]
    assert (code, out, err) == (EXIT_OK, (PINNED / "report.tsv").read_text("utf-8"), "")
    assert files == {name: (PINNED / name).read_bytes() for name in OUTPUTS}
    assert_nothing_left_running()


@pytest.mark.parametrize("cpus, forked", [({0, 1}, 2), ({0}, 0)])
def test_each_run_is_read_once_the_run_first(
    cpus, forked, tmp_path, monkeypatch, capsys, pooled, forks
):
    # the reads are logged to a file: a worker's list would die with it
    log, load_records = tmp_path / "reads.log", cli._load_records

    def logged(results_dir):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(results_dir + "\n")
        yield from load_records(results_dir)

    monkeypatch.setattr(cli, "_load_records", logged)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.chdir(PINNED)
    assert report(tmp_path, capsys)[0] == EXIT_OK
    assert len(forks) == forked
    reads = log.read_text("utf-8").split()
    if forks:  # in workers the two runs are read at once
        reads.sort(key=["run", "baseline"].index)
    assert reads == ["run", "baseline"]


@pytest.mark.parametrize("smaller", ["run", "baseline"])
@pytest.mark.parametrize("below, forked", [(1, 0), (0, 2)])
def test_the_smaller_file_decides_against_the_size_rule(
    smaller, below, forked, tmp_path, monkeypatch, capsys, forks
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    record = '[{"k": 1, "correct": true}]'
    for name in ("run", "baseline"):
        size = cli._POOL_MIN_RECORDS_BYTES - below + (name != smaller)
        (tmp_path / name).mkdir()
        (tmp_path / name / "records.json").write_text(record.ljust(size), "utf-8")
    monkeypatch.chdir(tmp_path)
    assert report(tmp_path / "out", capsys)[0] == EXIT_OK
    assert len(forks) == forked
    assert_nothing_left_running()


@pytest.mark.parametrize("extra_k, forked", [(10, 2), (9, 0)])
def test_concepts_runs_fork_from_the_pool_size(extra_k, forked, fixture_dataset_path,
                                               monkeypatch, forks):
    # the fixture's 110 documents and one more pair: 120 documents fork, 119 do not
    pairs = load_dataset(fixture_dataset_path)
    pairs.append(next(pair for pair in pairs if pair.k == extra_k))
    documents = sum(len(pair.documents) for pair in pairs)
    assert documents == ragpipe._POOL_MIN_DOCUMENTS - 10 + extra_k
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    oracle = LlmBackendSpec(kind="stub", policy="oracle-substring")
    assert len(run_pipeline(pairs, "concepts", oracle)) == len(pairs)
    assert len(forks) == forked
    assert_nothing_left_running()


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="report reads in workers only with two usable CPUs")
def test_ctrl_c_while_workers_read_prints_only_interrupted(tmp_path):
    # 30,000 records a run, well past the size rule: a few tenths of a second in
    # each worker. Ctrl-C from a terminal reaches the whole process group.
    lines = (PINNED / "run" / "records.json").read_text("utf-8").splitlines()[1:-1]
    lines = [line.removesuffix(",") for line in lines] * 1500
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "records.json").write_text("[\n" + ",\n".join(lines) + "\n]\n", "utf-8")
    assert (tmp_path / "run" / "records.json").stat().st_size > cli._POOL_MIN_RECORDS_BYTES
    src = str(Path(__file__).resolve().parents[1] / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "conceptrag.cli", "report", "run", "--baseline", "run"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        children_file = Path(f"/proc/{process.pid}/task/{process.pid}/children")
        deadline = time.monotonic() + 60
        while len(children := children_file.read_text().split()) < 2:
            assert process.poll() is None and time.monotonic() < deadline
            time.sleep(0.001)
        os.killpg(process.pid, signal.SIGINT)
        out, err = process.communicate(timeout=60)
        alive = [pid for pid in children if Path(f"/proc/{pid}").exists()]
    finally:  # whatever failed, nothing of the session is left running
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
    assert process.returncode == EXIT_INTERRUPTED
    assert (out, err) == ("", "interrupted\n")
    assert alive == []
    assert not (tmp_path / "run" / "report.json").exists()
