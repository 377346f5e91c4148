"""Concepts mode compressing in forked worker processes gives the records that
compressing in process gives."""

import errno
import os
import signal
import threading

import pytest

from conceptrag import ragpipe
from conceptrag.corpus import SupportDoc, load_dataset
from conceptrag.distill import DistillConfig
from conceptrag.ragpipe import LlmBackendSpec, run_pipeline

ORACLE = LlmBackendSpec(kind="stub", policy="oracle-substring")
REPEATED_OP = SupportDoc("A B", True, '(p / person :name (n / name :op1 "A" :op01 "B"))')
UNPARSABLE = SupportDoc("violin solo", True, "(v / violin")
NO_AMR = SupportDoc("violin solo", True)

pytestmark = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the pool runs only with two usable CPUs",
)


@pytest.fixture
def big_pairs(fixture_dataset_path):
    """The fixture's pairs three times over, past the pool's size rule, with
    failing pairs among them: a repeated ``:op`` index, unparsable AMR, a
    document without AMR and no endpoint, and the two ways a pair's first
    failing document is chosen."""
    pairs = load_dataset(fixture_dataset_path)
    first = pairs[0]
    failing = [first._replace(documents=docs) for docs in [
        (REPEATED_OP,), (UNPARSABLE,), (NO_AMR,), (REPEATED_OP, UNPARSABLE),
        (UNPARSABLE, REPEATED_OP), (*first.documents, NO_AMR),
    ]]
    big = pairs + failing[:3] + pairs + failing[3:] + pairs
    assert sum(len(pair.documents) for pair in big) >= ragpipe._POOL_MIN_DOCUMENTS
    return big


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


def in_process(monkeypatch, pairs, config):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return run_pipeline(pairs, "concepts", ORACLE, config=config)


def without_latency(records):
    return [record._replace(latency_ms=0.0) for record in records]


def assert_nothing_left_running():
    with pytest.raises(ChildProcessError):  # no child at all, not even one to reap
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == 1


@pytest.mark.parametrize("config", [
    DistillConfig(),
    DistillConfig(traversal="local-random", seed=7),
    DistillConfig(traversal="global-random", seed=7),
    DistillConfig(idf_enabled=True, idf_threshold=0.2),
], ids=["dfs", "local-random-7", "global-random-7", "idf-0.2"])
def test_pool_records_equal_in_process_records(config, big_pairs, forks, monkeypatch):
    expected = in_process(monkeypatch, big_pairs, config)
    assert forks == []
    records = run_pipeline(big_pairs, "concepts", ORACLE, config=config)
    assert len(forks) == len(os.sched_getaffinity(0))
    assert without_latency(records) == without_latency(expected)
    assert_nothing_left_running()
    # a pair reports its first failing document, in order, at any stage
    failures = [(record.error_kind, record.error.split(":")[0]) for record in records
                if record.error]
    assert failures == [("data", name) for name in (
        "DistillError", "AmrParseError", "ValueError", "DistillError", "AmrParseError",
        "ValueError",
    )]


def test_three_workers_take_every_third_pair(big_pairs, forks, monkeypatch):
    # the affinity is patched, so this holds on a host with two CPUs too
    expected = in_process(monkeypatch, big_pairs, DistillConfig())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    records = run_pipeline(big_pairs, "concepts", ORACLE)
    assert len(forks) == 3
    assert without_latency(records) == without_latency(expected)
    assert_nothing_left_running()


@pytest.mark.parametrize("failing_fork", [1, 2])
def test_a_fork_that_fails_compresses_in_process(failing_fork, big_pairs, forks, monkeypatch):
    # the first fork fails, or the second after one worker started: that worker ends
    expected = in_process(monkeypatch, big_pairs, DistillConfig())
    counting_fork = os.fork

    def fork():
        if len(forks) + 1 == failing_fork:
            forks.append(1)
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    records = run_pipeline(big_pairs, "concepts", ORACLE)
    assert len(forks) == failing_fork
    assert without_latency(records) == without_latency(expected)
    assert_nothing_left_running()


def test_a_killed_worker_has_its_pairs_compressed_in_process(big_pairs, forks, monkeypatch):
    big_pairs[5] = victim = big_pairs[5]._replace()  # one pair, told apart by identity
    expected = in_process(monkeypatch, big_pairs, DistillConfig())
    parent, compress_pair, compressed_here = os.getpid(), ragpipe.compress_pair, []

    def killed_on_the_victim(pair, **settings):
        if pair is victim:
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer would
            compressed_here.append(pair)
        return compress_pair(pair, **settings)

    monkeypatch.setattr(ragpipe, "compress_pair", killed_on_the_victim)
    records = run_pipeline(big_pairs, "concepts", ORACLE)
    assert len(forks) == len(os.sched_getaffinity(0))
    assert compressed_here == [victim]
    assert without_latency(records) == without_latency(expected)
    assert_nothing_left_running()


def test_an_error_in_the_workers_raises_as_it_does_in_process(big_pairs, forks, monkeypatch):
    compress_pair = ragpipe.compress_pair

    def fails_on_one_pair(pair, **settings):
        if pair is big_pairs[-1]:
            raise RuntimeError("a fault in compress_pair")
        return compress_pair(pair, **settings)

    monkeypatch.setattr(ragpipe, "compress_pair", fails_on_one_pair)
    with pytest.raises(RuntimeError, match="^a fault in compress_pair$"):
        in_process(monkeypatch, big_pairs, DistillConfig())
    assert forks == []
    with pytest.raises(RuntimeError, match="^a fault in compress_pair$"):
        run_pipeline(big_pairs, "concepts", ORACLE)
    assert len(forks) == len(os.sched_getaffinity(0))
    assert_nothing_left_running()


def test_small_runs_and_parse_endpoint_runs_stay_in_process(
    big_pairs, fixture_dataset_path, forks
):
    run_pipeline(load_dataset(fixture_dataset_path), "concepts", ORACLE)
    # a document without AMR would send a parse-endpoint request
    [record] = run_pipeline(
        big_pairs[:-1] + [big_pairs[0]._replace(documents=(REPEATED_OP, NO_AMR))],
        "concepts", ORACLE, parse_endpoint="http://127.0.0.1:9/x",
    )[-1:]
    assert forks == []
    assert record.error_kind == "data"
    assert record.error == "DistillError: name node 'n' repeats op index 1"
