"""conceptrag benchmark: four workloads through the real CLI entry point.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --self-check

Run from the root of a source checkout; the program is imported from its
``src/`` directory. Inputs are generated from the seed into ``.bench_work/``
(removed at the end). Each timed sample is one ``conceptrag.cli.main`` call
in a fresh interpreter (``worker.py``); rounds of samples repeat until S
seconds have passed (at least three rounds), and every sample's output is
checked against references the generator computed itself.

Workloads:
  eval-concepts       eval --mode concepts, stub oracle-substring backend
  eval-keywords-http  eval --mode keywords, http-chat backend on the loopback
                      chat stub (chat_stub.py), max_parallel 2
  distill-long        distill on one ~3,000-node multi-sentence document
  report              report RUN --baseline BASE --svg over 2 x 50k records

With ``--trace 0`` the result holds the end-to-end metrics (see
``end_to_end`` for the statistic each uses; wall and CPU time are scaled to a
reference host speed); with ``--trace 1`` it holds the per-layer metrics from
traced samples, including the tracing overhead. The last line of standard
output is the JSON result; the lines before it list every metric with its
unit, the workload's own throughput name (pairs_per_s, nodes_per_s or
records_per_s), the wall and CPU time as measured, the error rate, and the
provenance (host, Python, package version, source hash, seed and input
sizes). ``--self-check`` runs every workload once at a
tiny scale and checks outputs and metric names, and checks the chat stub on
a kept-alive connection; its one timing assertion is a loose latency ceiling.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import chat_stub
import inputs
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("eval-concepts", "eval-keywords-http", "distill-long", "report")
MIN_ROUNDS = 3
WORKER_TIMEOUT_S = 120
SELF_CHECK_SCALE = 0.02
# Seconds one calibration pass takes at the reference speed. For
# worker.interpreter_pass, the faster of the two speeds a shared 2-vCPU Xeon
# VM with Python 3.11 was seen to switch between (the slower is ~1.6x); for
# worker.http_pass, the time the same VM took when calm.
REF_CAL_S = 0.020
REF_HTTP_CAL_S = 0.030

THROUGHPUT_NAME = {"eval-concepts": "pairs_per_s", "eval-keywords-http": "pairs_per_s",
                   "distill-long": "nodes_per_s", "report": "records_per_s"}


class BenchError(Exception):
    """The benchmark cannot run here (no program, a worker that will not start)."""


# --- workloads -----------------------------------------------------------------


class Workload:
    """Inputs, CLI arguments and output check of one workload."""

    items = 0  # work items per call: pairs, nodes or records
    sizes: dict = {}
    stub: ChatStub | None = None
    # HTTP workloads are calibrated with round trips to a second chat stub
    cal_stub: ChatStub | None = None
    ref_cal_s = REF_CAL_S

    def __init__(self, work: Path):
        self.work = work

    def argv(self, out: Path, half: bool = False) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path, stdout: str, half: bool = False) -> int:
        """Number of work items whose output is wrong."""
        raise NotImplementedError

    def clear_outputs(self, out: Path) -> None:
        """Remove what the last call wrote, so a check never sees stale output."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()

    def records_bytes(self, out: Path) -> int:
        return 0

    def close(self) -> None:
        for stub in (self.stub, self.cal_stub):
            if stub is not None:
                stub.close()


class EvalWorkload(Workload):
    def __init__(self, name: str, work: Path, seed: int, scale: float):
        super().__init__(work)
        self.ref = inputs.write_eval_dataset(name, seed, work, scale)
        self.items = len(self.ref["prompts"])
        self.sizes = self.ref["sizes"]
        if name == "eval-concepts":
            self.mode = "concepts"
            spec = {"kind": "stub", "policy": "oracle-substring", "max_parallel": 1}
        else:
            self.mode = "keywords"
            self.stub = ChatStub()
            try:
                self.cal_stub = ChatStub()
            except BenchError:
                self.stub.close()
                raise
            self.ref_cal_s = REF_HTTP_CAL_S
            spec = {"kind": "http-chat", "model": "bench-stub", "timeout_s": 30.0,
                    "max_parallel": chat_stub.THREADS,
                    "endpoint_url": self.stub.url}
        self.backend = work / "backend.json"
        self.backend.write_text(json.dumps(spec), encoding="utf-8")

    def argv(self, out, half=False):
        return ["eval", str(self.ref["dataset"]), "--backend", str(self.backend),
                "--mode", self.mode, "--out", str(out)]

    def check(self, out, stdout, half=False):
        try:
            records = json.loads((out / "records.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return self.items
        wrong = abs(len(records) - self.items)
        for record, prompt, answer in zip(records, self.ref["prompts"], self.ref["answers"]):
            ok = (record.get("prompt") == prompt and record.get("error") is None
                  and record.get("correct") is True and record.get("gold_answers") == [answer])
            wrong += not ok
        return min(wrong, self.items)

    def records_bytes(self, out):
        path = out / "records.json"
        return path.stat().st_size if path.exists() else 0


class DistillWorkload(Workload):
    def __init__(self, work, seed, scale):
        super().__init__(work)
        self.full, self.half = inputs.write_long_docs(seed, work, scale)
        self.items = self.full["sizes"]["nodes"]
        self.sizes = {**self.full["sizes"], "half_nodes": self.half["sizes"]["nodes"]}

    def argv(self, out, half=False):
        ref = self.half if half else self.full
        return ["distill", str(ref["penman"]), str(ref["text"])]

    def check(self, out, stdout, half=False):
        ref = self.half if half else self.full
        expected, got = ref["lines"], stdout.splitlines()
        wrong = abs(len(expected) - len(got)) + sum(a != b for a, b in zip(expected, got))
        return ref["sizes"]["nodes"] if wrong else 0


class ReportWorkload(Workload):
    def __init__(self, work, seed, scale):
        super().__init__(work)
        self.ref = inputs.write_report_runs(seed, work, scale)
        self.items = 2 * self.ref["records"]
        self.sizes = self.ref["sizes"]

    def argv(self, out, half=False):
        return ["report", str(self.ref["run_dir"]), "--baseline", str(self.ref["base_dir"]),
                "--svg", str(out / "curve.svg")]

    def check(self, out, stdout, half=False):
        try:
            report = json.loads((self.ref["run_dir"] / "report.json").read_text("utf-8"))
            svg = (out / "curve.svg").read_text(encoding="utf-8")
        except (OSError, ValueError):
            return self.items
        ok = report.get("records") == self.ref["records"] and report.get("errors") == 0
        ok = ok and svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        acc = report.get("accuracy_per_k", {})
        ok = ok and sorted(acc) == sorted(str(k) for k in self.ref["accuracy_per_k"])
        ok = ok and all(_close(acc.get(str(k)), v) for k, v in self.ref["accuracy_per_k"].items())
        rows = {row.get("interval"): row for row in report.get("intg", [])}
        for interval, want in self.ref["intg"].items():
            row = rows.get(interval, {})
            ok = ok and _close(row.get("intg"), want["intg"])
            ok = ok and _close(row.get("delta"), want["delta"])
        return 0 if ok else self.items

    def clear_outputs(self, out):
        super().clear_outputs(out)
        for name in ("report.json", "report.tsv"):
            (self.ref["run_dir"] / name).unlink(missing_ok=True)

    def records_bytes(self, out):
        return sum((d / "records.json").stat().st_size
                   for d in (self.ref["run_dir"], self.ref["base_dir"]))


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= 1e-9 * max(1.0, abs(want))


def make_workload(name: str, work: Path, seed: int, scale: float) -> Workload:
    if name.startswith("eval-"):
        return EvalWorkload(name, work, seed, scale)
    if name == "distill-long":
        return DistillWorkload(work, seed, scale)
    return ReportWorkload(work, seed, scale)


class ChatStub:
    """The loopback chat-completions stub, in its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "chat_stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise BenchError("chat stub did not start")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self) -> dict:
        """Connections, requests and handling seconds since the last call."""
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# --- samples -------------------------------------------------------------------


class Runner:
    def __init__(self, workload: Workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        # loopback requests must not go through a proxy; a fixed hash seed
        # keeps set and dict layouts the same from sample to sample
        self.env = {**os.environ, "NO_PROXY": "127.0.0.1,localhost",
                    "no_proxy": "127.0.0.1,localhost", "PYTHONHASHSEED": "0"}

    def _worker(self, args: list[str], stdout_path: Path) -> dict:
        result_path = self.wl.work / "result.json"
        result_path.unlink(missing_ok=True)
        cal = [] if self.wl.cal_stub is None else ["--cal-url", self.wl.cal_stub.url]
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--src", str(SRC),
               "--result", str(result_path), *cal, *args]
        with open(stdout_path, "w", encoding="utf-8") as stdout:
            try:
                proc = subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True,
                                      cwd=ROOT, env=self.env, timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S}s") from None
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"worker failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def sample(self, trace: bool = False, half: bool = False) -> dict:
        """One worker call, checked. Returns its measurements (and layer
        metrics when traced)."""
        wl = self.wl
        out = wl.work / "out"
        wl.clear_outputs(out)
        spans_path, stdout_path = wl.work / "spans.json", wl.work / "stdout.txt"
        spans_path.unlink(missing_ok=True)
        args = ["--trace", str(spans_path)] if trace else []
        result = self._worker([*args, "--", *wl.argv(out, half)], stdout_path)
        items = wl.half["sizes"]["nodes"] if half else wl.items
        wrong = items if result["exit_code"] != 0 else wl.check(
            out, stdout_path.read_text(encoding="utf-8"), half)
        self.attempted += items
        self.failed += wrong
        if wl.stub is not None:
            result["stub"] = wl.stub.stats()
        if trace:
            result["layers"] = tracing.layer_metrics(
                json.loads(spans_path.read_text(encoding="utf-8")))
        result["records_bytes"] = wl.records_bytes(out)
        return result

    def measure(self, seconds: float, min_rounds: int, trace: bool) -> list[dict]:
        """Rounds of samples until ``seconds`` have passed and at least
        ``min_rounds`` were taken. A round is a plain sample; traced, it is a
        plain and a traced sample (plus a traced half-size one on
        distill-long), so that drift in host speed hits the two alike."""
        rounds = []
        deadline = time.perf_counter() + seconds
        while len(rounds) < min_rounds or time.perf_counter() < deadline:
            if trace:
                rnd = {"plain": self.sample(), "traced": self.sample(trace=True)}
                if isinstance(self.wl, DistillWorkload):
                    rnd["half"] = self.sample(trace=True, half=True)
            else:
                rnd = {"plain": self.sample()}
            rounds.append(rnd)
        return rounds


def end_to_end(wl: Workload, rounds: list[dict]) -> dict[str, float]:
    """Set-up time and peak RSS are medians. Wall and CPU time are scaled to
    the reference speed: the run's total over the total time of the
    calibration passes timed next to each call, times the workload's
    ``ref_cal_s``."""
    plain = [r["plain"] for r in rounds]
    cal = sum(mean(s["cal_passes_s"]) for s in plain) / wl.ref_cal_s
    wall = sum(s["wall_s"] for s in plain) / cal
    return {
        "setup_s": median(s["setup_s"] for s in plain),
        "ref_wall_s": wall,
        "ref_cpu_s": sum(s["cpu_s"] for s in plain) / cal,
        "ref_items_per_s": wl.items / wall,
        "peak_rss_mb": median(s["peak_rss_mb"] for s in plain),
    }


def per_layer(wl: Workload, rounds: list[dict]) -> dict[str, float]:
    traced = [r["traced"] for r in rounds]
    names = traced[0]["layers"].keys()
    out = {name: median(s["layers"][name] for s in traced) for name in names}
    del out["parse_distill_s"]
    # paired within each round, so that drift in host speed cancels
    out["distill.size_exponent"] = 0.0
    if isinstance(wl, DistillWorkload):
        out["distill.size_exponent"] = median(
            math.log2(r["traced"]["layers"]["parse_distill_s"]
                      / r["half"]["layers"]["parse_distill_s"]) for r in rounds)
    stubbed = [s for s in traced if "stub" in s]
    out["ragpipe.http.server_s"] = out["ragpipe.http.client_overhead_ms"] = 0.0
    out["ragpipe.http.requests_per_connection"] = 0.0
    if stubbed:
        out["ragpipe.http.server_s"] = median(s["stub"]["handling_s"] for s in stubbed)
        out["ragpipe.http.client_overhead_ms"] = median(
            1000.0 * (s["layers"]["ragpipe.query_llm.busy_s"] - s["stub"]["handling_s"])
            / max(1, s["layers"]["ragpipe.query_llm.calls"]) for s in stubbed)
        out["ragpipe.http.requests_per_connection"] = (
            sum(s["stub"]["requests"] for s in stubbed)
            / max(1, sum(s["stub"]["connections"] for s in stubbed)))
    out["cli.records_bytes"] = median(s["records_bytes"] for s in traced)
    out["trace.overhead_s"] = median(r["traced"]["wall_s"] - r["plain"]["wall_s"] for r in rounds)
    return out


def metric_units(trace: bool) -> dict[str, str]:
    """Metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def provenance(workload: str, seed: int, seconds: int, wl: Workload) -> dict:
    init = (SRC / "conceptrag" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'__version__ = "([^"]+)"', init)
    digest = hashlib.sha256()
    for path in sorted((SRC / "conceptrag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "input_sizes": wl.sizes,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "package_version": version and version.group(1),
        "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
    }


# --- entry points ----------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        min_rounds: int = MIN_ROUNDS) -> tuple[dict, list[str]]:
    """Run one workload; returns the JSON result and the report lines."""
    if not (SRC / "conceptrag" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'conceptrag'} is missing")
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = None
    try:
        wl = make_workload(workload, work, seed, scale)
        runner = Runner(wl)
        runner.sample()  # warm-up, not timed: fills the byte-code cache
        rounds = runner.measure(seconds, min_rounds, trace)
        metrics = per_layer(wl, rounds) if trace else end_to_end(wl, rounds)
        lines = [f"# workload {workload}  seed {seed}  rounds {len(rounds)}  trace {int(trace)}",
                 "# provenance " + json.dumps(provenance(workload, seed, seconds, wl))]
        units = metric_units(trace)
        if set(units) != set(metrics):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
                             "BENCHMARK.json")
        for name, value in metrics.items():
            lines.append(f"{name:<40} {value:>14.6g} {units[name]}")
        if not trace:
            lines.append(f"{THROUGHPUT_NAME[workload]:<40} {metrics['ref_items_per_s']:>14.6g} "
                         "1/s at the reference speed")
            plain = [r["plain"] for r in rounds]
            for name in ("wall_s", "cpu_s"):
                lines.append(f"{name + ' as measured, median':<40} "
                             f"{median(s[name] for s in plain):>14.6g} s")
            cal = median(mean(s["cal_passes_s"]) for s in plain)
            lines.append(f"{'calibration pass, median':<40} {cal:>14.6g} s")
        lines.append(f"{'error_rate':<40} {runner.failed / runner.attempted:>14.6g} ratio")
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        return result, lines
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def stub_keepalive_check(calls: int = 20) -> str | None:
    """Posts ``calls`` requests to the chat stub over one kept-alive
    connection. Returns what is wrong, or None: every answer right, one
    connection for all, and a median latency near the stub's service time
    (a response held back for a delayed ACK would take ~40 ms)."""
    import requests

    stub = ChatStub()
    body = {"model": "bench-stub", "messages": [{"role": "user", "content": "Facts: violin"}]}
    latencies, answers = [], set()
    try:
        with requests.Session() as session:
            session.trust_env = False  # no proxy for the loopback
            for _ in range(calls):
                start = time.perf_counter()
                reply = session.post(stub.url, json=body, timeout=30)
                latencies.append(time.perf_counter() - start)
                answers.add(reply.json()["choices"][0]["message"]["content"])
        stats = stub.stats()
    finally:
        stub.close()
    latency_ms = 1000.0 * median(latencies)
    print(f"chat stub keep-alive: {stats['requests']} requests, {stats['connections']} "
          f"connection(s), median latency {latency_ms:.1f} ms")
    if answers != {"violin"} or stats["requests"] != calls or stats["connections"] != 1:
        return f"answers {sorted(answers)}, stats {stats}"
    if latency_ms > 10_000.0 * chat_stub.DELAY_S:
        return f"median latency {latency_ms:.1f} ms"
    return None


def self_check() -> int:
    """Every workload once at tiny scale, plain and traced, with its outputs
    checked and its metric names matched against BENCHMARK.json, and the
    chat stub's keep-alive path checked. The only timing assertion is the
    stub's loose latency ceiling, ten times its service time."""
    failed = []
    stub_problem = stub_keepalive_check()
    if stub_problem:
        failed.append(f"chat stub keep-alive ({stub_problem})")
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = run(workload, seed=1, seconds=0, trace=trace, scale=SELF_CHECK_SCALE,
                            min_rounds=1)
            print(f"{workload:<20} trace={int(trace)} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            if not result["correct"]:
                failed.append(f"{workload} trace={int(trace)}")
    print("self-check " + (f"failed: {', '.join(failed)}" if failed else "ok"))
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="conceptrag benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
