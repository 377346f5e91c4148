"""One timed call of ``conceptrag.cli.main`` in a fresh interpreter.

    python3 bench/worker.py --src SRC --result RESULT.json [--trace SPANS.json]
        [--cal-url URL] -- ARGV...

Times the import of ``conceptrag.cli`` from SRC (the set-up time), then the
one ``cli.main(ARGV)`` call: wall time, the process's user plus system CPU,
and the process's peak RSS. ``CAL_PASSES`` calibration passes are timed just
before the call and as many just after it, so that the call's times can be
scaled to a reference host speed (see ``run_bench.end_to_end``): interpreter
passes, or, with ``--cal-url``, HTTP passes to the chat stub at URL. The CLI's
standard output goes to this process's standard output; an exception out of
``cli.main`` is printed and recorded as exit code -1. With ``--trace``, spans
are recorded around the calls into each module (see ``tracing.py``) and
written to SPANS.json at the end.
"""

import os  # loaded at interpreter start-up either way
import sys
import time

_CAL_GRAPH = '(w / want-01 :ARG0 (b / boy :name (n / name :op1 "Ann")) :ARG1 (g / go-02 :ARG0 b)) '
CAL_PASSES = 8
HTTP_CAL_REQUESTS = 10


def interpreter_pass() -> float:
    """Seconds taken by a fixed piece of interpreter work that uses nothing
    of conceptrag: regex tokenising, dict counting, small objects, joins,
    JSON and a sort. Timed next to each ``cli.main`` call, it measures how
    fast the host runs Python at that moment."""
    import gc  # imported here, after the timed import (see main)
    import json
    import re

    token_re = re.compile(r'\s*([()/:]|"[^"]*"|[^\s()/:]+)')
    text = _CAL_GRAPH * 20
    gc.disable()  # so that the size of the program's heap does not count
    try:
        start = time.perf_counter()
        counts, rows = {}, []
        for i in range(150):
            tokens = token_re.findall(text)
            for token in tokens:
                counts[token] = counts.get(token, 0) + 1
            rows.append({"i": i, "head": " ".join(tokens[:12]), "n": len(tokens)})
        rows = json.loads(json.dumps(rows))
        rows.sort(key=lambda row: (row["head"], -row["i"]))
        return time.perf_counter() - start
    finally:
        gc.enable()


def http_pass(url: str) -> float:
    """Seconds taken by ``HTTP_CAL_REQUESTS`` chat requests to the chat stub
    at ``url``, one new connection each, sent with the stdlib's
    ``http.client``. It measures the round trip through the host's TCP stack
    and scheduler, which the HTTP workload's wall time depends on."""
    import http.client
    import json
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    body = json.dumps({"model": "calibration",
                       "messages": [{"role": "user", "content": "Facts: violin"}]})
    start = time.perf_counter()
    for _ in range(HTTP_CAL_REQUESTS):
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
        try:
            conn.request("POST", parts.path, body, {"Content-Type": "application/json"})
            json.loads(conn.getresponse().read())
        finally:
            conn.close()
    return time.perf_counter() - start


def main() -> int:
    # parsed by hand and the remaining imports made after the timed one, so
    # that the modules the CLI shares with this script count in its set-up
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = dict(zip(args[:split:2], args[1:split:2])), args[split + 1:]
    src = os.path.realpath(opts["--src"])
    sys.path.insert(0, src)

    start = time.perf_counter()
    import conceptrag.cli as cli

    setup_s = time.perf_counter() - start

    import functools
    import json
    import resource
    import traceback
    from pathlib import Path

    if Path(src) not in Path(cli.__file__).resolve().parents:
        print(f"conceptrag was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    entry = cli.main
    if "--trace" in opts:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap(tracing.ROOT_SPAN, cli.main)

    if "--cal-url" in opts:
        calibration_pass = functools.partial(http_pass, opts["--cal-url"])
    else:
        calibration_pass = interpreter_pass
    cal_before_s = [calibration_pass() for _ in range(CAL_PASSES)]
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        code = entry(argv)
    except Exception:  # the program crashed: report it as a failed call
        traceback.print_exc()
        code = -1
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    sys.stdout.flush()
    cal_after_s = [calibration_pass() for _ in range(CAL_PASSES)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        Path(opts["--trace"]).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    Path(opts["--result"]).write_text(json.dumps({
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "cal_passes_s": cal_before_s + cal_after_s,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
