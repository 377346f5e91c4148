"""Loopback chat-completions stub for the ``eval-keywords-http`` workload.

Stdlib only. Serves ``POST`` requests on 127.0.0.1 with a fixed pool of
``THREADS`` handler threads that accept connections from one listening
socket, so it never runs more threads than the client's ``max_parallel``.
HTTP/1.1 keep-alive is honoured, so a client that reuses connections shows
up as more requests per connection; Nagle's algorithm is off, so a response
on a reused connection is not held back for the client's delayed ACK.

Answers are deterministic. A keyword-extraction prompt over a fixture-shaped
document ("... she played the violin at ...") gets the document's answer noun;
any other prompt gets the first word of its facts segment. Each request waits
a fixed ``DELAY_S`` of service time before answering.

Protocol on the standard streams: after binding, print ``port N``. Each
``stats`` line on stdin prints one JSON line with the connections accepted,
requests served and handling seconds since the last ``stats``; end of input
stops the server.

    python3 bench/chat_stub.py
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler

_ANSWER_NOUN_RE = re.compile(r"### Input: \{.*? the (\w+) at ", re.S)
_FACTS_RE = re.compile(r"Facts: (\w+)")
THREADS = 2  # the client's max_parallel
DELAY_S = 0.002


def answer_for(prompt: str) -> str:
    match = _ANSWER_NOUN_RE.search(prompt) or _FACTS_RE.search(prompt)
    return match.group(1) if match else "unknown"


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.handling_s = 0.0

    def snapshot_and_reset(self) -> dict:
        with self.lock:
            snap = {"connections": self.connections, "requests": self.requests,
                    "handling_s": self.handling_s}
            self.connections = self.requests = 0
            self.handling_s = 0.0
        return snap


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive unless the client closes
    disable_nagle_algorithm = True
    counters: Counters

    def do_POST(self):
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        prompt = body["messages"][-1]["content"]
        time.sleep(DELAY_S)
        payload = json.dumps({
            "object": "chat.completion",
            "model": body.get("model", ""),
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": answer_for(prompt)}}],
        }).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        self.wfile.flush()
        elapsed = time.perf_counter() - start
        with self.counters.lock:
            self.counters.requests += 1
            self.counters.handling_s += elapsed

    def log_message(self, format, *args):  # keep stderr quiet
        pass


def _serve(listener: socket.socket, handler: type, counters: Counters) -> None:
    while True:
        try:
            conn, addr = listener.accept()
        except OSError:  # listener closed: shut down
            return
        with counters.lock:
            counters.connections += 1
        try:
            handler(conn, addr, None)
        except (OSError, ValueError):
            pass  # a client that drops its connection ends only that connection
        finally:
            conn.close()


def main() -> None:
    counters = Counters()
    handler = type("Handler", (_Handler,), {"counters": counters})
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(64)
    threads = [threading.Thread(target=_serve, args=(listener, handler, counters), daemon=True)
               for _ in range(THREADS)]
    for thread in threads:
        thread.start()
    print(f"port {listener.getsockname()[1]}", flush=True)
    for line in sys.stdin:
        if line.strip() == "stats":
            print(json.dumps(counters.snapshot_and_reset()), flush=True)
    listener.shutdown(socket.SHUT_RDWR)
    listener.close()
    for thread in threads:
        thread.join(timeout=1)


if __name__ == "__main__":
    main()
