"""Prompt assembly, LLM backends, and the end-to-end evaluation pipeline.

Prompts are deterministic functions of their inputs; backends are pluggable
behind one spec (an OpenAI-compatible chat endpoint or a deterministic stub),
so swapping the backend never changes the prompts and swapping the
compression mode never changes which documents are consulted.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import NamedTuple
from urllib.parse import unquote, urlsplit

from . import metrics
from .corpus import DatasetError, QadPair
from .distill import DistillConfig, common_terms, distill_documents
from .metrics import MODES, PipelineRecord
from .penman import parse_amr
from .pool import fork_map, usable_cpus
from .schema import to_json

FACT_PROMPT_PREFIX = "Refer to the following facts to answer the question. Facts: "
BASELINE_INSTRUCTIONS = {
    "keywords": "Extract a few keywords from the following content.",
    "summary": "Generate a short summary of the following content.",
}
_FACTS_SEGMENT_RE = re.compile(r"Facts: (.*)\. Question:", re.S)
_INPUT_SEGMENT_RE = re.compile(r"### Input: \{(.*)\}\n### Response: \Z", re.S)
_USERINFO_RE = re.compile(r"[^/?#]*//[^/?#]*@")  # a URL whose authority names a user


class BackendError(RuntimeError):
    """Base class for backend failures; ``retryable`` marks transient ones."""

    retryable = False


class BackendTimeout(BackendError):
    """The request timed out or the endpoint was unreachable."""

    retryable = True


class BackendHttpError(BackendError):
    """The endpoint answered with a non-2xx status."""

    def __init__(self, status: int, body: str = ""):
        super().__init__(f"backend returned HTTP {status}: {body[:200]}")
        self.status = status
        self.retryable = status == 429 or status >= 500


class BackendProtocolError(BackendError):
    """The response body did not follow the chat-completions schema."""

    retryable = False


class _LlmBackendSpecFields(NamedTuple):
    kind: str  # 'http-chat' | 'stub'
    endpoint_url: str = ""
    model: str = ""
    auth_env: str = ""
    timeout_s: float = 30.0
    max_parallel: int = 1
    temperature: float = 0.0
    max_tokens: int = 64
    retries: int = 0
    policy: str = "oracle-substring"


class LlmBackendSpec(_LlmBackendSpecFields):
    """Declarative description of an answer-producing backend.

    ``http-chat`` posts to an OpenAI-compatible chat-completions endpoint
    (bearer token read from the environment variable named by ``auth_env``).
    ``stub`` answers deterministically: the ``echo-facts`` policy returns the
    prompt's facts segment, ``oracle-substring`` returns the first gold
    answer found verbatim in the prompt, else "unknown". The constructor
    checks the values; ``_replace`` skips the checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in ("http-chat", "stub"):
            raise ValueError(
                f"backend spec key 'kind' must be 'http-chat' or 'stub', not {self.kind!r}"
            )
        if self.kind == "http-chat" and not self.endpoint_url:
            raise ValueError("backend spec key 'endpoint_url' must be set for an http-chat backend")
        if _USERINFO_RE.match(self.endpoint_url):  # the spec is written out whole
            raise ValueError("backend spec key 'endpoint_url' must not hold a user or password; "
                             "name the token's variable in auth_env")
        if self.kind == "stub" and self.policy not in ("echo-facts", "oracle-substring"):
            raise ValueError(
                "backend spec key 'policy' must be 'echo-facts' or 'oracle-substring', "
                f"not {self.policy!r}"
            )
        # also rejects NaN; a socket timeout overflows above threading.TIMEOUT_MAX
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:
            raise ValueError("backend spec key 'timeout_s' must be above 0 and at most "
                             f"{threading.TIMEOUT_MAX:.0f}")
        if self.max_parallel < 1:
            raise ValueError("backend spec key 'max_parallel' must be at least 1")
        if self.max_tokens < 1:
            raise ValueError("backend spec key 'max_tokens' must be at least 1")
        if self.retries < 0:
            raise ValueError("backend spec key 'retries' must be at least 0")
        return self

    @property
    def label(self) -> str:
        if self.kind == "stub":
            return f"stub:{self.policy}"
        return f"http:{self.model or self.endpoint_url}"


# --- prompts -----------------------------------------------------------------


def fact_prompt_from_strings(doc_facts: list[str], question: str) -> str:
    """The faithful-intensive template over per-document fact strings:
    documents joined with a single space."""
    if not doc_facts or any(not f for f in doc_facts):
        raise ValueError("every document must contribute a non-empty facts string")
    if not question:
        raise ValueError("question must be non-empty")
    return f"{FACT_PROMPT_PREFIX}{' '.join(doc_facts)}. Question: {question}"


def build_baseline_prompt(kind: str, doc: str) -> str:
    """The keyword-extraction / summarization instruction template."""
    if kind not in BASELINE_INSTRUCTIONS:
        raise ValueError(f"unknown baseline prompt kind {kind!r}")
    if not doc:
        raise ValueError("document must be non-empty")
    return (
        "Below is an instruction that describes a task, paired with an input "
        "that provides content.\n"
        f"### Instruction: {{{BASELINE_INSTRUCTIONS[kind]}}}\n"
        f"### Input: {{{doc}}}\n"
        "### Response: "
    )


def _facts_segment(prompt: str) -> str:
    match = _FACTS_SEGMENT_RE.search(prompt) or _INPUT_SEGMENT_RE.search(prompt)
    return match.group(1) if match else prompt


# --- backends ----------------------------------------------------------------


def query_llm(
    backend: LlmBackendSpec, prompt: str, gold_answers: tuple[str, ...] = ()
) -> tuple[str, float]:
    """Send one prompt; returns (answer text, latency in ms). Retryable
    failures are retried up to ``backend.retries`` times."""
    start = time.perf_counter()
    attempt = 0
    while True:
        try:
            if backend.kind == "stub":
                answer = _query_stub(backend, prompt, gold_answers)
            else:
                answer = _query_http(backend, prompt)
            return answer, (time.perf_counter() - start) * 1000.0
        except BackendError as exc:
            if not exc.retryable or attempt >= backend.retries:
                raise
            attempt += 1


def _query_stub(backend: LlmBackendSpec, prompt: str, gold_answers: tuple[str, ...]) -> str:
    if backend.policy == "echo-facts":
        return _facts_segment(prompt)
    for gold in gold_answers:
        if gold and gold in prompt:
            return gold
    return "unknown"


_DEFAULT_PORTS = {"http": 80, "https": 443}
_MAX_LINE = 65536  # http.client's bounds on a reply head: bytes a line, lines a head
_MAX_HEADERS = 100
_CONTROL_RE = re.compile("[\x00-\x20\x7f]")  # what http.client refuses in a request target
_local = threading.local()


class _Connections(dict):
    """One thread's kept-alive connections, keyed by (scheme, host, port);
    each value is a route from :func:`_open_route` and the reader of its
    replies. Closed when the thread ends and drops them."""

    def __del__(self):
        for route in self.values():
            _close_route(route)


def _close_route(route) -> None:
    """Close a route's connection and its reply reader, if it has one: the
    socket is closed for real only once no reader refers to it."""
    conn, _, _, reader = route
    if reader is not None:
        reader.close()
    conn.close()


def _post_json(
    what: str, url: str, payload: dict, timeout_s: float, headers: dict | None = None
):
    """POST ``payload`` as JSON and return the decoded JSON reply. Transport
    failures, non-2xx statuses and non-JSON bodies raise backend errors whose
    messages name the endpoint as ``what``.

    Each thread keeps one connection per (scheme, host, port) alive between
    calls, with one reader of its replies. A kept connection that the server
    has closed in the meantime gets one reconnect and resend; any other
    failure drops the connection. ``http.client`` only opens the connection
    (:func:`_open_route`); the request goes out in one write, and
    :func:`_read_reply` reads the reply."""
    import http.client

    try:
        parts = urlsplit(url)  # raises ValueError for e.g. an unclosed IPv6 bracket
        authority = parts.netloc.rpartition("@")[2]  # a URL's user and password are never sent
        if parts.scheme not in _DEFAULT_PORTS or not parts.hostname:
            shown = parts._replace(netloc=authority).geturl()
            raise ValueError(f"{shown!r} is not an http or https URL with a host")
        key = (parts.scheme, parts.hostname, parts.port or _DEFAULT_PORTS[parts.scheme])
        host = authority if authority.isascii() else authority.encode("idna").decode("ascii")
    except ValueError as exc:  # .port raises it too, for a port that is not a number
        raise BackendError(f"{what} request failed: {exc}") from exc
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    body = json.dumps(payload).encode("utf-8")
    # the header set and order http.client sends
    headers = {"Host": host, "Accept-Encoding": "identity", "Content-Length": len(body),
               "Content-Type": "application/json", **(headers or {})}

    connections = getattr(_local, "connections", None)
    if connections is None:
        connections = _local.connections = _Connections()
    route = connections.pop(key, None)  # (connection, prefix, proxy headers, reader)
    reused = route is not None
    while True:
        try:
            if route is None:
                route = (*_open_route(*key, authority, timeout_s), None)
            conn, prefix, proxy_headers, reader = route
            request_target = prefix + target
            control = _CONTROL_RE.search(request_target)
            if control:  # http.client's check and message
                raise http.client.InvalidURL(
                    f"URL can't contain control characters. {request_target!r} "
                    f"(found at least {control.group()!r})")
            head = "".join(f"{name}: {value}\r\n"
                           for name, value in {**headers, **proxy_headers}.items())
            request = (f"POST {request_target} HTTP/1.1\r\n".encode("ascii")
                       + f"{head}\r\n".encode("latin-1") + body)
            if reader is None:  # a new connection, read through one reader while kept
                conn.connect()
                reader = conn.sock.makefile("rb")
                route = conn, prefix, proxy_headers, reader
            else:  # a kept connection, given this call's timeout
                conn.sock.settimeout(timeout_s)
            conn.sock.sendall(request)
            status, data, will_close = _read_reply(reader)
            break
        except (OSError, ValueError, http.client.HTTPException) as exc:
            if route is not None:
                _close_route(route)
                route = None
            # RemoteDisconnected is a ConnectionResetError
            if reused and isinstance(exc, (ConnectionResetError, BrokenPipeError)):
                reused = False  # the server closed the kept connection: resend once
                continue
            if isinstance(exc, TimeoutError):
                raise BackendTimeout(f"{what} timed out after {timeout_s}s") from exc
            if isinstance(exc, (ValueError, http.client.InvalidURL)):
                raise BackendError(f"{what} request failed: {exc}") from exc
            raise BackendTimeout(f"{what} unreachable: {exc}") from exc

    if not 200 <= status < 300:
        _close_route(route)
        raise BackendHttpError(status, data.decode("utf-8", "replace"))
    try:
        reply = json.loads(data)
    except ValueError as exc:
        _close_route(route)
        raise BackendProtocolError(f"malformed {what} response: {exc}") from exc
    if will_close:
        _close_route(route)
    else:
        connections[key] = route
    return reply


def _read_reply(fp) -> tuple[int, bytes, bool]:
    """The status, body and whether the server will close the connection, of
    the next reply that the buffered reader ``fp`` holds. Interim 1xx heads
    are skipped. The body is framed by chunked transfer coding (its trailer
    discarded), else by Content-Length, else by the end of the stream. The
    head's bounds, the close rule and the errors are ``http.client``'s."""
    import http.client

    status = 100
    while status < 200:  # until the head after any interim 1xx heads
        line = fp.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("status line")
        if not line:
            raise http.client.RemoteDisconnected(
                "Remote end closed connection without response")
        try:
            version, status = line.split(None, 2)[:2]
            status = int(status)
        except ValueError:
            version = b""
        if not version.startswith(b"HTTP/") or not 100 <= status <= 999:
            raise http.client.BadStatusLine(str(line, "iso-8859-1"))
        fields = _read_fields(fp)
    http_1_0 = version in (b"HTTP/1.0", b"HTTP/0.9")
    if not http_1_0 and not version.startswith(b"HTTP/1."):
        raise http.client.UnknownProtocol(str(version, "iso-8859-1"))
    connection = fields.get(b"connection", b"").lower()
    if http_1_0:  # persistent only when the reply says so
        will_close = not (fields.get(b"keep-alive") or b"keep-alive" in connection
                          or b"keep-alive" in fields.get(b"proxy-connection", b"").lower())
    else:
        will_close = b"close" in connection
    length = fields.get(b"content-length", b"")
    if status in (204, 304):
        body = b""
    elif fields.get(b"transfer-encoding", b"").lower() == b"chunked":
        body = _read_chunked(fp)
    elif length.isdigit():
        body = _read_exact(fp, int(length))
    else:
        body, will_close = fp.read(), True
    return status, body, will_close


def _read_fields(fp) -> dict:
    """A head's header fields up to its blank line, by lowercased name; the
    first of a repeated name wins."""
    import http.client

    fields = {}
    for _ in range(_MAX_HEADERS):
        line = fp.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("header line")
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        fields.setdefault(name.lower(), value.strip())
    raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_chunked(fp) -> bytes:
    """A chunked body; chunk extensions and the trailer are discarded."""
    import http.client

    chunks = []
    while True:
        line = fp.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise http.client.LineTooLong("chunk size")
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            raise http.client.IncompleteRead(b"".join(chunks)) from None
        if not size:
            _read_fields(fp)  # the trailer
            return b"".join(chunks)
        chunks.append(_read_exact(fp, size))
        fp.read(2)  # the chunk's line break; a cut stream fails at the next size


def _read_exact(fp, size: int) -> bytes:
    import http.client

    data = fp.read(size)
    if len(data) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _open_route(scheme: str, host: str, port: int, authority: str, timeout_s: float):
    """A new connection to ``host``, through the proxy that the environment
    names for ``scheme`` unless ``NO_PROXY`` exempts the host. Returns the
    connection, the prefix of each request target (the absolute URI's start,
    for an ``http://`` target sent to a proxy) and headers for the proxy.
    HTTPS is verified against the default CA store."""
    import base64
    import http.client
    import ssl
    import urllib.request

    context = ssl.create_default_context() if scheme == "https" else None
    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(host):
        if context is None:
            return http.client.HTTPConnection(host, port, timeout=timeout_s), "", {}
        return http.client.HTTPSConnection(host, port, timeout=timeout_s, context=context), "", {}
    proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if proxy_parts.scheme != "http" or not proxy_parts.hostname:
        shown = proxy_parts._replace(netloc=proxy_parts.netloc.rpartition("@")[2]).geturl()
        raise ValueError(f"unsupported {scheme} proxy {shown!r}")  # without its credentials
    proxy_headers = {}
    if proxy_parts.username is not None:
        credentials = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password or '')}"
        proxy_headers["Proxy-Authorization"] = "Basic " + base64.b64encode(
            credentials.encode("utf-8")).decode("ascii")
    proxy_address = (proxy_parts.hostname, proxy_parts.port or 80)
    if context is None:
        conn = http.client.HTTPConnection(*proxy_address, timeout=timeout_s)
        return conn, f"http://{authority}", proxy_headers
    conn = http.client.HTTPSConnection(*proxy_address, timeout=timeout_s, context=context)
    conn.set_tunnel(host, port, headers=proxy_headers)
    return conn, "", {}


def _query_http(backend: LlmBackendSpec, prompt: str) -> str:
    headers = {}
    if backend.auth_env:
        token = os.environ.get(backend.auth_env, "")
        if "\r" in token or "\n" in token:  # http.client's error would quote the token
            raise BackendError(f"environment variable {backend.auth_env} holds a line break")
        if token:
            headers["Authorization"] = f"Bearer {token}"
    payload = {
        "model": backend.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": backend.temperature,
        "max_tokens": backend.max_tokens,
    }
    body = _post_json("backend", backend.endpoint_url, payload, backend.timeout_s, headers)
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendProtocolError(f"malformed chat-completions response: {exc}") from exc
    if not isinstance(content, str):
        raise BackendProtocolError("message content is not a string")
    return content


_PARSE_TIMEOUT_S = 60.0


def parse_remote(endpoint_url: str, text: str) -> str:
    """PENMAN for ``text`` from a user-supplied text-to-AMR parse endpoint,
    consulted when a document ships without inline PENMAN.

    Wire format: POST JSON ``{"text": <document>}``; the endpoint answers
    200 with ``{"amr": <penman string>}``.
    """
    body = _post_json("parse endpoint", endpoint_url, {"text": text}, _PARSE_TIMEOUT_S)
    try:
        amr = body["amr"]
    except (KeyError, TypeError) as exc:
        raise BackendProtocolError(f"malformed parse response: {exc}") from exc
    if not isinstance(amr, str) or not amr:
        raise BackendProtocolError("parse response 'amr' is not a non-empty string")
    return amr


# --- pipeline ----------------------------------------------------------------


def run_pipeline(
    pairs: list[QadPair],
    mode: str,
    backend: LlmBackendSpec,
    config: DistillConfig | None = None,
    parse_endpoint: str | None = None,
) -> list[PipelineRecord]:
    """Answer every pair under one compression mode, one of :data:`MODES`.

    Per pair: compress the documents per ``mode``, build the prompt, query
    the backend, and score the answer. Two-pass modes (keywords/summary)
    first ask the backend to compress each document, then ask the question
    over the compressed text. A document without inline AMR is parsed at
    ``parse_endpoint``; with ``config.idf_enabled``, concepts drop the words
    common across the pairs' documents. Failures are recorded per pair, never
    fatal; output order equals input order regardless of completion order.
    A thread that cannot start for ``max_parallel`` raises a BackendError.
    """
    if mode not in MODES:
        raise ValueError(f"unknown compression mode {mode!r}")
    config = config or DistillConfig()
    common = frozenset()
    if mode == "concepts" and config.idf_enabled:
        common = common_terms([d.text for p in pairs for d in p.documents], config.idf_threshold)
    compress = functools.partial(
        compress_pair, config=config, common=common, parse_endpoint=parse_endpoint)
    compressed = [None] * len(pairs)  # in process, a pair is compressed where it is answered
    if mode == "concepts":
        _compress_in_workers(pairs, compress, parse_endpoint, compressed)

    def answer_one(pair: QadPair, compressed: tuple | None) -> PipelineRecord:
        unanswered = PipelineRecord(
            question=pair.question, gold_answers=pair.gold_answers, k=pair.k, mode=mode,
            backend=backend.label, original_words=sum(len(d.text.split()) for d in pair.documents))
        compress_latency = 0.0
        try:
            if mode == "vanilla":
                doc_strings = [doc.text for doc in pair.documents]
            elif mode == "concepts":
                doc_strings, failed = compressed or compress(pair)
                if failed:
                    return unanswered._replace(**failed)
            else:  # keywords / summary: two-pass compression through the backend
                doc_strings = []
                for doc in pair.documents:
                    text, latency = query_llm(
                        backend, build_baseline_prompt(mode, doc.text), pair.gold_answers)
                    compress_latency += latency
                    doc_strings.append(text)
            prompt = fact_prompt_from_strings(doc_strings, pair.question)
            answer, latency = query_llm(backend, prompt, pair.gold_answers)
        except (BackendError, ValueError) as exc:
            return unanswered._replace(**_failed(exc))
        return unanswered._replace(
            prompt=prompt, raw_answer=answer, latency_ms=latency + compress_latency,
            correct=metrics.answer_match(answer, list(pair.gold_answers)),
            compressed_words=sum(len(text.split()) for text in doc_strings))

    if backend.max_parallel > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=backend.max_parallel) as pool:
            try:
                records = pool.map(answer_one, pairs, compressed)  # starts the threads
            except RuntimeError as exc:
                raise BackendError("cannot start a thread for backend spec key "
                                   f"'max_parallel' {backend.max_parallel}: {exc}") from exc
            return list(records)
    return list(map(answer_one, pairs, compressed))


def _failed(exc: Exception) -> dict:
    """A failed pair's record fields: its error, and the kind, "backend" or "data"."""
    kind = "backend" if isinstance(exc, BackendError) else "data"
    return {"error": f"{type(exc).__name__}: {exc}", "error_kind": kind}


def compress_pair(
    pair: QadPair, config: DistillConfig, common: frozenset[str], parse_endpoint: str | None
) -> tuple[list[str], dict]:
    """Concepts mode's compression of one pair: parse every document, then distill
    them. Returns the fact strings and a failed pair's :func:`_failed` fields, which
    a worker can send back where an exception could not cross."""
    texts = [doc.text for doc in pair.documents]
    graphs = []
    try:
        try:
            for doc in pair.documents:
                if doc.amr is None and not parse_endpoint:
                    raise ValueError("document has no inline AMR and no --parse-endpoint")
                amr = doc.amr if doc.amr is not None else parse_remote(parse_endpoint, doc.text)
                graphs.append(parse_amr(amr))
        except (BackendError, ValueError):  # an earlier document's DistillError comes first
            distill_documents(graphs, texts[: len(graphs)], config, common=common)
            raise
        concept_sets = distill_documents(graphs, texts, config, common=common)
    except (BackendError, ValueError) as exc:
        return [], _failed(exc)
    return [concept_set.facts_string() for concept_set in concept_sets], {}


# Fixture-shaped documents compress in about 50 us each. On 2 vCPUs workers took 4.0 against
# 4.3 ms in process for 81 of them, 5.0 against 5.8 for 110 (the test fixture, kept in process).
_POOL_MIN_DOCUMENTS = 120


def _compress_in_workers(pairs: list[QadPair], compress, parse_endpoint: str | None, out: list):
    """Fills ``out`` with ``compress``, a :func:`compress_pair`, over ``pairs`` in forked
    processes, one per usable CPU: worker i of n takes ``pairs[i::n]``. Only with more than
    one usable CPU, a big enough run and no parse-endpoint request."""
    documents = [doc for pair in pairs for doc in pair.documents]
    n = usable_cpus()
    if (n > 1 and len(documents) >= _POOL_MIN_DOCUMENTS
            and not (parse_endpoint and any(doc.amr is None for doc in documents))):
        shares = fork_map([functools.partial(list, map(compress, pairs[i::n])) for i in range(n)])
        for i, share in enumerate(shares):
            out[i::n] = share


# --- run manifest ------------------------------------------------------------


def dataset_content_hash(path: str | Path) -> str:
    """Git-style blob hash of the dataset file, read in chunks: the file is never
    held whole. The header takes the size from ``fstat``; a file whose length
    changes while it is read is a DatasetError, not a wrong hash."""
    import hashlib

    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        digest = hashlib.sha1(b"blob %d\0" % size)
        read = 0
        while chunk := handle.read(1 << 16):
            digest.update(chunk)
            read += len(chunk)
    if read != size:
        raise DatasetError(f"dataset {path} changed while it was hashed: {size} bytes, read {read}")
    return digest.hexdigest()


def build_run_manifest(
    mode: str,
    backend: LlmBackendSpec,
    config: DistillConfig,
    dataset_path: str | Path,
    *,
    screen: bool,
    s_pop_max: int | None,
) -> dict:
    """Everything needed to reproduce a run bit-for-bit with stub backends.

    ``screen`` says whether the pairs went through ``screen_pairs``;
    ``s_pop_max`` is the popularity cap it applied (None when unscreened).
    The backend spec is written whole: it names the auth variable, never
    holds its value. ``config_hash`` covers the four settings as written.
    """
    import hashlib

    settings = {
        "mode": mode,
        "distill_config": to_json(config),
        "screening": {"screen": screen, "s_pop_max": s_pop_max if screen else None},
        "backend": to_json(backend),
    }
    payload = json.dumps(settings, sort_keys=True).encode("utf-8")
    return {
        # "mode" keeps the first place; the other settings follow "traversal"
        "mode": mode,
        "traversal": {"kind": config.traversal, "seed": config.seed},
        **settings,
        "config_hash": hashlib.sha256(payload).hexdigest(),
        "dataset_path": str(dataset_path),
        "dataset_hash": dataset_content_hash(dataset_path),
    }
