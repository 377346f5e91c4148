"""Command-line interface: parse AMR, distill concepts, screen datasets, run
pipelines, and render reports.

Exit codes: 0 success, 1 usage error, 2 data error, 3 backend error,
130 interrupted.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import re
import sys
from pathlib import Path
from typing import Iterator

from . import __version__
from .corpus import DatasetError, count_by_k, format_stats_tsv, load_dataset, screen_pairs
from .distill import TRAVERSAL_KINDS, DistillConfig, distill_concepts
from .metrics import (
    LONG_INTERVAL,
    NORMAL_INTERVAL,
    build_report,
    parse_interval,
    render_accuracy_svg,
    tally,
    write_report,
)
from .penman import parse_amr, parse_corpus
from .ragpipe import (
    MODES,
    BackendError,
    LlmBackendSpec,
    PipelineRecord,
    build_run_manifest,
    fork_map,
    run_pipeline,
    usable_cpus,
)
from .schema import from_json, from_json_block, to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise _UsageError(message)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _json_text(path: Path, kind: str) -> tuple[json.JSONDecoder, str]:
    """A decoder and a JSON file's text, decoded as ``json.loads`` decodes bytes. The
    decoder rejects ``NaN`` and ``Infinity``: not JSON, and no key here can hold them."""

    def reject(constant: str):
        raise DatasetError(f"{kind} {path} holds {constant}, which is not a JSON number")

    data = path.read_bytes()  # bytes: no text-mode decoding pass
    text = data.decode(json.detect_encoding(data), "surrogatepass")
    return json.JSONDecoder(parse_constant=reject), text


def _read_json(path: Path, kind: str):
    decoder, text = _json_text(path, kind)
    try:
        return decoder.decode(text)
    except RecursionError:
        raise DatasetError(f"{kind} {path} is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{kind} {path} is not valid JSON: {exc}") from None


def _load_distill_config(args) -> DistillConfig:
    data = _read_json(Path(args.config), "distill config") if args.config else {}
    # explicit flags win over the config file; from_json rejects a non-object
    if type(data) is dict:
        if args.traversal is not None:
            data["traversal"] = args.traversal
        if args.seed is not None:
            data["seed"] = args.seed
        if args.traversal not in (None, "dfs") and data.get("seed") is None:
            raise _UsageError(f"--traversal {args.traversal} requires --seed")
    return from_json(DistillConfig, data, "distill config")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conceptrag", description=__doc__)
    parser.add_argument("--version", action="version", version=f"conceptrag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads; any other is a usage error
    distill_opts = _Parser(add_help=False)
    distill_opts.add_argument("--config", help="distill config JSON file")
    distill_opts.add_argument("--seed", type=int, help="seed for random traversal modes")
    distill_opts.add_argument(
        "--traversal", choices=TRAVERSAL_KINDS, help="concept traversal order"
    )
    screen_opts = _Parser(add_help=False)
    screen_opts.add_argument("--no-screen", action="store_true", help="skip hasanswer screening")
    screen_opts.add_argument("--s-pop-max", type=int, help="drop pairs with s_pop >= N")

    p_parse = sub.add_parser("parse", help="parse PENMAN to a JSON graph")
    p_parse.add_argument("input", help="PENMAN file, or - for stdin")
    p_parse.add_argument("--out", help="write graph.json into this directory")

    p_distill = sub.add_parser("distill", parents=[distill_opts], help="distill concepts")
    p_distill.add_argument("penman_file", help="PENMAN graph file, or - for stdin")
    p_distill.add_argument(
        "source_file", help="source document text file, or - for stdin (not both)"
    )
    p_distill.add_argument("--json", action="store_true", help="emit JSON with spans")

    p_stats = sub.add_parser("stats", parents=[screen_opts], help="dataset counts per K")
    p_stats.add_argument("dataset", help="JSONL dataset file")

    p_eval = sub.add_parser(
        "eval", parents=[distill_opts, screen_opts], help="run the QA pipeline"
    )
    p_eval.add_argument("dataset", help="JSONL dataset file")
    p_eval.add_argument("--backend", required=True, help="backend spec JSON file")
    p_eval.add_argument("--mode", required=True, choices=MODES, help="compression mode")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--parse-endpoint", help="text-to-AMR parse endpoint URL")

    p_report = sub.add_parser("report", help="render metrics for a run")
    p_report.add_argument("results_dir", help="directory written by eval")
    p_report.add_argument("--out", help="output directory (default: results_dir)")
    p_report.add_argument(
        "--interval", action="append", help="evaluation interval: normal, long, or a,b (repeatable)"
    )
    p_report.add_argument("--baseline", help="baseline results directory (for delta)")
    p_report.add_argument("--svg", help="also write an accuracy-curve SVG to this path")
    return parser


def cmd_parse(args) -> int:
    text = _read_input(args.input)
    graphs = parse_corpus(text)
    if not graphs:
        raise DatasetError("no PENMAN graphs in input")
    rendered = graphs[0].to_dict() if len(graphs) == 1 else [g.to_dict() for g in graphs]
    output = json.dumps(rendered, indent=2, ensure_ascii=False)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "graph.json").write_text(output + "\n", encoding="utf-8")
    else:
        print(output)
    return EXIT_OK


def cmd_distill(args) -> int:
    if args.penman_file == args.source_file == "-":
        raise _UsageError("penman_file and source_file cannot both be - (stdin)")
    config = _load_distill_config(args)
    if config.idf_enabled:  # common words are counted over an eval run's documents
        raise DatasetError("distill config key 'idf_enabled' works only in eval: "
                           "one document is no corpus")
    graph = parse_amr(_read_input(args.penman_file))
    concept_set = distill_concepts(graph, _read_input(args.source_file), config=config)
    if args.json:
        payload = [
            {
                "text": c.text,
                "provenance": c.provenance,
                "sentence": c.sentence_index,
                "span": list(c.source_span) if c.source_span else None,
            }
            for c in concept_set.concepts
        ]
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:  # one write, not a print per concept
        sys.stdout.write("".join([text + "\n" for text in concept_set.texts()]))
    return EXIT_OK


def _check_screen_flags(args) -> None:
    if args.no_screen and args.s_pop_max is not None:
        raise _UsageError("--s-pop-max is a screening rule; it cannot be used with --no-screen")


def cmd_stats(args) -> int:
    _check_screen_flags(args)
    pairs = load_dataset(args.dataset)
    if not args.no_screen:
        pairs = screen_pairs(pairs, s_pop_max=args.s_pop_max)
    sys.stdout.write(format_stats_tsv(count_by_k(pairs)))
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_screen_flags(args)
    config = _load_distill_config(args)
    spec = _read_json(Path(args.backend), "backend spec")
    backend = from_json(LlmBackendSpec, spec, "backend spec")
    pairs = load_dataset(args.dataset)
    if not args.no_screen:
        pairs = screen_pairs(pairs, s_pop_max=args.s_pop_max)
    # before the run, so that an --out that cannot be made costs no backend call
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    records = run_pipeline(
        pairs, args.mode, backend, config=config, parse_endpoint=args.parse_endpoint
    )
    # one record per line: json.dump with indent runs the pure-Python encoder
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with open(out_dir / "records.json", "w", encoding="utf-8") as handle:
        for n, record in enumerate(records):
            handle.write(f"{',' if n else '['}\n{encode(to_json(record))}")
        handle.write("\n]\n" if records else "[]\n")
    manifest = build_run_manifest(
        args.mode, backend, config, args.dataset,
        screen=not args.no_screen, s_pop_max=args.s_pop_max,
    )
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, ensure_ascii=False)
        handle.write("\n")
    failures = [r for r in records if r.error_kind]
    print(f"evaluated {len(records)} pairs ({len(failures)} failed); results in {out_dir}")
    # partial failures are recorded and non-fatal; a run where every pair
    # failed is a backend outage if any pair died on the backend, else bad data
    if records and len(failures) == len(records):
        if any(r.error_kind == "backend" for r in failures):
            raise BackendError("every pair failed against the backend")
        raise DatasetError(f"every pair failed, the first with {failures[0].error}")
    return EXIT_OK


_SEPARATOR_RE = re.compile(r"[ \t\n\r]*([\[,\]])[ \t\n\r]*")


_BLOCK_ITEMS = 1024  # list items parsed before they are checked and built together


def _load_records(results_dir: str) -> Iterator[PipelineRecord]:
    """The records of ``results_dir``, read when iteration starts. ``json``'s own
    scanner parses one list item at a time, and each block of ``_BLOCK_ITEMS`` items is
    checked and built at once. A block is built before a fault in the list itself is
    raised, so the first fault in file order is raised; at a fault in the list the text
    is decoded whole, for json's message."""
    path = Path(results_dir) / "records.json"
    if not path.exists():
        raise DatasetError(f"no records.json in {results_dir}")
    decoder, text = _json_text(path, "records file")
    match = _SEPARATOR_RE.match(text)
    listed = match is not None and match[1] == "["
    block, too_deep = [], False
    while listed:
        try:
            data, end = decoder.scan_once(text, match.end())
        except (StopIteration, json.JSONDecodeError):  # no value or a bad one, or []
            break
        except RecursionError:
            too_deep = True
            break
        block.append(data)
        if len(block) == _BLOCK_ITEMS:
            yield from from_json_block(PipelineRecord, block, "record")
            block = []
        match = _SEPARATOR_RE.match(text, end)
        if not match or match[1] != ",":
            break
    yield from from_json_block(PipelineRecord, block, "record")
    if too_deep:
        raise DatasetError(f"records file {path} is nested too deeply")
    if not listed or not match or match[1] != "]" or match.end() != len(text):
        if _read_json(path, "records file") != []:  # read again, for json's message
            raise DatasetError(f"{path} must hold a JSON list of records")


# With --baseline, report tallies the two runs in two workers once the smaller records.json
# holds 1 MiB. On 2 vCPUs, runs of 500, 1,000 and 2,000 records as eval writes them (0.25,
# 0.5, 1 MB) took 17.6, 29.6 and 50.8 ms in process, against 21.7, 26.8 and 36.0 pooled.
_POOL_MIN_RECORDS_BYTES = 1 << 20


def _records_bytes(results_dir: str) -> int:
    try:
        return (Path(results_dir) / "records.json").stat().st_size
    except OSError:  # reported when the run is read, in process
        return 0


def cmd_report(args) -> int:
    intervals = (
        [parse_interval(text) for text in args.interval]
        if args.interval
        else [NORMAL_INTERVAL, LONG_INTERVAL]
    )
    runs = [args.results_dir, *([args.baseline] if args.baseline else [])]
    jobs = [functools.partial(tally, _load_records(run)) for run in runs]
    # the run and its baseline each in a worker of its own, when both are big enough;
    # a run whose worker failed is read again in process, so the run's fault comes first
    if (len(runs) > 1 and usable_cpus() > 1
            and min(map(_records_bytes, runs)) >= _POOL_MIN_RECORDS_BYTES):
        tallies = fork_map(jobs)
    else:
        tallies = [job() for job in jobs]
    report, curves = build_report(tallies[0], intervals, *tallies[1:], label=args.results_dir)
    out_dir = Path(args.out) if args.out else Path(args.results_dir)
    tsv = write_report(report, out_dir)
    if args.svg:
        curves[0] = curves[0]._replace(label="run")
        Path(args.svg).write_text(
            render_accuracy_svg(curves, title="Accuracy vs K"), encoding="utf-8"
        )
    sys.stdout.write(tsv)
    return EXIT_OK


_COMMANDS = {
    "parse": cmd_parse,
    "distill": cmd_distill,
    "stats": cmd_stats,
    "eval": cmd_eval,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    # A command builds a graph, concepts or records, reads them once and drops
    # them: a collection meanwhile only walks objects still in use. They are freed
    # by reference counting before the collector is back on, so none is left young.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # AmrParseError, GraphError, DistillError, DatasetError and MetricsError
    # are ValueErrors; an OSError is a path that cannot be read or written
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    finally:
        if was_enabled:
            gc.enable()


def entrypoint() -> None:  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
