"""Question-answer-document datasets: JSONL ingestion, screening, per-K counts.

One record per line:
``{"question": str, "answers": [str], "s_pop": int?, "docs":
[{"text": str, "hasanswer": bool, "amr": str?}]}``; unknown fields are
ignored.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import NamedTuple


class DatasetError(ValueError):
    """A dataset file or record is malformed; messages carry line numbers."""


class SupportDoc(NamedTuple):
    text: str
    hasanswer: bool
    amr: str | None = None


class QadPair(NamedTuple):
    """One question with its gold answers and K supporting documents."""

    question: str
    gold_answers: tuple[str, ...]
    documents: tuple[SupportDoc, ...]
    s_pop: int | None = None

    @property
    def k(self) -> int:
        return len(self.documents)


def _pair_from_dict(data, where: str) -> QadPair:
    # each check runs first; its message is formatted only when it fails
    if type(data) is not dict:
        raise _invalid(where, "record must be a JSON object")
    for key in ("question", "answers", "docs"):
        if key not in data:
            raise _invalid(where, f"missing required field {key!r}")
    answers, docs, s_pop = data["answers"], data["docs"], data.get("s_pop")
    if type(data["question"]) is not str:
        raise _invalid(where, "question must be a string")
    if not (type(answers) is list and answers and all(type(a) is str and a for a in answers)):
        raise _invalid(where, "answers must be a non-empty list of non-empty strings")
    if type(s_pop) not in (int, type(None)):
        raise _invalid(where, "s_pop must be an integer or null")
    if not (type(docs) is list and docs):
        raise _invalid(where, "docs must be a non-empty list of documents")
    for i, doc in enumerate(docs, start=1):
        if not (type(doc) is dict and type(doc.get("text")) is str and doc["text"]):
            raise _invalid(where, f"doc {i} needs a non-empty string 'text'")
        if type(doc.get("hasanswer")) is not bool:
            raise _invalid(where, f"doc {i} needs a boolean 'hasanswer'")
        if type(doc.get("amr")) not in (str, type(None)):
            raise _invalid(where, f"doc {i} amr must be a string or null")
    documents = tuple(SupportDoc(d["text"], d["hasanswer"], d.get("amr")) for d in docs)
    return QadPair(data["question"], tuple(answers), documents, s_pop)


def _invalid(where: str, message: str) -> DatasetError:
    return DatasetError(f"{where}: {message}")


def load_dataset(path: str | Path) -> list[QadPair]:
    """Read a JSONL dataset; blank lines are skipped, malformed lines are
    reported with their 1-based line number."""
    pairs: list[QadPair] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            except RecursionError:
                raise DatasetError(f"line {lineno}: JSON nested too deeply") from None
            pairs.append(_pair_from_dict(data, f"line {lineno}"))
    return pairs


def screen_pairs(pairs: list[QadPair], s_pop_max: int | None = None) -> list[QadPair]:
    """Keep pairs whose documents all contain an answer and, when a cap is
    given, whose subject is long-tail (s_pop below the cap). Pairs without an
    s_pop value are retained under any cap."""
    kept = []
    for pair in pairs:
        if not all(d.hasanswer for d in pair.documents):
            continue
        if s_pop_max is not None and pair.s_pop is not None and pair.s_pop >= s_pop_max:
            continue
        kept.append(pair)
    return kept


def count_by_k(pairs: list[QadPair]) -> list[tuple[str, int]]:
    """A stats table of pair counts per document count: K=1..10 plus a '>10'
    overflow bucket."""
    counts = Counter(pair.k for pair in pairs)
    rows = [(str(k), counts[k]) for k in range(1, 11)]
    rows.append((">10", sum(n for k, n in counts.items() if k > 10)))
    return rows


def format_stats_tsv(rows: list[tuple[str, int]]) -> str:
    lines = ["K\tpairs"]
    lines.extend(f"{label}\t{count}" for label, count in rows)
    return "\n".join(lines) + "\n"
