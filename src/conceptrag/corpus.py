"""Question-answer-document datasets: JSONL ingestion, screening, grouping.

One record per line:
``{"question": str, "answers": [str], "s_pop": int?, "docs":
[{"text": str, "hasanswer": bool, "amr": str?}]}``; unknown fields are
ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


class DatasetError(ValueError):
    """A dataset file or record is malformed; messages carry line numbers."""


@dataclass(frozen=True)
class SupportDoc:
    text: str
    hasanswer: bool
    amr: str | None = None


@dataclass(frozen=True)
class QadPair:
    """One question with its gold answers and K supporting documents."""

    question: str
    gold_answers: tuple[str, ...]
    documents: tuple[SupportDoc, ...]
    s_pop: int | None = None

    @property
    def k(self) -> int:
        return len(self.documents)

    def to_dict(self) -> dict:
        record: dict = {
            "question": self.question,
            "answers": list(self.gold_answers),
            "docs": [
                {"text": d.text, "hasanswer": d.hasanswer, **({"amr": d.amr} if d.amr else {})}
                for d in self.documents
            ],
        }
        if self.s_pop is not None:
            record["s_pop"] = self.s_pop
        return record


def _pair_from_dict(data, where: str) -> QadPair:
    def require(ok, message: str) -> None:
        if not ok:
            raise DatasetError(f"{where}: {message}")

    require(type(data) is dict, "record must be a JSON object")
    for key in ("question", "answers", "docs"):
        require(key in data, f"missing required field {key!r}")
    answers, docs, s_pop = data["answers"], data["docs"], data.get("s_pop")
    require(type(data["question"]) is str, "question must be a string")
    require(
        type(answers) is list and answers and all(type(a) is str and a for a in answers),
        "answers must be a non-empty list of non-empty strings",
    )
    require(type(s_pop) in (int, type(None)), "s_pop must be an integer or null")
    require(type(docs) is list and docs, "docs must be a non-empty list of documents")
    for i, doc in enumerate(docs, start=1):
        require(type(doc) is dict and type(doc.get("text")) is str and doc["text"],
                f"doc {i} needs a non-empty string 'text'")
        require(type(doc.get("hasanswer")) is bool, f"doc {i} needs a boolean 'hasanswer'")
        require(type(doc.get("amr")) in (str, type(None)), f"doc {i} amr must be a string or null")
    documents = tuple(SupportDoc(d["text"], d["hasanswer"], d.get("amr")) for d in docs)
    return QadPair(data["question"], tuple(answers), documents, s_pop)


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
            pairs.append(_pair_from_dict(data, f"line {lineno}"))
    return pairs


def save_dataset(pairs: list[QadPair], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(json.dumps(pair.to_dict(), ensure_ascii=False) + "\n")


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


def group_by_k(pairs: list[QadPair]) -> tuple[dict[int, list[QadPair]], list[tuple[str, int]]]:
    """Partition pairs by document count. Returns the groups and a stats
    table of counts for K=1..10 plus a '>10' overflow bucket."""
    groups: dict[int, list[QadPair]] = {}
    for pair in pairs:
        groups.setdefault(pair.k, []).append(pair)
    rows: list[tuple[str, int]] = [(str(k), len(groups.get(k, []))) for k in range(1, 11)]
    overflow = sum(len(v) for k, v in groups.items() if k > 10)
    rows.append((">10", overflow))
    return groups, rows


def format_stats_tsv(rows: list[tuple[str, int]]) -> str:
    lines = ["K\tpairs"]
    lines.extend(f"{label}\t{count}" for label, count in rows)
    return "\n".join(lines) + "\n"
