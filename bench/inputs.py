"""Seeded inputs for the benchmark, and the references its output checks use.

Documents follow the shape of the bundled QA fixture (``tests/gen_fixture.py``):
a two-sentence AMR per document, "First Last of City. In YEAR, he PAST the
ANSWER at Org1 Org2.", with the gold answer as a plain noun. Every reference
here is built from the generator's own facts, never from the program's output.
The same seed always gives the same files and the same references.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FIRSTS = ["Nora", "Eli", "Mara", "Otto", "Ivy", "Hugo", "Lena", "Ruth", "Axel", "June",
          "Vera", "Theo", "Iris", "Carl", "Edith", "Owen", "Petra", "Saul", "Greta", "Felix"]
LASTS = ["Vance", "Maren", "Holt", "Ferris", "Quill", "Barden", "Sommer", "Kessler",
         "Ainsley", "Drummond", "Whitaker", "Lindqvist", "Moravec", "Tanaka", "Okafor",
         "Castellan", "Bergstrom", "Navarro", "Oyelaran", "Zelenka"]
CITIES = ["Lisbon", "Turin", "Zagreb", "Oslo", "Dublin", "Krakow", "Ghent", "Porto",
          "Malmo", "Bruges", "Seville", "Utrecht", "Leipzig", "Tallinn", "Riga",
          "Vilnius", "Cork", "Bergen", "Aarhus", "Graz"]
ORGS = [("Aurora", "Institute"), ("Meridian", "Conservatory"), ("Halcyon", "Workshop"),
        ("Borealis", "Academy"), ("Cobalt", "Atelier"), ("Juniper", "Foundry"),
        ("Larkspur", "Society"), ("Vesper", "Observatory"), ("Quarry", "Press"),
        ("Gilded", "Forum"), ("Harbor", "Atheneum"), ("Sable", "Guild"),
        ("Crescent", "Bureau"), ("Lantern", "College"), ("Mosaic", "Chamber"),
        ("Heron", "Gallery"), ("Summit", "Archive"), ("Willow", "Consortium"),
        ("Ember", "Studio"), ("Zenith", "Laboratory")]
# (answer noun, AMR predicate, past-tense surface form, question verb)
TOPICS = [
    ("violin", "play-01", "played", "play"), ("piano", "play-01", "played", "play"),
    ("trumpet", "play-01", "played", "play"), ("sonata", "compose-02", "composed", "compose"),
    ("ballad", "compose-02", "composed", "compose"),
    ("concerto", "compose-02", "composed", "compose"),
    ("libretto", "compose-02", "composed", "compose"), ("mural", "paint-02", "painted", "paint"),
    ("portrait", "paint-02", "painted", "paint"), ("fresco", "paint-02", "painted", "paint"),
    ("turbine", "design-01", "designed", "design"), ("engine", "design-01", "designed", "design"),
    ("compass", "design-01", "designed", "design"),
    ("telescope", "invent-01", "invented", "invent"),
    ("microscope", "invent-01", "invented", "invent"),
    ("statue", "sculpt-01", "sculpted", "sculpt"),
    ("tapestry", "design-01", "designed", "design"),
    ("memoir", "publish-01", "published", "publish"),
    ("atlas", "publish-01", "published", "publish"),
    ("almanac", "publish-01", "published", "publish"),
]
FACT_PROMPT_PREFIX = "Refer to the following facts to answer the question. Facts: "
K_VALUES = range(1, 11)

# Full-scale sizes; ``scale`` shrinks them for the self-check.
CONCEPT_PAIRS_PER_K = 100
KEYWORD_PAIRS_PER_K = 20
UNSCREENED_PER_K = {"eval-concepts": 2, "eval-keywords-http": 1}
LONG_DOC_SENTENCE_PAIRS = 300
REPORT_RECORDS_PER_K = 5000


@dataclass(frozen=True)
class Doc:
    """One fixture-shaped document and the facts it was built from."""

    who: str
    city: str
    year: int
    pronoun: str
    predicate: str
    past: str
    answer: str
    org: tuple[str, str]

    @property
    def text(self) -> str:
        return (f"{self.who} of {self.city}. In {self.year}, {self.pronoun} {self.past} "
                f"the {self.answer} at {' '.join(self.org)}.")

    def sentences(self, suffix: str = "") -> tuple[str, str]:
        """The two sentence graphs in PENMAN; ``suffix`` renames every
        variable so many documents can share one graph."""
        v = {name: name + suffix for name in ("p", "n", "c", "n2", "v", "h", "x", "o", "n3", "d")}
        first, last = self.who.split(" ")
        snt1 = (f"({v['p']} / person\n"
                f'        :name ({v["n"]} / name :op1 "{first}" :op2 "{last}")\n'
                f"        :location ({v['c']} / city\n"
                f'            :wiki "{self.city}"\n'
                f'            :name ({v["n2"]} / name :op1 "{self.city}")))')
        snt2 = (f"({v['v']} / {self.predicate}\n"
                f"        :ARG0 ({v['h']} / {self.pronoun})\n"
                f"        :ARG1 ({v['x']} / {self.answer})\n"
                f"        :location ({v['o']} / organization\n"
                f'            :wiki "{self.org[0]}_{self.org[1]}"\n'
                f'            :name ({v["n3"]} / name :op1 "{self.org[0]}" '
                f':op2 "{self.org[1]}"))\n'
                f"        :time ({v['d']} / date-entity :year {self.year}))")
        return snt1, snt2

    def concepts(self) -> list[str]:
        """The concept lines default distillation must give: the name, the
        city's wiki link, the predicate restored to its past form, the answer,
        the organisation's wiki link and the year."""
        return [self.who, self.city, self.past, self.answer, " ".join(self.org), str(self.year)]


def make_doc(rng: random.Random, topic: tuple[str, str, str, str]) -> Doc:
    answer, predicate, past, _ = topic
    return Doc(
        who=f"{rng.choice(FIRSTS)} {rng.choice(LASTS)}",
        city=rng.choice(CITIES),
        year=rng.randrange(1850, 1970),
        pronoun=rng.choice(("she", "he")),
        predicate=predicate,
        past=past,
        answer=answer,
        org=rng.choice(ORGS),
    )


def single_doc_amr(doc: Doc) -> str:
    snt1, snt2 = doc.sentences()
    return f"(m / multi-sentence\n    :snt1 {snt1}\n    :snt2 {snt2})"


@dataclass(frozen=True)
class Pair:
    question: str
    answer: str
    docs: tuple[Doc, ...]
    screened: bool  # every document has the answer

    def to_json(self, rng: random.Random) -> dict:
        docs = []
        for i, doc in enumerate(self.docs):
            hasanswer = self.screened or i != len(self.docs) - 1
            docs.append({"text": doc.text, "hasanswer": hasanswer, "amr": single_doc_amr(doc)})
        return {"question": self.question, "answers": [self.answer],
                "s_pop": rng.randrange(10, 490), "docs": docs}


def make_pairs(rng: random.Random, pairs_per_k: int, unscreened_per_k: int) -> list[Pair]:
    """``pairs_per_k`` pairs for every K in 1..10, shuffled. In
    ``unscreened_per_k`` of them the last document is about another answer and
    is flagged ``hasanswer: false``, so screening drops the pair."""
    pairs = []
    for k in K_VALUES:
        for j in range(pairs_per_k):
            topic = rng.choice(TOPICS)
            docs = [make_doc(rng, topic) for _ in range(k)]
            screened = j >= unscreened_per_k
            if not screened:
                other = rng.choice([t for t in TOPICS if t[0] != topic[0]])
                docs[-1] = make_doc(rng, other)
            question = f"What did {docs[0].who} {topic[3]} at the {' '.join(docs[0].org)}?"
            pairs.append(Pair(question, topic[0], tuple(docs), screened))
    rng.shuffle(pairs)
    return pairs


def concepts_prompt(pair: Pair) -> str:
    """Expected concepts-mode prompt: per document the sentence groups
    "First Last, City" and "past, answer, Org1 Org2, year" joined by '. '."""
    facts = []
    for doc in pair.docs:
        c = doc.concepts()
        facts.append(f"{', '.join(c[:2])}. {', '.join(c[2:])}")
    return f"{FACT_PROMPT_PREFIX}{' '.join(facts)}. Question: {pair.question}"


def keywords_prompt(pair: Pair) -> str:
    """Expected keywords-mode answer prompt: the chat stub extracts each
    document's answer noun, so the facts are those nouns joined by spaces."""
    facts = " ".join(doc.answer for doc in pair.docs)
    return f"{FACT_PROMPT_PREFIX}{facts}. Question: {pair.question}"


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def write_eval_dataset(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Write ``dataset.jsonl`` for an eval workload. Returns the expected
    prompt of every screened pair in input order, and the input sizes."""
    rng = random.Random(f"{workload}/{seed}")
    per_k = CONCEPT_PAIRS_PER_K if workload == "eval-concepts" else KEYWORD_PAIRS_PER_K
    unscreened = UNSCREENED_PER_K[workload]
    pairs = make_pairs(rng, _scaled(per_k, scale) + unscreened, unscreened)
    path = out_dir / "dataset.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for pair in pairs:
            handle.write(json.dumps(pair.to_json(rng), ensure_ascii=False) + "\n")
    expected = concepts_prompt if workload == "eval-concepts" else keywords_prompt
    screened = [p for p in pairs if p.screened]
    return {
        "dataset": path,
        "prompts": [expected(p) for p in screened],
        "answers": [p.answer for p in screened],
        "sizes": {"pairs": len(pairs), "screened_pairs": len(screened),
                  "documents": sum(len(p.docs) for p in screened)},
    }


def write_long_doc(seed: int, out_dir: Path, sentence_pairs: int, name: str) -> dict:
    """One multi-sentence document of ``sentence_pairs`` fixture-shaped
    documents (two sentences, ten nodes each) with renamed variables."""
    rng = random.Random(f"distill-long/{seed}")
    docs = [make_doc(rng, rng.choice(TOPICS)) for _ in range(sentence_pairs)]
    sentences = []
    for i, doc in enumerate(docs):
        sentences.extend(doc.sentences(suffix=f"x{i}"))
    body = "\n".join(f"    :snt{i} {s}" for i, s in enumerate(sentences, start=1))
    penman_path = out_dir / f"{name}.amr"
    text_path = out_dir / f"{name}.txt"
    penman_path.write_text(f"(m / multi-sentence\n{body})\n", encoding="utf-8")
    text = " ".join(doc.text for doc in docs)
    text_path.write_text(text, encoding="utf-8")
    return {
        "penman": penman_path,
        "text": text_path,
        "lines": [line for doc in docs for line in doc.concepts()],
        "sizes": {"nodes": 1 + 10 * len(docs), "sentences": len(sentences),
                  "source_chars": len(text)},
    }


def write_long_docs(seed: int, out_dir: Path, scale: float = 1.0) -> tuple[dict, dict]:
    """The full-size document and one of half its sentence pairs, for the
    size exponent."""
    full = _scaled(LONG_DOC_SENTENCE_PAIRS, scale)
    return (write_long_doc(seed, out_dir, full, "long"),
            write_long_doc(seed, out_dir, max(1, full // 2), "half"))


def _record_set(rng: random.Random, per_k: int, mode: str, accuracy) -> tuple[list, dict]:
    records, correct = [], {k: 0 for k in K_VALUES}
    for k in K_VALUES:
        for _ in range(per_k):
            topic = rng.choice(TOPICS)
            doc = make_doc(rng, topic)
            hit = rng.random() < accuracy(k)
            correct[k] += hit
            original = len(doc.text.split()) * k
            records.append({
                "question": f"What did {doc.who} {topic[3]} at the {' '.join(doc.org)}?",
                "gold_answers": [topic[0]],
                "k": k,
                "mode": mode,
                "backend": "stub:oracle-substring",
                "prompt": f"{FACT_PROMPT_PREFIX}{', '.join(doc.concepts())}. Question: ...",
                "raw_answer": topic[0] if hit else "unknown",
                "latency_ms": round(rng.uniform(0.01, 40.0), 4),
                "correct": hit,
                "original_words": original,
                "compressed_words": original if mode == "vanilla" else 8 * k,
                "error": None,
            })
    rng.shuffle(records)
    return records, correct


def _trapezoid(acc: dict[int, float], lo: int, hi: int) -> float:
    return sum(0.5 * (acc[k] + acc[k - 1]) for k in range(lo + 1, hi + 1))


def write_report_runs(seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Two ``records.json`` sets laid out as ``eval`` writes them: a concepts
    run whose accuracy falls with K and a flatter vanilla baseline. Returns
    the per-K accuracy, Intg and delta the report must show."""
    rng = random.Random(f"report/{seed}")
    per_k = _scaled(REPORT_RECORDS_PER_K, scale)
    n = per_k * len(K_VALUES)
    expected = {}
    for name, mode, accuracy in (
        ("run", "concepts", lambda k: 0.92 - 0.03 * k),
        ("base", "vanilla", lambda k: 0.80 - 0.01 * k),
    ):
        records, correct = _record_set(rng, per_k, mode, accuracy)
        run_dir = out_dir / name
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / "records.json", "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
        expected[name] = {k: 100.0 * correct[k] / per_k for k in K_VALUES}
    acc, base = expected["run"], expected["base"]
    intg = {}
    for interval, (lo, hi) in (("normal", (1, 10)), ("long", (6, 10))):
        area = _trapezoid(acc, lo, hi)
        intg[interval] = {"intg": area, "delta": area - _trapezoid(base, lo, hi)}
    return {
        "run_dir": out_dir / "run",
        "base_dir": out_dir / "base",
        "accuracy_per_k": acc,
        "intg": intg,
        "records": n,
        "sizes": {"run_records": n, "baseline_records": n},
    }
