"""Concept distillation over AMR graphs.

Converts a document's AMR into an ordered list of concept strings:
per-sentence traversal with handling of ``:name``, ``:wiki`` and
``date-entity`` constructs, stoplist formatting, a backtrace step
that restores each concept to the surface form used in the source document,
and an optional filter of words common across a run's documents.
"""

from __future__ import annotations

import functools
import random
import re
from bisect import bisect_right
from collections import Counter
from typing import NamedTuple

from .penman import AmrEdge, AmrGraph, Literal, dfs_nodes, split_sentences

_SENSE_RE = re.compile(r"-[0-9]{2}\Z")
# one group, so that split() returns the tokens as well as the text between them
_TOKEN_RE = re.compile(r"([A-Za-z0-9]+(?:'[A-Za-z0-9]+)*)")
_WORD_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789")
# English whatever the locale, unlike calendar.month_name
_MONTH_NAMES = ("January", "February", "March", "April", "May", "June", "July",
                "August", "September", "October", "November", "December")
_OP_ROLE_RE = re.compile(r":op([0-9]+)\Z")
# the roles of a usual name node, in order; any other name takes the full check
_OP_ROLES = tuple(f":op{i}" for i in range(1, 10))
_new = tuple.__new__  # builds a Concept without a call to its Python __new__


class DistillError(ValueError):
    """A node violates the contract of its role handler."""


# AMR's canonical entity-type and structural labels. These nodes type an
# entity rather than carry content from the source document, so they are
# filtered out of the concept set by default. User-extensible via
# DistillConfig.stoplist_add / stoplist_remove.
_ENTITY_TYPE_LABELS = (
    # people and groups
    "person", "family", "animal", "language", "nationality", "ethnic-group",
    "regional-group", "religious-group", "political-movement",
    # organizations
    "organization", "company", "government-organization", "military",
    "criminal-organization", "political-party", "market-sector", "school",
    "university", "research-institute", "team", "league",
    # locations
    "location", "city", "city-district", "county", "state", "province",
    "territory", "country", "local-region", "country-region", "world-region",
    "continent", "ocean", "sea", "lake", "river", "gulf", "bay", "strait",
    "canal", "peninsula", "mountain", "volcano", "valley", "canyon", "island",
    "desert", "forest", "moon", "planet", "star", "constellation",
    # facilities
    "facility", "airport", "station", "port", "tunnel", "bridge", "road",
    "railway-line", "building", "theater", "theatre", "museum", "palace",
    "hotel", "worship-place", "market", "sports-facility", "park", "zoo",
    "amusement-park",
    # events
    "event", "incident", "natural-disaster", "earthquake", "war",
    "conference", "game", "festival",
    # products and works
    "product", "vehicle", "ship", "aircraft", "aircraft-type", "spaceship",
    "car-make", "work-of-art", "picture", "music", "show",
    "broadcast-program", "publication", "book", "newspaper", "magazine",
    "journal",
    # other named-entity types
    "natural-object", "award", "law", "court-decision", "treaty", "music-key",
    "musical-note", "food-dish", "writing-script", "variable", "program",
    "molecular-physical-entity", "small-molecule", "protein",
    "protein-family", "protein-segment", "amino-acid",
    "macro-molecular-complex", "enzyme", "nucleic-acid", "pathway", "gene",
    "dna-sequence", "cell", "cell-line", "species", "organism", "disease",
    "medical-condition",
)

_STRUCTURAL_LABELS = (
    "multi-sentence", "name", "date-entity", "date-interval", "thing",
    "amr-unknown", "amr-choice", "truth-value", "string-entity",
    "url-entity", "percentage-entity", "phone-number-entity", "email-address-entity",
)

# Bare pronouns parse to their own instance nodes; they carry no retrievable
# content, so they join the default stoplist.
_PRONOUN_LABELS = ("he", "she", "it", "they", "i", "you", "we")

DEFAULT_STOPLIST = frozenset(_ENTITY_TYPE_LABELS + _STRUCTURAL_LABELS + _PRONOUN_LABELS)

TRAVERSAL_KINDS = ("dfs", "local-random", "global-random")


class Concept(NamedTuple):
    """One distilled concept with its provenance and, after backtrace, the
    character span of its source-document match."""

    text: str
    provenance: str  # 'instance' | 'name' | 'wiki' | 'date'
    sentence_index: int
    source_span: tuple[int, int] | None = None


class ConceptSet(NamedTuple):
    """Ordered concepts distilled from one supporting document."""

    concepts: tuple[Concept, ...]

    def texts(self) -> list[str]:
        return [c.text for c in self.concepts]

    def facts_string(self) -> str:
        """Sentence groups joined with '. ', concepts within a group with ', '."""
        parts: list[str] = []
        previous = None
        for text, _, sentence_index, _ in self.concepts:
            parts += (", " if sentence_index == previous else ". ", text)
            previous = sentence_index
        return "".join(parts[1:])


class _DistillConfigFields(NamedTuple):
    stoplist_add: tuple[str, ...] = ()
    stoplist_remove: tuple[str, ...] = ()
    idf_threshold: float = 0.5
    idf_enabled: bool = False
    min_backtrace_overlap: int = 4
    traversal: str = "dfs"
    seed: int | None = None


class DistillConfig(_DistillConfigFields):
    """Tunable knobs for distillation, read from a JSON file by
    :func:`conceptrag.schema.from_json`.

    ``traversal`` orders nodes within the traversal: depth-first, shuffled
    per sentence, or shuffled across the whole document. Random orders are
    fully determined by ``seed``. ``idf_enabled`` makes an eval run drop
    words found in more than ``idf_threshold`` of its documents. The
    constructor checks the values; ``_replace`` skips the checks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.traversal not in TRAVERSAL_KINDS:
            raise ValueError(f"distill config has unknown traversal kind {self.traversal!r}")
        if self.traversal != "dfs" and self.seed is None:
            raise ValueError(
                f"distill config key 'seed' must be set for {self.traversal} traversal"
            )
        if not 0 <= self.idf_threshold <= 1:  # also rejects NaN
            raise ValueError("distill config key 'idf_threshold' must be from 0 to 1")
        if self.min_backtrace_overlap < 0:
            raise ValueError("distill config key 'min_backtrace_overlap' must be at least 0")
        return self

    def stoplist(self) -> frozenset[str]:
        return _stoplist(tuple(self.stoplist_add), tuple(self.stoplist_remove))


@functools.lru_cache(maxsize=64)
def _stoplist(add: tuple[str, ...], remove: tuple[str, ...]) -> frozenset[str]:
    """The default stoplist with ``add`` and without ``remove``, built once per pair."""
    return (DEFAULT_STOPLIST | set(add)) - set(remove)


def common_terms(docs: list[str], threshold: float) -> frozenset[str]:
    """The lowercase words of ``_TOKEN_RE`` found in more than ``threshold``
    of ``docs``; a word counts once per document. Empty for no documents."""
    counts = Counter(word for doc in docs for word in set(_TOKEN_RE.findall(doc.lower())))
    return frozenset(word for word, n in counts.items() if n / len(docs) > threshold)


# --- role handlers


def _wiki_link(edges: list[AmrEdge], named: set[str]) -> str | None:
    """A node's wiki string, underscores as spaces, from its first literal
    :wiki; '-' is no link. A linked node adds the variables it defines to
    ``named``: their names give way to the wiki string."""
    for _, role, target, _ in edges:
        if role == ":wiki" and isinstance(target, Literal):
            if target.text == "-":
                return None
            named.update(e.target for e in edges if e.defines)
            return target.text.replace("_", " ")
    return None


def _wiki_links(graph: AmrGraph) -> tuple[dict[str, str], set[str]]:
    """:func:`_wiki_link` of every node at once, for an order that can reach a
    name before its wiki-linked parent. A ``multi-sentence`` root, in no
    sentence, links nothing."""
    wikis: dict[str, str] = {}
    named: set[str] = set()
    skip = graph.root if graph.nodes[graph.root] == "multi-sentence" else None
    for variable, edges in graph.children.items():
        if variable != skip:
            wiki = _wiki_link(edges, named)
            if wiki is not None:
                wikis[variable] = wiki
    return wikis, named


def handle_name(variable: str, edges: list[AmrEdge], sentence_index: int = 1) -> Concept:
    """Join the literals of a name node's :opN edges (ascending N) into one
    concept. The indices must run 1..N, each once (``:op01`` is index 1)."""
    texts: list[str] = []
    for (_, role, target, _), expected in zip(edges, _OP_ROLES):
        if role != expected or not isinstance(target, Literal):
            break
        texts.append(target.text)
    else:
        if texts and len(texts) == len(edges):
            return _new(Concept, (" ".join(texts), "name", sentence_index, None))
    ops: dict[int, str] = {}
    for _, role, target, _ in edges:
        match = _OP_ROLE_RE.match(role)
        if match and isinstance(target, Literal):
            n = int(match.group(1))
            if n in ops:
                raise DistillError(f"name node {variable!r} repeats op index {n}")
            ops[n] = target.text
    if 1 not in ops:
        raise DistillError(f"name node {variable!r} is missing :op1")
    if sorted(ops) != list(range(1, len(ops) + 1)):
        raise DistillError(
            f"name node {variable!r} has non-contiguous op indices {sorted(ops)}"
        )
    text = " ".join(ops[i] for i in range(1, len(ops) + 1))
    return _new(Concept, (text, "name", sentence_index, None))


def handle_date(variable: str, edges: list[AmrEdge], sentence_index: int = 1) -> Concept | None:
    """Render a date-entity's first literal :day, :month and :year as e.g.
    '19 April 2024'; bare years stay numeric. None when no part is present."""
    parts: list[str] = []
    # each role's first literal
    first = {r: t for _, r, t, _ in reversed(edges) if isinstance(t, Literal)}
    day = _int_value(variable, ":day", first.get(":day"))
    month = _int_value(variable, ":month", first.get(":month"))
    year = _int_value(variable, ":year", first.get(":year"))
    if day is not None:
        if not 1 <= day <= 31:
            raise DistillError(f"date-entity {variable!r} has day {day} outside 1-31")
        parts.append(str(day))
    if month is not None:
        if not 1 <= month <= 12:
            raise DistillError(f"date-entity {variable!r} has month {month} outside 1-12")
        parts.append(_MONTH_NAMES[month - 1])
    if year is not None:
        parts.append(str(year))
    if not parts:
        return None
    return _new(Concept, (" ".join(parts), "date", sentence_index, None))


def _int_value(variable: str, role: str, literal: Literal | None) -> int | None:
    """A date part's ASCII digits as a number; only a year may take a sign."""
    if literal is None:
        return None
    text = literal.text
    digits = text[1:] if role == ":year" and text.startswith(("+", "-")) else text
    if not (digits.isascii() and digits.isdigit()):  # int() takes "1_999" and "٣"
        raise DistillError(f"{variable!r} has non-numeric {role} value {text!r}")
    return int(text)


# --- traversal
#
# Both traversals below emit a node's concepts when they reach it: a name
# (unless a wiki-linked parent defined it: the wiki string is the
# standardized form of the same entity, so it replaces the name and
# duplicates never arise), else the instance unless the node is wiki-linked
# or a date-entity, then the wiki string, then the date. The name rule is
# structural, which keeps the emitted multiset identical under every order.


def _distill_in_order(
    graph: AmrGraph, stoplist: frozenset[str], labels: dict[str, str | None]
) -> list[Concept]:
    """The ``dfs`` traversal in one pass, formatted.

    ``graph.nodes`` is in definition order, which is the depth-first
    pre-order, so each sentence's nodes are the run of it that starts at the
    sentence's root. Runs are taken in :sntN order, whatever the textual
    order. A node is reached before the nodes it defines, so its wiki link is
    found then, and an instance is dropped or sense-stripped as its concept
    is made (``labels`` memoizes :func:`_format_label`).
    """
    nodes = graph.nodes
    children = graph.children
    roots = split_sentences(graph)
    if roots == [graph.root]:
        runs = [nodes]
    else:
        # the root defines only its sentences' roots (split_sentences checks
        # that), so its defining edges list them in textual order
        textual = [edge.target for edge in children[graph.root] if edge.defines]
        variables = list(nodes)
        starts = [1]
        for root in textual:
            starts.append(variables.index(root, starts[-1]))
        starts.append(len(variables))
        run_of = {root: variables[start:end]
                  for root, start, end in zip(textual, starts[1:], starts[2:])}
        runs = [run_of[root] for root in roots]
    for label in set(nodes.values()).difference(labels):
        labels[label] = _format_label(label, stoplist)
    concepts: list[Concept] = []
    append = concepts.append
    named: set[str] = set()
    for sentence_index, run in enumerate(runs, start=1):
        for variable in run:
            instance = nodes[variable]
            edges = children[variable]
            wiki = _wiki_link(edges, named)
            if instance == "name":
                if variable not in named:
                    append(handle_name(variable, edges, sentence_index))
            elif wiki is None and instance != "date-entity":
                text = labels[instance]
                if text is not None:
                    append(_new(Concept, (text, "instance", sentence_index, None)))
                continue
            if wiki is not None:
                append(_new(Concept, (wiki, "wiki", sentence_index, None)))
            if instance == "date-entity":
                date = handle_date(variable, edges, sentence_index)
                if date is not None:
                    append(date)
    return concepts


def _run_stream(
    graph: AmrGraph, stream: list[tuple[int, str]], wikis: dict[str, str], named: set[str]
) -> list[Concept]:
    """The concepts of (sentence_index, variable) items in stream order,
    unformatted; ``wikis`` and ``named`` are :func:`_wiki_links`'s."""
    nodes = graph.nodes
    children = graph.children
    concepts: list[Concept] = []
    append = concepts.append
    for sentence_index, variable in stream:
        instance = nodes[variable]
        wiki = wikis.get(variable)
        if instance == "name":
            if variable not in named:
                append(handle_name(variable, children[variable], sentence_index))
        elif wiki is None and instance != "date-entity":
            append(_new(Concept, (instance, "instance", sentence_index, None)))
            continue
        if wiki is not None:
            append(_new(Concept, (wiki, "wiki", sentence_index, None)))
        if instance == "date-entity":
            date = handle_date(variable, children[variable], sentence_index)
            if date is not None:
                append(date)
    return concepts


def _traversal_streams(
    graph: AmrGraph, config: DistillConfig
) -> list[list[tuple[int, str]]]:
    """The (sentence_index, variable) streams of a random traversal."""
    per_sentence = [
        [(index, variable) for variable in dfs_nodes(graph, root)]
        for index, root in enumerate(split_sentences(graph), start=1)
    ]
    rng = random.Random(config.seed)
    if config.traversal == "local-random":
        for sentence in per_sentence:
            rng.shuffle(sentence)
        return per_sentence
    # global-random: one stream over the whole document
    merged = [item for sentence in per_sentence for item in sentence]
    rng.shuffle(merged)
    return [merged]


def concept_format(
    concepts: list[Concept], stoplist: frozenset[str] = DEFAULT_STOPLIST
) -> list[Concept]:
    """Drop stoplisted canonical nodes; strip sense suffixes like '-01' from
    instance concepts."""
    out: list[Concept] = []
    for concept in concepts:
        label, provenance, sentence_index, span = concept
        if provenance == "instance":
            text = _format_label(label, stoplist)
            if text is None:
                continue
            if text != label:
                concept = _new(Concept, (text, provenance, sentence_index, span))
        out.append(concept)
    return out


def _format_label(label: str, stoplist: frozenset[str]) -> str | None:
    """An instance label's concept text, its sense suffixes stripped; None
    when the label or its stripped form is stoplisted."""
    if label in stoplist:
        return None
    if label[-3:-2] != "-":  # cannot end in a sense suffix
        return label
    text = strip_sense(label)
    return None if text in stoplist else text


def strip_sense(label: str) -> str:
    """Remove trailing AMR sense tags: 'work-01' -> 'work'."""
    while _SENSE_RE.search(label):
        label = label[:-3]
    return label


def concept_backtrace(
    concepts: list[Concept], source_doc: str, min_overlap: int = 4
) -> list[Concept]:
    """Restore concepts to the source document's surface forms.

    Instance concepts are replaced word-by-word with the source token sharing
    the longest common prefix (at least ``min_overlap`` characters, ties
    broken by earliest position); unmatched concepts keep their AMR form.
    Name/wiki/date concepts pass through, taking the source casing and span
    when an exact case-insensitive whole-word match exists. Never drops or
    adds. Each distinct instance text and word is restored, and each
    lowercase target searched, once per document.
    """
    # each distinct instance text's restored text and span, or None to keep it;
    # a name, wiki or date concept's is the source slice at its target's span
    instances: dict[str, tuple[str, tuple[int, int] | None] | None] = {}
    words: dict[str, tuple[int, int] | None] = {}  # token span by word
    spans: dict[str, tuple[int, int] | None] = {}  # by lowercase target
    lowered = source_doc.lower()
    # lowercasing can lengthen the text ('İ' becomes two characters), so
    # offsets into ``lowered`` are mapped back to ``source_doc`` through
    # ``to_doc``, built for the first name, wiki or date target
    to_doc: dict[int, int] | None = None
    shifted = len(lowered) != len(source_doc)
    # Words are searched in a lowercase copy with the source's offsets. 'İ' and
    # the Kelvin sign are the only characters whose lowercase holds an ASCII
    # letter ('i' + U+0307, 'k'); they are no word characters, so they are
    # blanked first, and every other character lowercases to one character.
    if shifted or "\u212a" in source_doc:
        words_in = source_doc.replace("\u0130", " ").replace("\u212a", " ").lower()
    else:
        words_in = lowered
    haystack = [source_doc, words_in, None]
    prefix_len = max(min_overlap, 1)
    out: list[Concept] = []
    for concept in concepts:
        text, provenance, sentence_index, _ = concept
        if provenance == "instance":
            if text in instances:
                restored = instances[text]
            else:
                restored = instances[text] = _restore_words(
                    _TOKEN_RE.split(text), words, haystack, prefix_len
                )
        else:
            target = text.lower()
            if target not in spans:
                if shifted and to_doc is None:
                    to_doc, at = {}, 0
                    for i, ch in enumerate(source_doc):
                        to_doc[at] = i
                        at += len(ch.lower())
                    to_doc[at] = len(source_doc)
                spans[target] = _find_lowercase(source_doc, lowered, to_doc, target)
            span = spans[target]
            restored = None if span is None else (source_doc[span[0] : span[1]], span)
        if restored is None:
            out.append(concept)
        else:
            out.append(_new(Concept, (restored[0], provenance, sentence_index, restored[1])))
    return out


def _find_lowercase(
    source_doc: str, lowered: str, to_doc: dict[int, int] | None, target: str
) -> tuple[int, int] | None:
    """Earliest whole-word span of ``source_doc`` whose lowercase form is
    ``target``. A hit in ``lowered`` must start and end on a character of
    ``source_doc``, the slice must lowercase alone to ``target`` (a final
    sigma lowercases by context), and neither neighbour of the slice may be
    a word character of ``_TOKEN_RE``."""
    at = lowered.find(target)
    while at >= 0:
        if to_doc is None:
            start, end = at, at + len(target)
        else:
            start, end = to_doc.get(at), to_doc.get(at + len(target))
        if start is not None and end is not None and source_doc[start:end].lower() == target:
            if _WORD_CHARS.isdisjoint(source_doc[start - 1 : start] + source_doc[end : end + 1]):
                return start, end
        at = lowered.find(target, at + 1)
    return None


def _restore_words(
    parts: list[str], words: dict[str, tuple[int, int] | None], haystack: list, prefix_len: int
) -> tuple[str, tuple[int, int] | None] | None:
    """An instance text, split by ``_TOKEN_RE`` into its words (odd items)
    and the text around them, with each word replaced by its best source
    token, and the span of those tokens when every word has one; None when
    none has. ``words`` memoizes each word's token span."""
    source_doc = haystack[0]
    span: tuple[int, int] | None = None
    missed = False
    for i in range(1, len(parts), 2):
        word = parts[i]
        if word in words:
            match = words[word]
        else:
            match = words[word] = _best_token_match(word, haystack, prefix_len)
        if match is None:
            missed = True
            continue
        start, end = match
        parts[i] = source_doc[start:end]
        span = match if span is None else (min(span[0], start), max(span[1], end))
    if span is None:
        return None
    return "".join(parts), None if missed else span


def _best_token_match(word: str, haystack: list, prefix_len: int) -> tuple[int, int] | None:
    """The span of the earliest source token that shares the longest common
    lowercase prefix with ``word``, of at least ``prefix_len`` characters;
    None when no token does.

    ``haystack`` holds the source document, its lowercase copy with the same
    offsets (see :func:`concept_backtrace`), and the ends of its tokens once a
    search has needed them. Prefixes are searched from the whole word down,
    dropping 1, 2, 4, ... characters until one starts a token; the lengths
    between that hit and the last miss are then bisected. A word of m characters takes
    O(log m) searches, most words one.
    """
    word = word.lower()  # ASCII, like every token
    best: tuple[int, int] | None = None
    low, high, drop = prefix_len, len(word), 0
    while low <= high:
        length = max(len(word) - drop, low) if best is None else (low + high) // 2
        span = _token_with_prefix(word[:length], haystack)
        if span is None:
            high, drop = length - 1, 2 * drop or 1
        else:
            best, low = span, length + 1
    return best


def _token_with_prefix(prefix: str, haystack: list) -> tuple[int, int] | None:
    """The span of the earliest source token that starts with ``prefix``, the
    lowercase start of a word. A hit inside a token skips the rest of it."""
    lowered = haystack[1]
    # a token holds an apostrophe only before a word character
    open_end = prefix[-1] == "'"
    at = lowered.find(prefix)
    while at >= 0:
        if at and (
            lowered[at - 1] in _WORD_CHARS
            or lowered[at - 1] == "'" and lowered[at - 2 : at - 1] in _WORD_CHARS
        ):
            # inside a token (after 'o' + "'" in "o'neil", say): skip past it
            if haystack[2] is None:
                haystack[2] = [m.end() for m in _TOKEN_RE.finditer(lowered)]
            ends = haystack[2]
            at = lowered.find(prefix, ends[bisect_right(ends, at)])
        elif open_end and lowered[at + len(prefix) : at + len(prefix) + 1] not in _WORD_CHARS:
            at = lowered.find(prefix, at + 1)
        else:
            return at, _TOKEN_RE.match(lowered, at).end()
    return None


def distill_documents(
    graphs: list[AmrGraph], source_docs: list[str], config: DistillConfig | None = None,
    *, common: frozenset[str] = frozenset(),
) -> list[ConceptSet]:
    """Distill each graph against its source document, stage by stage: every
    graph is traversed in ``config.traversal`` order, with a random stream of
    its own, and formatted (``dfs`` in one pass); then every result is backtraced, and a concept
    whose text, lowercased, is in ``common`` (see :func:`common_terms`) is
    dropped. The first graph, in order, that breaks a role's rule raises."""
    config = config or DistillConfig()
    stoplist = config.stoplist()
    labels: dict[str, str | None] = {}  # instance label -> concept text
    formatted = []
    for graph in graphs:
        if config.traversal == "dfs":
            formatted.append(_distill_in_order(graph, stoplist, labels))
            continue
        wikis, named = _wiki_links(graph)
        concepts: list[Concept] = []
        for stream in _traversal_streams(graph, config):
            concepts.extend(_run_stream(graph, stream, wikis, named))
        formatted.append(concept_format(concepts, stoplist))
    sets = []
    for concepts, source_doc in zip(formatted, source_docs, strict=True):
        concepts = concept_backtrace(concepts, source_doc, config.min_backtrace_overlap)
        if common:
            concepts = [c for c in concepts if c.text.lower() not in common]
        sets.append(ConceptSet(concepts=tuple(concepts)))
    return sets


def distill_concepts(
    graph: AmrGraph, source_doc: str, config: DistillConfig | None = None,
    *, common: frozenset[str] = frozenset(),
) -> ConceptSet:
    """:func:`distill_documents` over one document."""
    return distill_documents([graph], [source_doc], config, common=common)[0]
