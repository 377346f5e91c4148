"""Straightforward reference versions of the fast paths in ``penman`` and
``distill``, for the property tests in ``test_fast_paths.py`` to compare
against.

These are the earlier implementations kept as they were: the
character-at-a-time lexer, the recursive-descent parser, the linear
``defining_parent`` scan, the backtrace that compares every concept word
with every source token, and the name and date handlers that read every
literal edge through a regex or ``attribute`` (the name handler with the
repeated-index rule added). ``distill_concepts``
runs the distillation layer by layer on top of them. They are quadratic or
recursive on purpose; only their output matters.
"""

from __future__ import annotations

import random
import re
from typing import NamedTuple

from conceptrag.distill import (
    DEFAULT_STOPLIST,
    Concept,
    ConceptSet,
    DistillConfig,
    DistillError,
)
from conceptrag.penman import AmrEdge, AmrGraph, AmrParseError, Literal

_VAR_RE = re.compile(r"[a-z][a-z0-9']*\Z")
_ROLE_RE = re.compile(r":[A-Za-z0-9-]+\Z")
_NUMERIC_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?\Z")
_ALIGNMENT_RE = re.compile(r"[A-Za-z]*\.?[0-9]+(,[0-9]+)*")
_SYMBOL_END = set(' \t\r\n()"/:~#')
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+(?:'[A-Za-z0-9]+)*")
_WORD_CHAR_RE = re.compile(r"[A-Za-z0-9]")
_OP_ROLE_RE = re.compile(r":op([0-9]+)\Z")
_MONTH_NAMES = ("January", "February", "March", "April", "May", "June", "July",
                "August", "September", "October", "November", "December")


class Token(NamedTuple):
    kind: str
    text: str
    offset: int


def _byte_offset(text: str, char_offset: int) -> int:
    return len(text[:char_offset].encode("utf-8"))


def lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)

    def err(message: str, at: int) -> AmrParseError:
        return AmrParseError(message, _byte_offset(text, at))

    def skip_alignment(j: int) -> int:
        if j < n and text[j] == "~":
            m = _ALIGNMENT_RE.match(text, j + 1)
            if m:
                return m.end()
            return j + 1
        return j

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()/":
            kind = {"(": "lparen", ")": "rparen", "/": "slash"}[ch]
            tokens.append(Token(kind, ch, i))
            i = skip_alignment(i + 1)
        elif ch == '"':
            start = i
            i += 1
            parts: list[str] = []
            while True:
                if i >= n:
                    raise err("unterminated string literal", start)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise err("unterminated string literal", start)
                    nxt = text[i + 1]
                    parts.append(nxt if nxt in ('"', "\\") else "\\" + nxt)
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    parts.append(c)
                    i += 1
            tokens.append(Token("string", "".join(parts), start))
            i = skip_alignment(i)
        elif ch == ":":
            start = i
            i += 1
            while i < n and (text[i].isalnum() or text[i] == "-"):
                i += 1
            role = text[start:i]
            if not _ROLE_RE.match(role):
                raise err(f"invalid role token {role!r}", start)
            tokens.append(Token("role", role, start))
            i = skip_alignment(i)
        else:
            start = i
            while i < n and text[i] not in _SYMBOL_END:
                i += 1
            if i == start:
                raise err(f"unexpected character {ch!r}", start)
            tokens.append(Token("symbol", text[start:i], start))
            i = skip_alignment(i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = lex(text)
        self.pos = 0
        self.defined: dict[str, int] = {}
        self.node_instances: dict[str, str] = {}
        self.raw_edges: list[tuple[str, str, object, bool, int] | None] = []
        self.edges: list[AmrEdge] = []  # in textual order, once built
        self.root: str | None = None

    def fail(self, message: str, at: int):
        raise AmrParseError(message, _byte_offset(self.text, at))

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            self.fail("unbalanced parentheses: unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            self.fail(f"expected {what}, found {tok.text!r}", tok.offset)
        return tok

    def parse(self) -> AmrGraph:
        first = self.expect("lparen", "'('")
        self.root = self.parse_node(first)
        trailing = self.peek()
        if trailing is not None:
            self.fail("unexpected content after graph", trailing.offset)
        return self.build()

    def parse_node(self, lparen: Token) -> str:
        var_tok = self.take()
        if var_tok.kind != "symbol" or not _VAR_RE.match(var_tok.text):
            self.fail(f"expected variable, found {var_tok.text!r}", var_tok.offset)
        variable = var_tok.text
        if variable in self.defined:
            self.fail(f"duplicate definition of variable {variable!r}", var_tok.offset)
        self.defined[variable] = var_tok.offset
        self.expect("slash", "'/'")
        inst_tok = self.take()
        if inst_tok.kind != "symbol":
            self.fail(f"expected instance label, found {inst_tok.text!r}", inst_tok.offset)
        self.node_instances[variable] = inst_tok.text

        while True:
            tok = self.take()
            if tok.kind == "rparen":
                return variable
            if tok.kind != "role":
                self.fail(f"expected role or ')', found {tok.text!r}", tok.offset)
            value = self.take()
            if value.kind == "lparen":
                slot = len(self.raw_edges)
                self.raw_edges.append(None)
                child = self.parse_node(value)
                self.raw_edges[slot] = (variable, tok.text, child, True, value.offset)
            elif value.kind == "string":
                literal = Literal(value.text, quoted=True)
                self.raw_edges.append((variable, tok.text, literal, False, value.offset))
            elif value.kind == "symbol":
                self.raw_edges.append((variable, tok.text, value, False, value.offset))
            else:
                self.fail(f"expected a value after {tok.text}", value.offset)

    def build(self) -> AmrGraph:
        edges: list[AmrEdge] = []
        for raw in self.raw_edges:
            source, role, target, defines, offset = raw
            if isinstance(target, Token):
                sym = target.text
                if sym in self.defined:
                    edges.append(AmrEdge(source, role, sym, defines=False))
                elif _NUMERIC_RE.match(sym) or sym in ("-", "+"):
                    edges.append(AmrEdge(source, role, Literal(sym), defines=False))
                elif _VAR_RE.match(sym):
                    self.fail(f"reference to undefined variable {sym!r}", offset)
                else:
                    self.fail(f"invalid attribute value {sym!r}", offset)
            elif isinstance(target, Literal):
                edges.append(AmrEdge(source, role, target, defines=False))
            else:
                edges.append(AmrEdge(source, role, target, defines=True))

        self.edges = edges
        nodes = dict(self.node_instances)
        return AmrGraph(self.root, nodes, children(nodes, edges))


def parse_amr(text: str) -> AmrGraph:
    return _Parser(text).parse()


def textual_edges(text: str) -> list[AmrEdge]:
    """The graph's edges in the order their roles appear in ``text``."""
    parser = _Parser(text)
    parser.parse()
    return parser.edges


def children(variables, edges: list[AmrEdge]) -> dict[str, list[AmrEdge]]:
    """Each variable's edges, in textual order."""
    return {v: [edge for edge in edges if edge.source == v] for v in variables}


def all_edges(graph: AmrGraph) -> list[AmrEdge]:
    """Every edge, grouped by source; each source's edges in textual order."""
    return [edge for edges in graph.children.values() for edge in edges]


def literals(edges: list[AmrEdge]) -> list[tuple[str, Literal]]:
    """The (role, literal) pairs of a node's literal edges, in textual order."""
    return [(edge.role, edge.target) for edge in edges if isinstance(edge.target, Literal)]


def attribute(edges: list[AmrEdge], role: str) -> Literal | None:
    """A node's first literal for ``role``, or None."""
    for r, value in literals(edges):
        if r == role:
            return value
    return None


def defining_parent(graph: AmrGraph, variable: str) -> str | None:
    for edge in all_edges(graph):
        if edge.defines and edge.target == variable:
            return edge.source
    return None


def concept_backtrace(
    concepts: list[Concept], source_doc: str, min_overlap: int = 4
) -> list[Concept]:
    tokens = [(m.group(0), m.start(), m.end()) for m in _TOKEN_RE.finditer(source_doc)]
    lowered = source_doc.lower()
    out: list[Concept] = []
    for concept in concepts:
        if concept.provenance == "instance":
            out.append(_backtrace_instance(concept, tokens, min_overlap))
        else:
            at = lowered.find(concept.text.lower())
            # a whole word only: no ASCII letter or digit on either side
            while at >= 0 and (
                _WORD_CHAR_RE.match(source_doc[at - 1 : at])
                or _WORD_CHAR_RE.match(source_doc[at + len(concept.text) :])
            ):
                at = lowered.find(concept.text.lower(), at + 1)
            if at >= 0:
                end = at + len(concept.text)
                out.append(concept._replace(text=source_doc[at:end], source_span=(at, end)))
            else:
                out.append(concept)
    return out


def _backtrace_instance(
    concept: Concept, tokens: list[tuple[str, int, int]], min_overlap: int
) -> Concept:
    spans: list[tuple[int, int]] = []
    matched_all = True

    def substitute(match: re.Match) -> str:
        nonlocal matched_all
        best = best_token_match(match.group(0), tokens, min_overlap)
        if best is None:
            matched_all = False
            return match.group(0)
        text, start, end = best
        spans.append((start, end))
        return text

    new_text = _TOKEN_RE.sub(substitute, concept.text)
    if not spans:
        return concept
    span = (min(s for s, _ in spans), max(e for _, e in spans)) if matched_all else None
    return concept._replace(text=new_text, source_span=span)


def best_token_match(
    word: str, tokens: list[tuple[str, int, int]], min_overlap: int
) -> tuple[str, int, int] | None:
    word_lower = word.lower()
    best: tuple[str, int, int] | None = None
    best_len = 0
    for text, start, end in tokens:
        overlap = _common_prefix_len(word_lower, text.lower())
        if overlap >= min_overlap and overlap > best_len:
            best, best_len = (text, start, end), overlap
    return best


def _common_prefix_len(a: str, b: str) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def distill_concepts(
    graph: AmrGraph,
    source_doc: str,
    config: DistillConfig | None = None,
    common: frozenset[str] = frozenset(),
) -> ConceptSet:
    """Each sentence walked depth-first, then the role buffer, the format
    step, the backtrace and the common-word filter, each over the whole
    document in turn."""
    config = config or DistillConfig()
    streams = _traversal_streams(graph, config)
    in_sentences = {variable for stream in streams for _, variable in stream}
    concepts = [c for stream in streams for c in _role_buffer(graph, stream, in_sentences)]
    stoplist = (DEFAULT_STOPLIST | set(config.stoplist_add)) - set(config.stoplist_remove)
    formatted = []
    for concept in concepts:
        text = concept.text
        if concept.provenance == "instance":
            text = re.sub(r"(?:-[0-9]{2})+\Z", "", text)
            if concept.text in stoplist or text in stoplist:
                continue
        formatted.append(concept._replace(text=text))
    backtraced = concept_backtrace(formatted, source_doc, config.min_backtrace_overlap)
    return ConceptSet(tuple(c for c in backtraced if c.text.lower() not in common))


def _traversal_streams(graph: AmrGraph, config: DistillConfig) -> list[list[tuple[int, str]]]:
    if graph.nodes[graph.root] == "multi-sentence":
        numbered = sorted(
            (int(edge.role[len(":snt") :]), edge.target)
            for edge in all_edges(graph)
            if edge.source == graph.root and edge.role.startswith(":snt")
        )
        roots = [target for _, target in numbered]
    else:
        roots = [graph.root]
    streams = [[(i, v) for v in _preorder(graph, root)] for i, root in enumerate(roots, 1)]
    if config.traversal == "local-random":
        rng = random.Random(config.seed)
        for stream in streams:
            rng.shuffle(stream)
    elif config.traversal == "global-random":
        streams = [[item for stream in streams for item in stream]]
        random.Random(config.seed).shuffle(streams[0])
    return streams


def _preorder(graph: AmrGraph, variable: str) -> list[str]:
    order = [variable]
    for edge in all_edges(graph):
        if edge.defines and defining_parent(graph, edge.target) == variable:
            order += _preorder(graph, edge.target)
    return order


def _wiki(graph: AmrGraph, variable: str, sentence_index: int = 1) -> Concept | None:
    """The node's Wikipedia reference with underscores as spaces, or None
    when it has no :wiki or the '-' no-link marker."""
    literal = attribute(graph.children[variable], ":wiki")
    if literal is None or literal.text == "-":
        return None
    return Concept(literal.text.replace("_", " "), "wiki", sentence_index)


def _role_buffer(
    graph: AmrGraph, stream: list[tuple[int, str]], in_sentences: set[str]
) -> list[Concept]:
    out: list[Concept] = []
    buffer: list[Concept] = []
    for sentence_index, variable in stream:
        instance = graph.nodes[variable]
        edges = graph.children[variable]
        wiki = _wiki(graph, variable, sentence_index)
        if instance not in ("name", "date-entity") and wiki is None:
            out += buffer
            buffer = []
            out.append(Concept(instance, "instance", sentence_index))
            continue
        if instance == "name":
            # a wiki-linked parent's wiki string stands for the name; a
            # parent in no sentence links nothing
            parent = defining_parent(graph, variable)
            if parent not in in_sentences or _wiki(graph, parent) is None:
                buffer.append(handle_name(variable, edges, sentence_index))
        if wiki is not None:
            buffer.append(wiki)
        if instance == "date-entity":
            date = handle_date(variable, edges, sentence_index)
            if date is not None:
                buffer.append(date)
    return out + buffer


def handle_name(variable: str, edges: list[AmrEdge], sentence_index: int = 1) -> Concept:
    ops: dict[int, str] = {}
    for role, literal in literals(edges):
        match = _OP_ROLE_RE.match(role)
        if match:
            n = int(match.group(1))
            if n in ops:
                raise DistillError(f"name node {variable!r} repeats op index {n}")
            ops[n] = literal.text
    if 1 not in ops:
        raise DistillError(f"name node {variable!r} is missing :op1")
    if sorted(ops) != list(range(1, len(ops) + 1)):
        raise DistillError(
            f"name node {variable!r} has non-contiguous op indices {sorted(ops)}"
        )
    text = " ".join(ops[i] for i in range(1, len(ops) + 1))
    return Concept(text, "name", sentence_index)


def handle_date(variable: str, edges: list[AmrEdge], sentence_index: int = 1) -> Concept | None:
    parts: list[str] = []
    day = _int_attribute(variable, edges, ":day")
    month = _int_attribute(variable, edges, ":month")
    year = _int_attribute(variable, edges, ":year")
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
    return Concept(" ".join(parts), "date", sentence_index)


def _int_attribute(variable: str, edges: list[AmrEdge], role: str) -> int | None:
    literal = attribute(edges, role)
    if literal is None:
        return None
    if not re.fullmatch(r"[+-]?[0-9]+" if role == ":year" else r"[0-9]+", literal.text):
        raise DistillError(
            f"{variable!r} has non-numeric {role} value {literal.text!r}"
        )
    return int(literal.text)
