"""PENMAN notation for AMR graphs: parsing, serialization, and traversal.

An AMR graph is a rooted, directed, labelled, acyclic graph. In PENMAN text
each node is introduced once as ``(variable / instance ...)``; later bare
mentions of the same variable are re-entrant references and do not create new
nodes. Multi-sentence documents parse to a ``multi-sentence`` root whose
``:sntN`` children hold one subgraph per source sentence.

The dialect accepted here is AMR 3.0 style: variables ``[a-z][a-z0-9']*``,
roles ``:[A-Za-z0-9-]+``, double-quoted string literals with backslash
escapes, bare numeric literals, and the bare ``-``/``+`` polarity markers.
Surface-alignment suffixes (``~e.4``) are stripped while lexing, and ``#``
comments are tolerated outside string literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

_VAR_RE = re.compile(r"[a-z][a-z0-9']*\Z")
_ROLE_RE = re.compile(r":[A-Za-z0-9-]+\Z")
_NUMERIC_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?\Z")
_ALIGNMENT_RE = re.compile(r"[A-Za-z]*\.?[0-9]+(,[0-9]+)*")
_SNT_ROLE_RE = re.compile(r":snt([0-9]+)\Z")
_SYMBOL_END = set(' \t\r\n()"/:~#')


class AmrParseError(ValueError):
    """Malformed PENMAN text. ``offset`` is the byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class GraphError(ValueError):
    """A structurally invalid graph operation (e.g. bad :sntN layout)."""


@dataclass(frozen=True)
class Literal:
    """An attribute value: a quoted string, a number, or a polarity marker."""

    text: str
    quoted: bool = False

    def penman(self) -> str:
        if self.quoted:
            escaped = self.text.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return self.text


Target = Union[str, Literal]


@dataclass(frozen=True)
class AmrEdge:
    """One role edge. ``defines`` is True where the target node's
    ``(var / instance ...)`` expansion appeared; re-entrant references and
    literal attributes have ``defines=False``."""

    source: str
    role: str
    target: Target
    defines: bool = False


@dataclass(frozen=True)
class AmrNode:
    variable: str
    instance: str
    attributes: tuple[tuple[str, Literal], ...] = ()

    def attribute(self, role: str) -> Literal | None:
        for r, value in self.attributes:
            if r == role:
                return value
        return None


class AmrGraph:
    """Immutable parsed graph: a root variable, nodes, and an ordered edge
    list that preserves the textual order of roles."""

    def __init__(self, root: str, nodes: dict[str, AmrNode], edges: list[AmrEdge]):
        self.root = root
        self.nodes = dict(nodes)
        self.edges = list(edges)
        self._children: dict[str, list[AmrEdge]] = {v: [] for v in self.nodes}
        for edge in self.edges:
            self._children[edge.source].append(edge)

    def children(self, variable: str) -> list[AmrEdge]:
        return self._children[variable]

    def defining_parent(self, variable: str) -> str | None:
        """Variable of the node under which ``variable`` was defined."""
        for edge in self.edges:
            if edge.defines and edge.target == variable:
                return edge.source
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AmrGraph):
            return NotImplemented
        return (
            self.root == other.root
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"AmrGraph(root={self.root!r}, nodes={len(self.nodes)}, edges={len(self.edges)})"

    def to_dict(self) -> dict:
        """JSON-friendly rendering used by the CLI ``parse`` command."""
        return {
            "root": self.root,
            "nodes": {
                v: {
                    "instance": n.instance,
                    "attributes": [
                        {"role": r, "value": lit.text, "quoted": lit.quoted}
                        for r, lit in n.attributes
                    ],
                }
                for v, n in self.nodes.items()
            },
            "edges": [
                {
                    "source": e.source,
                    "role": e.role,
                    "target": e.target.text if isinstance(e.target, Literal) else e.target,
                    "kind": "attribute"
                    if isinstance(e.target, Literal)
                    else ("node" if e.defines else "reference"),
                }
                for e in self.edges
            ],
        }


@dataclass(frozen=True)
class SentenceSubgraph:
    """One sentence of a document graph: 1-based ordinal, its root variable,
    and the set of node variables it owns."""

    index: int
    root: str
    members: frozenset[str]
    graph: AmrGraph = field(compare=False)


# --- lexer -----------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # 'lparen' | 'rparen' | 'slash' | 'role' | 'string' | 'symbol'
    text: str
    offset: int  # character offset; converted to bytes when reporting


def _byte_offset(text: str, char_offset: int) -> int:
    return len(text[:char_offset].encode("utf-8"))


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)

    def err(message: str, at: int) -> AmrParseError:
        return AmrParseError(message, _byte_offset(text, at))

    def skip_alignment(j: int) -> int:
        # surface alignments like ~e.4 or ~4,5 attach to the preceding token
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
            tokens.append(_Token(kind, ch, i))
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
            tokens.append(_Token("string", "".join(parts), start))
            i = skip_alignment(i)
        elif ch == ":":
            start = i
            i += 1
            while i < n and (text[i].isalnum() or text[i] == "-"):
                i += 1
            role = text[start:i]
            if not _ROLE_RE.match(role):
                raise err(f"invalid role token {role!r}", start)
            tokens.append(_Token("role", role, start))
            i = skip_alignment(i)
        else:
            start = i
            while i < n and text[i] not in _SYMBOL_END:
                i += 1
            if i == start:
                raise err(f"unexpected character {ch!r}", start)
            tokens.append(_Token("symbol", text[start:i], start))
            i = skip_alignment(i)
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.defined: dict[str, int] = {}  # variable -> def offset
        self.node_instances: dict[str, str] = {}
        # (source, role, raw target, defines, offset) in textual role order,
        # with None placeholders while a nested node is being parsed;
        # symbol targets are resolved after the full parse
        self.raw_edges: list[tuple[str, str, object, bool, int] | None] = []
        self.root: str | None = None

    def fail(self, message: str, at: int):
        raise AmrParseError(message, _byte_offset(self.text, at))

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            self.fail("unbalanced parentheses: unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
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

    def parse_node(self, lparen: _Token) -> str:
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
                # reserve the slot first so the edge list keeps the textual
                # order of roles (the child's own edges come after this one)
                slot = len(self.raw_edges)
                self.raw_edges.append(None)
                child = self.parse_node(value)
                self.raw_edges[slot] = (variable, tok.text, child, True, value.offset)
            elif value.kind == "string":
                literal = Literal(value.text, quoted=True)
                self.raw_edges.append((variable, tok.text, literal, False, value.offset))
            elif value.kind == "symbol":
                # variable reference, number, or polarity; resolved after the
                # full parse so forward references work
                self.raw_edges.append((variable, tok.text, value, False, value.offset))
            else:
                self.fail(f"expected a value after {tok.text}", value.offset)

    def build(self) -> AmrGraph:
        edges: list[AmrEdge] = []
        for raw in self.raw_edges:
            assert raw is not None  # every placeholder is filled during parse
            source, role, target, defines, offset = raw
            if isinstance(target, _Token):
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

        nodes = {}
        for variable, instance in self.node_instances.items():
            attrs = tuple(
                (e.role, e.target)
                for e in edges
                if e.source == variable and isinstance(e.target, Literal)
            )
            nodes[variable] = AmrNode(variable, instance, attrs)
        assert self.root is not None
        return AmrGraph(self.root, nodes, edges)


def parse_amr(text: str) -> AmrGraph:
    """Parse one PENMAN s-expression into an :class:`AmrGraph`.

    Raises :class:`AmrParseError` (with a byte offset) on unbalanced
    parentheses, unterminated string literals, duplicate variable
    definitions, and references to undefined variables.
    """
    return _Parser(text).parse()


def serialize_amr(graph: AmrGraph, indent: int = 4) -> str:
    """Render a graph back to PENMAN; ``parse_amr`` of the result is
    structurally equal to the input."""

    def emit(variable: str, depth: int) -> str:
        node = graph.nodes[variable]
        head = f"({variable} / {node.instance}"
        children = graph.children(variable)
        if not children:
            return head + ")"
        pad = "\n" + " " * (indent * (depth + 1))
        parts = [head]
        for edge in children:
            if isinstance(edge.target, Literal):
                parts.append(f"{pad}{edge.role} {edge.target.penman()}")
            elif edge.defines:
                parts.append(f"{pad}{edge.role} {emit(edge.target, depth + 1)}")
            else:
                parts.append(f"{pad}{edge.role} {edge.target}")
        return "".join(parts) + ")"

    return emit(graph.root, 0)


def split_sentences(graph: AmrGraph) -> list[SentenceSubgraph]:
    """Partition a graph into per-sentence subgraphs.

    A ``multi-sentence`` root yields one subgraph per ``:sntN`` edge, ordered
    by N and re-indexed 1..n; any other root yields a single subgraph holding
    the whole graph. Each node belongs to the sentence where it was defined.
    """
    root_node = graph.nodes[graph.root]
    if root_node.instance != "multi-sentence":
        return [SentenceSubgraph(1, graph.root, _defining_closure(graph, graph.root), graph)]

    numbered: list[tuple[int, str]] = []
    seen: set[int] = set()
    for edge in graph.children(graph.root):
        if not edge.role.startswith(":snt"):
            continue
        match = _SNT_ROLE_RE.match(edge.role)
        if not match:
            raise GraphError(f"multi-sentence role {edge.role!r} has a non-numeric index")
        n = int(match.group(1))
        if n in seen:
            raise GraphError(f"duplicate sentence role :snt{n}")
        seen.add(n)
        if isinstance(edge.target, Literal):
            raise GraphError(f":snt{n} must point at a node, not a literal")
        numbered.append((n, edge.target))
    numbered.sort(key=lambda item: item[0])
    return [
        SentenceSubgraph(ordinal, target, _defining_closure(graph, target), graph)
        for ordinal, (_, target) in enumerate(numbered, start=1)
    ]


def _defining_closure(graph: AmrGraph, root: str) -> frozenset[str]:
    members = {root}
    stack = [root]
    while stack:
        for edge in graph.children(stack.pop()):
            if edge.defines and edge.target not in members:
                members.add(edge.target)
                stack.append(edge.target)
    return frozenset(members)


def dfs_nodes(subgraph: SentenceSubgraph) -> list[str]:
    """Depth-first pre-order over the subgraph's instance nodes, children in
    textual edge order; re-entrant references are not re-visited."""
    graph = subgraph.graph
    order: list[str] = []

    def visit(variable: str) -> None:
        order.append(variable)
        for edge in graph.children(variable):
            if edge.defines:
                visit(edge.target)

    visit(subgraph.root)
    return order


def iter_penman_blocks(text: str) -> Iterator[str]:
    """Yield the blank-line-separated PENMAN blocks of a corpus file.
    Blocks holding only ``#`` metadata lines are skipped."""

    def flush(block: list[str]) -> Iterator[str]:
        if any(not line.lstrip().startswith("#") for line in block):
            yield "\n".join(block)

    block: list[str] = []
    for line in text.splitlines():
        if line.strip():
            block.append(line)
        elif block:
            yield from flush(block)
            block = []
    if block:
        yield from flush(block)


def parse_corpus(text: str) -> list[AmrGraph]:
    """Parse every graph in a blank-line-separated corpus dump."""
    return [parse_amr(block) for block in iter_penman_blocks(text)]
