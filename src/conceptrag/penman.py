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
from typing import Iterator, NamedTuple, Union

_VAR_RE = re.compile(r"[a-z][a-z0-9']*\Z")
_NUMERIC_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?\Z")
_SNT_ROLE_RE = re.compile(r":snt([0-9]+)\Z")


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
        self._parents: dict[str, str] = {}
        for edge in self.edges:
            self._children[edge.source].append(edge)
            if edge.defines:
                self._parents.setdefault(edge.target, edge.source)

    def children(self, variable: str) -> list[AmrEdge]:
        return self._children[variable]

    def defining_parent(self, variable: str) -> str | None:
        """Variable of the node under which ``variable`` was defined."""
        return self._parents.get(variable)

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
    """One sentence of a document graph: its 1-based ordinal and root
    variable. It owns the nodes its root reaches over defining edges."""

    index: int
    root: str
    graph: AmrGraph = field(compare=False)


# --- lexer -----------------------------------------------------------------

# One match per token, in the style of Goodman's ``penman`` library (ACL 2020
# demo): the whitespace and comments before the token, exactly one
# alternative, then at most one surface alignment (``~e.4``), which attaches
# to the token. After the skip some alternative always matches ('end' at the
# end of input), so the greedy skip never gives back unicode whitespace for a
# symbol to start with; inside a symbol only ASCII blanks end it. A role runs
# over every letter, digit and '-', and is invalid if any is non-ASCII. Each
# error alternative comes after the valid form it shadows.
_LEX_RE = re.compile(
    r"(?:\s+|#[^\n]*)*(?:"
    r"(?P<lparen>\()|(?P<rparen>\))|(?P<slash>/)"
    r'|"(?P<string>[^"\\]*(?:\\.[^"\\]*)*)"'
    r"|(?P<role>:[A-Za-z0-9-]+)(?!-|[^\W_])"
    r'|(?P<symbol>[^ \t\r\n()"/:~#]+)'
    r"|(?P<end>\Z)"
    r'|(?P<bad_string>")|(?P<bad_role>:(?:[^\W_]|-)*)|(?P<bad_char>~)'
    r")(?:~(?:[A-Za-z]*\.?[0-9]+(?:,[0-9]+)*)?)?",
    re.S,
)
_ESCAPE_RE = re.compile(r'\\(["\\])')
_PLAIN_KINDS = frozenset(("lparen", "rparen", "slash", "role", "symbol"))


class _Token(NamedTuple):
    kind: str  # 'lparen' | 'rparen' | 'slash' | 'role' | 'string' | 'symbol'
    text: str
    offset: int  # character offset; converted to bytes when reporting


def _byte_offset(text: str, char_offset: int) -> int:
    return len(text[:char_offset].encode("utf-8"))


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _LEX_RE.finditer(text):
        kind = m.lastgroup
        if kind in _PLAIN_KINDS:
            tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        elif kind == "string":
            body = m.group(kind)
            if "\\" in body:
                body = _ESCAPE_RE.sub(r"\1", body)
            tokens.append(_Token(kind, body, m.start(kind) - 1))
        elif kind != "end":
            if kind == "bad_string":
                message = "unterminated string literal"
            elif kind == "bad_role":
                message = f"invalid role token {m.group(kind)!r}"
            else:
                message = f"unexpected character {m.group(kind)!r}"
            raise AmrParseError(message, _byte_offset(text, m.start(kind)))
    return tokens


# --- parser ----------------------------------------------------------------


def parse_amr(text: str) -> AmrGraph:
    """Parse one PENMAN s-expression into an :class:`AmrGraph`.

    Raises :class:`AmrParseError` (with a byte offset) on unbalanced
    parentheses, unterminated string literals, duplicate variable
    definitions, and references to undefined variables.
    """
    tokens = iter(_lex(text))
    instances: dict[str, str] = {}  # variable -> instance, in definition order
    # (source, role, target, defines, offset) in textual role order; symbol
    # targets stay tokens until the full parse, so forward references work
    raw_edges: list[tuple[str, str, object, bool, int]] = []

    def fail(message: str, at: int):
        raise AmrParseError(message, _byte_offset(text, at))

    def take() -> _Token:
        tok = next(tokens, None)
        if tok is None:
            fail("unbalanced parentheses: unexpected end of input", len(text))
        return tok

    def open_node() -> str:
        """Read the ``variable / instance`` that follows a '('."""
        var_tok = take()
        if var_tok.kind != "symbol" or not _VAR_RE.match(var_tok.text):
            fail(f"expected variable, found {var_tok.text!r}", var_tok.offset)
        variable = var_tok.text
        if variable in instances:
            fail(f"duplicate definition of variable {variable!r}", var_tok.offset)
        slash = take()
        if slash.kind != "slash":
            fail(f"expected '/', found {slash.text!r}", slash.offset)
        inst_tok = take()
        if inst_tok.kind != "symbol":
            fail(f"expected instance label, found {inst_tok.text!r}", inst_tok.offset)
        instances[variable] = inst_tok.text
        return variable

    first = take()
    if first.kind != "lparen":
        fail(f"expected '(', found {first.text!r}", first.offset)
    root = open_node()
    open_nodes = [root]  # nodes whose ')' is still to come, innermost last
    while open_nodes:
        tok = take()
        if tok.kind == "rparen":
            open_nodes.pop()
            continue
        if tok.kind != "role":
            fail(f"expected role or ')', found {tok.text!r}", tok.offset)
        value = take()
        source = open_nodes[-1]
        if value.kind == "lparen":
            child = open_node()
            raw_edges.append((source, tok.text, child, True, value.offset))
            open_nodes.append(child)
        elif value.kind == "string":
            literal = Literal(value.text, quoted=True)
            raw_edges.append((source, tok.text, literal, False, value.offset))
        elif value.kind == "symbol":
            # variable reference, number, or polarity
            raw_edges.append((source, tok.text, value, False, value.offset))
        else:
            fail(f"expected a value after {tok.text}", value.offset)
    trailing = next(tokens, None)
    if trailing is not None:
        fail("unexpected content after graph", trailing.offset)

    edges: list[AmrEdge] = []
    attributes: dict[str, list[tuple[str, Literal]]] = {v: [] for v in instances}
    for source, role, target, defines, offset in raw_edges:
        if isinstance(target, _Token):
            sym = target.text
            if sym in instances:
                target = sym
            elif _NUMERIC_RE.match(sym) or sym in ("-", "+"):
                target = Literal(sym)
            elif _VAR_RE.match(sym):
                fail(f"reference to undefined variable {sym!r}", offset)
            else:
                fail(f"invalid attribute value {sym!r}", offset)
        if isinstance(target, Literal):
            attributes[source].append((role, target))
        edges.append(AmrEdge(source, role, target, defines=defines))
    nodes = {
        v: AmrNode(v, instance, tuple(attributes[v])) for v, instance in instances.items()
    }
    return AmrGraph(root, nodes, edges)


def serialize_amr(graph: AmrGraph, indent: int = 4) -> str:
    """Render a graph back to PENMAN; ``parse_amr`` of the result is
    structurally equal to the input."""
    out: list[str] = []
    # pieces still to write, last first: text, or a (variable, depth) to open
    pending: list[str | tuple[str, int]] = [(graph.root, 0)]
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        variable, depth = item
        out.append(f"({variable} / {graph.nodes[variable].instance}")
        pending.append(")")
        pad = "\n" + " " * (indent * (depth + 1))
        for edge in reversed(graph.children(variable)):
            if isinstance(edge.target, Literal):
                pending.append(f"{pad}{edge.role} {edge.target.penman()}")
            elif edge.defines:
                pending.append((edge.target, depth + 1))
                pending.append(f"{pad}{edge.role} ")
            else:
                pending.append(f"{pad}{edge.role} {edge.target}")
    return "".join(out)


def split_sentences(graph: AmrGraph) -> list[SentenceSubgraph]:
    """Partition a graph into per-sentence subgraphs.

    A ``multi-sentence`` root yields one subgraph per ``:sntN`` edge, ordered
    by N and re-indexed 1..n; any other root yields a single subgraph holding
    the whole graph. Each node belongs to the sentence where it was defined.
    """
    root_node = graph.nodes[graph.root]
    if root_node.instance != "multi-sentence":
        return [SentenceSubgraph(1, graph.root, graph)]

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
        SentenceSubgraph(ordinal, target, graph)
        for ordinal, (_, target) in enumerate(numbered, start=1)
    ]


def dfs_nodes(subgraph: SentenceSubgraph) -> list[str]:
    """Depth-first pre-order over the subgraph's instance nodes, children in
    textual edge order; re-entrant references are not re-visited."""
    graph = subgraph.graph
    order: list[str] = []
    stack = [subgraph.root]
    while stack:
        variable = stack.pop()
        order.append(variable)
        for edge in reversed(graph.children(variable)):
            if edge.defines:
                stack.append(edge.target)
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
