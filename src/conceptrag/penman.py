"""PENMAN notation for AMR graphs: parsing, serialization, and traversal.

An AMR graph is a rooted, directed, labelled, acyclic graph. In PENMAN text
each node is introduced once as ``(variable / instance ...)``; later bare
mentions of the same variable are re-entrant references and do not create new
nodes. Multi-sentence documents parse to a ``multi-sentence`` root whose
``:sntN`` children are the roots of the source sentences, one each. A parsed
:class:`AmrGraph` holds each variable, instance and literal exactly once.

The dialect accepted here is AMR 3.0 style: variables ``[a-z][a-z0-9']*``,
roles ``:[A-Za-z0-9-]+``, double-quoted string literals with backslash
escapes, bare numeric literals, and the bare ``-``/``+`` polarity markers.
Surface-alignment suffixes (``~e.4``) are stripped while parsing, and ``#``
comments are tolerated outside string literals.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, NoReturn, Union

_VAR_RE = re.compile(r"[a-z][a-z0-9']*\Z")
_NUMERIC_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?\Z")


class AmrParseError(ValueError):
    """Malformed PENMAN text. ``offset`` is the byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class GraphError(ValueError):
    """A structurally invalid graph operation (e.g. bad :sntN layout)."""


class Literal(NamedTuple):
    """An attribute value: a quoted string, a number, or a polarity marker."""

    text: str
    quoted: bool = False

    def penman(self) -> str:
        if self.quoted:
            escaped = self.text.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return self.text


Target = Union[str, Literal]


class AmrEdge(NamedTuple):
    """One role edge. ``defines`` is True where the target node's
    ``(var / instance ...)`` expansion appeared; re-entrant references and
    literal attributes have ``defines=False``."""

    source: str
    role: str
    target: Target
    defines: bool = False


class AmrGraph(NamedTuple):
    """A parsed graph. ``nodes`` maps each variable to its instance label in
    definition order, the root first; ``children`` maps each variable to its
    own edges, literals included, in the textual order of roles."""

    root: str
    nodes: dict[str, str]
    children: dict[str, list[AmrEdge]]

    def to_dict(self) -> dict:
        """JSON-friendly rendering used by the CLI ``parse`` command. Edges come in
        textual order, walked with a stack of iterators so that any depth renders;
        each literal is also an attribute of its source node."""
        nodes = {v: {"instance": instance, "attributes": []} for v, instance in self.nodes.items()}
        edges = []
        stack = [iter(self.children[self.root])]
        while stack:
            for e in stack[-1]:
                if isinstance(e.target, Literal):
                    kind, target = "attribute", e.target.text
                    attribute = {"role": e.role, "value": target, "quoted": e.target.quoted}
                    nodes[e.source]["attributes"].append(attribute)
                else:
                    kind, target = "node" if e.defines else "reference", e.target
                edges.append({"source": e.source, "role": e.role, "target": target, "kind": kind})
                if e.defines:
                    stack.append(iter(self.children[e.target]))
                    break
            else:
                stack.pop()
        return {"root": self.root, "nodes": nodes, "edges": edges}


# --- lexer -----------------------------------------------------------------

# Pieces shared by the lexer and the grammar regex. Each one matches
# maximally and cannot be made to give text back, so a piece that more
# pattern follows never backtracks into a shorter, wrong split (Python 3.10's
# re has no atomic groups or possessive quantifiers). The skip ends only
# before a character that is neither whitespace nor a comment, and its loop
# takes one blank or one whole comment at a time, so a failed match
# backtracks through it in linear time. A surface alignment (``~e.4``) takes
# every digit and ``,N`` it can, or ``~`` alone only where no alignment
# starts. A role runs over every letter, digit and '-', and is invalid if any
# is non-ASCII. Only ASCII blanks end a symbol, so unicode whitespace is
# skipped between tokens but kept inside a symbol. An optional piece is
# written ``(?:X|)``, which re runs faster than ``X?``.
_SKIP = r"\s*(?:#[^\n]*(?![^\n])(?:\s|#[^\n]*(?![^\n]))*|)(?![\s#])"
_ALIGN = r"(?:~(?:[A-Za-z]*\.?[0-9]+(?:,[0-9]+)*(?![0-9]|,[0-9])|(?![A-Za-z]*\.?[0-9]))|)"
_ROLE = r":[A-Za-z0-9-]+(?!-|[^\W_])"
_SYMBOL = r'[^ \t\r\n()"/:~#]+'
_STRING = r'"(?P<string>[^"\\]*(?:\\.[^"\\]*)*)"'

# One match per token, in the style of Goodman's ``penman`` library (ACL 2020
# demo): the skip, exactly one alternative, then at most one alignment, which
# attaches to the token. After the skip some alternative always matches
# ('end' at the end of input). Each error alternative comes after the valid
# form it shadows. The parser lexes only a text it rejects, to word the error,
# so the pattern is compiled on first use, through re's cache.
_LEX_PATTERN = (
    _SKIP + r"(?:(?P<lparen>\()|(?P<rparen>\))|(?P<slash>/)|" + _STRING
    + f"|(?P<role>{_ROLE})|(?P<symbol>{_SYMBOL})|(?P<end>\\Z)"
    + r'|(?P<bad_string>")|(?P<bad_role>:(?:[^\W_]|-)*)|(?P<bad_char>~))' + _ALIGN
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
    for m in re.finditer(_LEX_PATTERN, text, re.S):
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

# One match per grammar unit: an optional run of ')', then a node head
# ``( var / instance`` (the root's has no role), an edge ``:role value`` whose
# value is a node head, a string or a symbol, or the end of input. Each
# piece cuts the text where the lexer would, so text that this regex takes
# lexes without error.
_GRAMMAR_RE = re.compile(
    f"{_SKIP}(?:(?P<close>(?:\\){_ALIGN}{_SKIP})+)|)"
    f"(?:(?:(?P<role>{_ROLE}){_ALIGN}{_SKIP}|)"
    f"(?:\\({_ALIGN}{_SKIP}(?P<variable>[a-z][a-z0-9']*(?!{_SYMBOL})){_ALIGN}"
    f"{_SKIP}/{_ALIGN}{_SKIP}(?P<node>{_SYMBOL}){_ALIGN}"
    f"|{_STRING}{_ALIGN}|(?P<symbol>{_SYMBOL}){_ALIGN})|(?P<end>\\Z))",
    re.S,
)


def parse_amr(text: str) -> AmrGraph:
    """Parse one PENMAN s-expression into an :class:`AmrGraph`.

    Raises :class:`AmrParseError` (with a byte offset) on unbalanced
    parentheses, unterminated string literals, duplicate variable
    definitions, and references to undefined variables.
    """
    instances: dict[str, str] = {}  # variable -> instance, in definition order
    children: dict[str, list[AmrEdge]] = {}  # variable -> its edges, in textual order
    # symbols that are neither a variable defined so far nor a literal, as
    # (symbol, offset): forward references, or errors that count only once
    # the whole text has parsed
    later: list[tuple[str, int]] = []
    # each call matches where the last match ended, so m.end() is read only
    # at a stop. Pattern.scanner is undocumented, though CPython's re has long
    # had it; it saves a few percent of the parse.
    match = _GRAMMAR_RE.scanner(text).match
    new = tuple.__new__  # builds a NamedTuple without a call to its Python __new__
    m = match()
    if m is None or m["variable"] is None or m["close"] or m["role"]:
        _raise_parse_error(text, 0, 0, instances)
    root = m["variable"]
    instances[root] = m["node"]
    children[root] = []
    stack = [root]  # nodes whose ')' is still to come, innermost last
    # the last unit taken whole, and the last unit whose run of ')' was taken
    last = cut = m
    while True:
        m = match()
        if m is None:
            break
        run, role, variable, instance, body, symbol, end = m.groups()
        if run is not None:
            closed = run.count(")")
            if "#" in run:  # a comment in the run may hold ')'
                closed = sum(line.partition("#")[0].count(")") for line in run.split("\n"))
            if closed > len(stack):
                break
            del stack[len(stack) - closed :]
            cut = m
        if role is None or not stack:
            break
        source = stack[-1]
        if variable is not None:
            if variable in instances:
                break
            instances[variable] = instance
            children[variable] = []
            edge = new(AmrEdge, (source, role, variable, True))
            stack.append(variable)
        elif body is not None:
            if "\\" in body:
                body = _ESCAPE_RE.sub(r"\1", body)
            edge = new(AmrEdge, (source, role, new(Literal, (body, True)), False))
        elif symbol in instances:  # a variable reference, number, or polarity
            edge = new(AmrEdge, (source, role, symbol, False))
        elif _NUMERIC_RE.match(symbol) or symbol in ("-", "+"):
            edge = new(AmrEdge, (source, role, new(Literal, (symbol, False)), False))
        else:
            later.append((symbol, m.start("symbol")))
            edge = new(AmrEdge, (source, role, symbol, False))
        children[source].append(edge)
        last = m
    if stack or end is None:
        # where the rejected unit starts, or the edge after its run of ')'
        pos = m.end("close") if cut is m else last.end()
        _raise_parse_error(text, pos, len(stack), instances)
    for symbol, offset in later:
        if symbol not in instances:
            if _VAR_RE.match(symbol):
                message = f"reference to undefined variable {symbol!r}"
            else:
                message = f"invalid attribute value {symbol!r}"
            raise AmrParseError(message, _byte_offset(text, offset))
    return new(AmrGraph, (root, instances, children))


def _raise_parse_error(text: str, pos: int, depth: int, defined: dict[str, str]) -> NoReturn:
    """Word the error at ``pos``, in the first grammar unit that
    ``parse_amr`` rejected, where ``depth`` nodes are open and ``defined``
    holds the variables defined before it. The whole text is lexed first,
    as a lex error anywhere wins over a structural one."""
    tokens = iter([tok for tok in _lex(text) if tok.offset >= pos])

    def fail(message: str, at: int) -> NoReturn:
        raise AmrParseError(message, _byte_offset(text, at))

    def take() -> _Token:
        tok = next(tokens, None)
        if tok is None:
            fail("unbalanced parentheses: unexpected end of input", len(text))
        return tok

    tok = take()
    while depth and tok.kind == "rparen":
        depth -= 1
        tok = take()
    if defined and not depth:
        fail("unexpected content after graph", tok.offset)
    if depth:
        if tok.kind != "role":
            fail(f"expected role or ')', found {tok.text!r}", tok.offset)
        role, tok = tok, take()
        if tok.kind != "lparen":  # a string or symbol value would have parsed
            fail(f"expected a value after {role.text}", tok.offset)
    elif tok.kind != "lparen":
        fail(f"expected '(', found {tok.text!r}", tok.offset)
    tok = take()
    if tok.kind != "symbol" or not _VAR_RE.match(tok.text):
        fail(f"expected variable, found {tok.text!r}", tok.offset)
    if tok.text in defined:
        fail(f"duplicate definition of variable {tok.text!r}", tok.offset)
    tok = take()
    if tok.kind != "slash":
        fail(f"expected '/', found {tok.text!r}", tok.offset)
    tok = take()  # not a symbol, or the node head would have parsed
    fail(f"expected instance label, found {tok.text!r}", tok.offset)


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
        out.append(f"({variable} / {graph.nodes[variable]}")
        pending.append(")")
        pad = "\n" + " " * (indent * (depth + 1))
        for edge in reversed(graph.children[variable]):
            if isinstance(edge.target, Literal):
                pending.append(f"{pad}{edge.role} {edge.target.penman()}")
            elif edge.defines:
                pending.append((edge.target, depth + 1))
                pending.append(f"{pad}{edge.role} ")
            else:
                pending.append(f"{pad}{edge.role} {edge.target}")
    return "".join(out)


def split_sentences(graph: AmrGraph) -> list[str]:
    """The root variables of the graph's sentences; sentence i is entry i-1.

    A ``multi-sentence`` root yields the node each ``:sntN`` edge defines,
    ordered by N; any other root is the only sentence. A sentence owns the
    nodes its root reaches over defining edges.
    """
    if graph.nodes[graph.root] != "multi-sentence":
        return [graph.root]

    roots: dict[int, str] = {}  # N -> the root variable of sentence :sntN
    for edge in graph.children[graph.root]:
        if not edge.role.startswith(":snt"):
            continue
        digits = edge.role[4:]
        if not (digits.isascii() and digits.isdigit()):
            raise GraphError(f"multi-sentence role {edge.role!r} has a non-numeric index")
        n = int(digits)
        if n in roots:
            raise GraphError(f"duplicate sentence role :snt{n}")
        if not edge.defines:
            raise GraphError(f":snt{n} must define a node, not a literal or a reference")
        roots[n] = edge.target
    return [roots[n] for n in sorted(roots)]


def dfs_nodes(graph: AmrGraph, root: str) -> list[str]:
    """Depth-first pre-order over the instance nodes that ``root`` reaches
    over defining edges, children in textual edge order; re-entrant
    references are not re-visited."""
    order: list[str] = []
    stack = [root]
    while stack:
        variable = stack.pop()
        order.append(variable)
        for edge in reversed(graph.children[variable]):
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
    # only \n ends a line: str.splitlines also splits at U+2028, \x1c and others,
    # which a string literal may hold
    for line in text.split("\n"):
        if line.strip(" \t\r\f\v"):
            block.append(line)
        elif block:
            yield from flush(block)
            block = []
    if block:
        yield from flush(block)


def parse_corpus(text: str) -> list[AmrGraph]:
    """Parse every graph in a blank-line-separated corpus dump."""
    return [parse_amr(block) for block in iter_penman_blocks(text)]
