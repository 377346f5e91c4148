"""PENMAN parsing, serialization, sentence splitting, and DFS order."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptrag.distill import distill_concepts
from conceptrag.penman import (
    AmrParseError,
    GraphError,
    Literal,
    dfs_nodes,
    iter_penman_blocks,
    parse_amr,
    parse_corpus,
    serialize_amr,
    split_sentences,
)
from graphgen import random_penman


def instances(graph, variables):
    return [graph.nodes[v] for v in variables]


def literals(graph, variable):
    """The (role, literal) pairs of the variable's literal edges, in textual order."""
    edges = graph.children[variable]
    return tuple((e.role, e.target) for e in edges if isinstance(e.target, Literal))


class TestParse:
    def test_minimal_graph(self):
        graph = parse_amr("(w / work-01)")
        assert graph.root == "w"
        assert graph.nodes["w"] == "work-01"
        assert graph.to_dict()["edges"] == []

    def test_table_a1_structure(self, table_a1_penman):
        graph = parse_amr(table_a1_penman)
        assert graph.nodes[graph.root] == "multi-sentence"
        roles = [e.role for e in graph.children[graph.root]]
        assert roles == [":snt1", ":snt2"]
        assert graph.nodes["p"] == "person"
        assert graph.nodes["n"] == "name"
        assert [(r, lit.text) for r, lit in literals(graph, "n")] == [
            (":op1", "Alexander"),
            (":op2", "Rinnooy"),
            (":op3", "Kan"),
        ]

    def test_reentrancy_is_reference_not_node(self):
        graph = parse_amr("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b))")
        assert len(graph.nodes) == 3
        ref = [e for e in graph.children["g"] if e.role == ":ARG0"][0]
        assert ref.target == "b" and not ref.defines

    def test_forward_reference_resolves(self):
        graph = parse_amr("(w / want-01 :ARG1 g :ARG0 (g / go-01))")
        ref = graph.children["w"][0]
        assert ref.target == "g" and not ref.defines

    def test_alignment_markers_stripped(self):
        plain = parse_amr('(p / person :name (n / name :op1 "Kan"))')
        aligned = parse_amr('(p / person~e.0 :name (n / name :op1 "Kan"~e.2))')
        assert aligned == plain

    def test_comments_tolerated(self):
        graph = parse_amr("# a corpus comment\n(w / work-01) # trailing\n")
        assert graph.root == "w"

    def test_string_escapes(self):
        graph = parse_amr(r'(x / thing :mod "say \"hi\"" :part "back\\slash")')
        values = [lit.text for _, lit in literals(graph, "x")]
        assert values == ['say "hi"', "back\\slash"]

    def test_polarity_and_numbers_are_literals(self):
        graph = parse_amr("(p / possible-01 :polarity - :quant 3 :value 2.5)")
        assert literals(graph, "p") == (
            (":polarity", Literal("-")),
            (":quant", Literal("3")),
            (":value", Literal("2.5")),
        )

    def test_attribute_counts_preserved(self, table_a1_penman):
        graph = parse_amr(table_a1_penman)
        quoted = len(re.findall(r'"(?:[^"\\]|\\.)*"', table_a1_penman))
        years = table_a1_penman.count(":year")
        total_attrs = sum(len(literals(graph, v)) for v in graph.nodes)
        assert total_attrs == quoted + years

    def test_edge_list_in_textual_role_order(self):
        graph = parse_amr("(a / x :r1 (b / y :r2 (c / z)) :r3 (d / w) :r4 7)")
        assert [(e["source"], e["role"]) for e in graph.to_dict()["edges"]] == [
            ("a", ":r1"), ("b", ":r2"), ("a", ":r3"), ("a", ":r4"),
        ]


class TestParseErrors:
    def test_unbalanced_open(self):
        with pytest.raises(AmrParseError) as exc:
            parse_amr("(w / work-01 :ARG0 (b / boy)")
        assert exc.value.offset == len("(w / work-01 :ARG0 (b / boy)")

    def test_unbalanced_close(self):
        with pytest.raises(AmrParseError) as exc:
            parse_amr("(w / work-01))")
        assert exc.value.offset == 13

    def test_unterminated_string(self):
        text = '(x / thing :mod "oops)'
        with pytest.raises(AmrParseError) as exc:
            parse_amr(text)
        assert exc.value.offset == text.index('"')

    def test_duplicate_variable(self):
        text = "(a / thing :mod (a / other))"
        with pytest.raises(AmrParseError) as exc:
            parse_amr(text)
        assert exc.value.offset == text.index("(a", 1) + 1

    def test_undefined_variable_reference(self):
        text = "(a / thing :mod qz)"
        with pytest.raises(AmrParseError) as exc:
            parse_amr(text)
        assert exc.value.offset == text.index("qz")

    def test_offsets_are_bytes(self):
        # multibyte content before the error shifts the byte offset
        text = '(a / thing :mod "café" :part qz)'
        with pytest.raises(AmrParseError) as exc:
            parse_amr(text)
        assert exc.value.offset == len(text[: text.index("qz")].encode("utf-8"))

    def test_trailing_content(self):
        with pytest.raises(AmrParseError):
            parse_amr("(w / work-01) (x / extra)")


class TestSerialize:
    def test_minimal_round_trip_text(self):
        assert serialize_amr(parse_amr("(w / work-01)")) == "(w / work-01)"

    def test_table_a1_round_trip(self, table_a1_penman):
        graph = parse_amr(table_a1_penman)
        assert parse_amr(serialize_amr(graph)) == graph

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_random_graph_round_trip(self, seed):
        graph = parse_amr(random_penman(seed))
        assert parse_amr(serialize_amr(graph)) == graph

    def test_serialization_is_stable(self):
        graph = parse_amr(random_penman(7))
        once = serialize_amr(graph)
        assert serialize_amr(parse_amr(once)) == once


class TestSplitSentences:
    def test_table_a1_split(self, table_a1_penman):
        graph = parse_amr(table_a1_penman)
        assert instances(graph, split_sentences(graph)) == ["person", "work-01"]

    def test_single_sentence_graph(self):
        assert split_sentences(parse_amr("(w / work-01)")) == ["w"]

    def test_out_of_order_snt_edges(self):
        text = "(m / multi-sentence :snt3 (c / c3) :snt1 (a / a1) :snt2 (b / b2))"
        graph = parse_amr(text)
        assert instances(graph, split_sentences(graph)) == ["a1", "b2", "c3"]

    def test_duplicate_snt_rejected(self):
        text = "(m / multi-sentence :snt1 (a / a1) :snt1 (b / b2))"
        with pytest.raises(GraphError):
            split_sentences(parse_amr(text))

    def test_non_numeric_snt_rejected(self):
        text = "(m / multi-sentence :sntx (a / a1))"
        with pytest.raises(GraphError):
            split_sentences(parse_amr(text))

    @pytest.mark.parametrize(
        "text",
        [
            "(m / multi-sentence :snt1 (a / alpha) :snt2 5)",
            "(m / multi-sentence :snt1 (a / alpha) :snt2 a)",
        ],
        ids=["literal", "reference"],
    )
    def test_snt_edge_that_defines_no_node_rejected(self, text):
        with pytest.raises(GraphError, match=":snt2 must define a node"):
            split_sentences(parse_amr(text))

    def test_role_other_than_snt_is_skipped(self):
        graph = parse_amr("(m / multi-sentence :li 1 :snt1 (w / work-01))")
        assert split_sentences(graph) == ["w"]
        assert [c.text for c in distill_concepts(graph, "They work.").concepts] == ["work"]

    @pytest.mark.parametrize(
        "text, target, role",
        [
            ("(m / multi-sentence :mod (z / zebra) :snt1 (w / want-01))", "z", ":mod"),
            ("(m / multi-sentence :snt1 (w / want-01) :li (z / zebra :mod (s / small)))",
             "z", ":li"),
        ],
    )
    def test_a_node_defined_under_another_role_is_rejected(self, text, target, role):
        # its nodes would be in no sentence, and distill would drop them unsaid
        with pytest.raises(GraphError, match=f"defines {target!r} under {role}, "):
            split_sentences(parse_amr(text))
        with pytest.raises(GraphError, match=f"defines {target!r} under {role}, "):
            distill_concepts(parse_amr(text), "zebra wanted")

    def test_empty_multi_sentence(self):
        assert split_sentences(parse_amr("(m / multi-sentence)")) == []

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_partition_of_non_root_nodes(self, seed):
        graph = parse_amr(random_penman(seed))
        owned = [v for root in split_sentences(graph) for v in dfs_nodes(graph, root)]
        assert len(owned) == len(set(owned))
        non_root = set(graph.nodes) - {graph.root}
        if graph.nodes[graph.root] == "multi-sentence":
            assert set(owned) == non_root
        else:
            assert set(owned) == set(graph.nodes)


class TestDfs:
    def test_table_a1_sentence2_order(self, table_a1_penman):
        graph = parse_amr(table_a1_penman)
        order = instances(graph, dfs_nodes(graph, split_sentences(graph)[1]))
        assert order == [
            "work-01",
            "he",
            "mathematics",
            "research-institute",
            "name",
            "date-interval",
            "date-entity",
            "date-entity",
        ]

    def test_single_node(self):
        graph = parse_amr("(w / work-01)")
        assert dfs_nodes(graph, split_sentences(graph)[0]) == ["w"]

    def test_reentrant_node_visited_once(self):
        graph = parse_amr("(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-01 :ARG0 b))")
        assert dfs_nodes(graph, split_sentences(graph)[0]) == ["w", "b", "g"]

    def test_children_in_textual_order(self):
        graph = parse_amr("(x / top :mod (z / last) :ARG0 (a / first) :time (m / mid))")
        order = instances(graph, dfs_nodes(graph, split_sentences(graph)[0]))
        assert order == ["top", "last", "first", "mid"]


class TestDeepGraphs:
    DEPTH = 5000  # far past the interpreter's recursion limit

    def deep_chain(self) -> str:
        opening = "".join(f"(v{i} / walk-01 :mod (m{i} / leaf) :ARG0 " for i in range(self.DEPTH))
        closing = "".join(f" :quant {i})" for i in reversed(range(self.DEPTH)))
        return opening + "(z / boy)" + closing

    def test_parse_serialize_and_dfs(self):
        graph = parse_amr(self.deep_chain())
        assert len(graph.nodes) == 2 * self.DEPTH + 1
        edges = graph.to_dict()["edges"]
        assert [(e["source"], e["role"]) for e in edges[:4]] == [
            ("v0", ":mod"), ("v0", ":ARG0"), ("v1", ":mod"), ("v1", ":ARG0"),
        ]
        assert edges[-1] == {"source": "v0", "role": ":quant", "target": "0", "kind": "attribute"}
        # indent=0 keeps the text linear in depth
        assert parse_amr(serialize_amr(graph, indent=0)) == graph
        expected = [v for i in range(self.DEPTH) for v in (f"v{i}", f"m{i}")] + ["z"]
        assert dfs_nodes(graph, split_sentences(graph)[0]) == expected

    def test_unbalanced_deep_chain_offset(self):
        text = self.deep_chain()[:-1]
        with pytest.raises(AmrParseError) as exc:
            parse_amr(text)
        assert exc.value.offset == len(text)


class TestCorpusBlocks:
    def test_blank_line_separated_blocks(self):
        text = "(a / one)\n\n(b / two)\n\n\n(c / three)\n"
        graphs = parse_corpus(text)
        assert [g.nodes[g.root] for g in graphs] == ["one", "two", "three"]

    def test_multiline_block(self):
        text = "(a / one\n    :mod (b / two))\n\n(c / three)"
        assert len(list(iter_penman_blocks(text))) == 2

    def test_comment_only_blocks_skipped(self):
        text = "# ::id 1\n# ::snt intro\n\n# ::id 2\n(a / one)\n\n# stray note\n"
        graphs = parse_corpus(text)
        assert [g.nodes[g.root] for g in graphs] == ["one"]

    # str.splitlines also ends a line at U+2028, U+0085, \v, \f and \x1c-\x1e: a
    # literal holding one came back with \n in its place
    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\v", "\f", "\x1c"])
    def test_literal_keeps_a_line_separator(self, separator):
        text = f'(a / say-01 :ARG1 "x{separator}y")'
        assert parse_corpus(text) == [parse_amr(text)]
        assert literals(parse_amr(text), "a") == ((":ARG1", Literal(f"x{separator}y", True)),)

    # a line holding only U+2028 cut the literal into two blocks, and the first
    # was an unterminated string literal
    def test_literal_spans_a_line_holding_only_a_line_separator(self):
        text = '(a / say-01 :ARG1 "x\n\u2028\ny")\n'
        assert parse_corpus(text) == [parse_amr(text)]
