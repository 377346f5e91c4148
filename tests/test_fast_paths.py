"""The fast lexer, parser, parent map, backtrace, name and date handlers and
distillation against the straightforward versions in ``bruteforce.py``: same
tokens, graphs and concepts, or the same error message at the same byte
offset."""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from conceptrag import penman
from conceptrag.distill import (
    Concept,
    DistillConfig,
    common_terms,
    concept_backtrace,
    distill_concepts,
    handle_date,
    handle_name,
)
from conceptrag.penman import AmrParseError, Literal, parse_amr
from graphgen import ENTITY_POOL, WORD_POOL, random_penman

# every character the lexer treats specially, unicode whitespace (only
# skipped between tokens), unicode letters and digits (alphanumeric, but not
# allowed in roles), and the characters of numbers and alignments
HOSTILE = list('()/:"\\~#\n') + ["\xa0", "\u2003", "İ", "é", "٣", " ", "\t"] + list(
    "0123456789-_.,+aeEzZ"
)
# longer pieces that reach deeper lexer states: roles, escapes inside
# strings, alignments, comments
FRAGMENTS = HOSTILE + [
    ":ARG0", ":a-é", ":", '"x\\"y"', '"a\\\nb"', "~e.1", "~1,2", "~ab", "~e.1~e.2",
    "#c\n", "v1", "walk-01", ":op1", "(", ")",
]
# pieces the parser's grammar regex must cut exactly where the lexer does:
# alignments that a shorter match would split another way, a comment that
# holds '/' and ')', and unicode whitespace (only skipped between tokens)
HAZARDS = ["~ab1913", "~e.12", "/~1x", "# a / b )\n", "\xa0", "\u2003", "\u2028", "\x85", "\x0b"]
# references that come before the definition they name
FORWARD_REFERENCES = [
    "(a / b :ARG0 c :ARG1 (c / d :ARG0 a))",
    "(a / b :ARG0 (c / d :ARG1 e :mod 1) :ARG2 (e / f :ARG0 g :ARG1 c) :ARG3 (g / h))",
]


def outcome(func, text):
    try:
        return "ok", func(text)
    except AmrParseError as exc:
        return "error", str(exc), exc.offset


class TestLexer:
    @given(st.text(alphabet=st.sampled_from(HOSTILE), max_size=40))
    @settings(max_examples=500, deadline=None)
    def test_hostile_characters(self, text):
        assert outcome(penman._lex, text) == outcome(bruteforce.lex, text)

    def test_seeded_fragments(self):
        rng = random.Random(11)
        for _ in range(20_000):
            text = "".join(rng.choice(FRAGMENTS) for _ in range(rng.randint(0, 12)))
            assert outcome(penman._lex, text) == outcome(bruteforce.lex, text), repr(text)

    def test_trailing_unicode_whitespace_is_skipped(self):
        tokens = penman._lex("(a / b)\xa0\u2003")
        assert [t.kind for t in tokens] == ["lparen", "symbol", "slash", "symbol", "rparen"]

    def test_unicode_whitespace_inside_a_symbol(self):
        assert penman._lex("a\xa0b")[0].text == "a\xa0b"

    def test_backslash_newline_stays_in_string(self):
        [token] = penman._lex('"a\\\nb"')
        assert token.text == "a\\\nb"


class TestParser:
    def test_graphgen_graphs(self):
        for seed in range(300):
            text = random_penman(seed)
            assert parse_amr(text) == bruteforce.parse_amr(text), seed

    def test_rendered_edges_in_textual_order(self):
        # to_dict derives the edge list from children; the reference parser
        # lists the edges as it reads them
        def render(edge):
            if isinstance(edge.target, Literal):
                return {"source": edge.source, "role": edge.role, "target": edge.target.text,
                        "kind": "attribute"}
            kind = "node" if edge.defines else "reference"
            return {"source": edge.source, "role": edge.role, "target": edge.target, "kind": kind}

        for text in [random_penman(seed) for seed in range(300)] + FORWARD_REFERENCES:
            expected = [render(edge) for edge in bruteforce.textual_edges(text)]
            rendered = parse_amr(text).to_dict()
            assert rendered["edges"] == expected, text
            # each node's attributes are its literal edges, in textual order
            reference = bruteforce.parse_amr(text)
            assert list(rendered["nodes"].items()) == [
                (v, {"instance": instance, "attributes": [
                    {"role": role, "value": value.text, "quoted": value.quoted}
                    for role, value in bruteforce.literals(reference.children[v])
                ]})
                for v, instance in reference.nodes.items()
            ], text

    def test_damaged_graphs_fail_alike(self):
        rng = random.Random(5)
        for seed in range(1000):
            text = random_penman(seed)
            at = rng.randrange(len(text))
            text = text[:at] + rng.choice(FRAGMENTS) + text[at + rng.randint(0, 3) :]
            assert outcome(parse_amr, text) == outcome(bruteforce.parse_amr, text), repr(text)

    def test_regex_hazards_fail_alike(self):
        rng = random.Random(17)
        parsed = 0
        for seed in range(1500):
            text = random_penman(seed)
            for _ in range(rng.randint(1, 3)):
                # after a '(', inside a ')' run, or where a blank separates two pieces
                spots = [
                    i for i in range(1, len(text))
                    if text[i - 1] == "(" or text[i - 1 : i + 1] == "))" or text[i] == " "
                ]
                at = rng.choice(spots)
                text = text[:at] + rng.choice(HAZARDS) + text[at + rng.randint(0, 1) :]
            result = outcome(parse_amr, text)
            assert result == outcome(bruteforce.parse_amr, text), repr(text)
            parsed += result[0] == "ok"
        assert parsed > 300  # valid text takes the parser's main loop

    @pytest.mark.parametrize(
        "text",
        [
            "(d / date-entity :year~ab1913)",
            "(d / date-entity :year~ab1913 1913)",
            "(d / date-entity :year 1913~e.12)",
            "(d / date-entity :year~e.12)",
            "(a / b :ARG0 (c /~1x))",
            "(a / b :ARG0 (c / d :mod 1~1,2x))",
            "(a / b :ARG0 (c / d ~1,))",
            "( # a / b )\n a / b)",
            "(a / b :ARG0 (c / d) # a / b )\n)",
            "(a / b :ARG0 (c / d) # a / b )\n))",
            "(a\xa0/ b)",
            "(a /\u2003b\u2028:ARG0\x85(c / d\xa0)\x0b)",
        ],
    )
    def test_regex_hazard_cases(self, text):
        assert outcome(parse_amr, text) == outcome(bruteforce.parse_amr, text)

    @pytest.mark.parametrize("filler", [" ", "# a / b )\n", "\u2003"])
    def test_error_after_a_long_skip_is_found_in_linear_time(self, filler):
        # nested quantifiers that backtrack on a miss would take exponential time here
        text = "(a / b :ARG0" + filler * 20_000 + ")"
        start = time.perf_counter()
        result = outcome(parse_amr, text)
        assert time.perf_counter() - start < 1.0
        offset = len(text[:-1].encode("utf-8"))
        assert result == ("error", f"expected a value after :ARG0 (byte offset {offset})", offset)

    def test_children_match_the_reference_parser(self):
        for text in [random_penman(seed) for seed in range(300)] + FORWARD_REFERENCES:
            graph = parse_amr(text)
            assert graph.children == bruteforce.parse_amr(text).children, text


WORDS = [
    "work", "worked", "Workers", "wor", "w", "walk", "walking", "WALKED", "run",
    "ran", "river", "bank", "don't", "a1", "1972", "Zurich", "zur", "riverbank",
]
# the Kelvin sign is no word character, but lowercases to the word character 'k'
SEPARATORS = ["", " ", " ", ", ", ". ", "-", "é ", "'s ", "K", "K "]


class TestBacktrace:
    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_scan(self, seed):
        rng = random.Random(seed)
        doc = "".join(
            rng.choice(WORDS) + rng.choice(SEPARATORS) for _ in range(rng.randint(0, 20))
        )
        concepts = []
        for _ in range(rng.randint(1, 6)):
            text = " ".join(rng.sample(WORDS, rng.randint(1, 2)))
            if rng.random() < 0.3:
                text = text.replace(" ", "-")
            provenance = rng.choice(["instance", "instance", "name", "wiki", "date"])
            concepts.append(Concept(text, provenance, 1))
        for min_overlap in range(7):
            assert concept_backtrace(concepts, doc, min_overlap) == bruteforce.concept_backtrace(
                concepts, doc, min_overlap
            ), min_overlap

    # The reference slices the source at offsets into its lowercase form, which
    # 'İ' (two characters in lowercase) shifts, so it gets '#' in its place: neither
    # is a word character, and no word of WORDS ends in 'i' to match into 'i̇'.
    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=300, deadline=None)
    def test_repeated_concepts_match_linear_scan(self, seed):
        rng = random.Random(seed)
        doc = "".join(
            rng.choice(WORDS) + rng.choice(SEPARATORS + ["İ", "İ "])
            for _ in range(rng.randint(0, 20))
        )
        texts = [" ".join(rng.sample(WORDS, rng.randint(1, 2))) for _ in range(rng.randint(1, 3))]
        # few texts and all provenances, so texts repeat within a kind and across kinds
        concepts = [
            Concept(rng.choice(texts), rng.choice(["instance", "name", "wiki", "date"]), i)
            for i in range(1, rng.randint(2, 12))
        ]
        for min_overlap in range(7):
            assert concept_backtrace(concepts, doc, min_overlap) == bruteforce.concept_backtrace(
                concepts, doc.replace("İ", "#"), min_overlap
            ), min_overlap

    @pytest.mark.parametrize(
        "concepts, doc",
        [
            # an instance and a name of the same text restore to different words
            (
                [Concept("work", "instance", 1), Concept("work", "name", 1),
                 Concept("work", "instance", 2), Concept("work", "name", 3)],
                "They worked. Work began.",
            ),
            # a target that is not found: each repeat keeps its own text
            (
                [Concept("Zurich", "wiki", 1), Concept("zurich", "name", 2),
                 Concept("ZURICH", "wiki", 3)],
                "Zurichsee and riverbank",
            ),
            # every repeat of a target takes the same span of the source
            (
                [Concept("zurich", "name", 1), Concept("Zurich", "wiki", 2),
                 Concept("walk", "instance", 2), Concept("zurich", "name", 3),
                 Concept("walk", "instance", 3)],
                "İİ walked to Zurich. İ Zurich",
            ),
            # a word after an apostrophe inside a token starts no token
            (
                [Concept("neil", "instance", 1), Concept("neil", "name", 1)],
                "O'Neil met Neil, then neils.",
            ),
            # a prefix that ends in an apostrophe is no token's prefix when no
            # word character follows the apostrophe
            (
                [Concept("don't", "instance", 1), Concept("don'd", "instance", 2)],
                "Don' x don's",
            ),
        ],
    )
    def test_repeated_concepts_in_hand_picked_documents(self, concepts, doc):
        out = concept_backtrace(concepts, doc)
        assert out == bruteforce.concept_backtrace(concepts, doc.replace("İ", "#"))
        assert all(doc[slice(*c.source_span)] == c.text for c in out if c.source_span)

    # Every prefix of every word is found inside the one long token; a search that
    # did not skip the rest of the token would take quadratic time. A long word
    # shares only 40 characters with any token; a search that dropped one
    # character at a time would search the source 100,000 times.
    @pytest.mark.parametrize(
        "doc, words",
        [
            ("b" + "a" * 200_000, ["a" * n for n in range(4, 40)]),
            ("b" + "a" * 200_000 + " aaaaaaa", ["a" * n for n in range(4, 40)]),
            (("x" * 40 + " ") * 5_000, ["x" * 100_000]),
        ],
        ids=["one-token", "one-token-then-a-word", "long-word"],
    )
    def test_hostile_words_are_matched_in_linear_time(self, doc, words):
        concepts = [Concept(word, "instance", 1) for word in words]
        start = time.perf_counter()
        out = concept_backtrace(concepts, doc)
        assert time.perf_counter() - start < 1.0
        assert out == bruteforce.concept_backtrace(concepts, doc)

    def test_overlap_floor_zero_still_needs_one_character(self):
        [out] = concept_backtrace([Concept("xyz", "instance", 1)], "abc def", min_overlap=0)
        assert out.text == "xyz" and out.source_span is None


def handled(handler, variable, edges):
    try:
        return "ok", handler(variable, edges, 3)
    except ValueError as exc:
        return "error", type(exc), str(exc)


def name_roles(rng):
    """The roles of a name node: :op indices in order, shuffled, gapped,
    repeated (also as ``:op01``), from 0 or 2, or past 9, maybe beside a
    :wiki."""
    start = rng.choice([0, 1, 1, 1, 2])
    indices = list(range(start, start + rng.randint(1, 12)))
    kind = rng.choice(["order", "order", "shuffle", "gap", "repeat"])
    if kind == "shuffle":
        rng.shuffle(indices)
    elif kind == "gap" and len(indices) > 1:
        del indices[rng.randrange(len(indices))]
    elif kind == "repeat":
        indices.insert(rng.randrange(len(indices) + 1), rng.choice(indices))
    roles = [f":op{i:0{rng.choice([1, 1, 1, 2])}d}" for i in indices]
    if rng.random() < 0.2:
        roles.insert(rng.randrange(len(roles) + 1), ":wiki")
    return roles


DATE_VALUES = ["1", "19", "31", "4", "12", "2024", "-44", "0", "32", "13", "+7", "07",
               '"April"', '"1st"', '""', '" 5"', "2.5", '"1_999"', '"٣"', "+1999"]


class TestHandlers:
    def test_name_nodes_match_reference(self):
        rng = random.Random(31)
        for _ in range(3000):
            roles = name_roles(rng)
            words = [Literal(rng.choice(WORD_POOL), True).penman() for _ in roles]
            body = " ".join(f"{role} {word}" for role, word in zip(roles, words))
            edges = parse_amr(f"(n / name {body})").children["n"]
            want = handled(bruteforce.handle_name, "n", edges)
            assert handled(handle_name, "n", edges) == want, body

    def test_date_entities_match_reference(self):
        rng = random.Random(37)
        for _ in range(3000):
            roles = rng.choices([":day", ":month", ":year", ":era"], k=rng.randint(0, 5))
            body = " ".join(f"{role} {rng.choice(DATE_VALUES)}" for role in roles)
            edges = parse_amr(f"(d / date-entity {body})").children["d"]
            want = handled(bruteforce.handle_date, "d", edges)
            assert handled(handle_date, "d", edges) == want, body


def mentions(graph, rng):
    """A source document for ``graph``: its labels, literals and dates, each
    kept, inflected, cut short, recased or put inside a longer word."""
    words = []
    for variable, instance in graph.nodes.items():
        literals = bruteforce.literals(graph.children[variable])
        words.append(re.sub(r"(-[0-9]{2})+\Z", "", instance))
        words += [literal.text.replace("_", " ") for _, literal in literals]
        if instance == "date-entity" and literals:
            words.append(handle_date(variable, graph.children[variable]).text)
    words += rng.sample(WORD_POOL, 3)
    rng.shuffle(words)
    out = []
    for word in words:
        form = rng.choice(["same", "same", "suffix", "short", "upper", "inside", "drop"])
        if form == "suffix":
            word += rng.choice(["s", "ed", "ing", "er"])
        elif form == "short":
            word = word[: rng.randint(1, max(1, len(word) - 1))]
        elif form == "upper":
            word = word.upper()
        elif form == "inside":
            word = rng.choice(["x", "re", "9"]) + word + rng.choice(["", "z", "7"])
        elif form == "drop":
            continue
        out.append(word + rng.choice(SEPARATORS))
    return "".join(out)


class TestDistill:
    def test_matches_layered_reference(self):
        rng = random.Random(29)
        for seed in range(400):
            graph = parse_amr(random_penman(seed))
            doc = mentions(graph, rng)
            labels = sorted(set(graph.nodes.values()))
            stoplist_add = rng.sample(labels, min(len(labels), rng.randint(0, 2)))
            stoplist_add += rng.sample(["see", "run", "paper", "tree"], rng.randint(0, 2))
            stoplist_remove = rng.sample(ENTITY_POOL, rng.randint(0, 3))
            as_given = list if seed % 2 else tuple  # lists: a config built in Python
            config = DistillConfig(
                stoplist_add=as_given(stoplist_add),
                stoplist_remove=as_given(stoplist_remove),
                idf_threshold=rng.choice([0.3, 0.5, 0.9]),
                min_backtrace_overlap=seed % 7,
                traversal=("dfs", "local-random", "global-random")[seed % 3],
                seed=seed,
            )
            common = frozenset()
            if seed % 5 == 1:
                corpus = [doc, mentions(graph, rng), " ".join(WORD_POOL)]
                common = common_terms(corpus, config.idf_threshold)
            got = distill_concepts(graph, doc, config, common=common)
            assert got == bruteforce.distill_concepts(graph, doc, config, common), seed
