"""Concept distillation: role handlers, formatting, backtrace, traversal."""

import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conceptrag import distill
from conceptrag.distill import (
    DEFAULT_STOPLIST,
    TRAVERSAL_KINDS,
    Concept,
    DistillConfig,
    DistillError,
    common_terms,
    concept_backtrace,
    concept_format,
    distill_concepts,
    distill_documents,
    handle_date,
    handle_name,
    strip_sense,
)
from conceptrag.penman import parse_amr
from conceptrag.schema import from_json, to_json
from graphgen import INSTANCE_POOL, WORD_POOL, random_penman


def name_node(*ops, roles=None):
    parts = " ".join(
        f'{roles[i] if roles else f":op{i + 1}"} "{op}"' for i, op in enumerate(ops)
    )
    return "n", parse_amr(f"(n / name {parts})").children["n"]


def instance_concepts(labels):
    return [Concept(lbl, "instance", 1) for lbl in labels]


class TestHandleName:
    def test_three_part_name(self):
        concept = handle_name(*name_node("Alexander", "Rinnooy", "Kan"))
        assert concept.text == "Alexander Rinnooy Kan"
        assert concept.provenance == "name"

    def test_single_part_name(self):
        assert handle_name(*name_node("Amsterdam")).text == "Amsterdam"

    def test_join_semantics(self):
        assert handle_name(*name_node("a", "b", "c", "d")).text == "a b c d"

    def test_missing_op1(self):
        node = name_node("x", roles=[":op2"])
        with pytest.raises(DistillError, match="op1"):
            handle_name(*node)

    def test_non_contiguous_ops(self):
        node = name_node("x", "y", roles=[":op1", ":op3"])
        with pytest.raises(DistillError, match="non-contiguous"):
            handle_name(*node)

    @given(st.lists(st.text(alphabet="abcXYZ", min_size=1, max_size=6), min_size=1, max_size=5))
    def test_join_is_space_separated(self, words):
        assert handle_name(*name_node(*words)).text == " ".join(words)

    def test_an_op_that_defines_a_node_is_no_op(self):
        graph = parse_amr("(n / name :op1 (x / foo))")
        with pytest.raises(DistillError, match=r"^name node 'n' is missing :op1$"):
            distill_concepts(graph, "")

    def test_a_role_that_defines_a_node_is_skipped(self):
        graph = parse_amr('(p / person :name (n / name :op1 "Ann" :mod (x / foo)))')
        concepts = distill_concepts(graph, "").concepts
        assert [(c.text, c.provenance) for c in concepts] == [("Ann", "name"), ("foo", "instance")]


class TestHandleWiki:
    def test_underscores_become_spaces(self):
        graph = parse_amr('(r / research-institute :wiki "Spectrum_Encyclopedia")')
        [concept] = distill_concepts(graph, "").concepts
        assert concept.text == "Spectrum Encyclopedia"
        assert concept.provenance == "wiki"

    def test_no_link_marker_yields_nothing(self):
        # with "city" off the stoplist the node shows as a plain instance
        graph = parse_amr('(c / city :wiki "-")')
        config = DistillConfig(stoplist_remove=("city",))
        concepts = distill_concepts(graph, "", config=config).concepts
        assert [(c.text, c.provenance) for c in concepts] == [("city", "instance")]

    def test_wiki_equal_to_name_yields_single_concept(self):
        graph = parse_amr('(c / city :wiki "Amsterdam" :name (n2 / name :op1 "Amsterdam"))')
        concepts = distill_concepts(graph, "Amsterdam").texts()
        assert concepts == ["Amsterdam"]

    def test_wiki_differing_from_name_wins(self):
        graph = parse_amr(
            '(c / city :wiki "New_York_City" :name (n2 / name :op1 "NYC"))'
        )
        concepts = distill_concepts(graph, "NYC is big").texts()
        assert concepts == ["New York City"]

    def test_only_a_literal_wiki_counts(self):
        graph = parse_amr('(c / city :wiki (x / foo) :wiki "Paris")')
        concepts = distill_concepts(graph, "").concepts
        assert [(c.text, c.provenance) for c in concepts] == [("Paris", "wiki"), ("foo", "instance")]

    def test_name_without_wiki_survives(self):
        graph = parse_amr('(p / person :name (n / name :op1 "Kan"))')
        assert distill_concepts(graph, "Kan").texts() == ["Kan"]

    def test_wiki_on_a_multi_sentence_root_links_nothing(self):
        # the root is in no sentence, so its wiki string could never be
        # emitted: the name it defines as :snt1 is kept, as is a name defined
        # under a plain node of :snt2
        graph = parse_amr(
            '(m / multi-sentence :wiki "Paris" :snt1 (n / name :op1 "Paris")'
            ' :snt2 (w / want-01 :ARG1 (c / city :name (n2 / name :op1 "Paris"))))'
        )
        concepts = distill_concepts(graph, "Paris. They want Paris.").concepts
        assert concepts == (
            ("Paris", "name", 1, (0, 5)),
            ("want", "instance", 2, (12, 16)),
            ("Paris", "name", 2, (0, 5)),
        )
        # the root is found by name, wherever children lists it
        graph = graph._replace(children=dict(reversed(graph.children.items())))
        assert distill_concepts(graph, "Paris. They want Paris.").concepts == concepts


class TestHandleDate:
    def test_full_date(self):
        edges = parse_amr("(d / date-entity :day 19 :month 4 :year 2024)").children["d"]
        assert handle_date("d", edges).text == "19 April 2024"

    def test_year_only(self):
        edges = parse_amr("(d / date-entity :year 1972)").children["d"]
        assert handle_date("d", edges).text == "1972"

    def test_month_only(self):
        edges = parse_amr("(d / date-entity :month 12)").children["d"]
        assert handle_date("d", edges).text == "December"

    def test_month_out_of_range(self):
        edges = parse_amr("(d / date-entity :month 13)").children["d"]
        with pytest.raises(DistillError, match="month"):
            handle_date("d", edges)

    def test_day_out_of_range(self):
        edges = parse_amr("(d / date-entity :day 32)").children["d"]
        with pytest.raises(DistillError, match="day"):
            handle_date("d", edges)

    # int() read these as 1999, 3, 5 and 4
    @pytest.mark.parametrize(
        "role, value", [(":year", '"1_999"'), (":day", '"٣"'), (":day", "+5"), (":month", '" 4"')]
    )
    def test_date_parts_must_be_ascii_digits(self, role, value):
        edges = parse_amr(f"(d / date-entity {role} {value})").children["d"]
        with pytest.raises(DistillError, match=f"non-numeric {role} value"):
            handle_date("d", edges)

    def test_only_a_year_takes_a_sign(self):
        edges = parse_amr("(d / date-entity :month 4 :year -44)").children["d"]
        assert handle_date("d", edges).text == "April -44"

    def test_only_a_literal_date_part_counts(self):
        graph = parse_amr("(d / date-entity :year (y / foo) :year 1999)")
        concepts = distill_concepts(graph, "").concepts
        assert [(c.text, c.provenance) for c in concepts] == [("1999", "date"), ("foo", "instance")]

    def test_empty_date_entity_yields_nothing(self):
        edges = parse_amr("(d / date-entity)").children["d"]
        assert handle_date("d", edges) is None

    def test_month_names_are_english_whatever_the_locale(self, monkeypatch):
        # calendar.month_name follows LC_TIME, which an embedding caller may set
        import calendar

        monkeypatch.setattr(calendar, "month_name", [""] + [f"Monat{i}" for i in range(1, 13)])
        names = [
            handle_date("d", parse_amr(f"(d / date-entity :month {m})").children["d"]).text
            for m in range(1, 13)
        ]
        assert names == ["January", "February", "March", "April", "May", "June", "July",
                         "August", "September", "October", "November", "December"]


class TestConceptFormat:
    TABLE_A1_LABELS = [
        "multi-sentence", "person", "name", "city", "name", "work-01", "he",
        "mathematics", "research-institute", "name", "date-interval",
        "date-entity", "date-entity",
    ]

    def test_table_a1_canonical_nodes_removed(self):
        out = concept_format(instance_concepts(self.TABLE_A1_LABELS))
        assert [c.text for c in out] == ["work", "mathematics"]

    def test_empty_input(self):
        assert concept_format([]) == []

    def test_sense_suffix_stripped(self):
        out = concept_format(instance_concepts(["build-02"]))
        assert out[0].text == "build"

    def test_role_concepts_never_stoplisted(self):
        # a name concept must survive even though the label "name" is stoplisted
        concept = Concept("Alexander Rinnooy Kan", "name", 1)
        assert concept_format([concept]) == [concept]

    def test_order_of_survivors_preserved(self):
        out = concept_format(instance_concepts(["alpha", "person", "beta", "he", "gamma"]))
        assert [c.text for c in out] == ["alpha", "beta", "gamma"]

    @given(st.lists(st.sampled_from(TABLE_A1_LABELS + ["alpha", "storm-01", "idea"]), max_size=12))
    def test_idempotence(self, labels):
        once = concept_format(instance_concepts(labels))
        assert concept_format(once) == once

    def test_stoplist_extensible(self):
        config = DistillConfig(stoplist_add=("alpha",), stoplist_remove=("he",))
        out = concept_format(instance_concepts(["alpha", "he"]), stoplist=config.stoplist())
        assert [c.text for c in out] == ["he"]


class TestBacktrace:
    SOURCE = "Alexander Rinnooy Kan of Amsterdam. In 1972, he worked as a mathematician."

    def test_tense_restored(self):
        [out] = concept_backtrace([Concept("work", "instance", 2)], self.SOURCE)
        assert out.text == "worked"
        assert out.source_span == (self.SOURCE.index("worked"), self.SOURCE.index("worked") + 6)

    def test_inflection_restored(self):
        [out] = concept_backtrace([Concept("mathematics", "instance", 2)], self.SOURCE)
        assert out.text == "mathematician"

    def test_exact_match_passthrough_with_span(self):
        [out] = concept_backtrace([Concept("Amsterdam", "wiki", 1)], self.SOURCE)
        assert out.text == "Amsterdam"
        assert out.source_span == (25, 34)

    def test_casing_aligned_on_exact_match(self):
        [out] = concept_backtrace([Concept("amsterdam", "wiki", 1)], self.SOURCE)
        assert out.text == "Amsterdam"

    def test_no_match_keeps_amr_form(self):
        [out] = concept_backtrace([Concept("1973", "date", 2)], self.SOURCE)
        assert out.text == "1973" and out.source_span is None

    def test_below_overlap_floor_keeps_amr_form(self):
        [out] = concept_backtrace([Concept("run", "instance", 1)], self.SOURCE)
        assert out.text == "run" and out.source_span is None

    def test_earliest_position_breaks_ties(self):
        source = "they worked hard; workers agreed"
        [out] = concept_backtrace([Concept("work", "instance", 1)], source)
        assert out.text == "worked"

    @pytest.mark.parametrize(
        "concept, source, span",
        [
            (Concept("Art", "name", 1), "They start at the Art Museum.", (18, 21)),
            (Concept("art", "wiki", 1), "Smart art", (6, 9)),
            (Concept("1899", "date", 1), "In 18990 and in 1899.", (16, 20)),
            (Concept("Kan", "name", 1), "Kanto and Kan's", (10, 13)),
            (Concept("Art", "name", 1), "They start at dawn.", None),
        ],
    )
    def test_name_wiki_date_match_whole_words_only(self, concept, source, span):
        [out] = concept_backtrace([concept], source)
        assert out.source_span == span
        assert out.text == (source[span[0] : span[1]] if span else concept.text)

    def test_each_distinct_target_and_word_is_searched_once(self, monkeypatch):
        searched, matched = Counter(), Counter()
        find, best = distill._find_lowercase, distill._best_token_match

        def find_spy(source_doc, lowered, to_doc, target):
            searched[target] += 1
            return find(source_doc, lowered, to_doc, target)

        def best_spy(word, index, prefix_len):
            matched[word] += 1
            return best(word, index, prefix_len)

        monkeypatch.setattr(distill, "_find_lowercase", find_spy)
        monkeypatch.setattr(distill, "_best_token_match", best_spy)
        # the second sentence names the city without a wiki link: a name
        # concept with the wiki concept's target
        graph = parse_amr(
            '(m / multi-sentence'
            ' :snt1 (v / visit-01 :ARG0 (p / person :name (n / name :op1 "Ann"))'
            ' :ARG1 (c / city :wiki "Zurich" :name (n2 / name :op1 "Zurich"))'
            ' :time (d / date-entity :year 1999))'
            ' :snt2 (v2 / visit-01 :ARG0 (p2 / person :name (n3 / name :op1 "Ann"))'
            ' :ARG1 (c2 / city :name (n4 / name :op1 "Zurich"))'
            ' :time (d2 / date-entity :year 1999)))'
        )
        source = "Ann visited Zurich in 1999. In 1999, Ann visited Zurich again."
        concepts = distill_concepts(graph, source).concepts
        assert searched == Counter(["ann", "zurich", "1999"])
        assert matched == Counter(["visit"])
        first = [("visited", "instance", 1, (4, 11)), ("Ann", "name", 1, (0, 3)),
                 ("Zurich", "wiki", 1, (12, 18)), ("1999", "date", 1, (22, 26))]
        second = [(text, "name" if text == "Zurich" else kind, 2, span)
                  for text, kind, _, span in first]
        assert concepts == tuple(first + second)

    @given(st.lists(st.sampled_from(["work", "run", "Amsterdam", "storm", "1973"]), max_size=8))
    def test_conservatism_count_preserved(self, labels):
        concepts = [Concept(lbl, "instance", 1) for lbl in labels]
        assert len(concept_backtrace(concepts, self.SOURCE)) == len(concepts)


    def test_unicode_before_a_match_keeps_offsets(self):
        # 'İ' lowercases to two characters, which shifted later spans
        graph = parse_amr(
            '(v / visit-01 :ARG1 (c / city :name (n / name :op1 "Zurich"))'
            ' :ARG2 (c2 / city :wiki "Zurich"))'
        )
        source = "İİ visited Zurich."
        concepts = distill_concepts(graph, source).concepts
        assert [c.text for c in concepts] == ["visited", "Zurich", "Zurich"]
        assert [c.source_span for c in concepts] == [(3, 10), (11, 17), (11, 17)]

    @given(
        st.text(alphabet=st.sampled_from("İiIı\u0307ΣσςßẞK\u212akÅ\u212båǅǆé .-"), max_size=24),
        st.lists(
            st.tuples(
                st.integers(0, 24), st.integers(0, 24),
                st.sampled_from(["name", "wiki", "date"]),
                st.sampled_from([str, str.upper, str.lower]),
            ),
            min_size=1, max_size=6,
        ),
    )
    # a final sigma lowercases to 'ς' in "KΣ" but to 'σ' on its own
    @example("KΣ ς", [(3, 4, "name", str)])
    @settings(max_examples=300, deadline=None)
    def test_spans_index_non_ascii_source(self, source, picks):
        concepts = [
            Concept(case(source[a:b]) or "k", provenance, 1) for a, b, provenance, case in picks
        ]
        for before, after in zip(concepts, concept_backtrace(concepts, source)):
            if after.source_span is None:
                continue
            start, end = after.source_span
            assert source[start:end] == after.text
            assert source[start:end].lower() == before.text.lower()


class TestCommonTerms:
    def test_a_word_counts_once_per_document(self):
        # "x" fills the first document but is in one of two: not above 0.5
        assert common_terms(["x x x y", "y z"], 0.5) == {"y"}

    def test_a_word_must_be_strictly_above_the_threshold(self):
        assert common_terms(["a b", "b c"], 0.5) == {"b"}
        assert common_terms(["a b", "b c"], 1.0) == frozenset()

    def test_words_are_lowercased_tokens(self):
        assert common_terms(["She played.", "he PLAYED, she said"], 0.5) == {"played", "she"}

    def test_empty_corpus_gives_empty_set(self):
        assert common_terms([], 0.0) == frozenset()

    @given(
        st.lists(
            st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6), min_size=1, max_size=30
        ),
        st.floats(0.0, 1.0),
    )
    def test_membership_matches_document_fraction(self, word_lists, threshold):
        docs = [" ".join(words) for words in word_lists]
        common = common_terms(docs, threshold)
        for term in "abcdef":
            fraction = sum(term in words for words in word_lists) / len(word_lists)
            assert (term in common) == (fraction > threshold)


class TestDistill:
    def test_idf_filter_drops_common_concepts(self):
        docs = [f"film actor {i}" for i in range(9)] + ["stage actor 9"]
        graph = parse_amr("(f / film :mod (s / stage))")
        out = distill_concepts(graph, "film stage", common=common_terms(docs, 0.5))
        # brute-force document frequency: film 9/10 > 0.5 dropped, stage 1/10 kept
        assert sum("film" in d for d in docs) == 9
        assert out.texts() == ["stage"]

    def test_common_words_are_matched_after_backtrace(self):
        # play-01 backtraces to "played", the word that the documents hold
        doc = "She played the violin."
        common = common_terms([doc, "He played.", "x"], 0.5)
        graph = parse_amr("(p / play-01 :ARG1 (v / violin))")
        assert distill_concepts(graph, doc, common=common).texts() == ["violin"]

    def test_multi_word_concepts_are_never_common(self):
        doc = "New York is new."
        common = common_terms([doc, "New York", "york new"], 0.5)
        graph = parse_amr('(c / city :name (n / name :op1 "New" :op2 "York"))')
        assert common >= {"new", "york"}
        assert distill_concepts(graph, doc, common=common).texts() == ["New York"]

    def test_table_a1_worked_example(self, table_a1_penman, table_a1_doc):
        concepts = distill_concepts(parse_amr(table_a1_penman), table_a1_doc)
        assert concepts.texts() == [
            "Alexander Rinnooy Kan",
            "Amsterdam",
            "worked",
            "mathematician",
            "Spectrum Encyclopedia",
            "1972",
            "1973",
        ]

    def test_single_concept_graph(self):
        concepts = distill_concepts(parse_amr("(w / work-01)"), "work")
        assert concepts.texts() == ["work"]

    def test_empty_graph_yields_empty_set(self):
        concepts = distill_concepts(parse_amr("(m / multi-sentence)"), "anything")
        assert concepts.texts() == []

    def test_global_random_same_multiset_as_dfs(self, table_a1_penman, table_a1_doc):
        graph = parse_amr(table_a1_penman)
        dfs = distill_concepts(graph, table_a1_doc, config=DistillConfig())
        shuffled = distill_concepts(
            graph, table_a1_doc, config=DistillConfig(traversal="global-random", seed=7)
        )
        assert Counter(dfs.texts()) == Counter(shuffled.texts())

    def test_random_modes_are_seed_deterministic(self, table_a1_penman, table_a1_doc):
        graph = parse_amr(table_a1_penman)
        config = DistillConfig(traversal="local-random", seed=42)
        first = distill_concepts(graph, table_a1_doc, config=config)
        second = distill_concepts(graph, table_a1_doc, config=config)
        assert first.texts() == second.texts()

    def test_random_mode_requires_seed(self):
        with pytest.raises(ValueError):
            DistillConfig(traversal="global-random")

    def test_sentence_indices_and_facts_string(self, table_a1_penman, table_a1_doc):
        concepts = distill_concepts(parse_amr(table_a1_penman), table_a1_doc)
        assert [c.sentence_index for c in concepts.concepts] == [1, 1, 2, 2, 2, 2, 2]
        assert concepts.facts_string() == (
            "Alexander Rinnooy Kan, Amsterdam. "
            "worked, mathematician, Spectrum Encyclopedia, 1972, 1973"
        )

    def test_span_order_matches_emission_for_non_date_concepts(
        self, table_a1_penman, table_a1_doc
    ):
        # The :time subtree sits at the end of its frame while the source
        # sentence fronts the date, so date spans are the one sanctioned
        # exception to emission-order monotonicity on this example.
        concepts = distill_concepts(parse_amr(table_a1_penman), table_a1_doc)
        spans = [c.source_span[0] for c in concepts.concepts
                 if c.source_span and c.provenance != "date"]
        assert spans == sorted(spans)

    @pytest.mark.parametrize("traversal", TRAVERSAL_KINDS)
    def test_traced_layers_are_called_by_name(
        self, table_a1_penman, table_a1_doc, monkeypatch, traversal
    ):
        # per-layer tracing wraps these module-level names; a layer that
        # distill_concepts stops calling by name would read as zero time
        calls = Counter()
        for name in ("split_sentences", "concept_format", "concept_backtrace"):
            def counted(*args, _name=name, _func=getattr(distill, name), **kwargs):
                calls[_name] += 1
                return _func(*args, **kwargs)

            monkeypatch.setattr(distill, name, counted)
        # every order: one pass over each sentence's run, with no format step
        config = DistillConfig(traversal=traversal, seed=7)
        assert len(distill_concepts(parse_amr(table_a1_penman), table_a1_doc, config).concepts) == 7
        assert calls == {"split_sentences": 1, "concept_backtrace": 1}

    # sentences go in :sntN order whatever the textual order, so the first
    # sentence that breaks a rule is sentence 1 on every traversal
    SWAPPED = (
        '(m / multi-sentence'
        ' :snt2 (w / want-01 :ARG0 (p / person :name (n2 / name :op1 "A" :op1 "B")))'
        ' :snt1 (c / city :name (n1 / name :op2 "C")))'
    )

    @pytest.mark.parametrize("traversal", TRAVERSAL_KINDS)
    def test_sentence_one_breaks_its_rule_first_wherever_it_is_written(self, traversal):
        # global-random shuffles one stream of both sentences, in :sntN order:
        # at seed 2 the shuffle reaches n1 first, and of the textual order n2
        config = DistillConfig(traversal=traversal, seed=2)
        with pytest.raises(DistillError, match="name node 'n1' is missing :op1"):
            distill_concepts(parse_amr(self.SWAPPED), "", config)
        # with sentence 1 mended, sentence 2's fault is raised
        with pytest.raises(DistillError, match="name node 'n2' repeats op index 1"):
            distill_concepts(parse_amr(self.SWAPPED.replace(":op2", ":op1")), "", config)

    @pytest.mark.parametrize("traversal", TRAVERSAL_KINDS)
    def test_sentences_written_out_of_order_distill_in_snt_order(self, traversal):
        graph = parse_amr(
            '(m / multi-sentence :snt3 (g / gamma)'
            ' :snt1 (a / alpha-01 :ARG1 (c / city :wiki "Big_City" :name (n / name :op1 "B")))'
            ' :snt2 (b / beta :time (d / date-entity :year 1999)))'
        )
        config = DistillConfig(traversal=traversal, seed=7)
        concepts = distill_concepts(graph, "", config).concepts
        if traversal != "global-random":
            order = [c.sentence_index for c in concepts]
            assert order == sorted(order)
        assert Counter((c.text, c.sentence_index) for c in concepts) == Counter(
            [("alpha", 1), ("Big City", 1), ("beta", 2), ("1999", 2), ("gamma", 3)]
        )
        if traversal == "dfs":
            assert [c.text for c in concepts] == ["alpha", "Big City", "beta", "1999", "gamma"]

    def test_bench_trace_targets_resolve(self):
        # the benchmark's tracer wraps each target by module and name; a
        # renamed or deleted one would otherwise surface only in its runs
        path = Path(__file__).parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for _, module_name, attr in tracing.TARGETS:
            assert callable(getattr(importlib.import_module(module_name), attr, None)), attr

    def test_concept_word_count_below_source(self, table_a1_penman, table_a1_doc):
        concepts = distill_concepts(parse_amr(table_a1_penman), table_a1_doc)
        assert len(concepts.facts_string().split()) < len(table_a1_doc.split())

    @given(st.integers(min_value=0, max_value=3_000))
    @settings(max_examples=150, deadline=None)
    def test_mode_multiset_equality_and_local_monotonicity(self, seed):
        graph = parse_amr(random_penman(seed))
        doc = "generic placeholder text"
        reference = Counter(distill_concepts(graph, doc).texts())
        for traversal in ("global-random", "local-random"):
            config = DistillConfig(traversal=traversal, seed=seed)
            concepts = distill_concepts(graph, doc, config=config)
            assert Counter(concepts.texts()) == reference
            if traversal == "local-random":
                order = [c.sentence_index for c in concepts.concepts]
                assert order == sorted(order)


# source words for the graphs of graphgen: labels, inflected frames and names
SOURCE_WORDS = INSTANCE_POOL + WORD_POOL + ["seeing", "wanted", "builds", "said", "Moving"]


class TestDistillDocuments:
    @given(
        st.lists(st.integers(min_value=0, max_value=3_000), min_size=1, max_size=4),
        st.sampled_from(TRAVERSAL_KINDS),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_each_document_distills_as_it_does_alone(self, seeds, traversal, filtered):
        graphs = [parse_amr(random_penman(seed)) for seed in seeds]
        docs = [" ".join(random.Random(seed).choices(SOURCE_WORDS, k=12)) for seed in seeds]
        config = DistillConfig(traversal=traversal, seed=seeds[-1])
        common = common_terms(docs, 0.3) if filtered else frozenset()
        alone = [distill_concepts(g, d, config, common=common) for g, d in zip(graphs, docs)]
        assert distill_documents(graphs, docs, config, common=common) == alone

    def test_first_failing_graph_raises(self):
        graphs = [
            parse_amr("(w / work-01)"),
            parse_amr("(d / date-entity :day 40)"),
            parse_amr('(n / name :op1 "A" :op01 "B")'),
        ]
        with pytest.raises(DistillError, match="day 40"):
            distill_documents(graphs, ["worked", "x", "A B"])
        with pytest.raises(DistillError, match="repeats op index 1"):
            distill_documents(graphs[::-1], ["A B", "x", "worked"])

    def test_one_source_document_per_graph(self):
        with pytest.raises(ValueError):
            distill_documents([parse_amr("(w / work-01)")], ["worked", "extra"])


class TestDistillConfig:
    def test_from_file_round_trip(self, tmp_path):
        config = DistillConfig(
            stoplist_add=("violin",), idf_threshold=0.3, traversal="local-random", seed=9
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(to_json(config)), encoding="utf-8")
        data = json.loads(path.read_text(encoding="utf-8"))
        assert from_json(DistillConfig, data, "distill config") == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            from_json(DistillConfig, {"stoplst": []}, "distill config")

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_idf_threshold_takes_both_bounds(self, threshold):
        assert DistillConfig(idf_threshold=threshold).idf_threshold == threshold

    def test_a_replaced_config_distills(self):
        config = DistillConfig(stoplist_add=("alpha",))._replace(
            min_backtrace_overlap=1, stoplist_remove=["he"]
        )
        assert config.stoplist() == (DEFAULT_STOPLIST | {"alpha"}) - {"he"}
        graph = parse_amr("(a / alpha :ARG0 (h / he) :ARG1 (w / work-01))")
        assert distill_concepts(graph, "he wrote", config).texts() == ["he", "wrote"]

    def test_strip_sense(self):
        assert strip_sense("work-01") == "work"
        assert strip_sense("date-entity") == "date-entity"
        assert strip_sense("multi-sentence") == "multi-sentence"

    def test_default_stoplist_has_pronouns_and_entity_types(self):
        for label in ("he", "she", "person", "city", "market-sector", "city-district"):
            assert label in DEFAULT_STOPLIST
