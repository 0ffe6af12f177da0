import json

import pytest

from slukit.corpus import PhraseTable, segments_of, validate_label_sequence
from slukit.grammar import (DomainGrammar, GrammarError, SlotSpec, annotate_words,
                            default_grammar, generate_corpus)

from helpers import reference_grammar_json


def test_generation_deterministic(default_grammar):
    a = generate_corpus(default_grammar, 1, 42)
    b = generate_corpus(default_grammar, 1, 42)
    assert a == b


def test_generation_seed_sensitivity(default_grammar):
    a = generate_corpus(default_grammar, 10, 5)
    b = generate_corpus(default_grammar, 10, 6)
    assert a != b


def test_prefix_stability(default_grammar):
    # utterance i depends only on (seed, i)
    a = generate_corpus(default_grammar, 5, 3)
    b = generate_corpus(default_grammar, 9, 3)
    assert a.utterances == b.utterances[:5]


def test_every_concept_appears(default_grammar):
    ds = generate_corpus(default_grammar, 10000, 1)
    seen = {t.label[2:] for u in ds for t in u.tokens
            if t.label and t.label.startswith("B-")}
    assert seen == {slot.concept for slot in default_grammar.slots.values()}


def test_generated_labels_are_valid(default_grammar):
    values = PhraseTable(default_grammar.values.items())
    for u in generate_corpus(default_grammar, 200, 2):
        validate_label_sequence(u.labels())
        segments_of(u, values)  # must decode without error


def test_confusable_words_occur_as_concept_and_filler(default_grammar):
    ds = generate_corpus(default_grammar, 3000, 4)
    roles = {}
    for u in ds:
        for t in u.tokens:
            if t.surface in ("and", "then", "that", "it", "this"):
                roles.setdefault(t.surface, set()).add(
                    "null" if t.label == "null" else "concept")
    assert {"null", "concept"} <= roles["and"]
    assert {"null", "concept"} <= roles["it"]


def test_empty_grammar_rejected(default_grammar):
    empty = DomainGrammar(patterns=(), slots={}, categories={}, values={},
                          word_pos={})
    with pytest.raises(GrammarError):
        generate_corpus(empty, 5, 0)
    with pytest.raises(GrammarError):
        generate_corpus(default_grammar, 0, 0)


def test_annotation_is_total(default_grammar):
    toks = annotate_words(["book", "a", "room", "in", "zzzunknown"], default_grammar)
    assert all(t.pos for t in toks)
    assert toks[0].deprel == "root" and toks[0].governor is None
    assert all(t.governor == 0 for t in toks[1:])
    assert toks[-1].pos == "X"


def test_annotation_looks_words_up_lowercased(default_grammar):
    mixed = annotate_words(["Want", "Paris", "ROOMS"], default_grammar)
    lower = annotate_words(["want", "paris", "rooms"], default_grammar)
    assert [t.surface for t in mixed] == ["Want", "Paris", "ROOMS"]
    assert [(t.lemma, t.pos, t.governor, t.deprel, t.sem_categories) for t in mixed] == \
        [(t.lemma, t.pos, t.governor, t.deprel, t.sem_categories) for t in lower]
    assert mixed[1].pos == "PROPN" and mixed[1].lemma == "paris"
    assert mixed[2].lemma == "room"
    # a lowercase word that is its own lemma keeps one string for both
    assert lower[0].lemma is lower[0].surface


def test_annotation_multiword_category(default_grammar):
    toks = annotate_words(["swimming", "pool"], default_grammar)
    assert "SERVICE" in toks[0].sem_categories
    assert "SERVICE" in toks[1].sem_categories


def test_grammar_json_roundtrip(default_grammar):
    doc = default_grammar.to_json()
    again = DomainGrammar.from_json(doc)
    assert again.to_json() == doc
    assert generate_corpus(again, 20, 9) == generate_corpus(default_grammar, 20, 9)


def _small_grammar():
    return DomainGrammar(
        patterns=((2.0, ("a", "room", "in", "$TOWN")), (1.0, ("$TOWN", "é", "$DATE"))),
        # keys out of order, so that the document's sorting shows
        slots={"TOWN": SlotSpec("town", ((1.0, ("paris",)), (0.5, ("saint", "malo")))),
               "DATE": SlotSpec("date", ((1.0, ("today",)),))},
        categories={"saint malo": "TOWN", "paris": "TOWN"},
        values={"saint malo": "st-malo"},
        word_pos={"room": "NOUN", "a": "DET"},
        lemmas={"rooms": "room"},
        insertion_words=("euh",),
        extra_vocab=("parish",),
    )


@pytest.mark.parametrize("grammar", [default_grammar, _small_grammar],
                         ids=["default", "small"])
def test_grammar_json_equals_reference(grammar):
    g = grammar()
    assert g.to_json() == reference_grammar_json(g)
    assert DomainGrammar.from_json(g.to_json()).to_json() == g.to_json()


_SLOT_WITHOUT_REALIZATIONS = json.dumps({"slots": {"TOWN": {"concept": "town"}}})


@pytest.mark.parametrize("text, match", [
    ("not json", "grammar JSON is malformed: Expecting value"),
    ("{}", "grammar JSON lacks key 'slots'"),
    (_SLOT_WITHOUT_REALIZATIONS, "grammar JSON lacks key 'realizations'"),
    ("[]", "grammar JSON is malformed: list indices"),
], ids=["not-json", "empty-object", "slot-without-realizations", "list"])
def test_grammar_from_json_refuses_malformed_documents(text, match):
    with pytest.raises(GrammarError, match=match):
        DomainGrammar.from_json(text)
