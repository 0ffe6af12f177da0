import dataclasses
import hashlib
import math

import pytest

from slukit.corpus import (Dataset, PhraseTable, Utterance, label_segments,
                           validate_label_sequence, write_dataset)
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


def test_generated_corpus_shares_equal_tokens(tmp_path, default_grammar):
    ds = generate_corpus(default_grammar, 300, 11)
    tokens = [t for u in ds for t in u.tokens]
    assert len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens)
    # the shared tokens are the ones annotation builds, each a new object there
    fresh = Dataset(tuple(Utterance(u.id, annotate_words(u.surfaces(), default_grammar))
                          .with_column("label", u.labels()) for u in ds))
    assert fresh == ds
    assert len({id(t) for u in fresh for t in u.tokens}) == len(tokens)
    write_dataset(ds, tmp_path / "shared.tsv")
    write_dataset(fresh, tmp_path / "fresh.tsv")
    assert (tmp_path / "shared.tsv").read_bytes() == (tmp_path / "fresh.tsv").read_bytes()


def test_every_concept_appears(default_grammar):
    ds = generate_corpus(default_grammar, 10000, 1)
    seen = {t.label[2:] for u in ds for t in u.tokens
            if t.label and t.label.startswith("B-")}
    assert seen == {slot.concept for slot in default_grammar.slots.values()}


def test_generated_labels_are_valid(default_grammar):
    values = PhraseTable(default_grammar.values.items())
    for u in generate_corpus(default_grammar, 200, 2):
        validate_label_sequence(u.labels())
        label_segments(u.surfaces(), u.labels(), values)  # must decode without error


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
    with pytest.raises(GrammarError, match="grammar has no slots"):
        dataclasses.replace(default_grammar, slots={}).validate()
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
    assert [(t.lemma, t.pos, t.governor, t.deprel, t.sem_category) for t in mixed] == \
        [(t.lemma, t.pos, t.governor, t.deprel, t.sem_category) for t in lower]
    assert mixed[1].pos == "PROPN" and mixed[1].lemma == "paris"
    assert mixed[2].lemma == "room"
    # a lowercase word that is its own lemma keeps one string for both
    assert lower[0].lemma is lower[0].surface


def test_annotation_multiword_category(default_grammar):
    toks = annotate_words(["swimming", "pool"], default_grammar)
    assert toks[0].sem_category == "SERVICE"
    assert toks[1].sem_category == "SERVICE"


def test_annotation_shares_one_string_per_category(default_grammar):
    # two utterances naming the same category, by other phrases and by
    # the same one, share the grammar's one string; uncategorized tokens have None
    a = annotate_words(["a", "room", "in", "paris"], default_grammar)
    b = annotate_words(["lyon", "not", "paris"], default_grammar)
    town = default_grammar.categories["paris"]
    assert town == "TOWN" and default_grammar.categories["lyon"] is town
    assert a[3].sem_category is b[0].sem_category is b[2].sem_category is town
    assert a[0].sem_category is None and b[1].sem_category is None
    # tokens still compare equal to ones built with a string of their own
    assert a[3] == dataclasses.replace(a[3], sem_category="".join(["TO", "WN"]))


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


# the sha256 of each document pins the grammar's data too: a change that
# moves one entry of the default grammar's tables fails here
@pytest.mark.parametrize("grammar, sha256", [
    (default_grammar, "f123e3eaf260e49c61028d6df090bbabda727fb4bcdaba024d41befb6410c4bd"),
    (_small_grammar, "a65f086a5c8f69386a9a70207e55926420b02d30cb43c4eab3a2f940891570bc"),
], ids=["default", "small"])
def test_grammar_json_equals_reference(grammar, sha256):
    doc = grammar().to_json()
    assert doc == reference_grammar_json(grammar())
    assert hashlib.sha256(doc.encode()).hexdigest() == sha256


# named for the grammar JSON reader these checks once guarded; `validate`
# owns them, and they still guard a grammar built by hand
@pytest.mark.parametrize("key, value", [
    ("values", {"twenty": 5}), ("categories", {"paris": 7}), ("word_pos", {"paris": 3}),
    ("lemmas", {"rooms": 1}), ("insertion_words", (1,)), ("extra_vocab", (2,)),
    ("insertion_words", ("",)), ("extra_vocab", ("good day",)), ("extra_vocab", ("a\xa0b",)),
], ids=["values", "categories", "word_pos", "lemmas", "insertion_words", "extra_vocab",
        "insertion_words-empty", "extra_vocab-space", "extra_vocab-no-break-space"])
def test_validate_refuses_a_table_value_of_the_wrong_type(default_grammar, key, value):
    old = getattr(default_grammar, key)
    bad = {**old, **value} if isinstance(value, dict) else old + value
    with pytest.raises(GrammarError, match=f"grammar key {key!r}"):
        dataclasses.replace(default_grammar, **{key: bad}).validate()


def _with_pattern(grammar, weight, items):
    return dataclasses.replace(grammar, patterns=(*grammar.patterns, (weight, items)))


def _with_realization(grammar, weight, words):
    town = grammar.slots["TOWN"]
    spec = SlotSpec(town.concept, (*town.realizations, (weight, words)))
    return dataclasses.replace(grammar, slots={**grammar.slots, "TOWN": spec})


@pytest.mark.parametrize("edit, match", [
    (lambda g: _with_pattern(g, 1.0, ("hello", 3)), r"pattern \('hello', 3\) holds 3, "),
    (lambda g: _with_pattern(g, "1", ("hello",)), r"pattern \('hello',\) has weight '1'"),
    (lambda g: _with_pattern(g, math.nan, ("hello",)), r"pattern \('hello',\) has weight nan"),
    (lambda g: _with_pattern(g, math.inf, ("hello",)), r"pattern \('hello',\) has weight inf"),
    (lambda g: _with_pattern(g, True, ("hello",)), r"pattern \('hello',\) has weight True"),
    (lambda g: _with_realization(g, 1.0, (3,)), r"slot TOWN realization \(3,\) holds 3, "),
    (lambda g: _with_realization(g, "1", ("rome",)),
     r"slot TOWN realization \('rome',\) has weight '1'"),
    (lambda g: _with_realization(g, math.nan, ("rome",)),
     r"slot TOWN realization \('rome',\) has weight nan"),
    (lambda g: _with_pattern(g, 1.0, ()), r"bad pattern \(\)"),
    (lambda g: _with_pattern(g, 1.0, ("$NOWHERE",)), r"pattern references unknown slot \$NOWHERE"),
    (lambda g: dataclasses.replace(g, slots={**g.slots, "TOWN": SlotSpec("TOWN", ())}),
     "slot TOWN has no realizations"),
    (lambda g: _with_realization(g, 1.0, ()), "slot TOWN has an empty realization"),
    (lambda g: _with_pattern(g, 1.0, ("hello", "good day")),
     r"pattern \('hello', 'good day'\) holds 'good day', which is not a word"),
    (lambda g: _with_pattern(g, 1.0, ("hello", "")),
     r"pattern \('hello', ''\) holds '', which is not a word"),
    (lambda g: _with_realization(g, 1.0, ("saint\tmalo",)),
     r"slot TOWN realization \('saint\\tmalo',\) holds 'saint\\tmalo', which is not a word"),
    (lambda g: _with_realization(g, 1.0, ("",)),
     r"slot TOWN realization \('',\) holds '', which is not a word"),
], ids=["pattern-item", "pattern-weight-text", "pattern-weight-nan", "pattern-weight-inf",
        "pattern-weight-bool", "realization-word", "realization-weight-text",
        "realization-weight-nan", "pattern-empty", "pattern-unknown-slot",
        "slot-without-realizations", "realization-empty", "pattern-item-space",
        "pattern-item-empty", "realization-word-tab", "realization-word-empty"])
def test_validate_names_a_pattern_or_slot_entry_of_the_wrong_type(default_grammar, edit, match):
    grammar = edit(default_grammar)
    with pytest.raises(GrammarError, match=match):
        grammar.validate()
    with pytest.raises(GrammarError, match=match):
        generate_corpus(grammar, 5, 0)
