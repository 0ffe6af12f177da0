"""Synthetic touristic-domain grammar: corpus generation and annotation.

The generator stands in for a licensed human/computer dialogue corpus.
Realism of the distribution is not a goal; what matters is that every
concept has enough support to train on, that values are recoverable by
lexicon lookup, and that some concepts (REFERENCE, CONNECTOR) are
carried by short confusable word sequences that also occur as plain
filler.  Annotation (POS, lemma, governor, dependency relation,
semantic categories) is rule-based and applied to any word sequence, so
recognizer hypotheses get re-annotated the same way reference text is.
"""
from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from functools import cached_property

from .corpus import Dataset, PhraseTable, Token, Utterance
from .numutil import derived_seed


class GrammarError(Exception):
    """Raised for unusable grammar configurations."""


@dataclass(frozen=True)
class SlotSpec:
    concept: str
    realizations: tuple  # of (weight, words tuple)


@dataclass(frozen=True)
class DomainGrammar:
    patterns: tuple  # of (weight, items tuple); items are words or "$SLOT"
    slots: dict
    categories: dict       # phrase -> semantic category
    values: dict           # phrase -> normalized value
    word_pos: dict
    lemmas: dict = field(default_factory=dict)
    insertion_words: tuple = ()
    extra_vocab: tuple = ()  # recognizer-only words (confusion candidates)

    def validate(self):
        if not self.patterns:
            raise GrammarError("grammar has no patterns")
        if not self.slots:
            raise GrammarError("grammar has no slots")
        for w, items in self.patterns:
            if w <= 0 or not items:
                raise GrammarError(f"bad pattern {items!r}")
            for item in items:
                if item.startswith("$") and item[1:] not in self.slots:
                    raise GrammarError(f"pattern references unknown slot {item}")
        for name, slot in self.slots.items():
            if not slot.realizations:
                raise GrammarError(f"slot {name} has no realizations")
            for w, words in slot.realizations:
                if w <= 0 or not words:
                    raise GrammarError(f"slot {name} has an empty realization")

    @cached_property
    def category_table(self) -> PhraseTable:
        """`categories` as a phrase table, built on first use (so later
        changes to `categories` are not seen)."""
        return PhraseTable(self.categories.items())

    def vocabulary(self):
        """Words the clean generator can emit."""
        words = set(self.insertion_words)
        for _, items in self.patterns:
            words.update(it for it in items if not it.startswith("$"))
        for slot in self.slots.values():
            for _, phrase in slot.realizations:
                words.update(phrase)
        return sorted(words)

    def asr_vocabulary(self):
        """Every word a recognizer hypothesis may contain."""
        return sorted(set(self.vocabulary()) | set(self.extra_vocab))

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "DomainGrammar":
        """The grammar `to_json` wrote.  Raises GrammarError for text that
        is not JSON, a missing key (named) and a value of the wrong type."""
        try:
            doc = json.loads(text)
            g = cls(
                slots={name: SlotSpec(spec["concept"],
                                      tuple((w, tuple(ph)) for w, ph in spec["realizations"]))
                       for name, spec in doc["slots"].items()},
                patterns=tuple((w, tuple(items)) for w, items in doc["patterns"]),
                categories=dict(doc["categories"]),
                values=dict(doc["values"]),
                word_pos=dict(doc["word_pos"]),
                lemmas=dict(doc.get("lemmas", {})),
                insertion_words=tuple(doc.get("insertion_words", ())),
                extra_vocab=tuple(doc.get("extra_vocab", ())),
            )
            g.validate()
        except KeyError as exc:
            raise GrammarError(f"grammar JSON lacks key {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:  # ValueError: not JSON
            raise GrammarError(f"grammar JSON is malformed: {exc}") from exc
        return g


# ---------------------------------------------------------------------------
# Default grammar data
# ---------------------------------------------------------------------------

_TOWNS = ("paris", "lyon", "marseille", "toulouse", "nice", "bordeaux",
          "lille", "nantes", "brest", "tours")
_HOTELS = ("ibis", "novotel", "hilton", "campanile", "mercure")
_MONTHS = ("january", "february", "march", "april", "may", "june",
           "july", "august", "september", "october", "november", "december")
_SERVICES = ("parking", "wifi", "breakfast", "sauna", "swimming pool",
             "air conditioning")

_NUMBER_VALUES = {
    "one": "1", "two": "2", "three": "3", "four": "4", "five": "5",
    "six": "6", "seven": "7", "eight": "8", "nine": "9", "ten": "10",
    "eleven": "11", "twelve": "12", "fifteen": "15", "twenty": "20",
    "thirty": "30", "forty": "40", "fifty": "50",
    "twenty one": "21", "twenty five": "25", "thirty three": "33",
    "forty five": "45", "fifty five": "55", "thirty-three": "33",
}

_DAYS = ("five", "twelve", "twenty one", "thirty")


def _date_realizations():
    real = []
    for month in _MONTHS[:8]:
        for day in _DAYS:
            real.append((1.0, (month,) + tuple(day.split())))
    real.append((6.0, ("tomorrow",)))
    real.append((4.0, ("tonight",)))
    return tuple(real)


def _uniform(words):
    return tuple((1.0, tuple(w.split())) for w in words)


_SLOTS = {
    "TOWN": SlotSpec("TOWN", _uniform(_TOWNS)),
    "HOTEL": SlotSpec("HOTEL", _uniform(_HOTELS)),
    "DATE": SlotSpec("DATE", _date_realizations()),
    "NBROOM": SlotSpec("ROOM-COUNT", _uniform(("one", "two", "three", "four", "five"))),
    "NBPERSON": SlotSpec("PERSON-COUNT", _uniform(
        ("two", "three", "four", "six", "ten", "fifteen", "twenty five", "thirty three"))),
    "NBNIGHT": SlotSpec("NIGHT-COUNT", _uniform(
        ("one", "two", "three", "five", "seven", "ten"))),
    "PRICE": SlotSpec("PRICE", _uniform(
        ("twenty euros", "thirty euros", "forty five euros",
         "fifty euros", "fifty five euros", "eighty euros"))),
    "SERVICE": SlotSpec("HOTEL-SERVICE", _uniform(_SERVICES)),
    "ANSWER": SlotSpec("ANSWER", _uniform(("yes", "no", "yeah", "nope"))),
    "REF": SlotSpec("REFERENCE", _uniform(("this one", "that one", "the same", "it"))),
    "CONN": SlotSpec("CONNECTOR", _uniform(("and", "then", "with"))),
}

_PATTERNS = (
    (3.0, ("hello", "euh", "i", "would", "like", "to", "book", "a", "room", "in", "$TOWN")),
    (2.0, ("hi", "i", "want", "a", "room", "in", "$TOWN", "from", "$DATE")),
    (2.0, ("i", "need", "$NBROOM", "rooms", "for", "$NBPERSON", "people")),
    (2.0, ("we", "would", "like", "to", "stay", "$NBNIGHT", "nights", "near", "$TOWN")),
    (2.0, ("is", "there", "$SERVICE", "in", "the", "$HOTEL")),
    (2.0, ("$ANSWER", "please")),
    (1.5, ("$ANSWER", "thank", "you")),
    (2.0, ("i", "would", "pay", "about", "$PRICE")),
    (2.0, ("a", "room", "in", "$TOWN", "$CONN", "a", "car", "in", "$TOWN")),
    (1.5, ("book", "the", "$HOTEL", "in", "$TOWN", "$CONN", "$SERVICE")),
    (1.5, ("i", "take", "$REF",)),
    (1.5, ("$REF", "is", "good", "for", "me")),
    (1.0, ("okay", "well", "$REF", "then")),
    (1.5, ("and", "what", "about", "the", "price")),
    (1.0, ("hello", "good", "morning")),
    (1.5, ("i", "think", "that", "is", "okay")),
    (1.5, ("how", "much", "is", "it")),
    (2.0, ("from", "$DATE", "to", "$DATE")),
    (1.5, ("euh", "we", "are", "$NBPERSON", "people")),
    (1.5, ("the", "price", "for", "$NBNIGHT", "nights", "please")),
    (1.5, ("a", "room", "with", "$SERVICE", "for", "$DATE")),
    (1.0, ("do", "you", "have", "a", "room", "at", "the", "$HOTEL")),
    (1.5, ("i", "would", "like", "$SERVICE", "$CONN", "$SERVICE")),
    (1.0, ("$ANSWER", "i", "said", "$TOWN", "not", "$TOWN")),
    (1.0, ("what", "is", "the", "price", "at", "the", "$HOTEL", "in", "$TOWN")),
    (1.0, ("good", "evening", "i", "am", "looking", "for", "a", "cheap", "hotel", "in", "$TOWN")),
    (1.0, ("hello", "i", "would", "like", "to", "book", "$NBROOM", "rooms", "in", "$TOWN",
           "from", "$DATE", "to", "$DATE", "for", "$NBPERSON", "people")),
)


def _default_categories():
    cats = {}
    for t in _TOWNS:
        cats[t] = "TOWN"
    for h in _HOTELS:
        cats[h] = "HOTEL"
    for m in _MONTHS:
        cats[m] = "MONTH"
    for s in _SERVICES:
        cats[s] = "SERVICE"
    for num in _NUMBER_VALUES:
        cats[num] = "FIGURE"
    cats["eighty"] = "FIGURE"
    cats["tomorrow"] = "DAY"
    cats["tonight"] = "DAY"
    return cats


def _default_values():
    values = dict(_NUMBER_VALUES)
    values["yeah"] = "yes"
    values["nope"] = "no"
    values["eighty"] = "80"
    return values


_POS_GROUPS = {
    "PROPN": _TOWNS + _HOTELS,
    "NUM": tuple(w for num in _NUMBER_VALUES for w in num.replace("-", " ").split())
           + ("eighty",),
    "NOUN": _MONTHS + ("tomorrow", "tonight", "room", "rooms", "people", "person",
                       "nights", "night", "price", "car", "morning", "evening",
                       "hotel", "euros", "parking", "wifi", "breakfast", "sauna",
                       "swimming", "pool", "air", "conditioning"),
    "VERB": ("like", "want", "need", "book", "reserve", "stay", "pay", "take",
             "think", "said", "have", "looking"),
    "AUX": ("would", "is", "are", "am", "do"),
    "PRON": ("i", "we", "you", "me", "it", "this", "that", "what", "same"),
    "DET": ("a", "the", "my"),
    "ADP": ("to", "in", "at", "near", "from", "of", "for", "with", "about", "until"),
    "CCONJ": ("and",),
    "ADV": ("then", "not", "there", "well", "how"),
    "ADJ": ("good", "cheap", "sorry", "next", "much"),
    "INTJ": ("hello", "hi", "okay", "euh", "uh", "hmm", "please", "thank",
             "thanks", "yes", "no", "yeah", "nope"),
}

# words only a recognizer can produce, with their POS
_EXTRA_POS = {
    "two": "NUM", "too": "ADV", "four": "NUM", "or": "CCONJ", "won": "VERB",
    "own": "ADJ", "tree": "NOUN", "free": "ADJ", "dirty": "ADJ",
    "thirsty": "ADJ", "plenty": "NOUN", "fine": "ADJ", "hive": "NOUN",
    "wine": "NOUN", "mine": "PRON", "an": "DET", "end": "NOUN", "inn": "NOUN",
    "hat": "NOUN", "ferris": "PROPN", "parish": "NOUN", "lion": "NOUN",
    "young": "ADJ", "mice": "NOUN", "marsh": "NOUN", "loose": "ADJ",
    "border": "NOUN", "little": "ADJ", "ants": "NOUN", "rest": "NOUN",
    "tour": "NOUN", "doors": "NOUN", "broom": "NOUN", "roam": "VERB",
    "brooms": "NOUN", "knight": "NOUN", "knights": "NOUN", "lights": "NOUN",
    "cook": "VERB", "look": "VERB", "guess": "VERB", "yet": "ADV",
    "know": "VERB", "now": "ADV", "year": "NOUN", "eat": "VERB",
    "these": "PRON", "miss": "VERB", "than": "ADP", "which": "PRON",
    "wish": "VERB", "match": "NOUN", "arch": "NOUN", "moon": "NOUN",
    "noon": "NOUN", "duly": "ADV", "barking": "NOUN", "hifi": "NOUN",
    "fast": "ADJ", "sun": "NOUN", "zeros": "NOUN", "heroes": "NOUN",
    "purple": "ADJ", "yellow": "ADJ", "say": "VERB", "day": "NOUN",
    "play": "VERB", "here": "ADV", "ear": "NOUN", "form": "NOUN",
    "once": "ADV", "light": "NOUN", "bike": "NOUN", "tan": "NOUN",
}

DEFAULT_CONFUSIONS = {
    "to": ("two", "too"), "two": ("to", "too"), "too": ("to", "two"),
    "for": ("four", "or"), "four": ("for", "or"),
    "one": ("won", "own"), "three": ("tree", "free"),
    "five": ("fine", "hive"), "nine": ("wine", "mine"),
    "ten": ("tan", "then"), "then": ("ten", "than"),
    "twenty": ("plenty",), "thirty": ("dirty", "thirsty"),
    "and": ("an", "end"), "in": ("inn", "an"), "at": ("that", "hat"),
    "a": ("uh", "the"), "the": ("a", "uh"),
    "paris": ("ferris", "parish"), "lyon": ("lion", "young"),
    "nice": ("mice", "night"), "marseille": ("marsh",),
    "toulouse": ("loose",), "bordeaux": ("border",), "lille": ("little",),
    "nantes": ("ants",), "brest": ("rest",), "tours": ("tour", "doors"),
    "room": ("broom", "roam"), "rooms": ("brooms",),
    "night": ("nice", "knight"), "nights": ("knights", "lights"),
    "book": ("cook", "look"), "yes": ("guess", "yet"), "no": ("know", "now"),
    "yeah": ("year",), "it": ("eat", "is"), "this": ("these", "miss"),
    "that": ("hat", "than"), "with": ("which", "wish"),
    "march": ("match", "arch"), "june": ("moon", "noon"), "july": ("duly",),
    "parking": ("barking",), "wifi": ("hifi",), "breakfast": ("fast",),
    "sauna": ("sun",), "euros": ("zeros", "heroes"),
    "people": ("purple", "steeple"), "hello": ("yellow",),
    "stay": ("say", "day"), "pay": ("play", "day"),
    "near": ("here", "ear"), "from": ("form",), "want": ("once",),
    "like": ("light", "bike"),
}

_LEMMAS = {
    "rooms": "room", "nights": "night", "people": "person", "euros": "euro",
    "brooms": "broom", "knights": "knight", "lights": "light",
    "doors": "door", "zeros": "zero", "heroes": "hero", "ants": "ant",
    "said": "say", "looking": "look", "are": "be", "is": "be", "am": "be",
    "these": "this",
}

_DEPREL_BY_POS = {
    "VERB": "xcomp", "AUX": "aux", "NOUN": "obj", "PROPN": "nmod",
    "NUM": "nummod", "ADP": "case", "DET": "det", "PRON": "nsubj",
    "CCONJ": "cc", "ADV": "advmod", "ADJ": "amod", "INTJ": "discourse",
    "X": "dep",
}

DEFAULT_INSERTIONS = ("euh", "uh", "a", "the", "and", "to", "of", "it", "is")


def default_grammar() -> DomainGrammar:
    word_pos = {}
    for pos, words in _POS_GROUPS.items():
        for w in words:
            word_pos[w] = pos
    word_pos.update(_EXTRA_POS)
    word_pos["steeple"] = "NOUN"
    word_pos["thirty-three"] = "NUM"
    g = DomainGrammar(
        patterns=_PATTERNS,
        slots=dict(_SLOTS),
        categories=_default_categories(),
        values=_default_values(),
        word_pos=word_pos,
        lemmas=dict(_LEMMAS),
        insertion_words=DEFAULT_INSERTIONS,
        extra_vocab=tuple(sorted(set(_EXTRA_POS) | {"steeple"})),
    )
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Annotation
# ---------------------------------------------------------------------------

def annotate_words(words, grammar: DomainGrammar, labels=None):
    """Build fully annotated tokens for any word sequence.

    The dependency layer is deliberately shallow: the first verb (or
    the first token) heads the utterance and every other token attaches
    to it with a POS-typed relation.  POS and lemma are looked up
    lowercased, as categories are matched; an unknown word's lemma is
    its lowercased form.
    """
    lowered = [w.lower() for w in words]
    pos = [grammar.word_pos.get(w, "X") for w in lowered]
    head = next((i for i, p in enumerate(pos) if p == "VERB"), 0)
    cats = [frozenset()] * len(words)
    for start, end, cat in grammar.category_table.matches(words):
        if cat is not None:
            cats[start:end] = [frozenset((cat,))] * (end - start)
    tokens = []
    for i, w in enumerate(words):
        tokens.append(Token(
            surface=w,
            # an unknown lowercase word is its own lemma, the same object
            lemma=grammar.lemmas.get(lowered[i], w if lowered[i] == w else lowered[i]),
            pos=pos[i],
            governor=None if i == head else head,
            deprel="root" if i == head else _DEPREL_BY_POS.get(pos[i], "dep"),
            sem_categories=cats[i],
            label=None if labels is None else labels[i],
        ))
    return tuple(tokens)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _weighted_choice(rng, pairs):
    weights = [w for w, _ in pairs]
    return rng.choices(pairs, weights=weights, k=1)[0][1]


def _instantiate(grammar: DomainGrammar, rng) -> tuple:
    items = _weighted_choice(rng, grammar.patterns)
    words, labels = [], []
    for item in items:
        if item.startswith("$"):
            slot = grammar.slots[item[1:]]
            phrase = _weighted_choice(rng, slot.realizations)
            for k, w in enumerate(phrase):
                words.append(w)
                labels.append(("B-" if k == 0 else "I-") + slot.concept)
        else:
            words.append(item)
            labels.append("null")
    return words, labels


def generate_corpus(grammar: DomainGrammar, n: int, seed: int) -> Dataset:
    """Sample n annotated, concept-labelled utterances, reproducibly.

    Utterance i depends only on (seed, i), so any prefix of a larger
    corpus equals the smaller corpus generated with the same seed.
    """
    grammar.validate()
    if n < 1:
        raise GrammarError(f"need n >= 1 utterances, got {n}")
    utterances = []
    for i in range(n):
        rng = random.Random(derived_seed("gen", seed, i))
        words, labels = _instantiate(grammar, rng)
        tokens = annotate_words(words, grammar, labels=labels)
        utterances.append(Utterance(f"g{seed}-{i:05d}", tokens))
    return Dataset(tuple(utterances))
