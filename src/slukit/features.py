"""Deterministic per-token features shared by the taggers and the
confidence estimator.

Families: the word itself, semantic categories, syntactic annotations
(lemma, POS, dependency relation, governor POS), morphological letter
n-grams with a capitalization flag, and the two discretized confidence
measures.  Every feature is a (family, value) pair whose string key is
namespaced by family, so keys never collide across families.
"""
from __future__ import annotations

from dataclasses import dataclass

from .corpus import PhraseTable, Token, Utterance

FAMILIES = frozenset({
    "surface", "sem_categories", "syntactic", "morphological", "pap", "mlp_conf",
})

ABSENT_VALUE = "absent"


class FeatureError(Exception):
    pass


@dataclass(frozen=True)
class FeatureVectorSpec:
    families: frozenset = FAMILIES
    bins: int = 10

    def __post_init__(self):
        unknown = self.families - FAMILIES
        if unknown:
            raise FeatureError(f"unknown feature families {sorted(unknown)}")
        if not self.families:
            raise FeatureError("at least one feature family must be enabled")
        if self.bins < 2:
            raise FeatureError(f"need >= 2 confidence bins, got {self.bins}")

    def without(self, *families) -> "FeatureVectorSpec":
        return FeatureVectorSpec(self.families - frozenset(families), self.bins)


@dataclass(frozen=True, slots=True)
class DiscreteFeature:
    family: str
    value: str

    @property
    def key(self) -> str:
        return f"{self.family}={self.value}"


class Lexicon:
    """Phrase -> semantic category table with longest-match lookup.

    File format: one entry per line, "phrase<TAB>CATEGORY"; multiword
    phrases allowed; repeated phrases accumulate categories.
    """

    def __init__(self, entries=()):
        self._table = PhraseTable()
        for phrase, cat in entries:
            self.add(phrase, cat)

    def add(self, phrase: str, category: str):
        key = PhraseTable.key(phrase)
        if not key:
            raise FeatureError("empty lexicon phrase")
        self._table.add(phrase, self._table.entries.get(key, frozenset()) | {category})

    def __len__(self):
        return len(self._table.entries)

    def lookup(self, word: str):
        return self._table.entries.get((word.lower(),), frozenset())

    def annotate(self, words):
        """Greedy longest-match category sets per position."""
        cats = [frozenset()] * len(words)
        for start, end, found in self._table.matches(words):
            if found is not None:
                cats[start:end] = [found] * (end - start)
        return cats

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key in sorted(self._table.entries):
                for cat in sorted(self._table.entries[key]):
                    fh.write(f"{' '.join(key)}\t{cat}\n")

    @classmethod
    def load(cls, path) -> "Lexicon":
        lex = cls()
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.rstrip("\n")
                if not line.strip():
                    continue
                try:
                    phrase, cat = line.split("\t")
                except ValueError as exc:
                    raise FeatureError(f"{path} line {lineno}: expected phrase<TAB>CATEGORY") from exc
                lex.add(phrase, cat)
        return lex


def morphological_features(token: Token):
    """1-to-4 letter prefixes and suffixes plus a first-letter-upper flag."""
    w = token.surface
    lower = w.lower()
    feats = {DiscreteFeature("cap", "1" if w[0].isupper() else "0")}
    for k in range(1, min(4, len(lower)) + 1):
        feats.add(DiscreteFeature("pre", lower[:k]))
        feats.add(DiscreteFeature("suf", lower[-k:]))
    return frozenset(feats)


def semantic_category_features(token: Token, lexicon: Lexicon | None = None):
    """Categories stored on the token plus single-word lexicon matches."""
    cats = set(token.sem_categories)
    if lexicon is not None:
        cats |= lexicon.lookup(token.surface)
    return frozenset(DiscreteFeature("cat", c) for c in cats)


def discretize_confidence(c: float, k: int, measure: str) -> DiscreteFeature:
    """Equal-width bin index for a confidence in [0,1]; 1.0 lands in the
    top bin so the key space is exactly {0..k-1}."""
    if not 0.0 <= c <= 1.0:
        raise FeatureError(f"confidence {c} outside [0,1]")
    if k < 2:
        raise FeatureError(f"need >= 2 bins, got {k}")
    idx = min(int(c * k), k - 1)
    return DiscreteFeature(f"conf_{measure}", str(idx))


def token_features(token: Token, spec: FeatureVectorSpec,
                   lexicon: Lexicon | None = None,
                   governor_pos: str | None = None):
    """Union of the enabled feature families for one token.

    Absent confidence values yield an explicit `absent` feature rather
    than a fabricated bin.  The governor POS (a syntactic feature that
    needs utterance context) is included when the caller supplies it;
    see `utterance_features`.
    """
    feats = set()
    if "surface" in spec.families:
        feats.add(DiscreteFeature("w", token.surface.lower()))
    if "sem_categories" in spec.families:
        feats |= semantic_category_features(token, lexicon)
    if "syntactic" in spec.families:
        feats.add(DiscreteFeature("lemma", (token.lemma or token.surface).lower()))
        feats.add(DiscreteFeature("pos", token.pos or ABSENT_VALUE))
        feats.add(DiscreteFeature("deprel", token.deprel or ABSENT_VALUE))
        if governor_pos is not None:
            feats.add(DiscreteFeature("govpos", governor_pos))
    if "morphological" in spec.families:
        feats |= morphological_features(token)
    if "pap" in spec.families:
        feats.add(discretize_confidence(token.pap, spec.bins, "pap")
                  if token.pap is not None else DiscreteFeature("conf_pap", ABSENT_VALUE))
    if "mlp_conf" in spec.families:
        feats.add(discretize_confidence(token.mlp_conf, spec.bins, "mlp")
                  if token.mlp_conf is not None else DiscreteFeature("conf_mlp", ABSENT_VALUE))
    return frozenset(feats)


def governor_pos_of(utt: Utterance, i: int) -> str:
    g = utt.tokens[i].governor
    if g is None:
        return "root"
    return utt.tokens[g].pos or ABSENT_VALUE


def utterance_features(utt: Utterance, spec: FeatureVectorSpec,
                       lexicon: Lexicon | None = None):
    """Per-position feature sets with governor POS resolved."""
    out = []
    for i, tok in enumerate(utt.tokens):
        gp = governor_pos_of(utt, i) if "syntactic" in spec.families else None
        out.append(token_features(tok, spec, lexicon=lexicon, governor_pos=gp))
    return out
