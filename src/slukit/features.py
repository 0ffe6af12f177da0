"""Deterministic per-token features shared by the taggers and the
confidence estimator.

`utterance_features(utt, spec)` gives each token a frozenset of
"prefix=value" string keys.  The families of `FAMILIES` emit these
prefixes:

    surface         w=         the word, lowercased
    sem_categories  cat=       the token's semantic category
    syntactic       lemma=     the lemma (the word if none), lowercased
                    pos=       the POS tag
                    deprel=    the dependency relation
                    govpos=    the governor's POS tag; "root" for the head
    morphological   cap=       1 if the word starts upper-case, else 0
                    pre=       each 1- to 4-letter prefix, lowercased
                    suf=       each 1- to 4-letter suffix, lowercased
    pap             conf_pap=  the PAP's bin, see `confidence_bin`
    mlp_conf        conf_mlp=  the MS-MLP confidence's bin

A missing annotation or confidence gives the value "absent" rather
than a fabricated one.  No prefix holds "=", so keys never collide
across prefixes.  A frozenset has no order: a consumer that needs one,
such as a feature index, must sort the keys.
"""
from __future__ import annotations

from dataclasses import dataclass

from .corpus import Utterance

FAMILIES = frozenset({
    "surface", "sem_categories", "syntactic", "morphological", "pap", "mlp_conf",
})

CONF_BINS = 10
_ABSENT = "absent"


class FeatureError(Exception):
    pass


@dataclass(frozen=True)
class FeatureVectorSpec:
    families: frozenset = FAMILIES

    def __post_init__(self):
        unknown = self.families - FAMILIES
        if unknown:
            raise FeatureError(f"unknown feature families {sorted(unknown)}")
        if not self.families:
            raise FeatureError("at least one feature family must be enabled")

    def without(self, *families) -> "FeatureVectorSpec":
        return FeatureVectorSpec(self.families - frozenset(families))


def confidence_bin(c: float | None) -> str:
    """Equal-width bin of a confidence in [0,1] out of CONF_BINS, as a
    string; 1.0 lands in the top bin, so the bins are exactly
    "0".."9", and None gives "absent"."""
    if c is None:
        return _ABSENT
    if not 0.0 <= c <= 1.0:
        raise FeatureError(f"confidence {c} outside [0,1]")
    return str(min(int(c * CONF_BINS), CONF_BINS - 1))


def utterance_features(utt: Utterance, spec: FeatureVectorSpec):
    """One frozenset of feature keys per token of `utt`."""
    fam = spec.families
    toks = utt.tokens
    out = []
    for tok in toks:
        lower = tok.surface.lower()
        feats = []
        if "surface" in fam:
            feats.append("w=" + lower)
        if "sem_categories" in fam and tok.sem_category is not None:
            feats.append("cat=" + tok.sem_category)
        if "syntactic" in fam:
            gov = "root" if tok.governor is None else toks[tok.governor].pos or _ABSENT
            feats += ["lemma=" + (tok.lemma or tok.surface).lower(),
                      "pos=" + (tok.pos or _ABSENT), "deprel=" + (tok.deprel or _ABSENT),
                      "govpos=" + gov]
        if "morphological" in fam:
            feats.append("cap=1" if tok.surface[0].isupper() else "cap=0")
            for k in range(1, min(4, len(lower)) + 1):
                feats += ["pre=" + lower[:k], "suf=" + lower[-k:]]
        if "pap" in fam:
            feats.append("conf_pap=" + confidence_bin(tok.pap))
        if "mlp_conf" in fam:
            feats.append("conf_mlp=" + confidence_bin(tok.mlp_conf))
        out.append(frozenset(feats))
    return out
