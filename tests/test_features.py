import hashlib
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slukit.corpus import Token, Utterance
from slukit.features import (CONF_BINS, FAMILIES, FeatureError, FeatureVectorSpec,
                             confidence_bin, utterance_features)
from slukit.grammar import annotate_words, default_grammar, generate_corpus

PREFIXES = frozenset({"w", "cat", "lemma", "pos", "deprel", "govpos", "cap", "pre", "suf",
                      "conf_pap", "conf_mlp"})


def _features(tokens, *families):
    """Feature keys per token of one utterance, with only `families` enabled."""
    spec = FeatureVectorSpec(frozenset(families)) if families else FeatureVectorSpec()
    return utterance_features(Utterance("u", tuple(tokens)), spec)


def _values(feats, prefix):
    return {k.partition("=")[2] for k in feats if k.partition("=")[0] == prefix}


def test_morphological_paris():
    (feats,) = _features([Token(surface="paris")], "morphological")
    assert _values(feats, "pre") == {"p", "pa", "par", "pari"}
    assert _values(feats, "suf") == {"s", "is", "ris", "aris"}
    assert _values(feats, "cap") == {"0"}


def test_morphological_capitalized():
    (feats,) = _features([Token(surface="Paris")], "morphological")
    assert _values(feats, "cap") == {"1"}
    assert _values(feats, "pre") == {"p", "pa", "par", "pari"}


def test_morphological_short_word():
    (feats,) = _features([Token(surface="ab")], "morphological")
    assert _values(feats, "pre") == {"a", "ab"}
    assert _values(feats, "suf") == {"b", "ab"}


def test_semantic_categories():
    g = default_grammar()
    for word, cats in [("paris", {"cat=TOWN"}), ("thirty-three", {"cat=FIGURE"}), ("zzz", set())]:
        assert _features(annotate_words([word], g), "sem_categories") == [cats]
    assert _features(annotate_words(["swimming", "pool", "in", "nice"], g), "sem_categories") == [
        {"cat=SERVICE"}, {"cat=SERVICE"}, set(), {"cat=TOWN"}]


def test_discretize_bounds():
    assert CONF_BINS == 10
    assert confidence_bin(0.0) == "0"
    assert confidence_bin(1.0) == "9"
    assert confidence_bin(0.55) == "5"
    assert confidence_bin(None) == "absent"
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(FeatureError):
            confidence_bin(bad)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_discretize_monotone(c1, c2):
    lo, hi = sorted((c1, c2))
    assert int(confidence_bin(lo)) <= int(confidence_bin(hi))


def test_spec_validation():
    with pytest.raises(FeatureError):
        FeatureVectorSpec(families=frozenset())
    with pytest.raises(FeatureError):
        FeatureVectorSpec(families=frozenset({"bogus"}))
    with pytest.raises(FeatureError):
        FeatureVectorSpec().without(*FAMILIES)
    assert FeatureVectorSpec().without("pap").families == FAMILIES - {"pap"}


def test_utterance_features_surface_only():
    assert _features([Token(surface="Paris")], "surface") == [{"w=paris"}]


def test_utterance_features_all_families():
    utt = Utterance("u", annotate_words(["want", "Paris"], default_grammar()))
    utt = utt.with_column("pap", [0.3, 0.92])
    head, paris = _features(utt.tokens)
    assert "govpos=root" in head and "conf_pap=3" in head
    assert paris == {"w=paris", "cat=TOWN", "lemma=paris", "pos=PROPN", "deprel=nmod",
                     "govpos=VERB", "cap=1", "pre=p", "pre=pa", "pre=par", "pre=pari",
                     "suf=s", "suf=is", "suf=ris", "suf=aris", "conf_pap=9",
                     "conf_mlp=absent"}


def test_absent_confidence_is_explicit():
    assert _features([Token(surface="x")], "pap", "mlp_conf") == [
        {"conf_pap=absent", "conf_mlp=absent"}]


def test_extraction_is_pure():
    tokens = [Token(surface="paris", pos="PROPN")]
    assert _features(tokens) == _features(tokens)


def test_feature_keys_collision_free_over_corpus():
    seen = set()
    for u in generate_corpus(default_grammar(), 100, 3):
        for feats in utterance_features(u, FeatureVectorSpec()):
            assert all(type(k) is str for k in feats)
            seen |= {k.partition("=")[0] for k in feats}
    assert seen == PREFIXES
    assert not any("=" in p for p in PREFIXES)


# confidences cycled over the tokens, with both ends of [0,1] and None
_CONF_CYCLE = (0.0, 0.05, 0.1, 0.35, 0.5, 0.95, 0.999, 1.0, None)
# sha256 of every token's sorted keys on this corpus, pinned so that no
# rewrite of `utterance_features` changes a key set unnoticed
_GOLDEN_KEYS_SHA256 = "5fed49d5590435df22ddfb3ca2a4ca76e7eb10be6a70ac07de280ed2b249ad04"


def test_feature_keys_golden_digest():
    digest = hashlib.sha256()
    n = 0
    for u in generate_corpus(default_grammar(), 200, 3):
        idx = range(n, n + len(u.tokens))
        n += len(u.tokens)
        u = u.with_column("pap", [_CONF_CYCLE[j % 9] for j in idx])
        u = u.with_column("mlp_conf", [_CONF_CYCLE[4 * j % 9] for j in idx])
        for feats in utterance_features(u, FeatureVectorSpec()):
            digest.update(("\t".join(sorted(feats)) + "\n").encode("utf-8"))
    assert n == 1370
    assert digest.hexdigest() == _GOLDEN_KEYS_SHA256
