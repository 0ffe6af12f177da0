import dataclasses
import gc
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from slukit import alignment
from slukit.alignment import (DEL, EPS, INS, MATCH, SUB, AlignmentError,
                              ConfusionNetwork, NBest, NoiseConfig, align, attach_pap,
                              build_cn, corrupt, decode_nbest, pap_of, project_labels,
                              read_nbest, write_cn, write_nbest)
from slukit.corpus import (NULL_LABEL, Dataset, ParseError, SchemaError, Token, Utterance,
                           write_dataset)
from slukit.grammar import annotate_words

from helpers import (brute_force_edit_cost, cn_bins, cn_from_bins, reference_align,
                     reference_build_cn, reference_corrupt, reference_decode_nbest, utt)

words_st = st.lists(st.sampled_from("abcde"), min_size=0, max_size=6)
# few symbols, so that equal-cost alignments (ties) are common
tie_words_st = st.lists(st.sampled_from("ab"), max_size=7)
# the (label, value) segments CER/CVER align
segments_st = st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("pq")), max_size=7)


def test_align_identity():
    a = align(["x"], ["x"])
    assert a.cost == 0 and [op for op, _, _ in a.ops] == [MATCH]


def test_align_deletion():
    a = align(list("abc"), list("ac"))
    assert a.cost == 1
    assert [op for op, _, _ in a.ops] == [MATCH, DEL, MATCH]


@given(words_st, words_st)
def test_align_matches_brute_force(ref, hyp):
    a = align(ref, hyp)
    assert a.cost == brute_force_edit_cost(ref, hyp)
    # indices appear exactly once, in order
    ref_idx = [i for _, i, _ in a.ops if i is not None]
    hyp_idx = [j for _, _, j in a.ops if j is not None]
    assert ref_idx == list(range(len(ref)))
    assert hyp_idx == list(range(len(hyp)))
    for op, i, j in a.ops:
        if op == MATCH:
            assert ref[i] == hyp[j]
        elif op == SUB:
            assert ref[i] != hyp[j]


# at the last cell of "bab" -> "aba" a deletion and an insertion tie and
# substituting costs more, so only the rank order decides
@example((list("bab"), list("aba")))
# a shared prefix is not a shortcut: the full table matches the "a" to
# hyp[1], not hyp[0]
@example((["a"], ["a", "a"]))
# the shared suffix "b" leaves "a" against "ba": an insertion, then a match
@example((list("ab"), list("bab")))
# all suffix; and no table at all
@example((list("abba"), list("abba")))
@example(([], list("ab")))
@example((list("ab"), []))
@given(st.one_of(st.tuples(tie_words_st, tie_words_st), st.tuples(segments_st, segments_st)))
def test_align_matches_reference_tie_break(pair):
    ref, hyp = pair
    a, expected = align(ref, hyp), reference_align(ref, hyp)
    assert a.ops == expected.ops
    assert a.cost == expected.cost


# lanes of unequal lengths, empty ones too, that repeat words and hold
# "z", which no ref holds
lane_words_st = st.lists(st.sampled_from("abcz"), max_size=10)


# the long all-match lane carries out of its top bit into its guard on
# row 1; the all-mismatch lanes around it must not see that carry
@example(list("aaa"), [list("zz"), list("aaaaaaaa"), list("zzz"), [], list("z")])
@given(st.lists(st.sampled_from("abc"), max_size=8),
       st.lists(lane_words_st, min_size=1, max_size=6))
def test_align_each_matches_reference(ref, hyps):
    alignments = alignment._align_each(ref, hyps)
    assert len(alignments) == len(hyps)
    for hyp, a in zip(hyps, alignments):
        expected = reference_align(ref, hyp)
        assert a.ops == expected.ops
        assert a.cost == expected.cost


@given(words_st, words_st)
def test_wer_relabel_invariance(ref, hyp):
    # the edit cost S + D + I, WER's numerator, depends only on which words are equal
    mapping = {c: f"tok-{c}" for c in "abcde"}
    assert align(ref, hyp).cost == align([mapping[w] for w in ref],
                                         [mapping[w] for w in hyp]).cost


def test_noise_config_invariants():
    with pytest.raises(AlignmentError):
        NoiseConfig(sub_rate=0.0, del_rate=1.0, ins_rate=0.0)
    with pytest.raises(AlignmentError):
        NoiseConfig(sub_rate=0.6, del_rate=0.3, ins_rate=0.2)
    with pytest.raises(AlignmentError, match=r"nbest_correlation outside \[0,1\]"):
        NoiseConfig(nbest_correlation=1.5)
    assert NoiseConfig().target_wer == pytest.approx(23.8)


def test_noise_config_hashes(noise_config):
    # a pipeline config holds a confusion dict, which has no hash
    twin = dataclasses.replace(noise_config, confusions=dict(noise_config.confusions))
    assert twin == noise_config and hash(twin) == hash(noise_config)
    assert {noise_config, twin} == {noise_config}
    assert dataclasses.replace(noise_config, confusions={}) != noise_config


def test_corrupt_zero_rates_is_identity(small_corpus, noise_config):
    cfg = dataclasses.replace(noise_config, sub_rate=0.0, del_rate=0.0, ins_rate=0.0)
    for u in small_corpus.utterances[:10]:
        hyp = corrupt(u, cfg)
        assert hyp.surfaces() == u.surfaces()
        assert all(t.error_flag == "correct" for t in hyp.tokens)


def test_corrupt_deterministic_and_flags_follow_alignment(small_corpus, noise_config):
    for u in small_corpus.utterances[:20]:
        h1, h2 = corrupt(u, noise_config), corrupt(u, noise_config)
        assert h1 == h2
        ali = align(u.surfaces(), h1.surfaces())
        matched = {j for op, _, j in ali.ops if op == MATCH}
        for j, t in enumerate(h1.tokens):
            assert (t.error_flag == "correct") == (j in matched)


def test_channel_cost_is_at_most_the_events_drawn(small_corpus, noise_config):
    # minimal alignment may score an adjacent deletion and insertion as one
    # substitution, so only the total is bounded, not S, D or I alone
    for u in small_corpus.utterances:
        words = u.surfaces()
        primary = alignment._draw(words, noise_config, u.id, 0)
        for k in range(4):
            decisions, inserts, _, hyp = (alignment._draw(words, noise_config, u.id, k, primary)
                                          if k else primary)
            events = (sum(kind != "keep" for kind, _ in decisions)
                      + sum(ins is not None for ins in inserts))
            assert align(words, hyp).cost <= events


def test_decode_nbest_pivot_is_primary_draw(small_corpus, noise_config):
    for u in small_corpus.utterances[:10]:
        nbest = decode_nbest(u, noise_config, 6)
        assert list(nbest[0][1]) == list(corrupt(u, noise_config).surfaces())


# channel configs: rates that may be 0, correlation 0, 1 or between, and
# confusions that may be absent or empty, so that the vocabulary, or with
# none a trailing "'", stands in
_rate = st.sampled_from([0.0, 0.3]) | st.floats(0.0, 0.33)
_channel_words = st.sampled_from(["a", "b", "c", "d"])
channel_configs = st.builds(
    NoiseConfig, sub_rate=_rate, del_rate=_rate, ins_rate=_rate,
    confusions=st.none() | st.dictionaries(_channel_words,
                                           st.lists(_channel_words, max_size=2).map(tuple)),
    vocabulary=st.just(()) | st.lists(_channel_words, min_size=1, max_size=3).map(tuple),
    insertion_words=st.just(()) | st.lists(_channel_words, min_size=1, max_size=2).map(tuple),
    seed=st.integers(0, 2**32),
    nbest_correlation=st.just(0.0) | st.just(1.0) | st.floats(0.0, 1.0))


# every word substituted with neither confusions nor vocabulary; with
# the vocabulary less the word; every word deleted, so "euh" is emitted
@example(NoiseConfig(sub_rate=0.9, del_rate=0.0, ins_rate=0.0), "u", ["a", "b"], 3)
@example(NoiseConfig(sub_rate=0.9, del_rate=0.0, ins_rate=0.0, vocabulary=("a", "b")),
         "u", ["a", "b", "a"], 3)
@example(NoiseConfig(sub_rate=0.0, del_rate=0.9, ins_rate=0.0), "u", ["a"], 3)
@given(channel_configs, st.text(alphabet="uv0", min_size=1, max_size=3),
       st.lists(_channel_words, min_size=1, max_size=8), st.integers(1, 6))
def test_channel_matches_reference(cfg, uid, words, n):
    u = utt(uid, words)
    nbest = decode_nbest(u, cfg, n)
    expected = reference_decode_nbest(u, cfg, n)
    assert list(nbest.weights) == [weight for weight, _ in expected]
    assert [list(hyp) for _, hyp in nbest] == [hyp for _, hyp in expected]
    assert corrupt(u, cfg) == reference_corrupt(u, cfg)


def _stages_2_3(utterances, cfg):
    out = {}
    for u in utterances:
        nbest = decode_nbest(u, cfg, 5)
        out[u.id] = (corrupt(u, cfg), nbest, build_cn(nbest))
    return out


def test_channel_and_cn_do_not_depend_on_corpus_order(small_corpus, noise_config):
    # every draw is keyed by (seed, utterance id), so a corpus processed
    # backwards or in two shards gives each utterance the same results
    utts = small_corpus.utterances
    forward = _stages_2_3(utts, noise_config)
    assert _stages_2_3(utts[::-1], noise_config) == forward
    half = len(utts) // 2
    assert {**_stages_2_3(utts[half:], noise_config),
            **_stages_2_3(utts[:half], noise_config)} == forward


_WRITE_FILES = """
import sys
from slukit import alignment, grammar
g = grammar.default_grammar()
cfg = alignment.NoiseConfig(confusions=grammar.DEFAULT_CONFUSIONS,
                            vocabulary=tuple(g.asr_vocabulary()),
                            insertion_words=grammar.DEFAULT_INSERTIONS, seed=5)
per_utt = [(u.id, alignment.decode_nbest(u, cfg, 8))
           for u in grammar.generate_corpus(g, 200, 5)]
alignment.write_nbest(sys.argv[1] + "/hyp.nbest", per_utt)
alignment.write_cn(sys.argv[1] + "/hyp.cn", [(uid, alignment.build_cn(nb)) for uid, nb in per_utt])
"""


def test_nbest_and_cn_files_do_not_depend_on_hash_seed(tmp_path):
    src = str(Path(alignment.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", _WRITE_FILES, str(out)], env=env, check=True)
        outputs.append([(out / name).read_bytes() for name in ("hyp.nbest", "hyp.cn")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("zero", [("sub_rate",), ("del_rate",), ("ins_rate",),
                                  ("sub_rate", "del_rate", "ins_rate")])
def test_decode_nbest_zero_rate_weights(monkeypatch, small_corpus, noise_config, zero):
    # every weight is the product of the rates of the events drawn for it;
    # an event of rate 0 is never drawn, so no weight is 0 and no log(0) is taken
    cfg = dataclasses.replace(noise_config, **{name: 0.0 for name in zero})
    rate = {"del": cfg.del_rate, "sub": cfg.sub_rate, "keep": 1.0 - cfg.sub_rate - cfg.del_rate}
    drawn = []
    real = alignment._draw
    monkeypatch.setattr(alignment, "_draw",
                        lambda *args: drawn.append(real(*args)) or drawn[-1])
    for u in small_corpus.utterances[:20]:
        drawn.clear()
        nbest = decode_nbest(u, cfg, 5)
        assert len(drawn) == len(nbest)
        for (weight, _), (dec, ins, _, _) in zip(nbest, drawn):
            expected = math.prod([rate[d[0]] for d in dec]
                                 + [1.0 - cfg.ins_rate if w is None else cfg.ins_rate for w in ins])
            assert math.isfinite(weight) and weight > 0
            assert weight == pytest.approx(expected, rel=1e-12)


def test_nbest_slices_stay_nbest_lists(small_corpus, noise_config):
    nbest = decode_nbest(small_corpus.utterances[0], noise_config, 10)
    assert _typecodes(nbest) == ("d", "B", "B") and _at_final_size(nbest)
    head = NBest.from_pairs(list(nbest)[:3])
    assert _at_final_size(head)
    assert list(head) == list(nbest)[:3]
    # a list built from another's entries keeps its word strings
    assert all(any(w is v for v in nbest.vocab) for w in head.vocab)


def _typecodes(nb):
    """The typecodes of an `NBest`'s arrays, as its docstring states them:
    ids take one byte for a vocabulary of at most 256 words, else four,
    and ends one byte for at most 255 ids, else four."""
    return nb.weights.typecode, nb.ids.typecode, nb.ends.typecode


def _at_final_size(nb):
    """Each array column of `nb` is allocated at its size, as one made
    from a list is, not grown entry by entry."""
    return all(sys.getsizeof(col) == sys.getsizeof(array(col.typecode, list(col)))
               for col in (nb.weights, nb.ids, nb.ends))


def test_corrupt_shares_equal_tokens(small_corpus, noise_config):
    first = {}  # (surface, error_flag) -> (the first token, its utterance)
    across = 0
    for u in small_corpus.utterances:
        for tok in corrupt(u, noise_config).tokens:
            shared, uid = first.setdefault((tok.surface, tok.error_flag), (tok, u.id))
            assert tok is shared
            across += uid != u.id
    assert across > 0


def _rebuilt(columns):
    """`columns` (an NBest or ConfusionNetwork) rebuilt through the public
    constructor, which checks every rule of its class."""
    return type(columns)(*(getattr(columns, f.name) for f in dataclasses.fields(columns)))


def test_build_cn_single_hypothesis():
    cn = build_cn(NBest.from_pairs([(1.0, ["a", "b"])]))
    assert cn_bins(cn) == ((("a", 1.0),), (("b", 1.0),))


def test_build_cn_symmetric_pair():
    cn = build_cn(NBest.from_pairs([(0.5, ["a", "b"]), (0.5, ["a", "c"])]))
    assert cn_bins(cn)[0] == (("a", 1.0),)
    assert dict(cn_bins(cn)[1]) == {"b": 0.5, "c": 0.5}


def test_build_cn_against_positional_count_oracle():
    # equal-length hypotheses differ per position, so alignment is
    # positional and posteriors must equal weighted counts
    hyps = [
        (0.4, ["a", "b", "c"]),
        (0.3, ["a", "x", "c"]),
        (0.2, ["a", "b", "y"]),
        (0.1, ["z", "b", "c"]),
    ]
    cn = build_cn(NBest.from_pairs(hyps))
    total = sum(w for w, _ in hyps)
    for pos in range(3):
        counts = {}
        for w, hyp in hyps:
            counts[hyp[pos]] = counts.get(hyp[pos], 0.0) + w
        assert dict(cn_bins(cn)[pos]) == pytest.approx(
            {word: c / total for word, c in counts.items()})
        assert sum(p for _, p in cn_bins(cn)[pos]) == pytest.approx(1.0, abs=1e-9)


# n-best lists drawn from a small pool of hypotheses, so that entries
# repeat, also non-adjacently
@st.composite
def nbest_lists(draw):
    pool = draw(st.lists(st.lists(st.sampled_from("abc"), max_size=5), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.floats(min_value=1e-9, max_value=1.0),
                                    st.integers(0, len(pool) - 1)),
                          min_size=1, max_size=8))
    return NBest.from_pairs([(weight, pool[k]) for weight, k in picks])


# ["a"] comes back after ["a", "c"]: summing its two weights first would
# give "a" the mass (0.1 + 0.6) + 0.1 = 0.7999999999999999, not 0.8
@example(NBest.from_pairs([(0.1, ["a"]), (0.1, ["a", "c"]), (0.6, ["a"]), (0.1, ["b"]),
                          (0.1, ["c"])]))
@given(nbest_lists())
def test_build_cn_matches_reference(nbest):
    assert build_cn(nbest) == reference_build_cn(nbest)


@given(nbest_lists())
def test_cn_columns_roundtrip(nbest):
    cn = build_cn(nbest)
    assert cn_from_bins(cn_bins(cn), cn.pivot) == cn == _rebuilt(cn)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
def test_build_cn_refuses_weight_not_finite_and_positive(weight):
    with pytest.raises(AlignmentError):
        build_cn(NBest.from_pairs([(weight, ["a", "b"]), (0.5, ["a"])]))


def test_decode_nbest_and_build_cn_refuse_an_empty_list(noise_config):
    with pytest.raises(AlignmentError, match="need n >= 1 hypotheses, got 0"):
        decode_nbest(utt("u", ["a"]), noise_config, 0)
    with pytest.raises(AlignmentError, match="need at least one hypothesis"):
        build_cn(NBest.from_pairs([]))


def test_build_cn_refuses_weights_whose_sum_overflows():
    with pytest.raises(AlignmentError):
        build_cn(NBest.from_pairs([(1e308, ["a"]), (1e308, ["a"])]))


def test_cn_epsilon_on_skipped_bin():
    cn = build_cn(NBest.from_pairs([(0.5, ["a", "b", "c"]), (0.5, ["a", "c"])]))
    assert dict(cn_bins(cn)[1]) == {"b": 0.5, EPS: 0.5}


def test_pap_of():
    cn = build_cn(NBest.from_pairs([(0.5, ["a", "b"]), (0.5, ["a", "c"])]))
    assert pap_of(cn, ["a", "b"]) == [1.0, 0.5]
    with pytest.raises(AlignmentError):
        pap_of(cn, ["a", "c"])
    # a network built by hand may lack a pivot word in its own bin
    cn = cn_from_bins(((("c", 1.0),), (("b", 0.75), (EPS, 0.25))), ("a", "b"))
    assert pap_of(cn, ["a", "b"]) == [0.0, 0.75]


def test_attach_pap_sets_rounded_pap_and_nothing_else(small_corpus, noise_config):
    for u in small_corpus.utterances[:20]:
        hyp = project_labels(corrupt(u, noise_config))
        cn = build_cn(decode_nbest(u, noise_config, 6))
        out = attach_pap(hyp, cn)
        assert [t.pap for t in out.tokens] == [round(p, 6) for p in pap_of(cn, hyp.surfaces())]
        assert [dataclasses.replace(t, pap=None) for t in out.tokens] == list(hyp.tokens)
        assert (out.id, out.reference_tokens) == (hyp.id, hyp.reference_tokens)


def test_attach_pap_refuses_a_hypothesis_that_is_not_the_pivot():
    cn = build_cn(NBest.from_pairs([(0.5, ["a", "b"]), (0.5, ["a", "c"])]))
    with pytest.raises(AlignmentError):
        attach_pap(utt("u", ["a", "b", "c"]), cn)


def test_project_zero_noise(small_corpus, noise_config):
    cfg = dataclasses.replace(noise_config, sub_rate=0.0, del_rate=0.0, ins_rate=0.0)
    for u in small_corpus.utterances[:10]:
        hyp = project_labels(corrupt(u, cfg))
        assert hyp.labels() == u.labels()


def test_project_insertion_gets_null():
    ref = utt("u", ["book", "paris"], [NULL_LABEL, "B-TOWN"])
    hyp_toks = tuple(Token(surface=w) for w in ["book", "euh", "paris"])
    hyp = Utterance("u", hyp_toks, reference_tokens=ref.tokens)
    assert project_labels(hyp).labels() == [NULL_LABEL, NULL_LABEL, "B-TOWN"]


def test_project_refuses_an_utterance_without_reference_tokens():
    with pytest.raises(AlignmentError, match="utterance 'u' has no reference tokens"):
        project_labels(utt("u", ["a"]))


def test_project_promotes_orphan_continuation():
    ref = utt("u", ["thirty", "three"], ["B-DATE", "I-DATE"])
    hyp_toks = (Token(surface="three"),)
    hyp = Utterance("u", hyp_toks, reference_tokens=ref.tokens)
    assert project_labels(hyp).labels() == ["B-DATE"]


def test_nbest_and_cn_files(tmp_path, small_corpus, noise_config):
    per_utt = [(u.id, decode_nbest(u, noise_config, 4))
               for u in small_corpus.utterances[:5]]
    p = tmp_path / "nbest.txt"
    write_nbest(p, per_utt)
    again = read_nbest(p)
    assert [uid for uid, _ in again] == [uid for uid, _ in per_utt]
    for (_, a), (_, b) in zip(again, per_utt):
        assert [list(h) for _, h in a] == [list(h) for _, h in b]
        assert [w for w, _ in a] == pytest.approx([w for w, _ in b])
    cns = [(uid, build_cn(nb)) for uid, nb in per_utt]
    write_cn(tmp_path / "cn.txt", cns)
    text = (tmp_path / "cn.txt").read_text()
    assert text.startswith(f"# id={per_utt[0][0]}")


def test_read_nbest_shares_equal_words(tmp_path):
    p = tmp_path / "hyp.nbest"
    write_nbest(p, [("u1", NBest.from_pairs([(0.5, ["paris", "lyon"]), (0.5, ["paris"]),
                                             (0.25, ["paris", "lyon"])])),
                    ("u2", NBest.from_pairs([(1.0, ["lyon", "lyon"]), (0.5, ["paris"])]))])
    (_, nb1), (_, nb2) = read_nbest(p)
    assert isinstance(nb1, NBest) and isinstance(nb2, NBest)
    assert [(x, list(w)) for x, w in (*nb1, *nb2)] == \
        [(0.5, ["paris", "lyon"]), (0.5, ["paris"]), (0.25, ["paris", "lyon"]),
         (1.0, ["lyon", "lyon"]), (0.5, ["paris"])]
    # each list keeps a word once, and equal words are one string across the file
    assert nb1.vocab == ("paris", "lyon") and nb2.vocab == ("lyon", "paris")
    assert nb1.vocab[0] is nb2.vocab[1] and nb1.vocab[1] is nb2.vocab[0]
    (_, w1), (_, w2), _ = nb1
    assert w1[0] is w2[0] is nb2[1][1][0]
    # the weights, ids and ends are arrays
    assert nb1.weights == array("d", [0.5, 0.5, 0.25])
    assert nb1.ids == array("I", [0, 1, 0, 0, 1]) and nb1.ends == array("I", [2, 3, 5])
    assert nb2.ids == array("I", [0, 0, 1]) and nb2.ends == array("I", [2, 3])
    assert len(nb1) == 3 and nb1[2] == (0.25, ("paris", "lyon")) and nb1[-3] == nb1[0]


def test_read_nbest_parses_each_weight_text_once(tmp_path, monkeypatch):
    p = tmp_path / "hyp.nbest"
    write_nbest(p, [("u1", NBest.from_pairs([(0.5, ["a"]), (0.25, ["b"]), (0.5, ["c"])])),
                    ("u2", NBest.from_pairs([(0.25, ["a"]), (1.0, ["b"])]))])
    texts = []

    def counted(text, parse=alignment._parse_weight):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(alignment, "_parse_weight", counted)
    (_, nb1), (_, nb2) = read_nbest(p)
    assert texts == ["5.000000000e-01", "2.500000000e-01", "1.000000000e+00"]
    assert list(nb1.weights) == [0.5, 0.25, 0.5] and list(nb2.weights) == [0.25, 1.0]


@pytest.mark.parametrize("weights, vocab, ids, ends, match", [
    ([1.0], ("a",), [0], [1, 1], "1 weights for 2 entries"),
    ([1.0, 1.0], ("a", "b"), [0, 1], [2, 1], "does not split 2 ids"),
    ([1.0], ("a", "b"), [0, 1], [1], "does not split 2 ids"),
    ([1.0], ("a", "b"), [0, 2], [2], "id 2 is outside a vocabulary of 2 words"),
    ([1.0], ("a", "a"), [0, 1], [2], "a word appears twice"),
    ([1.0], ("a", "b"), [-1], [1], "id -1 is outside a vocabulary of 2 words"),
    ([1.0, 1.0], ("a",), [0], [-1, 1], "does not split 1 ids"),
], ids=["weights-for-ends", "ends-decrease", "ends-short-of-ids", "id-outside-vocab",
        "word-twice", "id-negative", "end-negative"])
def test_nbest_refuses_columns_that_break_its_rules(weights, vocab, ids, ends, match):
    # signed arrays, so that a negative id or end can be given
    with pytest.raises(AlignmentError, match=match):
        NBest(array("d", weights), vocab, array("i", ids), array("i", ends))
    with pytest.raises(AlignmentError, match=match):
        NBest(array("d", weights), vocab, ids, ends)


def test_nbest_entries_may_be_empty():
    nb = NBest.from_pairs([(1.0, []), (0.5, ["a"]), (0.25, [])])
    assert list(nb) == [(1.0, ()), (0.5, ("a",)), (0.25, ())]
    assert nb.ends == array("I", [0, 1, 1])


_column_words = st.sampled_from(["a", "b", "c", EPS, "é"])


@given(st.lists(st.tuples(st.floats(min_value=1e-9, max_value=1.0),
                          st.lists(_column_words, max_size=5)),
                min_size=1, max_size=8))
def test_nbest_columns_roundtrip(tmp_path_factory, pairs):
    nb = NBest.from_pairs(pairs)
    expected = [(weight, tuple(words)) for weight, words in pairs]
    assert len(nb) == len(pairs)
    assert list(nb) == expected
    assert [nb[k] for k in range(len(pairs))] == expected
    assert nb[-1] == expected[-1] and nb[-len(pairs)] == expected[0]
    with pytest.raises(IndexError):
        nb[len(pairs)]
    # each word once, in order of first appearance
    seen = []
    for _, words in pairs:
        for w in words:
            if w not in seen:
                seen.append(w)
    assert nb.vocab == tuple(seen)
    assert _typecodes(nb) == ("d", "B", "B") and _at_final_size(nb)
    assert _rebuilt(nb) == nb
    assert build_cn(nb) == reference_build_cn(pairs)
    p = tmp_path_factory.mktemp("nbest") / "n.txt"
    write_nbest(p, [("u", nb)])
    [(_, back)] = read_nbest(p)
    assert _typecodes(back) == _typecodes(nb) and _at_final_size(back)
    assert _rebuilt(back) == back
    write_nbest(p.with_name("again.txt"), [("u", back)])
    assert p.with_name("again.txt").read_bytes() == p.read_bytes()


# lists of 250-300 distinct words, so that their ids and ends take one byte or four:
# n words of a pool of 300 from a drawn start, around the end; short entries
# keep the alignments against the pivot small, and a few draws per list keep
# the 1000 examples of the deep profile quick
_wide_pool = [EPS, *(f"w{i}" for i in range(299))] * 2


@st.composite
def wide_nbest_lists(draw):
    n = draw(st.integers(min_value=250, max_value=300))
    start = draw(st.integers(min_value=0, max_value=299))
    words = _wide_pool[start:start + n]
    size = draw(st.integers(min_value=1, max_value=12))
    entries = [words[i:i + size] for i in range(0, n, size)]
    entries += [entries[k] for k in draw(st.lists(st.integers(0, len(entries) - 1),
                                                  max_size=4))]
    weights = draw(st.lists(st.floats(min_value=1e-9, max_value=1.0), min_size=1,
                            max_size=4))
    return [(weights[k % len(weights)], entry) for k, entry in enumerate(entries)]


@given(wide_nbest_lists())
def test_nbest_wide_vocab_roundtrip(tmp_path_factory, pairs):
    nb = NBest.from_pairs(pairs)
    assert list(nb) == [(weight, tuple(words)) for weight, words in pairs]
    assert _typecodes(nb) == ("d", "B" if len(nb.vocab) <= 256 else "I",
                              "B" if len(nb.ids) <= 255 else "I")
    assert _at_final_size(nb) and _rebuilt(nb) == nb
    assert build_cn(nb) == reference_build_cn(pairs)
    p = tmp_path_factory.mktemp("nbest") / "n.txt"
    write_nbest(p, [("u", nb)])
    [(_, back)] = read_nbest(p)
    assert _typecodes(back) == _typecodes(nb) and _at_final_size(back)
    assert _rebuilt(back) == back
    write_nbest(p.with_name("again.txt"), [("u", back)])
    assert p.with_name("again.txt").read_bytes() == p.read_bytes()


# sha256 of the n-best, confusion network and corpus TSV files below,
# recorded before `align` and `build_cn` were made faster (the TSV's
# later, from the same code); a change that moves one bit of any of
# them fails here
NBEST_SHA256 = "791a3decb729a1d8397c8c0b607628ab2416deb5136ed9f8ba48af6470feb3f4"
CN_SHA256 = "580d19520395697bad326849031ccd3d2047305f5ffb03584844ca94862eceeb"
TSV_SHA256 = "2f4ea7c081b6e6b0a6be666ab84bb78cac77f5fd8335e47834f5e623ecf762ee"


def test_nbest_and_cn_bytes_are_pinned(tmp_path, small_corpus, noise_config):
    per_utt = [(u.id, decode_nbest(u, noise_config, 5)) for u in small_corpus.utterances]
    write_nbest(tmp_path / "hyp.nbest", per_utt)
    write_cn(tmp_path / "hyp.cn", [(uid, build_cn(nb)) for uid, nb in per_utt])
    assert hashlib.sha256((tmp_path / "hyp.nbest").read_bytes()).hexdigest() == NBEST_SHA256
    assert hashlib.sha256((tmp_path / "hyp.cn").read_bytes()).hexdigest() == CN_SHA256


def test_corpus_tsv_bytes_are_pinned(tmp_path, default_grammar, small_corpus, noise_config):
    # the pipeline's hypothesis path: the primary draw, re-annotated with
    # its error flags kept, its PAP and its projected labels
    hyps = []
    for u in small_corpus.utterances:
        hyp = corrupt(u, noise_config)
        toks = annotate_words(hyp.surfaces(), default_grammar)
        hyp = dataclasses.replace(hyp, tokens=tuple(
            dataclasses.replace(t, error_flag=src.error_flag) for t, src in zip(toks, hyp.tokens)))
        hyps.append(project_labels(attach_pap(hyp, build_cn(decode_nbest(u, noise_config, 5)))))
    write_dataset(Dataset(tuple(hyps)), tmp_path / "hyp.tsv")
    assert hashlib.sha256((tmp_path / "hyp.tsv").read_bytes()).hexdigest() == TSV_SHA256


def test_cn_validates_bin_sums():
    with pytest.raises(AlignmentError):
        cn_from_bins(bins=((("a", 0.5),),), pivot=("a",))
    with pytest.raises(AlignmentError):
        cn_from_bins(bins=((("a", float("nan")),),), pivot=("a",))


def test_cn_refuses_bin_count_other_than_pivot_length():
    with pytest.raises(AlignmentError, match="1 bins for 2 pivot words"):
        cn_from_bins(((("a", 1.0),),), ("a", "b"))


def test_cn_refuses_posterior_outside_unit_interval():
    # the bin sums to 1
    with pytest.raises(AlignmentError, match="outside"):
        cn_from_bins(((("a", 1.5), ("b", -0.5)),), ("a",))


def test_cn_refuses_word_twice_in_one_bin():
    with pytest.raises(AlignmentError, match="word twice"):
        cn_from_bins(((("a", 0.5), ("a", 0.5)),), ("a",))


@pytest.mark.parametrize("words, posteriors, ends", [
    (("a", "b"), [1.0], (1, 2)),
    (("a", "b", "c"), [1.0, 1.0, 1.0], (1, 2)),
    (("a", "b"), [1.0, 1.0], (2, 2)),
    (("a", "b"), [0.5, 0.5], (0, 2)),
], ids=["fewer-posteriors", "ends-short-of-words", "empty-last-bin", "empty-first-bin"])
def test_cn_refuses_columns_that_do_not_partition_the_words(words, posteriors, ends):
    with pytest.raises(AlignmentError, match="posteriors for 2 words|does not split"):
        ConfusionNetwork(("a", "b"), words, array("d", posteriors), ends)


def test_cn_columns_hold_under_half_the_bytes_of_their_bins(small_corpus, noise_config):
    cfg = dataclasses.replace(noise_config, nbest_correlation=0.3)
    nbests = [decode_nbest(u, cfg, 40) for u in small_corpus.utterances]
    # a full collection empties the float and tuple free lists, whose
    # reuse tracemalloc does not see
    gc.collect()
    tracemalloc.start()
    try:
        cns = [build_cn(nb) for nb in nbests]
        gc.collect()
        columns = tracemalloc.get_traced_memory()[0]
        views = [cn_bins(cn) for cn in cns]
        nested = tracemalloc.get_traced_memory()[0] - columns
    finally:
        tracemalloc.stop()
    del views
    assert columns <= 0.5 * nested, (columns, nested)


_ONE = b"1.000000000e+00"


@pytest.mark.parametrize("data, line", [
    (_ONE + b"\ta b\n", 1),
    (b"# id=u\n" + _ONE + b"\ta\n\n2.000000000e+00\tb\n", 4),
    (b"# id=u\nheavy\ta b\n\n", 2),
    (b"# id=u\n" + _ONE + b" a b\n\n", 2),
    (b"# id=u\r\n" + _ONE + b"\ta\r\n\r\n# id=v\r\n" + _ONE + b"\ta \xffb\r\n\r\n", 5),
    # rows `write_nbest` would write otherwise, or refuse to write
    (b"# id=u\n" + _ONE + b"\ta\n1.0\ta\n\n", 3),
    (b"# id=u\n" + _ONE + b"\ta  b\n\n", 2),
    (b"# id=u\n" + _ONE + b"\t a\n\n", 2),
    (b"# id=u\n" + _ONE + b"\ta\n\n# id=v\n0\ta\n\n", 5),
    (b"# id=u\n-1\ta\n\n", 2),
    (b"# id=u\nnan\ta\n\n", 2),
    (b"# id=u\n1e400\ta\n\n", 2),
], ids=["row-before-header", "row-after-closed-block", "bad-weight", "no-tab",
        "not-utf8", "weight-not-as-written", "words-two-spaces", "words-leading-space",
        "weight-zero", "weight-negative", "weight-nan", "weight-overflows"])
def test_read_nbest_malformed_names_file_and_line(tmp_path, data, line):
    p = tmp_path / "bad.nbest"
    p.write_bytes(data)
    with pytest.raises(ParseError, match=f"bad.nbest: line {line}:"):
        read_nbest(p)


_ids = (st.text(alphabet="ab", min_size=1, max_size=3)
        | st.text(alphabet="ab #id=_\t\n\r", max_size=4))
# words the writer accepts, and words that are empty or hold whitespace
_words = (st.text(alphabet="ab#_", min_size=1, max_size=3) | st.just("")
          | st.text(alphabet="ab \t\n\r\x0b\x1c\x85\xa0", min_size=1, max_size=3))


@given(st.lists(st.tuples(_ids, st.lists(st.tuples(st.floats(),
                                                   st.lists(_words, max_size=3)),
                                         max_size=3)),
                max_size=3))
def test_nbest_roundtrips_or_refuses(tmp_path_factory, per_utt):
    p = tmp_path_factory.mktemp("nbest") / "n.txt"
    try:
        write_nbest(p, [(uid, NBest.from_pairs(pairs)) for uid, pairs in per_utt])
    except SchemaError:
        return
    again = read_nbest(p)
    assert all(math.isfinite(w) and w > 0 for _, nb in again for w, _ in nb)
    assert [uid for uid, _ in again] == [uid for uid, _ in per_utt]
    assert [[list(words) for _, words in nb] for _, nb in again] == \
        [[words for _, words in nb] for _, nb in per_utt]
    assert [[w for w, _ in nb] for _, nb in again] == \
        [[float(f"{w:.9e}") for w, _ in nb] for _, nb in per_utt]
    q = p.with_name("again.txt")
    write_nbest(q, again)
    assert q.read_bytes() == p.read_bytes()


# weight texts of every kind: as the writer writes them, as repr writes
# them ("1.0", "nan"), and made of number characters and spaces
_weight_texts = (st.floats().map(lambda w: f"{w:.9e}") | st.floats().map(repr)
                 | st.text(alphabet="0123456789.e+- ", max_size=16))
_gaps = st.sampled_from(["", " ", "  "])


@given(_weight_texts, _gaps, _gaps, _gaps)
def test_nbest_row_text_roundtrips_or_refuses(tmp_path_factory, weight, lead, mid, trail):
    p = tmp_path_factory.mktemp("nbest") / "n.txt"
    p.write_bytes(f"# id=u\n{weight}\t{lead}a{mid}b{trail}\n\n".encode())
    try:
        again = read_nbest(p)
    except ParseError:
        return
    q = p.with_name("again.txt")
    write_nbest(q, again)
    assert q.read_bytes() == p.read_bytes()


@pytest.mark.parametrize("words", [["a b"], ["c\tx"], [""], ["a", "b\nc"], ["\xa0"]])
def test_write_nbest_refuses_word_with_whitespace(tmp_path, words):
    with pytest.raises(SchemaError, match="utterance 'u7'"):
        write_nbest(tmp_path / "n.txt", [("u7", NBest.from_pairs([(1.0, words)]))])


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0,
                                    1.7976931348623157e308])
def test_write_nbest_refuses_weight_build_cn_refuses(tmp_path, weight):
    with pytest.raises(SchemaError, match="utterance 'u7'"):
        write_nbest(tmp_path / "n.txt",
                    [("u7", NBest.from_pairs([(1.0, ["a"]), (weight, ["b"])]))])


@pytest.mark.parametrize("words", [["a b"], ["c\tx"], [""], ["a", "b\nc"], ["\xa0"]])
def test_write_cn_refuses_word_with_whitespace(tmp_path, words):
    cn = cn_from_bins(bins=(tuple((w, 1.0 / len(words)) for w in words),), pivot=("a",))
    with pytest.raises(SchemaError, match="utterance 'u7'"):
        write_cn(tmp_path / "cn.txt", [("u7", cn)])


def test_build_cn_uncovered_bin_raises(monkeypatch):
    # an alignment that skips a pivot bin breaks the one-entry-per-bin
    # invariant; the check must raise, also under python -O.  The pivot
    # fills its own bins, so the second hypothesis is the one aligned.
    monkeypatch.setattr(alignment, "_align_each",
                        lambda ref, hyps: [alignment.Alignment(((MATCH, 0, 0),), 0)] * len(hyps))
    with pytest.raises(AlignmentError):
        build_cn(NBest.from_pairs([(1.0, ["a", "b"]), (0.5, ["a", "c"])]))
