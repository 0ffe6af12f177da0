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
                              ConfusionNetwork, NBest, NoiseConfig, align, build_cn,
                              corrupt, decode_nbest, pap_of, project_labels,
                              read_nbest, wer, write_cn, write_nbest)
from slukit.corpus import NULL_LABEL, ParseError, SchemaError, Token, Utterance

from helpers import (brute_force_edit_cost, reference_align, reference_build_cn,
                     reference_corrupt, reference_decode_nbest, utt)

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


def test_wer_basics():
    assert wer(list("abcd"), list("abcd")) == 0.0
    assert wer(list("abcd"), list("abxd")) == 25.0
    with pytest.raises(AlignmentError):
        wer([], ["a"])


@given(words_st.filter(lambda w: len(w) >= 1), words_st)
def test_wer_relabel_invariance(ref, hyp):
    mapping = {c: f"tok-{c}" for c in "abcde"}
    assert wer(ref, hyp) == wer([mapping[w] for w in ref], [mapping[w] for w in hyp])


def test_noise_config_invariants():
    with pytest.raises(AlignmentError):
        NoiseConfig(sub_rate=0.0, del_rate=1.0, ins_rate=0.0)
    with pytest.raises(AlignmentError):
        NoiseConfig(sub_rate=0.6, del_rate=0.3, ins_rate=0.2)
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
    assert [list(hyp) for hyp in nbest.hyps] == [hyp for _, hyp in expected]
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


def test_nbest_slices_stay_nbest_lists(tmp_path, small_corpus, noise_config):
    nbest = decode_nbest(small_corpus.utterances[0], noise_config, 10)
    top = nbest[:3]
    assert top == NBest(nbest.weights[:3], nbest.hyps[:3])
    assert build_cn(top) == build_cn(list(nbest)[:3])
    write_nbest(tmp_path / "n.txt", [("u", nbest)])
    (_, again), = read_nbest(tmp_path / "n.txt")
    assert again[1:] == NBest(again.weights[1:], again.hyps[1:])


def test_build_cn_single_hypothesis():
    cn = build_cn([(1.0, ["a", "b"])])
    assert cn.bins == ((("a", 1.0),), (("b", 1.0),))


def test_build_cn_symmetric_pair():
    cn = build_cn([(0.5, ["a", "b"]), (0.5, ["a", "c"])])
    assert cn.bins[0] == (("a", 1.0),)
    assert dict(cn.bins[1]) == {"b": 0.5, "c": 0.5}


def test_build_cn_against_positional_count_oracle():
    # equal-length hypotheses differ per position, so alignment is
    # positional and posteriors must equal weighted counts
    hyps = [
        (0.4, ["a", "b", "c"]),
        (0.3, ["a", "x", "c"]),
        (0.2, ["a", "b", "y"]),
        (0.1, ["z", "b", "c"]),
    ]
    cn = build_cn(hyps)
    total = sum(w for w, _ in hyps)
    for pos in range(3):
        counts = {}
        for w, hyp in hyps:
            counts[hyp[pos]] = counts.get(hyp[pos], 0.0) + w
        assert dict(cn.bins[pos]) == pytest.approx(
            {word: c / total for word, c in counts.items()})
        assert sum(p for _, p in cn.bins[pos]) == pytest.approx(1.0, abs=1e-9)


# n-best lists drawn from a small pool of hypotheses, so that entries
# repeat, also non-adjacently
@st.composite
def nbest_lists(draw):
    pool = draw(st.lists(st.lists(st.sampled_from("abc"), max_size=5), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.floats(min_value=1e-9, max_value=1.0),
                                    st.integers(0, len(pool) - 1)),
                          min_size=1, max_size=8))
    return [(weight, list(pool[k])) for weight, k in picks]


# ["a"] comes back after ["a", "c"]: summing its two weights first would
# give "a" the mass (0.1 + 0.6) + 0.1 = 0.7999999999999999, not 0.8
@example([(0.1, ["a"]), (0.1, ["a", "c"]), (0.6, ["a"]), (0.1, ["b"]), (0.1, ["c"])])
@given(nbest_lists())
def test_build_cn_matches_reference(nbest):
    assert build_cn(nbest) == reference_build_cn(nbest)


@given(nbest_lists())
def test_cn_columns_roundtrip(nbest):
    cn = build_cn(nbest)
    assert ConfusionNetwork.from_bins(cn.bins, cn.pivot) == cn


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf"), 0.0, -0.5])
def test_build_cn_refuses_weight_not_finite_and_positive(weight):
    with pytest.raises(AlignmentError):
        build_cn([(weight, ["a", "b"]), (0.5, ["a"])])


def test_build_cn_refuses_weights_whose_sum_overflows():
    with pytest.raises(AlignmentError):
        build_cn([(1e308, ["a"]), (1e308, ["a"])])


def test_cn_epsilon_on_skipped_bin():
    cn = build_cn([(0.5, ["a", "b", "c"]), (0.5, ["a", "c"])])
    assert dict(cn.bins[1]) == {"b": 0.5, EPS: 0.5}


def test_pap_of():
    cn = build_cn([(0.5, ["a", "b"]), (0.5, ["a", "c"])])
    assert pap_of(cn, ["a", "b"]) == [1.0, 0.5]
    with pytest.raises(AlignmentError):
        pap_of(cn, ["a", "c"])


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
    write_nbest(p, [("u1", [(0.5, ["paris", "lyon"]), (0.5, ["paris"]),
                            (0.25, ["paris", "lyon"])]),
                    ("u2", [(1.0, ["lyon", "lyon"]), (0.5, ["paris"])])])
    (_, nb1), (_, nb2) = read_nbest(p)
    assert isinstance(nb1, NBest) and isinstance(nb2, NBest)
    (x1, w1), (x2, w2), (x3, w3) = nb1
    (x4, w4), (x5, w5) = nb2
    assert [list(w) for w in (w1, w2, w3, w4, w5)] == \
        [["paris", "lyon"], ["paris"], ["paris", "lyon"], ["lyon", "lyon"], ["paris"]]
    assert (x1, x2, x3, x4, x5) == (0.5, 0.5, 0.25, 1.0, 0.5)
    # equal words are one string across the file
    assert w1[0] is w2[0] is w5[0]
    assert w1[1] is w4[0] is w4[1]
    # within one block, equal hypothesis rows are one tuple and equal
    # weight texts one float
    assert type(w1) is tuple and w1 is w3
    assert x1 is x2
    assert nb1.hyps == (w1, w2, w3) and nb1.weights == (x1, x2, x3)
    assert len(nb1) == 3 and nb1[2] == (x3, w3)


# sha256 of the n-best and confusion network files below, recorded
# before `align` and `build_cn` were made faster; a change that moves
# one bit of either file fails here
NBEST_SHA256 = "791a3decb729a1d8397c8c0b607628ab2416deb5136ed9f8ba48af6470feb3f4"
CN_SHA256 = "580d19520395697bad326849031ccd3d2047305f5ffb03584844ca94862eceeb"


def test_nbest_and_cn_bytes_are_pinned(tmp_path, small_corpus, noise_config):
    per_utt = [(u.id, decode_nbest(u, noise_config, 5)) for u in small_corpus.utterances]
    write_nbest(tmp_path / "hyp.nbest", per_utt)
    write_cn(tmp_path / "hyp.cn", [(uid, build_cn(nb)) for uid, nb in per_utt])
    assert hashlib.sha256((tmp_path / "hyp.nbest").read_bytes()).hexdigest() == NBEST_SHA256
    assert hashlib.sha256((tmp_path / "hyp.cn").read_bytes()).hexdigest() == CN_SHA256


def test_cn_validates_bin_sums():
    with pytest.raises(AlignmentError):
        ConfusionNetwork.from_bins(bins=((("a", 0.5),),), pivot=("a",))
    with pytest.raises(AlignmentError):
        ConfusionNetwork.from_bins(bins=((("a", float("nan")),),), pivot=("a",))


def test_cn_refuses_bin_count_other_than_pivot_length():
    with pytest.raises(AlignmentError, match="1 bins for 2 pivot words"):
        ConfusionNetwork.from_bins(((("a", 1.0),),), ("a", "b"))


def test_cn_refuses_posterior_outside_unit_interval():
    # the bin sums to 1
    with pytest.raises(AlignmentError, match="outside"):
        ConfusionNetwork.from_bins(((("a", 1.5), ("b", -0.5)),), ("a",))


def test_cn_refuses_word_twice_in_one_bin():
    with pytest.raises(AlignmentError, match="word twice"):
        ConfusionNetwork.from_bins(((("a", 0.5), ("a", 0.5)),), ("a",))


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
        views = [cn.bins for cn in cns]
        nested = tracemalloc.get_traced_memory()[0] - columns
    finally:
        tracemalloc.stop()
    del views
    assert columns <= 0.5 * nested, (columns, nested)


@pytest.mark.parametrize("data, line", [
    (b"1.0\ta b\n", 1),
    (b"# id=u\n1.0\ta\n\n2.0\tb\n", 4),
    (b"# id=u\nheavy\ta b\n\n", 2),
    (b"# id=u\n1.0 a b\n\n", 2),
    (b"# id=u\r\n1.0\ta\r\n\r\n# id=v\r\n1.0\ta \xffb\r\n\r\n", 5),
], ids=["row-before-header", "row-after-closed-block", "bad-weight", "no-tab",
        "not-utf8"])
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
        write_nbest(p, per_utt)
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


@pytest.mark.parametrize("words", [["a b"], ["c\tx"], [""], ["a", "b\nc"], ["\xa0"]])
def test_write_nbest_refuses_word_with_whitespace(tmp_path, words):
    with pytest.raises(SchemaError, match="utterance 'u7'"):
        write_nbest(tmp_path / "n.txt", [("u7", [(1.0, words)])])


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0,
                                    1.7976931348623157e308])
def test_write_nbest_refuses_weight_build_cn_refuses(tmp_path, weight):
    with pytest.raises(SchemaError, match="utterance 'u7'"):
        write_nbest(tmp_path / "n.txt", [("u7", [(1.0, ["a"]), (weight, ["b"])])])


@pytest.mark.parametrize("words", [["a b"], ["c\tx"], [""], ["a", "b\nc"], ["\xa0"]])
def test_write_cn_refuses_word_with_whitespace(tmp_path, words):
    cn = ConfusionNetwork.from_bins(bins=(tuple((w, 1.0 / len(words)) for w in words),),
                                   pivot=("a",))
    with pytest.raises(SchemaError, match="utterance 'u7'"):
        write_cn(tmp_path / "cn.txt", [("u7", cn)])


def test_build_cn_uncovered_bin_raises(monkeypatch):
    # an alignment that skips a pivot bin breaks the one-entry-per-bin
    # invariant; the check must raise, also under python -O
    monkeypatch.setattr(alignment, "align",
                        lambda ref, hyp: alignment.Alignment(((MATCH, 0, 0),), 0.0))
    with pytest.raises(AlignmentError):
        build_cn([(1.0, ["a", "b"])])
