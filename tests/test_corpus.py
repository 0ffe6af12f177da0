import dataclasses
import math
import re
import struct
import time
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from slukit import corpus
from slukit.alignment import NBest, corrupt, decode_nbest, read_nbest, write_cn, write_nbest
from slukit.confidence import ConfidenceError, load_embeddings
from slukit.corpus import (ERROR_C, ERROR_N, NULL_LABEL, ConceptSegment,
                           Dataset, ParseError, PhraseTable, SchemaError,
                           TOKEN_FIELDS, TaggerOutput, Token, Utterance,
                           augment_error_labels, label_segments,
                           read_dataset, read_outputs,
                           repair_bio, strip_error_labels,
                           validate_label_sequence, write_dataset,
                           write_outputs)
from slukit.evaluation import ConfidenceRecord
from slukit.modelio import VERSION, ModelIOError, load_blob, save_blob

from helpers import (brute_force_phrase_spans, cn_from_bins, reference_parse_token,
                     reference_segments_of, reference_token_row,
                     reference_validate_label_sequence, utt)


def test_read_empty_file(tmp_path):
    p = tmp_path / "empty.tsv"
    p.write_text("")
    ds = read_dataset(p)
    assert len(ds) == 0


def test_read_single_utterance(tmp_path):
    p = tmp_path / "one.tsv"
    p.write_text(
        "# id=u1\n"
        "0\ti\t_\t_\t_\t_\t_\t_\t_\t_\tnull\n"
        "1\tparis\t_\t_\t_\t_\tTOWN\t_\t_\t_\tB-TOWN\n"
        "2\tlyon\t_\t_\t_\t_\tTOWN\t_\t_\t_\tI-TOWN\n"
        "\n"
    )
    ds = read_dataset(p)
    assert len(ds) == 1
    u = ds.utterances[0]
    segs = label_segments(u.surfaces(), u.labels())
    assert len(segs) == 1
    assert segs[0].label == "TOWN"


def test_read_bad_governor(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text(
        "# id=u1\n"
        "0\ta\t_\t_\t99\t_\t_\t_\t_\t_\tnull\n"
        "1\tb\t_\t_\t_\t_\t_\t_\t_\t_\tnull\n"
        "2\tc\t_\t_\t_\t_\t_\t_\t_\t_\tnull\n"
        "\n"
    )
    with pytest.raises(SchemaError):
        read_dataset(p)


def _row(**cells):
    """A corpus TSV row of token 0, "a", with the given cells replaced."""
    row = dict(index="0", surface="a", lemma="_", pos="_", governor="_", deprel="_",
               sem_category="_", pap="_", mlp_conf="_", error_flag="_", label="null")
    row.update(cells)
    return "\t".join(row.values()) + "\n"


def _blob(edit):
    """Write a valid model file, then rewrite its bytes with `edit`."""
    def write(p):
        save_blob(p, "toy", {}, {"w": np.zeros(2)})
        p.write_bytes(edit(p.read_bytes()))
    return write


@pytest.mark.parametrize("name, content, read, error, match", [
    ("bad.tsv", "# id=u1\n0\ta\tonly-three-cells\n\n", read_dataset, ParseError,
     "bad.tsv: line 2: expected 11 columns"),
    ("bad.tsv", "# id=u1\n" + _row(index="1") + "\n", read_dataset, ParseError,
     "bad.tsv: line 2: index 1 out of order"),
    ("bad.tsv", "# id=u1\n" + _row(governor="x") + "\n", read_dataset, ParseError,
     "bad.tsv: line 2: bad governor 'x'"),
    ("bad.tsv", "# id=u1\n" + _row(pap="high") + "\n", read_dataset, ParseError,
     "bad.tsv: line 2: bad pap 'high'"),
    ("bad.tsv", "# id=u1\n" + _row(pap="1.500000") + "\n", read_dataset, SchemaError,
     "bad.tsv: line 2: pap=1.5 outside"),
    ("bad.tsv", "# id=u1\n" + _row(index="x") + "\n", read_dataset, ParseError,
     "bad.tsv: line 2: bad index 'x'"),
    ("bad.tsv", "# id=u1\n" + _row(mlp_conf="x") + "\n", read_dataset, ParseError,
     "bad.tsv: line 2: bad mlp_conf 'x'"),
    ("bad.tsv", "# id=u1\n" + _row(mlp_conf="1.500000") + "\n", read_dataset, SchemaError,
     "bad.tsv: line 2: mlp_conf=1.5 outside"),
    # a number cell reads back only as the writer writes its value
    ("bad.tsv", "# id=u1\n" + _row(pap="0.5") + "\n", read_dataset, ParseError,
     "bad.tsv: line 2: bad pap '0.5'"),
    ("bad.tsv", "# id=u1\n" + _row(mlp_conf="1e-7") + "\n", read_dataset, ParseError,
     "bad.tsv: line 2: bad mlp_conf '1e-7'"),
    ("bad.tsv", "# id=u1\n" + _row(pap="nan") + "\n", read_dataset, ParseError,
     "bad.tsv: line 2: bad pap 'nan'"),
    ("bad.tsv", "# id=u1\n" + _row(index="00") + "\n", read_dataset, ParseError,
     "bad.tsv: line 2: bad index '00'"),
    ("bad.tsv", "# id=u1\n" + _row() + _row(index="1", governor="00") + "\n", read_dataset,
     ParseError, "bad.tsv: line 3: bad governor '00'"),
    ("bad.tsv", "# id=u1\n\n", read_dataset, ParseError,
     "bad.tsv: line 1: utterance 'u1' has no rows"),
    ("bad.vec", "a 0.5\nb\n", load_embeddings, ConfidenceError,
     "bad.vec: line 2: no vector components"),
    ("bad.vec", "a 0.5\nb x\n", load_embeddings, ConfidenceError, "bad.vec: line 2: bad float"),
    ("bad.slk", _blob(lambda data: b"XXXX" + data[4:]), lambda p: load_blob(p, "toy"),
     ModelIOError, "bad.slk: bad magic"),
    ("bad.slk", _blob(lambda data: data[:4] + struct.pack(">I", VERSION + 1) + data[8:]),
     lambda p: load_blob(p, "toy"), ModelIOError, "bad.slk: unsupported version"),
    ("bad.slk", _blob(lambda data: data), lambda p: load_blob(p, expect_kind="other"),
     ModelIOError, "bad.slk: expected a 'other' model, found 'toy'"),
], ids=["too-few-cells", "index-out-of-order", "governor-not-int", "pap-not-float",
        "pap-out-of-range", "index-not-int", "mlp-conf-not-float", "mlp-conf-out-of-range",
        "pap-short", "mlp-conf-exponent", "pap-nan", "index-zero-padded",
        "governor-zero-padded", "header-without-rows", "embedding-without-components",
        "embedding-bad-float", "model-bad-magic", "model-unsupported-version",
        "model-kind-mismatch"])
def test_read_malformed_row_reports_line(tmp_path, name, content, read, error, match):
    p = tmp_path / name
    if callable(content):
        content(p)
    else:
        p.write_text(content)
    with pytest.raises(error, match=match):
        read(p)


def test_read_dataset_names_the_line_that_is_not_utf8(tmp_path):
    row = b"0\ta\t_\t_\t_\t_\t_\t_\t_\t_\tnull"
    p = tmp_path / "bad.tsv"
    # CRLF line breaks count as one each, as they always have
    p.write_bytes(b"# id=u1\r\n" + row + b"\r\n\r\n# id=u2\r\n"
                  + row.replace(b"a", b"\xff") + b"\r\n\r\n")
    with pytest.raises(ParseError, match="bad.tsv: line 5: text is not UTF-8"):
        read_dataset(p)
    # past the first 8 KiB, where a text-mode read decodes its next chunk
    good = b"".join(b"# id=u%d\r\n" % i + row + b"\r\n\r\n" for i in range(400))
    assert len(good) > 8192
    p.write_bytes(good + b"# id=bad\r\n" + row.replace(b"a", b"\xff") + b"\r\n\r\n")
    with pytest.raises(ParseError, match="bad.tsv: line 1202: text is not UTF-8"):
        read_dataset(p)


def test_read_invalid_continuation(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text(
        "# id=u1\n"
        "0\ta\t_\t_\t_\t_\t_\t_\t_\t_\tnull\n"
        "1\tb\t_\t_\t_\t_\t_\t_\t_\t_\tI-TOWN\n"
        "\n"
    )
    with pytest.raises(SchemaError):
        read_dataset(p)


def test_roundtrip_byte_identical(tmp_path, small_corpus, noise_config):
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_dataset(small_corpus, p1)
    write_dataset(read_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    # the reference tokens a recognizer output carries are not written
    hyp = Dataset(tuple(corrupt(u, noise_config) for u in small_corpus.utterances[:10]))
    write_dataset(hyp, p1)
    back = read_dataset(p1)
    assert [u.tokens for u in back] == [u.tokens for u in hyp]
    assert all(u.reference_tokens is not None for u in hyp)
    assert all(u.reference_tokens is None for u in back)


def test_confidence_absent_is_not_zero(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("# id=u\n0\tword\t_\t_\t_\t_\t_\t_\t_\t_\t_\n\n")
    tok = read_dataset(p).utterances[0].tokens[0]
    assert tok.pap is None and tok.mlp_conf is None and tok.label is None


def test_utterance_refuses_no_tokens():
    with pytest.raises(SchemaError, match="utterance 'u' has no tokens"):
        Utterance("u", ())


def test_duplicate_ids_rejected():
    u1 = utt("same", ["a"])
    u2 = utt("same", ["b"])
    with pytest.raises(SchemaError):
        Dataset((u1, u2))


def test_duplicate_ids_refused_in_linear_time():
    # counting each id with list.count is quadratic: about a minute for these
    toks = (Token("a"),)
    utts = [Utterance(f"u{i}", toks) for i in range(50_000)]
    utts += [Utterance("u7", toks), Utterance("u3", toks)]
    start = time.process_time()
    with pytest.raises(SchemaError, match=re.escape("duplicate utterance ids: ['u3', 'u7']")):
        Dataset(tuple(utts))
    assert time.process_time() - start < 2.0


def test_segments_all_null():
    u = utt("u", ["a", "b"], [NULL_LABEL, NULL_LABEL])
    assert label_segments(u.surfaces(), u.labels()) == []


def test_segments_single_token():
    u = utt("u", ["yes", "Paris"], [NULL_LABEL, "B-TOWN"])
    segs = label_segments(u.surfaces(), u.labels())
    assert segs == [ConceptSegment("TOWN", "paris", 1, 2)]


def test_segments_value_normalization():
    # independently derived from the number table: thirty three -> 33
    u = utt("u", ["thirty", "three"], ["B-DATE", "I-DATE"])
    segs = label_segments(u.surfaces(), u.labels(), PhraseTable([("thirty three", "33")]))
    assert segs == [ConceptSegment("DATE", "33", 0, 2)]


def test_segments_reject_error_labels():
    u = utt("u", ["a"], [ERROR_N])
    with pytest.raises(SchemaError):
        label_segments(u.surfaces(), u.labels())


@st.composite
def segment_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    cuts = sorted(draw(st.sets(st.integers(min_value=0, max_value=n), min_size=2, max_size=6)))
    segs = []
    for a, b in zip(cuts, cuts[1:]):
        if draw(st.booleans()):
            label = draw(st.sampled_from(["TOWN", "DATE", "PRICE"]))
            segs.append((label, a, b))
    return n, segs


@given(segment_sets())
def test_segments_labels_roundtrip(case):
    n, triples = case
    words = [f"w{i}" for i in range(n)]
    segs = [ConceptSegment(lab, " ".join(words[a:b]), a, b) for lab, a, b in triples]
    labels = [NULL_LABEL] * n
    for lab, a, b in triples:
        labels[a:b] = ["B-" + lab] + ["I-" + lab] * (b - a - 1)
    u = utt("u", words, labels)
    assert label_segments(u.surfaces(), u.labels()) == segs


_seg_words = st.sampled_from(["thirty", "three", "Paris", "a"])
# B/I runs, nulls, orphan continuations, error labels, an empty concept
# and labels that are not B/I at all
_seg_labels = st.none() | st.sampled_from(
    ["B-TOWN", "I-TOWN", "B-DATE", "I-DATE", NULL_LABEL, ERROR_C, ERROR_N,
     "B-", "I-", "TOWN", ""])


@given(st.lists(st.tuples(_seg_words, _seg_labels), min_size=1, max_size=8), st.booleans())
def test_label_segments_equal_reference(rows, with_table):
    words, labels = (list(col) for col in zip(*rows))
    table = PhraseTable([("thirty three", "33"), ("paris", "PAR")]) if with_table else None
    u = utt("u", words, labels)
    try:
        expected = reference_segments_of(u, table)
    except SchemaError as exc:
        with pytest.raises(SchemaError, match=re.escape(str(exc))):
            label_segments(words, labels, table)
        return
    assert label_segments(words, labels, table) == expected


def test_label_segments_refuse_length_mismatch():
    with pytest.raises(SchemaError):
        label_segments(["a", "b"], ["B-TOWN"])


_text = st.text(alphabet="ab #id=_|\t\n\rB-I", max_size=6)
# text every writer accepts, so that some draws get past the refusals
_plain = st.text(alphabet="ab", min_size=1, max_size=3)
# a semantic category is any text, "|" and the empty text included
_category = st.none() | _plain | _text | st.sampled_from(["", "a|b", "b|a", "|"])

# values of each Token field, including ones the constructor refuses
# (empty surface, pap/mlp_conf outside [0,1] or NaN, an unknown flag)
# and governors the utterance refuses
_confidences = st.none() | st.floats(min_value=-0.5, max_value=1.5) | st.just(math.nan)
_column_values = {
    "surface": st.text(alphabet="ab", max_size=2),
    "lemma": st.none() | st.text(alphabet="ab", max_size=2),
    "pos": st.none() | st.sampled_from(["NOUN", "VERB"]),
    "governor": st.none() | st.integers(min_value=-1, max_value=3),
    "deprel": st.none() | st.sampled_from(["obj", "nsubj"]),
    "sem_category": _category,
    "pap": _confidences,
    "mlp_conf": _confidences,
    "error_flag": st.sampled_from([None, "correct", "error", "wrong"]),
    "label": st.none() | st.sampled_from(["B-TOWN", "I-TOWN", NULL_LABEL]),
}


@st.composite
def column_cases(draw, name):
    n = draw(st.integers(min_value=1, max_value=3))
    toks = tuple(Token(f"w{i}", lemma=f"w{i}", pos="NOUN", governor=0 if i else None,
                       deprel="obj", sem_category="TOWN", pap=0.5,
                       mlp_conf=0.25, error_flag="correct", label="B-TOWN")
                 for i in range(n))
    refs = draw(st.none() | st.just(toks[:1]))
    values = draw(st.lists(_column_values[name], min_size=n, max_size=n))
    return Utterance("u", toks, refs), values


@pytest.mark.parametrize("name", TOKEN_FIELDS)
@given(data=st.data())
def test_with_column_matches_reference_replace(name, data):
    u, values = data.draw(column_cases(name))
    try:
        expected = dataclasses.replace(u, tokens=tuple(
            dataclasses.replace(t, **{name: v}) for t, v in zip(u.tokens, values)))
    except SchemaError as exc:
        with pytest.raises(SchemaError, match=re.escape(str(exc))):
            u.with_column(name, values)
        return
    got = u.with_column(name, values)
    assert got == expected and got.reference_tokens is u.reference_tokens
    assert [getattr(t, name) for t in got.tokens] == values


def test_with_column_refuses_length_mismatch():
    with pytest.raises(SchemaError):
        utt("u", ["a", "b"]).with_column("label", ["B-TOWN"])


def test_with_column_refuses_unknown_field():
    with pytest.raises(SchemaError, match="'lable' is not a token field"):
        utt("u", ["a", "b"]).with_column("lable", ["B-TOWN", "null"])


def test_validate_label_sequence_rejects_switch():
    with pytest.raises(SchemaError):
        validate_label_sequence(["B-TOWN", "I-DATE"])


@given(st.lists(st.none() | st.sampled_from(["B-TOWN", "I-TOWN", "B-DATE", "I-DATE",
                                              NULL_LABEL, ERROR_C, "I-", "B-", "I-TOWNX"]),
                max_size=8),
       st.none() | st.integers(min_value=1, max_value=9))
def test_validate_label_sequence_equals_reference(labels, line_base):
    try:
        reference_validate_label_sequence(labels, line_base)
    except SchemaError as exc:
        with pytest.raises(SchemaError, match=f"^{re.escape(str(exc))}$"):
            validate_label_sequence(labels, line_base)
        return
    validate_label_sequence(labels, line_base)


def test_repair_bio_promotes_orphans():
    assert repair_bio([NULL_LABEL, "I-TOWN", "I-TOWN"]) == [NULL_LABEL, "B-TOWN", "I-TOWN"]
    assert repair_bio(["B-A", "I-B"]) == ["B-A", "B-B"]


def test_augment_all_correct_unchanged():
    u = utt("u", ["a", "b"], ["B-TOWN", NULL_LABEL], flags=["correct", "correct"])
    assert augment_error_labels(u).labels() == ["B-TOWN", NULL_LABEL]


def test_augment_error_on_concept():
    # erroneous word standing where the reference carried B-TOWN
    u = utt("u", ["a", "b"], ["B-TOWN", NULL_LABEL], flags=["error", "correct"])
    assert augment_error_labels(u).labels() == [ERROR_C, NULL_LABEL]


def test_augment_inserted_token():
    u = utt("u", ["a", "b"], [NULL_LABEL, NULL_LABEL], flags=["error", "correct"])
    assert augment_error_labels(u).labels() == [ERROR_N, NULL_LABEL]


def test_augment_requires_flags():
    u = utt("u", ["a"], [NULL_LABEL])
    with pytest.raises(SchemaError, match="token 0 of 'u' lacks an error flag"):
        augment_error_labels(u)
    u = utt("u", ["a"], flags=["correct"])
    with pytest.raises(SchemaError, match="token 0 of 'u' lacks a projected label"):
        augment_error_labels(u)


def test_augment_keeps_sequence_segmentable():
    u = utt("u", ["a", "b", "c"], ["B-TOWN", "I-TOWN", "I-TOWN"],
            flags=["correct", "error", "correct"])
    assert augment_error_labels(u).labels() == ["B-TOWN", ERROR_C, "B-TOWN"]


def test_strip_error_labels():
    out = TaggerOutput("u", ("B-TOWN", ERROR_N, NULL_LABEL))
    assert strip_error_labels(out).labels == ("B-TOWN", NULL_LABEL, NULL_LABEL)
    out = TaggerOutput("u", (ERROR_C, ERROR_C))
    assert strip_error_labels(out).labels == (NULL_LABEL, NULL_LABEL)


@given(st.lists(st.sampled_from(["B-TOWN", "I-TOWN", NULL_LABEL, ERROR_C, ERROR_N]),
                min_size=1, max_size=8))
def test_strip_is_idempotent_and_fixpoint(labels):
    out = TaggerOutput("u", tuple(labels))
    once = strip_error_labels(out)
    assert strip_error_labels(once) == once
    assert len(once.labels) == len(labels)
    if ERROR_C not in labels and ERROR_N not in labels:
        assert once == out


def test_outputs_file_roundtrip(tmp_path):
    outs = [TaggerOutput("u1", ("null", "B-TOWN")), TaggerOutput("u2", ("null",))]
    p = tmp_path / "o.lab"
    corpus.write_outputs(outs, p)
    assert corpus.read_outputs(p) == outs


# ---------------------------------------------------------------------------
# Phrase tables
# ---------------------------------------------------------------------------

_phrase_words = st.sampled_from(["a", "b", "c", "A", "B"])


@given(st.dictionaries(st.lists(_phrase_words, min_size=1, max_size=3).map(" ".join),
                       st.integers(), max_size=6),
       st.lists(_phrase_words, max_size=10))
def test_phrase_table_greedy_longest_match(entries, words):
    table = PhraseTable(entries.items())
    payloads = {PhraseTable.key(k): v for k, v in entries.items()}
    lowered = tuple(w.lower() for w in words)
    spans = list(table.matches(words))
    # the spans cover the words exactly once, in order
    assert [i for s, e, _ in spans for i in range(s, e)] == list(range(len(words)))
    for s, e, payload in spans:
        longer = [lowered[s:j] for j in range(e + 1, len(words) + 1)]
        assert not any(k in payloads for k in longer)  # no longer key starts here
        if payload is None:
            assert e == s + 1 and lowered[s:e] not in payloads  # starts no key
        else:
            assert payloads[lowered[s:e]] == payload  # the span is a key
    assert [(s, e, p is not None) for s, e, p in spans] == brute_force_phrase_spans(
        words, entries)


def test_phrase_table_lowercases_keys_and_words():
    table = PhraseTable([("Swimming  Pool", "SERVICE")])
    assert list(table.matches(["a", "SWIMMING", "pool"])) == [
        (0, 1, None), (1, 3, "SERVICE")]


# ---------------------------------------------------------------------------
# Block files: every write either reads back as itself or is refused
# ---------------------------------------------------------------------------

# six-decimal values (what the pipeline writes) and arbitrary ones
_conf = st.none() | st.floats(min_value=0.0, max_value=1.0) | st.integers(
    min_value=0, max_value=10**6).map(lambda i: round(i / 10**6, 6))


@st.composite
def tokens(draw):
    return Token(surface=draw(_plain | _text.filter(bool)),
                 lemma=draw(st.none() | _plain),
                 pos=draw(st.none() | _plain),
                 deprel=draw(st.none() | _plain),
                 sem_category=draw(_category),
                 pap=draw(_conf),
                 mlp_conf=draw(_conf),
                 error_flag=draw(st.sampled_from([None, "correct", "error"])),
                 label=draw(st.none() | _plain | _text | st.sampled_from(["B-x", "I-x"])))


@st.composite
def datasets(draw):
    ids = draw(st.lists(_plain | _text, max_size=3, unique=True))
    utts = []
    for uid in ids:
        n = draw(st.integers(min_value=1, max_value=3))
        toks = []
        for i in range(n):
            # a governor written as an int, a float or a bool, and a text
            # field that is not text: the reader gives back only int and str
            gov = draw(st.none() | st.sampled_from([g for g in range(n) if g != i] or [None]))
            if gov is not None:
                kinds = [int, float, bool] if gov < 2 else [int, float]  # bool(2) is True
                gov = draw(st.sampled_from(kinds))(gov)
            changes = {"governor": gov}
            field = draw(st.sampled_from([None, None, "surface", "lemma", "pos", "deprel",
                                          "sem_category", "label"]))
            if field is not None:
                changes[field] = draw(st.integers(min_value=1, max_value=9) | st.just(0.5))
            toks.append(dataclasses.replace(draw(tokens()), **changes))
        utts.append(Utterance(uid, tuple(toks)))
    return Dataset(tuple(utts))


def _same_outcome(expected, actual):
    """Call both; they must return equal values or raise the same error.

    The one message meant to differ: a cell that is not a number is named
    by its Token field, so the reference's "bad confidence" is "bad mlp_conf".
    """
    try:
        want = expected()
    except (ParseError, SchemaError) as exc:
        message = str(exc).replace("bad confidence", "bad mlp_conf")
        with pytest.raises(type(exc), match=f"^{re.escape(message)}$"):
            actual()
        return None
    got = actual()
    assert got == want
    return got


@given(st.integers(min_value=0, max_value=3), tokens(),
       st.none() | st.integers(min_value=0, max_value=3))
@example(0, Token("a", sem_category=None), None)
@example(0, Token("a", sem_category=""), None)
@example(0, Token("a", sem_category="a|b"), None)
@example(0, Token("a", sem_category="b|a"), None)
@example(0, Token("a", sem_category="|"), None)
def test_token_row_equals_reference(i, tok, governor):
    tok = dataclasses.replace(tok, governor=governor)
    row = _same_outcome(lambda: reference_token_row(i, tok), lambda: corpus._token_row(i, tok))
    if row is not None:
        _same_outcome(lambda: reference_parse_token(i, row, 2, "d.tsv", cache(str)),
                      lambda: corpus._parse_token(i, row, 2, "d.tsv", cache(str), {}))


# cells of every kind a row holds, well-formed or not
_cells = st.sampled_from(["_", "0", "1", "x", "-1", "0.5", "1.5", "nan", "a", "B-x", "I-x",
                          "a|b", "correct", "wrong", "", "00", "+1", "1e-7", "0.500000",
                          "1.500000", "-0.000000", "inf",
                          # category cells holding "|", which read back as themselves
                          "b|a", "a|a", "a||c", "_|a", "|"])


@given(st.just("0") | st.sampled_from(["1", "x", "_"]),
       st.lists(_cells, min_size=10, max_size=10) | st.lists(_cells, max_size=12))
@example("0", ["a", "_", "_", "_", "_", "b|a", "_", "_", "_", "null"])
@example("0", ["a", "_", "_", "_", "_", "a|a", "_", "_", "_", "null"])
@example("0", ["a", "_", "_", "_", "_", "a||c", "_", "_", "_", "null"])
@example("0", ["a", "_", "_", "_", "_", "_|a", "_", "_", "_", "null"])
@example("0", ["a", "_", "_", "_", "_", "|", "_", "_", "_", "null"])
def test_parse_token_equals_reference(index, cells):
    line = "\t".join([index, *cells])
    _same_outcome(lambda: reference_parse_token(0, line, 5, "d.tsv", cache(str)),
                  lambda: corpus._parse_token(0, line, 5, "d.tsv", cache(str), {}))


@given(datasets())
def test_tsv_roundtrips_or_refuses(tmp_path_factory, ds):
    p = tmp_path_factory.mktemp("tsv") / "d.tsv"
    try:
        write_dataset(ds, p)
    except SchemaError:
        return
    assert read_dataset(p) == ds


@given(st.lists(st.tuples(_plain | _text, st.lists(_plain | _text, max_size=3)), max_size=3))
def test_outputs_roundtrip_or_refuse(tmp_path_factory, blocks):
    outs = [TaggerOutput(uid, tuple(labels)) for uid, labels in blocks]
    p = tmp_path_factory.mktemp("out") / "o.lab"
    try:
        write_outputs(outs, p)
    except SchemaError:
        return
    assert read_outputs(p) == outs


@pytest.mark.parametrize("tok", [
    Token(surface="a\tb"),
    Token(surface="a", label="_"),
    Token(surface="a", lemma="_"),
    Token(surface="a", sem_category="X\tY"),
    Token(surface="a", sem_category="_"),
    Token(surface="a", sem_category=frozenset({"TOWN"})),
    Token(surface="a", label="a\nb"),
    Token(surface="a", label="I-TOWN"),
    Token(surface="a", pap=0.1234567),
    Token(surface="a", mlp_conf=1 / 3),
    Token(surface="a", sem_category=5),
])
def test_write_dataset_refuses_unrepresentable_token(tmp_path, tok):
    with pytest.raises(SchemaError, match="^utterance 'u': "):
        write_dataset(Dataset((Utterance("u", (tok,)),)), tmp_path / "d.tsv")


@pytest.mark.parametrize("category", [None, "TOWN", "", "a|b", "|"],
                         ids=["none", "text", "empty", "bar-joined", "bar"])
def test_tsv_category_roundtrips(tmp_path, category):
    ds = Dataset((Utterance("u", (Token("a", sem_category=category),)),))
    write_dataset(ds, tmp_path / "d.tsv")
    assert read_dataset(tmp_path / "d.tsv") == ds


@pytest.mark.parametrize("out", [
    TaggerOutput("a\nb", ("null",)),
    TaggerOutput("a\rb", ("null",)),
    TaggerOutput("", ("null",)),
    TaggerOutput("u", ("# id=v",)),
    TaggerOutput("u", ("",)),
    TaggerOutput("u", (" ",)),
    TaggerOutput(9, ("null",)),
])
def test_write_outputs_refuses_unrepresentable_block(tmp_path, out):
    with pytest.raises(SchemaError):
        write_outputs([out], tmp_path / "o.lab")


@pytest.mark.parametrize("write, good, bad", [
    (write_outputs, [TaggerOutput("a", ("null",))],
     [TaggerOutput("u", ("a\ud800",))]),
    (write_outputs, [TaggerOutput("a", ("null",))],
     [TaggerOutput("\udfff", ("null",))]),
    (lambda utts, p: write_dataset(Dataset(tuple(utts)), p),
     [Utterance("a", (Token(surface="x"),))],
     [Utterance("u", (Token(surface="y"), Token(surface="a\ud800")))]),
], ids=["outputs-row", "outputs-id", "dataset-surface"])
def test_writers_refuse_lone_surrogate_before_its_block(tmp_path, write, good, bad):
    write(good, tmp_path / "good")
    with pytest.raises(SchemaError, match="UTF-8"):
        write(good + bad, tmp_path / "bad")
    assert (tmp_path / "bad").read_bytes() == (tmp_path / "good").read_bytes()


def test_read_outputs_rejects_empty_id(tmp_path):
    p = tmp_path / "o.lab"
    p.write_text("# id=\nnull\n\n")
    with pytest.raises(ParseError, match="o.lab: line 1"):
        read_outputs(p)


def test_read_outputs_rejects_row_before_header(tmp_path):
    p = tmp_path / "o.lab"
    p.write_text("# id=u\nnull\n\nB-TOWN\n")
    with pytest.raises(ParseError, match="o.lab: line 4"):
        read_outputs(p)


def test_read_outputs_names_the_line_that_is_not_utf8(tmp_path):
    p = tmp_path / "o.lab"
    p.write_bytes(b"# id=u\r\nnull\r\n\r\n# id=v\r\nB-TOWN\r\n\xe9\r\n\r\n")
    with pytest.raises(ParseError, match="o.lab: line 6: text is not UTF-8"):
        read_outputs(p)
    p.write_bytes(b"# id=u\r\nnull\r\n\r\n# id=v\r\nB-TOWN\r\n\xc3\xa9\r\n\r\n")
    assert read_outputs(p) == [TaggerOutput("u", ("null",)),
                               TaggerOutput("v", ("B-TOWN", "\xe9"))]


# the TSV's governor and label columns, after the index
_GOVERNOR, _LABEL = (1 + TOKEN_FIELDS.index(name) for name in ("governor", "label"))


def _block_file(fmt, utts, noise_config, n):
    """(value, write, read) of format `fmt` for `utts`, the n-best lists n
    long: `write(value, path)` writes what `read(path)` gives back."""
    if fmt == "tsv":
        return Dataset(tuple(utts)), write_dataset, read_dataset
    if fmt == "nbest":
        return ([(u.id, decode_nbest(u, noise_config, n)) for u in utts],
                lambda value, p: write_nbest(p, value), read_nbest)
    return [TaggerOutput(u.id, tuple(u.labels())) for u in utts], write_outputs, read_outputs


def _header_line(blocks, k):
    """The line of block k's header, in a file of `blocks` (lists of lines)."""
    return 1 + sum(len(b) + 1 for b in blocks[:k])


@given(st.sampled_from(["tsv", "nbest", "outputs"]), st.data())
def test_block_files_roundtrip_and_refuse_edits_at_their_line(tmp_path_factory, small_corpus,
                                                              noise_config, fmt, data):
    utts = data.draw(st.lists(st.sampled_from(small_corpus.utterances), min_size=1,
                              max_size=4, unique_by=lambda u: u.id), label="utterances")
    value, write, read = _block_file(fmt, utts, noise_config, data.draw(st.integers(1, 3)))
    p = tmp_path_factory.mktemp("blocks") / f"f.{fmt}"
    write(value, p)
    # the file round-trips: its read-back writes the same bytes
    write(read(p), p.with_name("again"))
    assert p.with_name("again").read_bytes() == p.read_bytes()

    blocks = [b.split("\n") for b in p.read_text().split("\n\n")[:-1]]
    edits = ["repeat", "empty"] + (["governor", "orphan"] if fmt == "tsv" else [])
    edit = data.draw(st.sampled_from(edits), label="edit")
    k = data.draw(st.integers(0, len(blocks) - 1), label="block")
    if edit == "repeat":
        # a copy of block k anywhere after it: the copy's header is refused
        at = data.draw(st.integers(k + 1, len(blocks)))
        blocks.insert(at, blocks[k])
        error, line = ParseError, _header_line(blocks, at)
    elif edit == "empty":
        blocks[k] = blocks[k][:1]
        error, line = ParseError, _header_line(blocks, k)
    else:
        rows = [r.split("\t") for r in blocks[k][1:]]
        if edit == "governor":
            cells = rows[data.draw(st.integers(0, len(rows) - 1))]
            cells[_GOVERNOR] = str(data.draw(st.sampled_from([len(rows), -1])))
        else:
            # a B-x that a B-x/I-x does not precede becomes an orphan I-x
            starts = [i for i, cells in enumerate(rows) if cells[_LABEL].startswith("B-")
                      and (i == 0 or rows[i - 1][_LABEL][2:] != cells[_LABEL][2:])]
            assume(starts)
            cells = rows[data.draw(st.sampled_from(starts))]
            cells[_LABEL] = "I-" + cells[_LABEL][2:]
        blocks[k][1:] = ["\t".join(cells) for cells in rows]
        error, line = SchemaError, _header_line(blocks, k)
    p.write_text("".join("\n".join(b) + "\n\n" for b in blocks))
    with pytest.raises(error) as exc:
        read(p)
    assert str(exc.value).startswith(f"{p}: line {line}: "), (edit, str(exc.value))


def _bare_utterance(uid):
    """An utterance of no tokens, which `Utterance` refuses; so must the writer."""
    u = object.__new__(Utterance)
    for name, value in (("id", uid), ("tokens", ()), ("reference_tokens", None)):
        object.__setattr__(u, name, value)
    return u


_WRITERS = {
    "tsv": write_dataset,
    "outputs": write_outputs,
    "nbest": lambda blocks, p: write_nbest(p, blocks),
    "cn": lambda blocks, p: write_cn(p, blocks),
}


@pytest.mark.parametrize("fmt, blocks, why", [
    ("tsv", [Utterance("u9", (Token("a"),))] * 2, "heads another block"),
    ("tsv", [_bare_utterance("u9")], "the block has no rows"),
    ("tsv", [Utterance("u9", (Token("a", lemma=5),))], "lemma=5 is not text"),
    ("outputs", [TaggerOutput("u9", ("null",))] * 2, "heads another block"),
    ("outputs", [TaggerOutput("u9", ())], "the block has no rows"),
    ("outputs", [TaggerOutput("u9", ("null", " "))], "row ' ' would not read back"),
    ("nbest", [("u9", NBest.from_pairs([(1.0, ["a"])]))] * 2, "heads another block"),
    ("nbest", [("u9", NBest.from_pairs([]))], "the block has no rows"),
    ("nbest", [("u9", NBest.from_pairs([(1.0, ["a b"])]))],
     "word 'a b' is empty or holds whitespace"),
    ("cn", [("u9", cn_from_bins(((("a", 1.0),),), ("a",)))] * 2, "heads another block"),
    ("cn", [("u9", cn_from_bins((), ()))], "the block has no rows"),
    ("cn", [("u9", cn_from_bins(((("a b", 1.0),),), ("a",)))],
     "word 'a b' is empty or holds whitespace"),
    ("outputs", [TaggerOutput("u9", ("null", None))], "row None is not text"),
    ("nbest", [("u9", NBest.from_pairs([(1.0, ["a", 3])]))], "word 3 is not text"),
    ("cn", [("u9", cn_from_bins(((("a", 0.5), (3, 0.5)),), ("a",)))], "word 3 is not text"),
], ids=[f"{fmt}-{rule}" for fmt in ("tsv", "outputs", "nbest", "cn")
        for rule in ("repeated", "empty", "row")]
    + [f"{fmt}-not-text" for fmt in ("outputs", "nbest", "cn")])
def test_writers_name_the_utterance_once(tmp_path, fmt, blocks, why):
    with pytest.raises(SchemaError, match=f"^utterance 'u9': .*{re.escape(why)}") as exc:
        _WRITERS[fmt](blocks, tmp_path / "f")
    assert str(exc.value).count("u9") == 1


@pytest.mark.parametrize("record", [
    Token("paris", lemma="paris", sem_category="TOWN", pap=0.5),
    Utterance("u", (Token("paris"),)),
    TaggerOutput("u", ("B-TOWN",)),
    ConceptSegment("TOWN", "paris", 0, 1),
    ConfidenceRecord(True, 0.5),
], ids=lambda r: type(r).__name__)
def test_records_are_slotted_frozen_values(record):
    assert not hasattr(record, "__dict__")
    first = dataclasses.fields(record)[0].name
    same = dataclasses.replace(record)
    assert same == record and hash(same) == hash(record) and same is not record
    value = getattr(record, first)
    changed = (not value) if isinstance(value, bool) else value + "x"
    other = dataclasses.replace(record, **{first: changed})
    assert other != record and getattr(other, first) == changed
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, first, "y")


def test_read_dataset_shares_equal_text(tmp_path):
    def town(uid):
        return Utterance(uid, (Token("paris", lemma="paris", pos="PROPN", deprel="obl",
                                     sem_category="TOWN",
                                     error_flag="correct", label="B-TOWN"),))

    p = tmp_path / "two.tsv"
    write_dataset(Dataset((town("u1"), town("u2"))), p)
    (a,), (b,) = (u.tokens for u in read_dataset(p))
    assert a == b == town("u1").tokens[0]
    for name in ("surface", "lemma", "pos", "deprel", "sem_category", "error_flag", "label"):
        assert getattr(a, name) is getattr(b, name), name


# confidences the writer writes as they are, the two zeros among them
_written_confs = st.sampled_from([None, 0.0, -0.0, 1.0, 0.5, 0.25, 0.123456])


@given(st.lists(st.lists(st.tuples(_written_confs, _written_confs), min_size=1, max_size=4),
                min_size=1, max_size=4))
def test_tsv_confidences_roundtrip_shared_and_signed(tmp_path_factory, utts):
    ds = Dataset(tuple(Utterance(f"u{k}", tuple(Token("a", pap=pap, mlp_conf=conf)
                                                 for pap, conf in toks))
                       for k, toks in enumerate(utts)))
    p = tmp_path_factory.mktemp("tsv") / "d.tsv"
    write_dataset(ds, p)
    back = read_dataset(p)
    # == cannot tell 0.0 from -0.0, so the bytes written again decide the sign
    write_dataset(back, p.with_name("again.tsv"))
    assert p.with_name("again.tsv").read_bytes() == p.read_bytes()
    confs = [v for u in back for t in u.tokens for v in (t.pap, t.mlp_conf) if v is not None]
    signs = [math.copysign(1.0, v) for u in ds for t in u.tokens
             for v in (t.pap, t.mlp_conf) if v is not None]
    assert [math.copysign(1.0, v) for v in confs] == signs
    # equal non-zero values, in PAP and CONF alike, are one float
    first = {}
    for v in confs:
        if v:
            assert first.setdefault(v, v) is v


def test_read_outputs_shares_equal_labels(tmp_path):
    p = tmp_path / "out.txt"
    write_outputs([TaggerOutput("u1", ("B-TOWN", "I-TOWN")),
                   TaggerOutput("u2", ("I-TOWN", "B-TOWN"))], p)
    first, second = read_outputs(p)
    assert first.labels == ("B-TOWN", "I-TOWN") and second.labels == ("I-TOWN", "B-TOWN")
    assert first.labels[0] is second.labels[1] and first.labels[1] is second.labels[0]
