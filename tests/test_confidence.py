import dataclasses
import functools
import io
import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.lib import format as npformat

from slukit import confidence as conf
from slukit import modelio
from slukit.alignment import corrupt
from slukit.confidence import (STREAM_ORDER, AutoencoderModel, ConfidenceError,
                               EmbeddingTable, MsMlpConfig, MsMlpModel,
                               MsMlpVectorizer, ae_loss_and_grads,
                               attach_confidence, build_fused_table,
                               collect_ngrams, load_embeddings,
                               make_hash_embeddings, mlp_loss_and_grads,
                               train_autoencoder, train_msmlp,
                               write_embeddings)
from slukit.corpus import Dataset, Token, Utterance
from slukit.grammar import annotate_words, generate_corpus
from slukit.modelio import ModelIOError
from slukit.numutil import rng_for

from helpers import (fd_gradcheck, reference_streams, reference_train_autoencoder,
                     reference_train_msmlp, reference_training_matrix, utt)


# ---------------------------------------------------------------------------
# Embedding tables
# ---------------------------------------------------------------------------

def test_load_embeddings(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("paris 0.1 0.2 0.3\nlyon -1.0 0.0 1.0\n")
    table = load_embeddings(p)
    assert len(table) == 2 and table.dim == 3
    assert table.lookup("paris") == pytest.approx([0.1, 0.2, 0.3])
    assert table.lookup("zzz") == pytest.approx([0.0, 0.0, 0.0])


def test_load_embeddings_dim_mismatch(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 0.1 0.2\nb 0.1 0.2 0.3\n")
    with pytest.raises(ConfidenceError):
        load_embeddings(p)


def test_load_embeddings_refuses_empty_file(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("")
    with pytest.raises(ConfidenceError, match="emb.txt"):
        load_embeddings(p)


def test_load_embeddings_names_the_line_that_is_not_utf8(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_bytes(b"a 0.1 0.2\r\nb 0.3 0.4\r\n\xff 0.5 0.6\r\n")
    with pytest.raises(ConfidenceError, match="emb.txt: line 3: text is not UTF-8"):
        load_embeddings(p)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-Infinity"])
def test_load_embeddings_names_the_line_of_a_component_that_is_not_finite(tmp_path, cell):
    p = tmp_path / "emb.txt"
    p.write_text(f"a 0.1 0.2\nb 0.3 {cell}\n")
    with pytest.raises(ConfidenceError, match="emb.txt: line 2: a component is not finite"):
        load_embeddings(p)


def test_load_embeddings_duplicate_last_wins(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1.0 1.0\na 2.0 2.0\n")
    with pytest.warns(UserWarning):
        table = load_embeddings(p)
    assert table.lookup("a") == pytest.approx([2.0, 2.0])


def test_embeddings_file_roundtrip(tmp_path):
    t = make_hash_embeddings(["a", "b", "c"], 4, "x", 1)
    p = tmp_path / "e.txt"
    write_embeddings(t, p)
    again = load_embeddings(p)
    assert again.words == t.words
    assert np.allclose(again.matrix, t.matrix, atol=1e-6)


# words the writer accepts, and words that are empty, hold whitespace or
# hold a lone surrogate; a table holds at most one of the latter
_emb_words = st.text(alphabet="ab#_\xe9", min_size=1, max_size=2)
_bad_emb_words = (st.just("") | st.just("a\ud800")
                  | st.text(alphabet="ab \t\n\r\x0b\x1c\x85\xa0\u2028", min_size=1, max_size=3)
                  .filter(lambda w: w.split() != [w]))


@given(st.lists(_emb_words, min_size=1, max_size=4, unique=True),
       st.none() | st.none() | _bad_emb_words, st.integers(1, 3), st.data())
def test_embeddings_roundtrip_or_refuse(tmp_path_factory, words, bad, dim, data):
    if bad is not None:
        words.insert(data.draw(st.integers(0, len(words))), bad)
    values = data.draw(st.lists(st.floats(), min_size=len(words) * dim,
                                max_size=len(words) * dim))
    table = EmbeddingTable(words, np.array(values, dtype=float).reshape(len(words), dim))
    p = tmp_path_factory.mktemp("emb") / "e.txt"
    try:
        write_embeddings(table, p)
    except ConfidenceError:
        assert not p.exists()
        return
    again = load_embeddings(p)
    assert again.words == table.words
    expected = np.array([[float(f"{v:.6f}") for v in row] for row in table.matrix])
    assert np.array_equal(again.matrix, expected, equal_nan=True)


@pytest.mark.parametrize("words, bad", [
    (["a", "b c"], "b c"), (["a", ""], ""), (["\xa0"], "\xa0"),
    (["a", "b\ud800"], "b\ud800"), (["a", "b", "a"], "a"), (["a", 3], 3),
])
def test_write_embeddings_names_the_word_before_opening(tmp_path, words, bad):
    p = tmp_path / "e.txt"
    with pytest.raises(ConfidenceError, match=re.escape(repr(bad))):
        write_embeddings(EmbeddingTable(words, np.zeros((len(words), 2))), p)
    assert not p.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_embeddings_refuses_a_component_that_is_not_finite(tmp_path, value):
    p = tmp_path / "e.txt"
    with pytest.raises(ConfidenceError, match="not finite"):
        write_embeddings(EmbeddingTable(["a", "b"], [[0.0, 1.0], [value, 0.0]]), p)
    assert not p.exists()


@pytest.mark.parametrize("shape", [(0, 2), (2, 0)], ids=["no-words", "no-components"])
def test_write_embeddings_refuses_empty_table(tmp_path, shape):
    p = tmp_path / "e.txt"
    with pytest.raises(ConfidenceError):
        write_embeddings(EmbeddingTable(["a", "b"][:shape[0]], np.zeros(shape)), p)
    assert not p.exists()


# ---------------------------------------------------------------------------
# Autoencoder
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_tables():
    vocab = [f"w{i}" for i in range(50)]
    return [make_hash_embeddings(vocab, 5, "cbow", 3),
            make_hash_embeddings(vocab, 7, "glove", 4)]


def test_ae_gradient_matches_finite_differences(tiny_tables):
    model, _ = train_autoencoder(tiny_tables, d=4, epochs=0, seed=0)
    x = conf.concat_vectors(tiny_tables, [f"w{i}" for i in range(6)])
    params = {"w_enc": model.w_enc, "b_enc": model.b_enc,
              "w_dec": model.w_dec, "b_dec": model.b_dec}
    _, grads = ae_loss_and_grads(model, x)
    worst = fd_gradcheck(lambda: ae_loss_and_grads(model, x)[0], params, grads)
    assert worst < 1e-4


def test_ae_identity_capacity(tiny_tables):
    # bottleneck as wide as the input can drive reconstruction error tiny
    with mock.patch.object(conf, "_AE_LR", 0.2):
        model, mse = train_autoencoder(tiny_tables, d=12, epochs=800, seed=1)
    assert mse < 1e-3


def test_ae_beats_mean_at_pipeline_width(default_grammar):
    # 72 inputs: an element-averaged loss would shrink each step by Din
    # and leave reconstruction worse than predicting the mean
    vocab = default_grammar.asr_vocabulary()
    tables = [make_hash_embeddings(vocab, 32, "cbow", 1),
              make_hash_embeddings(vocab, 24, "skipgram", 1),
              make_hash_embeddings(vocab, 16, "glove", 1)]
    x = conf.concat_vectors(tables, conf.shared_vocabulary(tables))
    _, mse = train_autoencoder(tables, d=24, epochs=100, seed=1)
    assert mse < float(np.mean(x.var(axis=0)))


def test_ae_epochs_zero_is_init(tiny_tables):
    a, _ = train_autoencoder(tiny_tables, d=3, epochs=0, seed=5)
    b, _ = train_autoencoder(tiny_tables, d=3, epochs=0, seed=5)
    assert np.array_equal(a.w_enc, b.w_enc) and np.array_equal(a.w_dec, b.w_dec)
    trained, _ = train_autoencoder(tiny_tables, d=3, epochs=5, seed=5)
    assert not np.array_equal(a.w_enc, trained.w_enc)


def test_ae_deterministic(tiny_tables):
    a, la = train_autoencoder(tiny_tables, d=4, epochs=20, seed=9)
    b, lb = train_autoencoder(tiny_tables, d=4, epochs=20, seed=9)
    assert la == lb and np.array_equal(a.w_enc, b.w_enc)


def test_ae_loss_monotone_full_batch(tiny_tables):
    model, _ = train_autoencoder(tiny_tables, d=4, epochs=0, seed=2)
    x = conf.concat_vectors(tiny_tables, [f"w{i}" for i in range(20)])
    losses = []
    for _ in range(20):
        loss, grads = ae_loss_and_grads(model, x)
        losses.append(loss)
        for name, g in grads.items():
            setattr(model, name, getattr(model, name) - 0.01 * g)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_fuse_properties(tiny_tables):
    model, _ = train_autoencoder(tiny_tables, d=4, epochs=10, seed=0)
    v1 = build_fused_table(model, tiny_tables, ["w3"]).lookup("w3")
    v2 = build_fused_table(model, tiny_tables, ["w3"]).lookup("w3")
    assert np.array_equal(v1, v2) and v1.shape == (4,)
    # unseen word under zero-OOV tables: bottleneck of the zero vector
    oov = build_fused_table(model, tiny_tables, ["zzz"]).lookup("zzz")
    assert oov == pytest.approx(np.tanh(model.b_enc))


@pytest.mark.parametrize("pick, first", [
    (lambda x, y: [y, x], 0),
    (lambda x, y: [x], 1),
    (lambda x, y: [x, y, y], 2),
    (lambda x, y: [x, make_hash_embeddings(y.words, 3, "y", 0)], 1),
    (lambda x, y: [EmbeddingTable(x.words, x.matrix, name="z"), y], 0),
], ids=["reversed", "fewer", "more", "wider", "renamed"])
def test_build_fused_table_names_the_first_table_unlike_the_models_source(pick, first):
    # reversed, the two widths still sum to the input width
    vocab = [f"w{i}" for i in range(5)]
    x, y = make_hash_embeddings(vocab, 3, "x", 0), make_hash_embeddings(vocab, 2, "y", 0)
    model, _ = train_autoencoder([x, y], d=2, epochs=0, seed=0)
    with pytest.raises(ConfidenceError, match=f"^table {first} "):
        build_fused_table(model, pick(x, y), vocab)


def test_ae_file_roundtrip(tmp_path, tiny_tables):
    model, _ = train_autoencoder(tiny_tables, d=4, epochs=3, seed=0)
    p = tmp_path / "ae.slk"
    model.save(p)
    again = AutoencoderModel.load(p)
    assert again.source_names == model.source_names
    assert np.array_equal(again.w_enc, model.w_enc)
    fused_a = build_fused_table(model, tiny_tables, ["w0", "w1"])
    fused_b = build_fused_table(again, tiny_tables, ["w0", "w1"])
    assert np.array_equal(fused_a.matrix, fused_b.matrix)


def _saved_tiny_ae(tmp_path, tiny_tables):
    model, _ = train_autoencoder(tiny_tables, d=2, epochs=0, seed=0)
    p = tmp_path / "ae.slk"
    model.save(p)
    header, arrays = modelio.load_blob(p, "autoencoder")
    return p, header, arrays


@pytest.mark.parametrize("key", ["source_names", "source_dims", "bottleneck"])
def test_ae_load_names_a_missing_header_key(tmp_path, tiny_tables, key):
    p, header, arrays = _saved_tiny_ae(tmp_path, tiny_tables)
    del header[key]
    modelio.save_blob(p, "autoencoder", header, arrays)
    with pytest.raises(ModelIOError, match=re.escape(str(p)) + ".*" + repr(key)):
        AutoencoderModel.load(p)


@pytest.mark.parametrize("edit, what", [
    (lambda h, a: (h, {k: v for k, v in a.items() if k != "b_enc"}), "'b_enc'"),
    (lambda h, a: (h, dict(a, w_dec=a["w_dec"][:-1])), "'w_dec'"),
    (lambda h, a: (h, dict(a, b_dec=a["b_dec"][:, None])), "'b_dec'"),
    (lambda h, a: (dict(h, source_dims=[5, 6]), a), "'w_enc'"),
    (lambda h, a: (dict(h, bottleneck=3), a), "'w_enc'"),
    (lambda h, a: (dict(h, source_names=["cbow"]), a), "source_names"),
    # header values of another type than `save` writes
    (lambda h, a: (dict(h, source_dims=["3", "4"]), a), "'source_dims'"),
    (lambda h, a: (dict(h, source_dims=3), a), "'source_dims'"),
    (lambda h, a: (dict(h, source_names=5), a), "'source_names'"),
    # widths that sum to the input width, but are not widths
    (lambda h, a: (dict(h, source_dims=[-1, 13]), a), "'source_dims'"),
    (lambda h, a: (dict(h, source_dims=[0, 12]), a), "'source_dims'"),
], ids=["no-b_enc", "shorter-w_dec", "column-b_dec", "fewer-source-dims",
        "wider-bottleneck", "one-source-name", "text-source-dims", "int-source-dims",
        "int-source-names", "negative-source-dim", "zero-source-dim"])
def test_ae_load_names_a_misshapen_array(tmp_path, tiny_tables, edit, what):
    p, header, arrays = _saved_tiny_ae(tmp_path, tiny_tables)
    modelio.save_blob(p, "autoencoder", *edit(header, arrays))
    with pytest.raises(ModelIOError, match=re.escape(str(p)) + ".*" + what):
        AutoencoderModel.load(p)


def test_ae_rejects_bad_config(tiny_tables):
    with pytest.raises(ConfidenceError):
        train_autoencoder(tiny_tables, d=0)
    with pytest.raises(ConfidenceError):
        train_autoencoder(tiny_tables[:1], d=2)


# ---------------------------------------------------------------------------
# MS-MLP
# ---------------------------------------------------------------------------

def _flagged(words, flags, pos="NOUN"):
    toks = tuple(Token(surface=w, pos=pos, deprel="obj",
                       governor=None if i == 0 else 0,
                       error_flag=f) for i, (w, f) in enumerate(zip(words, flags)))
    return Utterance("u" + "-".join(words[:2]) + str(len(words)), toks)


def _mlp_constants(proj, merge, hidden, lr=conf._MLP_LR, batch=conf._MLP_BATCH):
    """Patch the MS-MLP's widths, step and batch size, to keep a test's model small."""
    return mock.patch.multiple(conf, PROJ=proj, MERGE=merge, HIDDEN=hidden,
                               _MLP_LR=lr, _MLP_BATCH=batch)


def _tiny_vectorizer(train_words, fused_dim=4):
    fused = make_hash_embeddings(train_words, fused_dim, "fused", 0)
    clean = Dataset((utt("c0", list(train_words)),))
    unigrams, bigrams = collect_ngrams(clean)
    return MsMlpVectorizer(fused, ["NOUN", "root", "<none>", "<unk>"],
                           ["obj", "root", "<none>", "<unk>"], unigrams, bigrams)


def test_mlp_gradient_matches_finite_differences():
    # at the full widths this check takes about 30 times as long
    vec = _tiny_vectorizer(("aa", "bb", "cc", "dd"))
    cfg = MsMlpConfig(seed=2)
    ds = Dataset((
        _flagged(["aa", "bb", "cc"], ["correct", "error", "correct"]),
        _flagged(["dd", "aa"], ["error", "correct"]),
        _flagged(["cc", "cc", "dd", "bb", "aa"],
                 ["correct", "correct", "error", "correct", "error"]),
    ))
    with _mlp_constants(3, 5, 4):
        model = MsMlpModel(vec, conf._init_mlp_params(vec, cfg), cfg)
        ids, y = conf._training_matrix(ds, vec)
        x = vec.gather(ids)
        _, grads = mlp_loss_and_grads(model, x, y)
        worst = fd_gradcheck(lambda: mlp_loss_and_grads(model, x, y)[0],
                             model.params, grads)
    assert worst < 1e-4


def test_mlp_learns_separable_data():
    # errors are exactly the words unseen in training text: the LM
    # stream makes the classes linearly separable
    words_ok = ["aa", "bb", "cc", "dd"]
    words_bad = ["zz", "qq"]
    vec = _tiny_vectorizer(tuple(words_ok))
    rng = rng_for("sep", 0)
    utts = []
    for k in range(60):
        n = int(rng.integers(2, 6))
        ws, fs = [], []
        for _ in range(n):
            if rng.random() < 0.3:
                ws.append(words_bad[int(rng.integers(len(words_bad)))])
                fs.append("error")
            else:
                ws.append(words_ok[int(rng.integers(len(words_ok)))])
                fs.append("correct")
        toks = tuple(Token(surface=w, pos="NOUN", deprel="obj",
                           governor=None if i == 0 else 0, error_flag=f)
                     for i, (w, f) in enumerate(zip(ws, fs)))
        utts.append(Utterance(f"s{k}", toks))
    ds = Dataset(tuple(utts))
    with _mlp_constants(6, 12, 8, lr=0.5):
        model = train_msmlp(ds, vec, MsMlpConfig(epochs=60, seed=1))
    ids, y = conf._training_matrix(ds, vec)
    x = vec.gather(ids)
    z = model.forward(x)[0]
    acc = float(np.mean(np.argmax(z, axis=1) == y))
    assert acc >= 0.98


def test_mlp_single_class_saturates():
    vec = _tiny_vectorizer(("aa", "bb"))
    ds = Dataset((_flagged(["aa", "bb", "aa"], ["correct"] * 3),))
    with _mlp_constants(4, 6, 4, lr=0.5):
        model = train_msmlp(ds, vec, MsMlpConfig(epochs=80, seed=0))
    c = model.confidences(ds.utterances[0])
    assert np.all(c > 0.9)


def test_confidence_closed_form_softmax():
    # softmax Correct of scores (2, 0) = logistic(2); equal scores = 0.5
    vec = _tiny_vectorizer(("aa",))
    cfg = MsMlpConfig()
    with _mlp_constants(2, 2, 2):
        model = MsMlpModel(vec, conf._init_mlp_params(vec, cfg), cfg)
    model.params["w_out"][:] = 0.0
    model.params["b_out"][:] = [2.0, 0.0]
    c = model.confidences(utt("u", ["aa"]))
    assert c[0] == pytest.approx(0.8807970779778823, abs=1e-12)
    model.params["b_out"][:] = [0.7, 0.7]
    assert model.confidences(utt("u", ["aa"]))[0] == pytest.approx(0.5)
    model.params["b_out"][:] = [-50.0, 50.0]
    c = model.confidences(utt("u", ["aa"]))[0]
    assert 0.0 < c < 1e-6


def test_confidences_strictly_inside_unit_interval():
    vec = _tiny_vectorizer(("aa", "bb", "cc"))
    cfg = MsMlpConfig(seed=7)
    with _mlp_constants(3, 4, 3):
        model = MsMlpModel(vec, conf._init_mlp_params(vec, cfg), cfg)
    for scale in (1.0, 1e4):
        model.params["b_out"][:] = [scale, -scale]
        c = model.confidences(utt("u", ["aa", "bb", "cc", "zz"]))
        assert np.all((c > 0.0) & (c < 1.0))


def test_mlp_deterministic_and_roundtrip(tmp_path):
    vec = _tiny_vectorizer(("aa", "bb", "cc"))
    ds = Dataset((_flagged(["aa", "bb"], ["correct", "error"]),))
    cfg = MsMlpConfig(epochs=5, seed=3)
    with _mlp_constants(3, 4, 3):
        m1 = train_msmlp(ds, vec, cfg)
        m2 = train_msmlp(ds, vec, cfg)
        for name in m1.params:
            assert np.array_equal(m1.params[name], m2.params[name])
        p = tmp_path / "mlp.slk"
        m1.save(p)
        again = MsMlpModel.load(p)
        u = _flagged(["cc", "aa"], ["correct", "correct"])
        assert np.array_equal(again.confidences(u), m1.confidences(u))
        assert p.read_bytes() == (lambda q: (m1.save(q), q.read_bytes())[1])(tmp_path / "mlp2.slk")


@pytest.fixture
def tiny_widths():
    """The MS-MLP widths of `_saved_tiny_model`, for the whole test."""
    with _mlp_constants(2, 3, 2):
        yield


def _saved_tiny_model(tmp_path):
    vec = _tiny_vectorizer(("aa", "bb"))
    cfg = MsMlpConfig()
    p = tmp_path / "mlp.slk"
    MsMlpModel(vec, conf._init_mlp_params(vec, cfg), cfg).save(p)
    header, arrays = modelio.load_blob(p, "msmlp")
    return p, header, arrays


def test_msmlp_load_refuses_foreign_window(tmp_path, tiny_widths):
    p, header, arrays = _saved_tiny_model(tmp_path)
    assert header["window"] == conf.WINDOW
    modelio.save_blob(p, "msmlp", dict(header, window=1), arrays)
    with pytest.raises(ModelIOError, match=re.escape(str(p)) + ".*'window'"):
        MsMlpModel.load(p)


@pytest.mark.parametrize("path", [
    ("window",), ("widths",), ("widths", "proj"), ("stream_dims",), ("pos_vocab",),
    ("deprel_vocab",), ("unigrams",), ("bigrams",), ("fused_words",), ("config",),
], ids="-".join)
def test_msmlp_load_names_a_missing_header_key(tmp_path, tiny_widths, path):
    p, header, arrays = _saved_tiny_model(tmp_path)
    *outer, key = path
    holder = header
    for name in outer:
        holder[name] = holder = dict(holder[name])
    del holder[key]
    modelio.save_blob(p, "msmlp", header, arrays)
    # a key inside "widths" is named by the header rule as "widths"
    with pytest.raises(ModelIOError, match=re.escape(str(p)) + ".*" + repr(path[0])):
        MsMlpModel.load(p)


def _grown(header, key, extra):
    return dict(header, **{key: header[key] + [extra]})


@pytest.mark.parametrize("edit, array", [
    (lambda h, a: (dict(h, widths=dict(h["widths"], proj=3)), a), "widths"),
    (lambda h, a: (dict(h, widths=dict(h["widths"], hidden=3)), a), "widths"),
    (lambda h, a: (_grown(h, "pos_vocab", "VERB"), a), "w_pos"),
    (lambda h, a: (_grown(h, "deprel_vocab", "nsubj"), a), "w_deprel"),
    (lambda h, a: (h, dict(a, w_merge=a["w_merge"].T)), "w_merge"),
    (lambda h, a: (h, {k: v for k, v in a.items() if k != "b_out"}), "b_out"),
    (lambda h, a: (_grown(h, "fused_words", "cc"), a), "fused_matrix"),
    (lambda h, a: (h, dict(a, fused_matrix=a["fused_matrix"][:, :3])), "w_window"),
    # header values of another type than `save` writes
    (lambda h, a: (dict(h, widths=3), a), "widths"),
    (lambda h, a: (dict(h, pos_vocab=5), a), "pos_vocab"),
    (lambda h, a: (dict(h, unigrams=7), a), "unigrams"),
    (lambda h, a: (dict(h, bigrams=[1]), a), "bigrams"),
    (lambda h, a: (dict(h, config=[1]), a), "config"),
    (lambda h, a: (dict(h, config=dict(h["config"], dropout=0.5)), a), "config"),
], ids=["wider-proj", "wider-hidden", "more-pos", "more-deprel", "transposed-merge",
        "no-b_out", "more-fused-words", "narrower-fused", "int-widths", "int-pos-vocab",
        "int-unigrams", "int-bigram", "list-config", "unknown-config-field"])
def test_msmlp_load_names_a_misshapen_array(tmp_path, tiny_widths, edit, array):
    p, header, arrays = _saved_tiny_model(tmp_path)
    modelio.save_blob(p, "msmlp", *edit(header, arrays))
    with pytest.raises(ModelIOError, match=re.escape(str(p)) + ".*" + repr(array)):
        MsMlpModel.load(p)


@pytest.mark.parametrize("key", ["pos_vocab", "deprel_vocab"])
def test_msmlp_load_refuses_a_vocabulary_without_unk(tmp_path, tiny_widths, key):
    # "<UNK>" for "<unk>" keeps every array's shape, so only the lookup
    # of an unknown tag could fail, and it would fail at the first token
    p, header, arrays = _saved_tiny_model(tmp_path)
    vocab = ["<UNK>" if tag == "<unk>" else tag for tag in header[key]]
    modelio.save_blob(p, "msmlp", dict(header, **{key: vocab}), arrays)
    with pytest.raises(ModelIOError, match=re.escape(str(p)) + ".*" + repr(key)):
        MsMlpModel.load(p)


def test_msmlp_load_refuses_stream_dims_its_vocabularies_contradict(tmp_path, tiny_widths):
    p, header, arrays = _saved_tiny_model(tmp_path)
    dims = dict(header["stream_dims"], lm=4)
    modelio.save_blob(p, "msmlp", dict(header, stream_dims=dims), arrays)
    with pytest.raises(ModelIOError, match=re.escape(str(p)) + ".*stream_dims"):
        MsMlpModel.load(p)


def _reversed(header, key):
    return dict(header, **{key: header[key][::-1]})


@pytest.mark.parametrize("kind, edit, key", [
    ("msmlp", lambda h: _reversed(h, "stream_order"), "stream_order"),
    ("msmlp", lambda h: _reversed(h, "unigrams"), "unigrams"),
    ("msmlp", lambda h: dict(h, widths=dict(h["widths"], out=3)), "widths"),
    ("msmlp", lambda h: dict(h, widths=dict(h["widths"], proj=2.0)), "widths"),
    ("msmlp", lambda h: dict(h, config=dict(h["config"], lr=0.5)), "config"),
    ("msmlp", lambda h: dict(h, note=1), "note"),
    ("autoencoder", lambda h: dict(h, note=1), "note"),
], ids=["reversed-stream-order", "reversed-unigrams", "three-outputs", "float-proj",
        "foreign-lr", "msmlp-unknown-key", "autoencoder-unknown-key"])
def test_model_load_names_the_header_key_save_would_not_write(tmp_path, tiny_tables,
                                                                tiny_widths, kind, edit, key):
    if kind == "msmlp":
        p, header, arrays = _saved_tiny_model(tmp_path)
    else:
        p, header, arrays = _saved_tiny_ae(tmp_path, tiny_tables)
    modelio.save_blob(p, kind, edit(header), arrays)
    with pytest.raises(ModelIOError, match=f"^{re.escape(str(p))}: header key {key!r}"):
        (MsMlpModel if kind == "msmlp" else AutoencoderModel).load(p)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text("ab<>", max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3)),
    max_leaves=5)


_array_edits = {
    "drop": None, "reshape": lambda a: a[..., None],
    "float32": lambda a: a.astype(np.float32), "int64": lambda a: a.astype(np.int64),
}


def _relayout(data, name, fortran):
    """Model file bytes `data` with array `name`'s blob rewritten, the same
    values, in Fortran order or as a version 2.0 .npy: layouts save never writes."""
    fh = io.BytesIO(data)
    fh.seek(12 + int.from_bytes(data[8:12], "big"))
    for n in json.loads(data[12:fh.tell()])["arrays"]:
        start, a = fh.tell(), npformat.read_array(fh)
        if n == name:
            blob = io.BytesIO()
            if fortran:
                npformat.write_array(blob, np.asfortranarray(a))
            else:
                npformat.write_array(blob, a, version=(2, 0))
            return data[:start] + blob.getvalue() + data[fh.tell():]
    raise AssertionError(name)


def _respaced(data, style):
    """Model file bytes `data` with the same header written as save never
    writes it: indented, without spaces, or with its keys unsorted."""
    end = 12 + int.from_bytes(data[8:12], "big")
    head = json.loads(data[12:end])
    if style == "unsorted":
        text = json.dumps(dict(reversed(head.items())), ensure_ascii=False)
    else:
        spacing = {"indent": {"indent": 1}, "compact": {"separators": (",", ":")}}[style]
        text = json.dumps(head, sort_keys=True, ensure_ascii=False, **spacing)
    text = text.encode("utf-8")
    return data[:8] + len(text).to_bytes(4, "big") + text + data[end:]


@given(kind=st.sampled_from(["autoencoder", "msmlp"]), data=st.data())
def test_model_files_roundtrip_or_refuse(tmp_path_factory, tiny_tables, kind, data):
    d = tmp_path_factory.mktemp("model")
    cls = MsMlpModel if kind == "msmlp" else AutoencoderModel
    with _mlp_constants(2, 3, 2):
        if kind == "msmlp":
            p, header, arrays = _saved_tiny_model(d)
        else:
            p, header, arrays = _saved_tiny_ae(d, tiny_tables)
        saved = p.read_bytes()
        cls.load(p).save(p)
        assert p.read_bytes() == saved
        edited = json.loads(json.dumps(header))
        rewrite, why = None, None
        edit_kind = data.draw(st.sampled_from(["array", "header", "layout", "tail", "spacing"]),
                              label="edit")
        if edit_kind == "layout":
            # store one array's blob in a layout save does not write: Fortran
            # order where that changes the bytes (a matrix of 2+ rows and
            # columns), else the .npy 2.0 header
            name = data.draw(st.sampled_from(sorted(arrays)))
            shape = arrays[name].shape
            fortran = len(shape) > 1 and min(shape) > 1 and data.draw(st.booleans())
            rewrite = functools.partial(_relayout, name=name, fortran=fortran)
            named, array_edit = [name], True
        elif edit_kind == "tail":
            # bytes after the last array
            tail = data.draw(st.binary(min_size=1, max_size=3))
            rewrite, why, named, array_edit = (lambda b: b + tail), "bytes follow", [], True
        elif edit_kind == "spacing":
            # the same header, spaced or ordered as save does not write it
            style = data.draw(st.sampled_from(["indent", "compact", "unsorted"]))
            rewrite = functools.partial(_respaced, style=style)
            why, named, array_edit = "header is not written as save", [], True
        elif edit_kind == "array":
            # drop, reshape or retype one array, or add one: save writes
            # none of these, so each must be refused naming that array
            name = data.draw(st.sampled_from(sorted(arrays) + ["fused_matrix", "w_enc", "w_ab"]))
            edit = _array_edits[data.draw(st.sampled_from(sorted(_array_edits)))]
            if name not in arrays:
                arrays[name] = np.zeros(2)
            elif edit is None:
                del arrays[name]
            else:
                arrays[name] = edit(arrays[name])
            named, array_edit = [name], True
        else:
            # replace one value, at the top or inside "widths" or "config", or add a key
            where = data.draw(st.sampled_from([()] + [(k,) for k in ("widths", "config")
                                                      if k in header]))
            holder = edited[where[0]] if where else edited
            key = data.draw(st.sampled_from(sorted(holder.keys() - {"kind", "arrays"}))
                            | st.text("ab", max_size=2))
            old = holder.get(key)
            holder[key] = data.draw(_json_values if type(old) is not int
                                    else _json_values | st.just(float(old)))
            named, array_edit = [*where, key, *(old if isinstance(old, dict) else ())], False
        modelio.save_blob(p, kind, edited, arrays)
        if rewrite is not None:
            p.write_bytes(rewrite(p.read_bytes()))
        written = p.read_bytes()
        # a header edit may describe another model that save writes the same
        # way (no unigrams, say): then it loads, and must re-save to these bytes
        try:
            back = cls.load(p)
        except ModelIOError as exc:
            assert written != saved
            assert str(exc).startswith(f"{p}: ")
            if why:
                assert why in str(exc), str(exc)
            else:
                assert ((not array_edit and "array '" in str(exc))
                        or any(repr(k) in str(exc) for k in named)), str(exc)
            return
        assert not array_edit, named
        back.save(p)
        assert p.read_bytes() == written


def test_mlp_loss_monotone_small_lr():
    vec = _tiny_vectorizer(("aa", "bb", "cc"))
    cfg = MsMlpConfig(seed=1)
    ds = Dataset((_flagged(["aa", "bb", "cc"], ["correct", "error", "correct"]),))
    ids, y = conf._training_matrix(ds, vec)
    x = vec.gather(ids)
    losses = []
    with _mlp_constants(3, 4, 3):
        model = MsMlpModel(vec, conf._init_mlp_params(vec, cfg), cfg)
        for _ in range(20):
            loss, grads = mlp_loss_and_grads(model, x, y)
            losses.append(loss)
            for name, g in grads.items():
                model.params[name] -= 0.05 * g
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def _flag_every_third(corpus):
    return Dataset(tuple(
        dataclasses.replace(u, tokens=tuple(
            dataclasses.replace(t, error_flag="error" if (k + i) % 3 == 0 else "correct")
            for i, t in enumerate(u.tokens)))
        for k, u in enumerate(corpus)))


def test_training_matrix_matches_concatenated_reference(small_corpus):
    hyp = _flag_every_third(small_corpus)
    words = sorted({w.lower() for u in small_corpus for w in u.surfaces()})
    vec = MsMlpVectorizer.from_training(
        small_corpus, hyp, make_hash_embeddings(words, 4, "fused", 0))
    ids, y = conf._training_matrix(hyp, vec)
    x = vec.gather(ids)
    x_ref, y_ref = reference_training_matrix(hyp, vec)
    assert list(x) == list(x_ref) == list(STREAM_ORDER)
    for name in STREAM_ORDER:
        assert x[name].dtype == x_ref[name].dtype
        assert np.array_equal(x[name], x_ref[name]), name
    assert y.dtype == y_ref.dtype and np.array_equal(y, y_ref)
    assert 0 < y.sum() < len(y) == small_corpus.n_tokens()


def test_training_matrix_missing_flag_error_matches_reference():
    vec = _tiny_vectorizer(("aa", "bb"))
    ds = Dataset((_flagged(["aa", "bb"], ["correct", "error"]),
                  utt("u2", ["bb", "aa"], flags=["correct", None])))
    with pytest.raises(ConfidenceError) as got:
        conf._training_matrix(ds, vec)
    with pytest.raises(ConfidenceError) as want:
        reference_training_matrix(ds, vec)
    assert str(got.value) == str(want.value) == "token 1 of 'u2' lacks an error flag"


def _assert_streams_match_reference(vec, u):
    got, want = vec.gather(vec.encode((u,))), reference_streams(vec, u)
    assert list(got) == list(want) == list(STREAM_ORDER)
    for name in STREAM_ORDER:
        assert got[name].dtype == want[name].dtype == np.float64, name
        assert got[name].shape == want[name].shape, name
        assert np.array_equal(got[name], want[name]), name


def test_streams_match_reference_on_hypotheses(small_corpus, noise_config,
                                               default_grammar):
    hyps = [Utterance(u.id, tuple(annotate_words(corrupt(u, noise_config).surfaces(),
                                                 default_grammar)))
            for u in small_corpus]
    words = sorted({w.lower() for u in hyps for w in u.surfaces()})
    # every other word has a fused vector, so the zero row is used too
    vec = MsMlpVectorizer.from_training(
        small_corpus, Dataset(tuple(hyps)), make_hash_embeddings(words[::2], 4, "fused", 0))
    for u in hyps + list(small_corpus):
        _assert_streams_match_reference(vec, u)


def _tok(surface, pos="NOUN", deprel="obj", governor=None):
    return Token(surface=surface, pos=pos, deprel=deprel, governor=governor)


@pytest.mark.parametrize("toks", [
    (_tok("aa"), _tok("zz", governor=0), _tok("bb", governor=0)),
    (_tok("aa", pos=None, deprel=None), _tok("bb", pos=None, governor=0)),
    (_tok("aa", pos="VERB", deprel="nsubj"), _tok("bb", governor=0)),
    (_tok("aa", pos=None), _tok("bb", governor=0), _tok("cc", governor=1)),
    (_tok("cc"),),
    (_tok("zz", pos=None, deprel=None),),
    (_tok("AA"), _tok("Bb", governor=0), _tok("cC", governor=0), _tok("ZZ", governor=2)),
], ids=["oov-word", "pos-deprel-none", "pos-outside-vocab", "governor-pos-none",
        "one-token", "one-oov-token", "upper-case"])
def test_streams_match_reference_on_edge_cases(toks):
    _assert_streams_match_reference(_tiny_vectorizer(("aa", "bb", "cc")),
                                     Utterance("e", toks))


def test_attach_confidence_shards_equal_serial(small_corpus):
    hyp = _flag_every_third(small_corpus)
    words = sorted({w.lower() for u in small_corpus for w in u.surfaces()})
    vec = MsMlpVectorizer.from_training(
        small_corpus, hyp, make_hash_embeddings(words, 4, "fused", 0))
    with _mlp_constants(3, 4, 3):
        model = train_msmlp(hyp, vec, MsMlpConfig(epochs=2, seed=0))
    serial = attach_confidence(hyp, model)
    for k in range(len(hyp) + 1):
        head = attach_confidence(Dataset(hyp.utterances[:k]), model)
        tail = attach_confidence(Dataset(hyp.utterances[k:]), model)
        assert head.utterances + tail.utterances == serial.utterances, k


def test_mlp_requires_flags_and_data():
    vec = _tiny_vectorizer(("aa",))
    with pytest.raises(ConfidenceError):
        train_msmlp(Dataset(()), vec)
    with pytest.raises(ConfidenceError):
        train_msmlp(Dataset((utt("u", ["aa"]),)), vec)


def test_attach_confidence_fills_column():
    vec = _tiny_vectorizer(("aa", "bb"))
    ds = Dataset((_flagged(["aa", "bb"], ["correct", "error"]),))
    with _mlp_constants(3, 4, 3):
        model = train_msmlp(ds, vec, MsMlpConfig(epochs=3, seed=0))
    out = attach_confidence(ds, model)
    for u in out:
        for t in u.tokens:
            assert t.mlp_conf is not None and 0.0 <= t.mlp_conf <= 1.0


# ---------------------------------------------------------------------------
# Both trainers against their own hand-written reference
# ---------------------------------------------------------------------------

_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(n_words=st.integers(min_value=1, max_value=70),
       dims=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=3),
       d=st.integers(min_value=1, max_value=4), epochs=st.integers(min_value=0, max_value=3),
       lr=st.sampled_from([0.05, 0.4]), seed=_seeds)
def test_train_autoencoder_equals_reference(n_words, dims, d, epochs, lr, seed):
    # 32 words per batch: most vocabulary sizes leave a short last batch
    vocab = [f"w{i}" for i in range(n_words)]
    tables = [make_hash_embeddings(vocab, dim, f"t{k}", seed) for k, dim in enumerate(dims)]
    with mock.patch.object(conf, "_AE_LR", lr):
        model, mse = train_autoencoder(tables, d, epochs=epochs, seed=seed)
    expected, expected_mse = reference_train_autoencoder(tables, d, epochs=epochs, lr=lr,
                                                         seed=seed)
    assert mse == expected_mse
    for name in ("w_enc", "b_enc", "w_dec", "b_dec"):
        assert np.array_equal(getattr(model, name), getattr(expected, name)), name


@st.composite
def _flagged_datasets(draw, min_utts=1):
    words = st.sampled_from(["aa", "bb", "cc", "dd", "zz"])
    utts = []
    for k in range(draw(st.integers(min_value=min_utts, max_value=6))):
        ws = draw(st.lists(words, min_size=1, max_size=5))
        flags = draw(st.lists(st.sampled_from(["correct", "error"]),
                              min_size=len(ws), max_size=len(ws)))
        utts.append(Utterance(f"u{k}", _flagged(ws, flags).tokens))
    return Dataset(tuple(utts))


@given(ds=_flagged_datasets(), fused_dim=st.integers(min_value=1, max_value=3),
       widths=st.tuples(*[st.integers(min_value=1, max_value=4)] * 3),
       epochs=st.integers(min_value=0, max_value=3), batch=st.integers(min_value=1, max_value=8),
       lr=st.sampled_from([0.3, 1.0]), seed=_seeds)
def test_train_msmlp_equals_reference(ds, fused_dim, widths, epochs, batch, lr, seed):
    vec = _tiny_vectorizer(("aa", "bb", "cc", "dd"), fused_dim=fused_dim)
    # batches of 1-8 tokens: most datasets leave a short last batch
    cfg = MsMlpConfig(epochs=epochs, seed=seed)
    with _mlp_constants(*widths, lr=lr, batch=batch):
        params = train_msmlp(ds, vec, cfg).params
    expected = reference_train_msmlp(ds, vec, cfg, *widths, lr=lr, batch=batch).params
    assert list(params) == list(expected)
    for name in expected:
        assert np.array_equal(params[name], expected[name]), name


@given(ds=_flagged_datasets(min_utts=0), chunk=st.integers(min_value=1, max_value=4),
       widths=st.tuples(*[st.integers(min_value=1, max_value=4)] * 3),
       scale=st.sampled_from([1.0, 30.0]), seed=_seeds)
@example(ds=Dataset(()), chunk=1, widths=(1, 1, 1), scale=1.0, seed=0)
@example(ds=Dataset(tuple(Utterance(f"u{k}", _flagged([w], ["correct"]).tokens)
                          for k, w in enumerate(["aa", "zz", "bb"]))),
         chunk=2, widths=(2, 2, 2), scale=1.0, seed=0)
def test_attach_confidence_equals_per_utterance_reference(ds, chunk, widths, scale, seed):
    # chunks of 1-4 tokens: most utterances straddle a chunk boundary
    vec = _tiny_vectorizer(("aa", "bb", "cc", "dd"))
    cfg = MsMlpConfig(seed=seed)
    with _mlp_constants(*widths):
        model = MsMlpModel(vec, conf._init_mlp_params(vec, cfg), cfg)
    model.params["w_out"] *= scale  # confidences near 0 and 1 too
    expected = [[round(float(c), 6) for c in model.confidences(u)] for u in ds]
    with mock.patch.object(conf, "_CHUNK", chunk):
        out = attach_confidence(ds, model)
    assert ([[t.mlp_conf.hex() for t in u.tokens] for u in out]
            == [[c.hex() for c in cs] for cs in expected])
    assert out.utterances == tuple(u.with_column("mlp_conf", cs) for u, cs in zip(ds, expected))
