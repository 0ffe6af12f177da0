"""Word-confidence estimation for recognizer output.

Two measures are produced per hypothesized word: the confusion-network
posterior (computed in `alignment`) and the softmax-Correct score of a
multi-stream MLP error detector trained on words flagged correct/error.
The MLP's word representation is the bottleneck of an autoencoder that
fuses several word embedding tables into one compact vector.  Both
networks train with the one plain mini-batch SGD step, `_sgd`, on a loss
averaged per example (per word).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from . import modelio
from .corpus import CONFIDENCE_DECIMALS, FLAG_CORRECT, Dataset, Utterance, text_lines
from .numutil import rng_for, softmax

LM_FULL, LM_BACKOFF, LM_UNKNOWN = 0, 1, 2
WINDOW = 2  # neighbors on each side in the MS-MLP window stream
PROJ, MERGE, HIDDEN = 16, 64, 32  # MS-MLP widths: per-stream projection, merge, hidden
_MLP_LR, _MLP_BATCH = 0.3, 64  # MS-MLP step per token, and tokens per step
_AE_LR, _AE_BATCH = 0.05, 32  # autoencoder step per word, and words per step
_CHUNK = 256  # tokens per attach_confidence forward pass


class ConfidenceError(Exception):
    pass


# ---------------------------------------------------------------------------
# Embedding tables
# ---------------------------------------------------------------------------

class EmbeddingTable:
    """vocabulary -> fixed-dimension vectors, one row per word (a word twice is a
    ConfidenceError).  `padded` is the matrix over one zero row, row `len(table)`,
    the row of every word the table lacks; `matrix` is a view of its other rows."""

    def __init__(self, words, matrix, name=""):
        self.words = list(words)
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or len(self.words) != matrix.shape[0]:
            raise ConfidenceError("embedding matrix does not match vocabulary")
        self._index = {}
        for i, w in enumerate(self.words):
            if self._index.setdefault(w, i) != i:
                raise ConfidenceError(f"word {w!r} appears twice")
        self.padded = np.vstack([matrix, np.zeros((1, matrix.shape[1]))])
        self.matrix = self.padded[:-1]
        self.name = name

    def __len__(self):
        return len(self.words)

    @property
    def dim(self):
        return self.matrix.shape[1]

    def row_ids(self, words) -> list:
        """Each word's row of `padded`; the zero row for a word the table lacks."""
        zero = len(self.words)
        return [self._index.get(w, zero) for w in words]


def load_embeddings(path, name="") -> EmbeddingTable:
    """Text format: one "word v1 v2 ... vd" per line, space separated.

    The dimension is fixed by the first row; rows that disagree are a
    format error.  Raises ConfidenceError naming the file, and the line
    where there is one, for a row without components, a word
    `write_embeddings` would refuse as empty or holding whitespace (such
    as a no-break space), a word on an earlier line (named too), a bad
    float, a component that is not finite (NaN or inf), a row of another
    dimension, bytes that are not UTF-8, and a file with no rows.
    """
    lines, rows = {}, []  # each word's line, in file order, and its row
    dim = None
    for lineno, line in text_lines(
            path, lambda n: ConfidenceError(f"{path}: line {n}: text is not UTF-8")):
        parts = line.split(" ")
        if len(parts) < 2:
            raise ConfidenceError(f"{path}: line {lineno}: no vector components")
        word, comps = parts[0], parts[1:]
        if word.split() != [word]:
            raise ConfidenceError(
                f"{path}: line {lineno}: word {word!r} is empty or holds whitespace")
        if word in lines:
            raise ConfidenceError(
                f"{path}: line {lineno}: word {word!r} repeats line {lines[word]}")
        try:
            vec = [float(c) for c in comps]
        except ValueError as exc:
            raise ConfidenceError(f"{path}: line {lineno}: bad float") from exc
        if not all(map(math.isfinite, vec)):
            raise ConfidenceError(f"{path}: line {lineno}: a component is not finite")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ConfidenceError(
                f"{path}: line {lineno}: dimension {len(vec)} != {dim}")
        lines[word] = lineno
        rows.append(vec)
    if not rows:
        raise ConfidenceError(f"{path}: no embedding rows")
    return EmbeddingTable(lines, np.array(rows, dtype=np.float64), name=name or str(path))


def write_embeddings(table: EmbeddingTable, path) -> None:
    """Write `table` in the format `load_embeddings` reads, which reads it
    back with each component rounded to six decimals.

    Raises ConfidenceError, before the file is opened, for a table that
    would not read back: one with no words or no vector components, a
    component that is not finite (NaN or inf), or a word that is not
    text, is empty, holds whitespace or holds text UTF-8 cannot encode (a
    lone surrogate).
    """
    if not table.words or table.dim < 1:
        raise ConfidenceError(f"cannot write a {len(table)} x {table.dim} embedding table")
    if not np.isfinite(table.matrix).all():
        raise ConfidenceError("cannot write an embedding component that is not finite")
    for w in table.words:
        if not isinstance(w, str):
            raise ConfidenceError(f"word {w!r} is not text")
        if w.split() != [w]:
            raise ConfidenceError(f"word {w!r} is empty or holds whitespace")
        try:
            w.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfidenceError(f"word {w!r} holds text UTF-8 cannot encode") from exc
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for w, row in zip(table.words, table.matrix):
            fh.write(w + " " + " ".join(f"{v:.6f}" for v in row) + "\n")


def make_hash_embeddings(vocab, dim, name, seed) -> EmbeddingTable:
    """Deterministic pseudo-embedding table (a stand-in for externally
    trained tables, which are consumed as files)."""
    vocab = sorted(set(vocab))
    rows = np.stack([rng_for("emb", name, seed, w).normal(0.0, 0.3, size=dim)
                     for w in vocab])
    return EmbeddingTable(vocab, rows, name=name)


# ---------------------------------------------------------------------------
# Shared by both networks: training
# ---------------------------------------------------------------------------

def _init_params(shapes, rng) -> dict:
    """Glorot-uniform weights `w_*` drawn from `rng` in table order, zero biases."""
    def glorot(rows, cols):
        lim = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-lim, lim, size=(rows, cols))

    return {name: glorot(*shape) if name.startswith("w_") else np.zeros(shape)
            for name, shape in shapes.items()}


def _dense(x, w, b):
    """A dense layer's pre-activation for the example rows `x`."""
    return x @ w.T + b


def _dense_grads(name, dy, x) -> dict:
    """The gradients of dense layer `name`'s `w_<name>` and `b_<name>`, from
    its input rows `x` and the loss gradient `dy` at its `_dense` output."""
    return {f"w_{name}": dy.T @ x, f"b_{name}": dy.sum(axis=0)}


def _sgd(params, loss_and_grads, n, epochs, lr, batch, rng) -> None:
    """Mini-batch gradient descent in place on `params`: each epoch steps every array
    by -lr * its gradient in `loss_and_grads(idx)[1]` for each `batch` indices of
    a permutation of range(n) drawn from `rng` (the last batch may be shorter)."""
    for _ in range(epochs):
        order = rng.permutation(n)
        for s in range(0, n, batch):
            _, grads = loss_and_grads(order[s:s + batch])
            for name, g in grads.items():
                params[name] -= lr * g


# ---------------------------------------------------------------------------
# Autoencoder fusion
# ---------------------------------------------------------------------------

# each header key `load` reads, and its type as JSON reads it back
_AE_KEYS = {"source_names": [str], "source_dims": [int], "bottleneck": int}


@dataclass
class AutoencoderModel:
    w_enc: np.ndarray  # (d, Din)
    b_enc: np.ndarray  # (d,)
    w_dec: np.ndarray  # (Din, d)
    b_dec: np.ndarray  # (Din,)
    source_names: tuple
    source_dims: tuple

    @property
    def bottleneck(self):
        return self.w_enc.shape[0]

    def encode(self, x):
        return np.tanh(_dense(x, self.w_enc, self.b_enc))

    def decode(self, h):
        return _dense(h, self.w_dec, self.b_dec)

    def _header(self):
        return {"source_names": list(self.source_names),
                "source_dims": list(self.source_dims),
                "bottleneck": int(self.bottleneck)}

    def save(self, path):
        modelio.save_blob(path, "autoencoder", self._header(), {
            "w_enc": self.w_enc, "b_enc": self.b_enc,
            "w_dec": self.w_dec, "b_dec": self.b_dec,
        })

    @classmethod
    def load(cls, path):
        """Read a model `save` wrote; ModelIOError, by the load rule of
        `modelio`, for any other file."""
        header, arrays = modelio.load_blob(path, "autoencoder")
        names, dims, d = modelio.header_values(path, header, _AE_KEYS)
        if len(names) != len(dims) or min(dims, default=1) < 1:
            raise modelio.ModelIOError(f"{path}: header key 'source_dims' is not one width "
                                       "of at least 1 per entry of 'source_names'")
        modelio.check_arrays(path, arrays, _ae_shapes(sum(dims), d))
        model = cls(**arrays, source_names=tuple(names), source_dims=tuple(dims))
        modelio.check_header(path, header, model._header())
        return model


def _ae_shapes(din, d):
    """Shape of each autoencoder parameter, in the order they are initialized."""
    return {"w_enc": (d, din), "b_enc": (d,), "w_dec": (din, d), "b_dec": (din,)}


def ae_loss_and_grads(model: AutoencoderModel, x):
    """Per-word squared reconstruction error, with gradients.

    The squared error is summed over a word's Din inputs and averaged
    over the words of the batch, so a gradient step is not shrunk by the
    input width (the MS-MLP's cross entropy is per word in the same way).
    """
    h = model.encode(x)
    diff = model.decode(h) - x
    loss = float(np.sum(diff ** 2)) / len(x)
    dy = 2.0 * diff / len(x)
    grads = _dense_grads("dec", dy, h)
    grads.update(_dense_grads("enc", (dy @ model.w_dec) * (1.0 - h ** 2), x))
    return loss, grads


def shared_vocabulary(tables):
    vocab = set(tables[0].words)
    for t in tables[1:]:
        vocab &= set(t.words)
    return sorted(vocab)


def concat_vectors(tables, words):
    return np.hstack([t.padded[t.row_ids(words)] for t in tables])


def train_autoencoder(tables, d, epochs=300, seed=0):
    """Fit the fusion autoencoder on the tables' shared vocabulary.

    `_sgd` in batches of _AE_BATCH words on the per-word reconstruction
    error of `ae_loss_and_grads`, so _AE_LR is a step per word whatever
    the input width.  The concatenation order of the source tables is part
    of the model and round-trips through its file.  Returns (model, final mse),
    the mse being the element mean over the whole vocabulary (the
    per-word loss divided by Din).
    """
    if len(tables) < 2:
        raise ConfidenceError("need at least two embedding tables to fuse")
    if d < 1:
        raise ConfidenceError(f"bottleneck must be >= 1, got {d}")
    vocab = shared_vocabulary(tables)
    if not vocab:
        raise ConfidenceError("embedding tables share no vocabulary")
    x = concat_vectors(tables, vocab)
    params = _init_params(_ae_shapes(x.shape[1], d), rng_for("ae", seed))
    # the model holds the very arrays `_sgd` steps in place
    model = AutoencoderModel(**params, source_names=tuple(t.name for t in tables),
                             source_dims=tuple(t.dim for t in tables))
    _sgd(params, lambda idx: ae_loss_and_grads(model, x[idx]), len(x), epochs, _AE_LR,
         _AE_BATCH, rng_for("ae-shuffle", seed))
    loss = ae_loss_and_grads(model, x)[0] / x.shape[1]
    return model, loss


def build_fused_table(model: AutoencoderModel, tables, vocab) -> EmbeddingTable:
    """The bottleneck of each word of `vocab` over `tables`; ConfidenceError
    naming the first table whose name or width is not the model's source there."""
    sources = zip(model.source_names, model.source_dims)
    for k, (t, want) in enumerate(zip_longest(tables, sources)):
        got = None if t is None else (t.name, t.dim)
        if got != want:
            raise ConfidenceError(f"table {k} (name, width) is {got}, the model's is {want}")
    vocab = sorted(set(vocab))
    mat = model.encode(concat_vectors(tables, vocab))
    return EmbeddingTable(vocab, mat, name="fused")


# ---------------------------------------------------------------------------
# Language-model backoff surrogate
# ---------------------------------------------------------------------------

BOS = "<s>"


def collect_ngrams(dataset: Dataset):
    """Unigram and bigram inventories of a (training) corpus."""
    unigrams, bigrams = set(), set()
    for utt in dataset:
        prev = BOS
        for tok in utt.tokens:
            w = tok.surface.lower()
            unigrams.add(w)
            bigrams.add((prev, w))
            prev = w
    return frozenset(unigrams), frozenset(bigrams)


def lm_category(prev_word, word, unigrams, bigrams) -> int:
    w = word.lower()
    if (prev_word.lower(), w) in bigrams:
        return LM_FULL
    if w in unigrams:
        return LM_BACKOFF
    return LM_UNKNOWN


# ---------------------------------------------------------------------------
# Multi-stream MLP error detector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MsMlpConfig:
    """The MS-MLP's training settings that a run may vary: the benchmark's
    workloads set `epochs` and `seed` and nothing else.  The widths (PROJ,
    MERGE, HIDDEN), the step _MLP_LR and the batch size _MLP_BATCH are
    module constants, and a model file's header must carry their values."""
    epochs: int = 10
    seed: int = 0


STREAM_ORDER = ("window", "length", "lm", "pos", "deprel", "govpos")


class MsMlpVectorizer:
    """Turns tokens into the detector's input streams.

    Streams, in fixed order: fused embeddings of the word and its
    +-WINDOW neighbors (zeros for unknown words and past either end),
    word length, LM-backoff behaviour, POS, dependency relation, and governor POS.

    They are made in two steps.  `encode` reads utterances once and writes
    each token's ids into one int32 array per stream: the fused-table rows
    of its window (the extra zero row for an unknown word and past either
    end of its utterance), its length, and its LM category, POS, deprel
    and governor-POS indices.  `gather` turns the ids of any selection of
    tokens into the dense float64 rows of each stream, so that a caller
    holds those rows for one batch or chunk of tokens at a time.
    """

    def __init__(self, fused: EmbeddingTable, pos_vocab, deprel_vocab,
                 unigrams, bigrams):
        self.fused = fused
        self.pos_vocab = list(pos_vocab)
        self.deprel_vocab = list(deprel_vocab)
        for key, vocab in (("pos_vocab", self.pos_vocab), ("deprel_vocab", self.deprel_vocab)):
            if "<unk>" not in vocab:
                raise ConfidenceError(f"vocabulary {key!r} lacks '<unk>'")
        self.unigrams = frozenset(unigrams)
        self.bigrams = frozenset(bigrams)
        self._pos_idx = {p: i for i, p in enumerate(self.pos_vocab)}
        self._rel_idx = {r: i for i, r in enumerate(self.deprel_vocab)}
        # one-hot rows for the categorical streams
        self._lm_eye = np.eye(3)
        self._pos_eye = np.eye(len(self.pos_vocab))
        self._rel_eye = np.eye(len(self.deprel_vocab))

    @classmethod
    def from_training(cls, clean_train: Dataset, hyp_train: Dataset,
                      fused: EmbeddingTable):
        unigrams, bigrams = collect_ngrams(clean_train)
        pos, rel = set(), set()
        for utt in hyp_train:
            for tok in utt.tokens:
                pos.add(tok.pos or "<none>")
                rel.add(tok.deprel or "<none>")
        pos_vocab = sorted(pos | {"root", "<none>", "<unk>"})
        rel_vocab = sorted(rel | {"<none>", "<unk>"})
        return cls(fused, pos_vocab, rel_vocab, unigrams, bigrams)

    def stream_dims(self):
        d = self.fused.dim
        return {
            "window": (2 * WINDOW + 1) * d,
            "length": 1,
            "lm": 3,
            "pos": len(self.pos_vocab),
            "deprel": len(self.deprel_vocab),
            "govpos": len(self.pos_vocab),
        }

    def encode(self, utts) -> dict:
        """Each stream's int32 ids for the tokens of the utterance sequence `utts`,
        in order: an (n, 2*WINDOW+1) array for "window", an (n,) array for the others."""
        lengths = [len(u) for u in utts]
        n = sum(lengths)
        ids = {name: np.empty((n, 2 * WINDOW + 1) if name == "window" else n, np.int32)
               for name in STREAM_ORDER}
        # each utterance's fused rows between WINDOW zero rows on either side
        rows = np.full(n + 2 * WINDOW * len(lengths), len(self.fused), np.int32)
        pos_unk, rel_unk = self._pos_idx["<unk>"], self._rel_idx["<unk>"]
        root = self._pos_idx.get("root", pos_unk)
        at = 0
        for k, utt in enumerate(utts):
            toks = utt.tokens
            end = at + len(toks)
            words = [t.surface for t in toks]
            shift = (2 * k + 1) * WINDOW
            rows[at + shift:end + shift] = self.fused.row_ids(w.lower() for w in words)
            ids["length"][at:end] = [len(w) for w in words]
            ids["lm"][at:end] = [lm_category(prev, w, self.unigrams, self.bigrams)
                                 for prev, w in zip([BOS] + words, words)]
            pos = [self._pos_idx.get(t.pos or "<none>", pos_unk) for t in toks]
            ids["pos"][at:end] = pos
            ids["deprel"][at:end] = [self._rel_idx.get(t.deprel or "<none>", rel_unk)
                                     for t in toks]
            ids["govpos"][at:end] = [root if t.governor is None else pos[t.governor]
                                     for t in toks]
            at = end
        first = np.arange(n) + np.repeat(2 * WINDOW * np.arange(len(lengths)), lengths)
        ids["window"][:] = rows[first[:, None] + np.arange(2 * WINDOW + 1)]
        return ids

    def gather(self, ids, sel=slice(None)) -> dict:
        """Each stream's float64 rows for the tokens that `sel`, an index array
        or a slice, selects from the `encode` ids `ids`."""
        window = self.fused.padded[ids["window"][sel]]
        return {
            "window": window.reshape(len(window), (2 * WINDOW + 1) * self.fused.dim),
            "length": ids["length"][sel, None] / 10.0,
            "lm": self._lm_eye[ids["lm"][sel]],
            "pos": self._pos_eye[ids["pos"][sel]],
            "deprel": self._rel_eye[ids["deprel"][sel]],
            "govpos": self._pos_eye[ids["govpos"][sel]],
        }


# each header key `load` reads, and its type as JSON reads it back
_MLP_KEYS = {"fused_words": [str], "pos_vocab": [str], "deprel_vocab": [str],
             "unigrams": [str], "bigrams": [[str]], "config": dict}
_MLP_CONFIG_KEYS = {"epochs": int, "seed": int}


class MsMlpModel:
    """Per-stream projections, a merge layer, one hidden layer and two
    output units scoring Correct and Error."""

    def __init__(self, vectorizer: MsMlpVectorizer, params, config: MsMlpConfig):
        self.vectorizer = vectorizer
        self.params = params
        self.config = config

    def forward(self, streams):
        """(Correct and Error scores, (projs, m_in, m, h)): the scores of the
        rows of `streams`, and the layer outputs the gradient reads."""
        p = self.params
        projs = {name: np.tanh(_dense(streams[name], p[f"w_{name}"], p[f"b_{name}"]))
                 for name in STREAM_ORDER}
        m_in = np.concatenate([projs[name] for name in STREAM_ORDER], axis=1)
        m = np.tanh(_dense(m_in, p["w_merge"], p["b_merge"]))
        h = np.tanh(_dense(m, p["w_hidden"], p["b_hidden"]))
        return _dense(h, p["w_out"], p["b_out"]), (projs, m_in, m, h)

    def confidences(self, utt: Utterance):
        """Softmax value of the Correct output per token, strictly in (0,1)."""
        vec = self.vectorizer
        return self._confidences(vec.gather(vec.encode((utt,))))

    def _confidences(self, streams):
        """`confidences` of the token rows of `streams`."""
        p = softmax(self.forward(streams)[0], axis=1)[:, 0]
        return np.clip(p, 1e-15, 1.0 - 1e-15)

    def _header(self):
        v = self.vectorizer
        return {
            "stream_order": list(STREAM_ORDER),
            "stream_dims": {k: int(d) for k, d in v.stream_dims().items()},
            "widths": {"proj": PROJ, "merge": MERGE, "hidden": HIDDEN, "out": 2},
            "window": WINDOW,
            "pos_vocab": v.pos_vocab,
            "deprel_vocab": v.deprel_vocab,
            "unigrams": sorted(v.unigrams),
            "bigrams": [list(b) for b in sorted(v.bigrams)],
            "fused_words": v.fused.words,
            "config": {"epochs": self.config.epochs, "lr": _MLP_LR,
                       "batch": _MLP_BATCH, "seed": self.config.seed},
        }

    def save(self, path):
        arrays = dict(self.params)
        arrays["fused_matrix"] = self.vectorizer.fused.matrix
        modelio.save_blob(path, "msmlp", self._header(), arrays)

    @classmethod
    def load(cls, path):
        """Read a model `save` wrote; ModelIOError, by the load rule of
        `modelio`, for any other file."""
        header, arrays = modelio.load_blob(path, "msmlp")
        words, pos_vocab, deprel_vocab, unigrams, bigrams, config = modelio.header_values(
            path, header, _MLP_KEYS)
        cfg = MsMlpConfig(*modelio.header_values(path, config, _MLP_CONFIG_KEYS))
        matrix = arrays.pop("fused_matrix", None)
        if (matrix is None or matrix.ndim != 2 or matrix.shape[0] != len(words)
                or matrix.dtype != np.float64):
            raise modelio.ModelIOError(
                f"{path}: array 'fused_matrix' is not float64 with one row per fused word")
        try:
            vec = MsMlpVectorizer(EmbeddingTable(words, matrix, name="fused"), pos_vocab,
                                  deprel_vocab, unigrams, (tuple(b) for b in bigrams))
        except ConfidenceError as exc:
            raise modelio.ModelIOError(f"{path}: {exc}") from exc
        modelio.check_arrays(path, arrays, _param_shapes(vec.stream_dims()))
        model = cls(vec, arrays, cfg)
        modelio.check_header(path, header, model._header())
        return model


def _param_shapes(stream_dims):
    """Shape of each MS-MLP parameter, in the order they are initialized."""
    shapes = {}
    for name in STREAM_ORDER:
        shapes[f"w_{name}"] = (PROJ, stream_dims[name])
        shapes[f"b_{name}"] = (PROJ,)
    shapes.update(w_merge=(MERGE, PROJ * len(STREAM_ORDER)), b_merge=(MERGE,),
                  w_hidden=(HIDDEN, MERGE), b_hidden=(HIDDEN,),
                  w_out=(2, HIDDEN), b_out=(2,))
    return shapes


def _init_mlp_params(vectorizer: MsMlpVectorizer, cfg: MsMlpConfig):
    return _init_params(_param_shapes(vectorizer.stream_dims()), rng_for("msmlp", cfg.seed))


def mlp_loss_and_grads(model: MsMlpModel, streams, y):
    """Mean 2-class cross entropy over a batch, with gradients."""
    p = model.params
    z, (projs, m_in, m, h) = model.forward(streams)
    probs = softmax(z, axis=1)
    n = len(y)
    loss = float(-np.mean(np.log(np.clip(probs[np.arange(n), y], 1e-300, None))))
    dz = probs.copy()
    dz[np.arange(n), y] -= 1.0
    dz /= n
    grads = _dense_grads("out", dz, h)
    dh_pre = (dz @ p["w_out"]) * (1.0 - h ** 2)
    grads.update(_dense_grads("hidden", dh_pre, m))
    dm_pre = (dh_pre @ p["w_hidden"]) * (1.0 - m ** 2)
    grads.update(_dense_grads("merge", dm_pre, m_in))
    dm_in = dm_pre @ p["w_merge"]
    for k, name in enumerate(STREAM_ORDER):
        dp_pre = dm_in[:, k * PROJ:(k + 1) * PROJ] * (1.0 - projs[name] ** 2)
        grads.update(_dense_grads(name, dp_pre, streams[name]))
    return loss, grads


def _training_matrix(dataset: Dataset, vectorizer: MsMlpVectorizer):
    """The `MsMlpVectorizer.encode` ids of every token of `dataset`, and
    the labels (0 correct, 1 error)."""
    y = np.empty(dataset.n_tokens(), dtype=np.int64)
    at = 0
    for utt in dataset:
        for i, tok in enumerate(utt.tokens):
            if tok.error_flag is None:
                raise ConfidenceError(
                    f"token {i} of {utt.id!r} lacks an error flag")
            y[at + i] = 0 if tok.error_flag == FLAG_CORRECT else 1
        at += len(utt)
    return vectorizer.encode(dataset), y


def train_msmlp(dataset: Dataset, vectorizer: MsMlpVectorizer,
                cfg: MsMlpConfig = MsMlpConfig()) -> MsMlpModel:
    """`_sgd` on the per-token 2-class cross entropy of `mlp_loss_and_grads`,
    with the epochs and seed of `cfg`, the step _MLP_LR and batches of
    _MLP_BATCH tokens.  Each batch's stream rows are gathered from the
    dataset's ids when the batch is drawn."""
    if len(dataset) == 0:
        raise ConfidenceError("cannot train on an empty dataset")
    model = MsMlpModel(vectorizer, _init_mlp_params(vectorizer, cfg), cfg)
    ids, y = _training_matrix(dataset, vectorizer)

    def loss_and_grads(idx):
        return mlp_loss_and_grads(model, vectorizer.gather(ids, idx), y[idx])

    _sgd(model.params, loss_and_grads, len(y), cfg.epochs, _MLP_LR, _MLP_BATCH,
         rng_for("msmlp-shuffle", cfg.seed))
    return model


def attach_confidence(dataset: Dataset, model: MsMlpModel) -> Dataset:
    """Fill every token's mlp_conf column with its `MsMlpModel.confidences`
    value, rounded to the corpus TSV's `CONFIDENCE_DECIMALS`.

    The dataset is encoded once, and the forward pass runs over
    consecutive chunks of _CHUNK tokens, which may cut across utterances:
    only one chunk's stream rows are held at a time.
    """
    vec = model.vectorizer
    ids = vec.encode(dataset)
    conf = np.empty(len(ids["lm"]))
    for s in range(0, len(conf), _CHUNK):
        conf[s:s + _CHUNK] = model._confidences(vec.gather(ids, slice(s, s + _CHUNK)))
    utts, at = [], 0
    for utt in dataset:
        end = at + len(utt)
        utts.append(utt.with_column("mlp_conf", [round(float(c), CONFIDENCE_DECIMALS)
                                                 for c in conf[at:end]]))
        at = end
    return Dataset(tuple(utts))
