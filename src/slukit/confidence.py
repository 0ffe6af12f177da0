"""Word-confidence estimation for recognizer output.

Two measures are produced per hypothesized word: the confusion-network
posterior (computed in `alignment`) and the softmax-Correct score of a
multi-stream MLP error detector trained on words flagged correct/error.
The MLP's word representation is the bottleneck of an autoencoder that
fuses several word embedding tables into one compact vector.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import modelio
from .corpus import Dataset, Utterance, text_lines
from .numutil import rng_for, softmax

LM_FULL, LM_BACKOFF, LM_UNKNOWN = 0, 1, 2
WINDOW = 2  # neighbors on each side in the MS-MLP window stream


class ConfidenceError(Exception):
    pass


# ---------------------------------------------------------------------------
# Embedding tables
# ---------------------------------------------------------------------------

class EmbeddingTable:
    """vocabulary -> fixed-dimension vectors; an unknown word maps to the
    zero vector."""

    def __init__(self, words, matrix, name=""):
        self.words = list(words)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or len(self.words) != self.matrix.shape[0]:
            raise ConfidenceError("embedding matrix does not match vocabulary")
        self.name = name
        self._index = {w: i for i, w in enumerate(self.words)}

    def __len__(self):
        return len(self.words)

    @property
    def dim(self):
        return self.matrix.shape[1]

    def lookup(self, word):
        i = self._index.get(word)
        if i is not None:
            return self.matrix[i]
        return np.zeros(self.dim)


def load_embeddings(path, name="") -> EmbeddingTable:
    """Text format: one "word v1 v2 ... vd" per line, space separated.

    The dimension is fixed by the first row; rows that disagree are a
    format error.  A repeated word wins with its last row (warned).
    Raises ConfidenceError naming the file, and the line where there is
    one, for a row without components, a bad float, a row of another
    dimension, bytes that are not UTF-8, and a file with no rows.
    """
    words, rows = [], []
    index = {}
    dim = None
    for lineno, line in text_lines(
            path, lambda n: ConfidenceError(f"{path} line {n}: text is not UTF-8")):
        parts = line.split(" ")
        if len(parts) < 2:
            raise ConfidenceError(f"{path} line {lineno}: no vector components")
        word, comps = parts[0], parts[1:]
        try:
            vec = [float(c) for c in comps]
        except ValueError as exc:
            raise ConfidenceError(f"{path} line {lineno}: bad float") from exc
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ConfidenceError(
                f"{path} line {lineno}: dimension {len(vec)} != {dim}")
        if word in index:
            warnings.warn(f"{path}: duplicate word {word!r}, keeping last")
            rows[index[word]] = vec
        else:
            index[word] = len(words)
            words.append(word)
            rows.append(vec)
    if not words:
        raise ConfidenceError(f"{path}: no embedding rows")
    return EmbeddingTable(words, np.array(rows, dtype=np.float64), name=name or str(path))


def write_embeddings(table: EmbeddingTable, path) -> None:
    """Write `table` in the format `load_embeddings` reads.

    Raises ConfidenceError, before the file is opened, for a table that
    would not read back as itself: one with no words or no vector
    components, or a word that is empty, holds whitespace, holds text
    UTF-8 cannot encode (a lone surrogate) or appears twice.
    """
    if not table.words or table.dim < 1:
        raise ConfidenceError(f"cannot write a {len(table)} x {table.dim} embedding table")
    seen = set()
    for w in table.words:
        if w.split() != [w]:
            raise ConfidenceError(f"word {w!r} is empty or holds whitespace")
        try:
            w.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfidenceError(f"word {w!r} holds text UTF-8 cannot encode") from exc
        if w in seen:
            raise ConfidenceError(f"word {w!r} appears twice")
        seen.add(w)
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
# Autoencoder fusion
# ---------------------------------------------------------------------------

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
        return np.tanh(x @ self.w_enc.T + self.b_enc)

    def decode(self, h):
        return h @ self.w_dec.T + self.b_dec

    def save(self, path):
        header = {"source_names": list(self.source_names),
                  "source_dims": list(self.source_dims),
                  "bottleneck": int(self.bottleneck)}
        modelio.save_blob(path, "autoencoder", header, {
            "w_enc": self.w_enc, "b_enc": self.b_enc,
            "w_dec": self.w_dec, "b_dec": self.b_dec,
        })

    @classmethod
    def load(cls, path):
        """Read a model `save` wrote.

        Raises ConfidenceError naming the file and the key or array for
        a header that lacks a key, source names and dims of different
        lengths, and an array that is missing or whose shape does not
        follow from the bottleneck and the sum of the source dims.
        """
        header, arrays = modelio.load_blob(path, "autoencoder")
        try:
            names, dims = tuple(header["source_names"]), tuple(header["source_dims"])
            d = header["bottleneck"]
        except KeyError as exc:
            raise ConfidenceError(f"{path}: header lacks key {exc.args[0]!r}") from exc
        if len(names) != len(dims):
            raise ConfidenceError(f"{path}: {len(names)} source_names for "
                                  f"{len(dims)} source_dims")
        din = sum(dims)
        shapes = {"w_enc": (d, din), "b_enc": (d,), "w_dec": (din, d), "b_dec": (din,)}
        for name, shape in shapes.items():
            got = arrays[name].shape if name in arrays else None
            if got != shape:
                raise ConfidenceError(f"{path}: array {name!r} has shape {got}, "
                                      f"the header implies {shape}")
        return cls(arrays["w_enc"], arrays["b_enc"], arrays["w_dec"],
                   arrays["b_dec"], names, dims)


def _init_ae(din, d, seed) -> AutoencoderModel:
    rng = rng_for("ae", seed)
    lim_e = np.sqrt(6.0 / (din + d))
    lim_d = np.sqrt(6.0 / (d + din))
    return AutoencoderModel(
        w_enc=rng.uniform(-lim_e, lim_e, size=(d, din)),
        b_enc=np.zeros(d),
        w_dec=rng.uniform(-lim_d, lim_d, size=(din, d)),
        b_dec=np.zeros(din),
        source_names=(), source_dims=(),
    )


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
    grads = {
        "w_dec": dy.T @ h,
        "b_dec": dy.sum(axis=0),
    }
    dh = dy @ model.w_dec
    dpre = dh * (1.0 - h ** 2)
    grads["w_enc"] = dpre.T @ x
    grads["b_enc"] = dpre.sum(axis=0)
    return loss, grads


def shared_vocabulary(tables):
    vocab = set(tables[0].words)
    for t in tables[1:]:
        vocab &= set(t.words)
    return sorted(vocab)


def concat_vectors(tables, words):
    return np.stack([np.concatenate([t.lookup(w) for t in tables]) for w in words])


def train_autoencoder(tables, d, epochs=300, lr=0.05, batch=32, seed=0):
    """Fit the fusion autoencoder on the tables' shared vocabulary.

    Plain mini-batch gradient descent on the per-word reconstruction
    error of `ae_loss_and_grads`, so `lr` is a step per word whatever the
    input width.  The concatenation order of the source tables is part of
    the model and round-trips through its file.  Returns (model, final
    mse), the mse being the element mean over the whole vocabulary (the
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
    model = _init_ae(x.shape[1], d, seed)
    model.source_names = tuple(t.name for t in tables)
    model.source_dims = tuple(t.dim for t in tables)
    rng = rng_for("ae-shuffle", seed)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for s in range(0, len(x), batch):
            xb = x[order[s:s + batch]]
            _, grads = ae_loss_and_grads(model, xb)
            for name, g in grads.items():
                setattr(model, name, getattr(model, name) - lr * g)
    loss = ae_loss_and_grads(model, x)[0] / x.shape[1]
    return model, loss


def build_fused_table(model: AutoencoderModel, tables, vocab) -> EmbeddingTable:
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
    proj: int = 16
    merge: int = 64
    hidden: int = 32
    epochs: int = 10
    lr: float = 0.3
    batch: int = 64
    seed: int = 0


class MsMlpVectorizer:
    """Turns tokens into the detector's input streams.

    Streams, in fixed order: fused embeddings of the word and its
    +-WINDOW neighbors (zeros for unknown words and past either end),
    word length, LM-backoff behaviour, POS, dependency relation, and governor POS.
    """

    def __init__(self, fused: EmbeddingTable, pos_vocab, deprel_vocab,
                 unigrams, bigrams):
        self.fused = fused
        self.pos_vocab = list(pos_vocab)
        self.deprel_vocab = list(deprel_vocab)
        self.unigrams = frozenset(unigrams)
        self.bigrams = frozenset(bigrams)
        self._pos_idx = {p: i for i, p in enumerate(self.pos_vocab)}
        self._rel_idx = {r: i for i, r in enumerate(self.deprel_vocab)}
        # fused rows plus one zero row for unknown words and padding
        self._rows = np.vstack([fused.matrix, np.zeros((1, fused.dim))])
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

    def streams(self, utt: Utterance):
        toks = utt.tokens
        words = [t.surface for t in toks]
        zero_row = len(self.fused)
        rows = np.array([zero_row] * WINDOW
                        + [self.fused._index.get(w.lower(), zero_row) for w in words]
                        + [zero_row] * WINDOW)
        spans = np.arange(len(words))[:, None] + np.arange(2 * WINDOW + 1)
        lm = [lm_category(prev, w, self.unigrams, self.bigrams)
              for prev, w in zip([BOS] + words, words)]
        pos_unk, rel_unk = self._pos_idx["<unk>"], self._rel_idx["<unk>"]
        pos = [self._pos_idx.get(t.pos or "<none>", pos_unk) for t in toks]
        rel = [self._rel_idx.get(t.deprel or "<none>", rel_unk) for t in toks]
        root = self._pos_idx.get("root", pos_unk)
        govpos = [root if t.governor is None else pos[t.governor] for t in toks]
        return {
            "window": self._rows[rows[spans]].reshape(len(words), -1),
            "length": np.array([len(w) for w in words], dtype=np.float64)[:, None] / 10.0,
            "lm": self._lm_eye[lm],
            "pos": self._pos_eye[pos],
            "deprel": self._rel_eye[rel],
            "govpos": self._pos_eye[govpos],
        }


STREAM_ORDER = ("window", "length", "lm", "pos", "deprel", "govpos")


class MsMlpModel:
    """Per-stream projections, a merge layer, one hidden layer and two
    output units scoring Correct and Error."""

    def __init__(self, vectorizer: MsMlpVectorizer, params, config: MsMlpConfig):
        self.vectorizer = vectorizer
        self.params = params
        self.config = config

    def forward(self, streams, want_cache=False):
        p = self.params
        projs = {}
        for name in STREAM_ORDER:
            projs[name] = np.tanh(streams[name] @ p[f"w_{name}"].T + p[f"b_{name}"])
        m_in = np.concatenate([projs[name] for name in STREAM_ORDER], axis=1)
        m = np.tanh(m_in @ p["w_merge"].T + p["b_merge"])
        h = np.tanh(m @ p["w_hidden"].T + p["b_hidden"])
        z = h @ p["w_out"].T + p["b_out"]
        if want_cache:
            return z, (projs, m_in, m, h)
        return z

    def confidences(self, utt: Utterance):
        """Softmax value of the Correct output per token, strictly in (0,1)."""
        z = self.forward(self.vectorizer.streams(utt))
        diff = z[:, 0] - z[:, 1]
        p = 1.0 / (1.0 + np.exp(-np.clip(diff, -700, 700)))
        return np.clip(p, 1e-15, 1.0 - 1e-15)

    def save(self, path):
        v = self.vectorizer
        header = {
            "stream_order": list(STREAM_ORDER),
            "stream_dims": {k: int(d) for k, d in v.stream_dims().items()},
            "widths": {"proj": self.config.proj, "merge": self.config.merge,
                       "hidden": self.config.hidden, "out": 2},
            "window": WINDOW,
            "pos_vocab": v.pos_vocab,
            "deprel_vocab": v.deprel_vocab,
            "unigrams": sorted(v.unigrams),
            "bigrams": [list(b) for b in sorted(v.bigrams)],
            "fused_words": v.fused.words,
            "config": {"epochs": self.config.epochs, "lr": self.config.lr,
                       "batch": self.config.batch, "seed": self.config.seed},
        }
        arrays = dict(self.params)
        arrays["fused_matrix"] = v.fused.matrix
        modelio.save_blob(path, "msmlp", header, arrays)

    @classmethod
    def load(cls, path):
        """Read a model `save` wrote.

        Raises ConfidenceError naming the file and the key or array for
        a header that lacks a key, a window other than WINDOW, and an
        array that is missing or whose shape does not follow from the
        header's widths and vocabularies; also for header stream_dims
        that disagree with those vocabularies.
        """
        header, arrays = modelio.load_blob(path, "msmlp")
        try:
            window, widths, words = header["window"], header["widths"], header["fused_words"]
            vocabs = (header["pos_vocab"], header["deprel_vocab"],
                      frozenset(header["unigrams"]),
                      frozenset(tuple(b) for b in header["bigrams"]))
            cfg = MsMlpConfig(proj=widths["proj"], merge=widths["merge"],
                              hidden=widths["hidden"], **header["config"])
            header_dims = header["stream_dims"]
        except KeyError as exc:
            raise ConfidenceError(f"{path}: header lacks key {exc.args[0]!r}") from exc
        if window != WINDOW:
            raise ConfidenceError(f"{path}: window {window!r} is not {WINDOW}")
        matrix = arrays.pop("fused_matrix", None)
        if matrix is None or matrix.ndim != 2 or matrix.shape[0] != len(words):
            raise ConfidenceError(
                f"{path}: array 'fused_matrix' does not have one row per fused word")
        vec = MsMlpVectorizer(EmbeddingTable(words, matrix, name="fused"), *vocabs)
        dims = vec.stream_dims()
        for name, shape in _param_shapes(dims, cfg).items():
            got = arrays[name].shape if name in arrays else None
            if got != shape:
                raise ConfidenceError(f"{path}: array {name!r} has shape {got}, "
                                      f"the header implies {shape}")
        if header_dims != dims:
            raise ConfidenceError(
                f"{path}: header stream_dims {header_dims} are not those of its "
                f"vocabularies, {dims}")
        return cls(vec, arrays, cfg)


def _param_shapes(stream_dims, cfg: MsMlpConfig):
    """Shape of each MS-MLP parameter, in the order they are initialized."""
    shapes = {}
    for name in STREAM_ORDER:
        shapes[f"w_{name}"] = (cfg.proj, stream_dims[name])
        shapes[f"b_{name}"] = (cfg.proj,)
    shapes.update(w_merge=(cfg.merge, cfg.proj * len(STREAM_ORDER)), b_merge=(cfg.merge,),
                  w_hidden=(cfg.hidden, cfg.merge), b_hidden=(cfg.hidden,),
                  w_out=(2, cfg.hidden), b_out=(2,))
    return shapes


def _init_mlp_params(vectorizer: MsMlpVectorizer, cfg: MsMlpConfig):
    rng = rng_for("msmlp", cfg.seed)

    def glorot(rows, cols):
        lim = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-lim, lim, size=(rows, cols))

    return {name: glorot(*shape) if name.startswith("w_") else np.zeros(shape)
            for name, shape in _param_shapes(vectorizer.stream_dims(), cfg).items()}


def mlp_loss_and_grads(model: MsMlpModel, streams, y):
    """Mean 2-class cross entropy over a batch, with gradients."""
    p = model.params
    z, (projs, m_in, m, h) = model.forward(streams, want_cache=True)
    probs = softmax(z, axis=1)
    n = len(y)
    loss = float(-np.mean(np.log(np.clip(probs[np.arange(n), y], 1e-300, None))))
    dz = probs.copy()
    dz[np.arange(n), y] -= 1.0
    dz /= n
    grads = {"w_out": dz.T @ h, "b_out": dz.sum(axis=0)}
    dh = dz @ p["w_out"]
    dh_pre = dh * (1.0 - h ** 2)
    grads["w_hidden"] = dh_pre.T @ m
    grads["b_hidden"] = dh_pre.sum(axis=0)
    dm = dh_pre @ p["w_hidden"]
    dm_pre = dm * (1.0 - m ** 2)
    grads["w_merge"] = dm_pre.T @ m_in
    grads["b_merge"] = dm_pre.sum(axis=0)
    dm_in = dm_pre @ p["w_merge"]
    offset = 0
    proj = next(iter(projs.values())).shape[1]
    for name in STREAM_ORDER:
        dp = dm_in[:, offset:offset + proj]
        offset += proj
        dp_pre = dp * (1.0 - projs[name] ** 2)
        grads[f"w_{name}"] = dp_pre.T @ streams[name]
        grads[f"b_{name}"] = dp_pre.sum(axis=0)
    return loss, grads


def _training_matrix(dataset: Dataset, vectorizer: MsMlpVectorizer):
    """Each stream's rows for every token of `dataset`, and the labels
    (0 correct, 1 error), filled utterance by utterance into matrices
    allocated once at the dataset's token count."""
    n = dataset.n_tokens()
    x = {name: np.empty((n, dim)) for name, dim in vectorizer.stream_dims().items()}
    y = np.empty(n, dtype=np.int64)
    at = 0
    for utt in dataset:
        streams = vectorizer.streams(utt)
        end = at + len(utt)
        for name in STREAM_ORDER:
            x[name][at:end] = streams[name]
        for i, tok in enumerate(utt.tokens):
            if tok.error_flag is None:
                raise ConfidenceError(
                    f"token {i} of {utt.id!r} lacks an error flag")
            y[at + i] = 0 if tok.error_flag == "correct" else 1
        at = end
    return x, y


def train_msmlp(dataset: Dataset, vectorizer: MsMlpVectorizer,
                cfg: MsMlpConfig = MsMlpConfig()) -> MsMlpModel:
    """Mini-batch gradient descent on 2-class cross entropy."""
    if len(dataset) == 0:
        raise ConfidenceError("cannot train on an empty dataset")
    model = MsMlpModel(vectorizer, _init_mlp_params(vectorizer, cfg), cfg)
    x, y = _training_matrix(dataset, vectorizer)
    rng = rng_for("msmlp-shuffle", cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for s in range(0, len(y), cfg.batch):
            idx = order[s:s + cfg.batch]
            xb = {name: x[name][idx] for name in STREAM_ORDER}
            _, grads = mlp_loss_and_grads(model, xb, y[idx])
            for name, g in grads.items():
                model.params[name] -= cfg.lr * g
    return model


def attach_confidence(dataset: Dataset, model: MsMlpModel) -> Dataset:
    """Fill every token's mlp_conf column (rounded for stable files), one
    forward pass per utterance: a stacked pass raised peak RSS by 60%."""
    utts = []
    for utt in dataset:
        conf = model.confidences(utt)
        utts.append(utt.with_column("mlp_conf", [round(float(c), 6) for c in conf]))
    return Dataset(tuple(utts))
