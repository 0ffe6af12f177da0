"""Shared oracles and builders for the test suite.

Everything here is deliberately naive: exhaustive recursions and
element-wise finite differences that are independent of the library's
own dynamic programming and backpropagation code paths.
"""
import itertools
import json
import math
import random
from array import array

import numpy as np

from slukit.alignment import (DEL, EPS, INS, MATCH, SUB, Alignment,
                              ConfusionNetwork, align)
from slukit.confidence import (BOS, STREAM_ORDER, WINDOW, AutoencoderModel,
                               ConfidenceError, MsMlpModel, concat_vectors,
                               lm_category, shared_vocabulary)
from slukit.corpus import (ABSENT, ERROR_LABELS, FLAG_CORRECT, FLAG_ERROR, NULL_LABEL,
                           ConceptSegment, ParseError, PhraseTable, SchemaError,
                           TaggerOutput, Token, Utterance)
from slukit.evaluation import ABSTAIN, EvaluationError, _check_aligned, score
from slukit.numutil import derived_seed, rng_for, softmax


def utt(uid, words, labels=None, flags=None, **token_kw):
    labels = labels or [None] * len(words)
    flags = flags or [None] * len(words)
    toks = tuple(
        Token(surface=w, label=lab, error_flag=fl, **token_kw)
        for w, lab, fl in zip(words, labels, flags)
    )
    return Utterance(uid, toks)


def brute_force_edit_cost(ref, hyp):
    """Minimal unit edit cost by exhaustive recursion (no DP)."""

    def rec(i, j):
        if i == len(ref) and j == len(hyp):
            return 0.0
        best = float("inf")
        if i < len(ref) and j < len(hyp):
            best = min(best, rec(i + 1, j + 1) + (ref[i] != hyp[j]))
        if i < len(ref):
            best = min(best, rec(i + 1, j) + 1)
        if j < len(hyp):
            best = min(best, rec(i, j + 1) + 1)
        return best

    return rec(0, 0)


def reference_align(ref, hyp):
    """Unit-cost edit alignment by a float DP and a candidate-list backtrack.

    Among the steps that reach a cell at minimal cost, the backtrack
    keeps the one ranked first in match > substitution > deletion >
    insertion.
    """
    sub_c = ins_c = del_c = 1.0
    rank = {MATCH: 0, SUB: 1, DEL: 2, INS: 3}
    n, m = len(ref), len(hyp)
    dist = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = dist[i - 1][0] + del_c
    for j in range(1, m + 1):
        dist[0][j] = dist[0][j - 1] + ins_c
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            diag = dist[i - 1][j - 1] + (0.0 if ref[i - 1] == hyp[j - 1] else sub_c)
            dist[i][j] = min(diag, dist[i - 1][j] + del_c, dist[i][j - 1] + ins_c)

    ops = []
    i, j = n, m
    while i > 0 or j > 0:
        cands = []
        if i > 0 and j > 0:
            if ref[i - 1] == hyp[j - 1] and math.isclose(dist[i][j], dist[i - 1][j - 1]):
                cands.append((MATCH, i - 1, j - 1))
            elif ref[i - 1] != hyp[j - 1] and math.isclose(dist[i][j], dist[i - 1][j - 1] + sub_c):
                cands.append((SUB, i - 1, j - 1))
        if i > 0 and math.isclose(dist[i][j], dist[i - 1][j] + del_c):
            cands.append((DEL, i - 1, None))
        if j > 0 and math.isclose(dist[i][j], dist[i][j - 1] + ins_c):
            cands.append((INS, None, j - 1))
        op = min(cands, key=lambda c: rank[c[0]])
        ops.append(op)
        if op[0] in (MATCH, SUB):
            i, j = i - 1, j - 1
        elif op[0] == DEL:
            i -= 1
        else:
            j -= 1
    ops.reverse()
    return Alignment(tuple(ops), dist[n][m])


def reference_build_cn(nbest):
    """Confusion network with one `reference_align` per n-best entry (no
    cache), each entry's weight added to its word in each pivot bin in
    n-best order, then the bin normalization `build_cn` documents."""
    pivot = list(nbest[0][1])
    mass = [dict() for _ in pivot]
    total = 0.0
    for weight, hyp in nbest:
        total += weight
        for op, i, j in reference_align(pivot, list(hyp)).ops:
            if op in (MATCH, SUB):
                mass[i][hyp[j]] = mass[i].get(hyp[j], 0.0) + weight
            elif op == DEL:
                mass[i][EPS] = mass[i].get(EPS, 0.0) + weight
    bins = []
    for entries in mass:
        scored = sorted(((w, p / total) for w, p in entries.items()),
                        key=lambda e: (-e[1], e[0]))
        s = sum(p for _, p in scored)
        bins.append(tuple((w, p / s) for w, p in scored))
    return cn_from_bins(bins, pivot)


def cn_from_bins(bins, pivot):
    """The network of `bins`, per pivot word a sequence of (word, posterior)
    pairs in bin order, built through the public constructor, which checks
    every rule of a network."""
    words, posteriors, ends = [], [], []
    for entries in bins:
        for word, p in entries:
            words.append(word)
            posteriors.append(p)
        ends.append(len(words))
    return ConfusionNetwork(tuple(pivot), tuple(words), array("d", posteriors), tuple(ends))


def cn_bins(cn):
    """The nested view of a network: per pivot word, a tuple of its bin's
    (word, posterior) pairs."""
    return tuple(tuple(zip(cn.words[start:end], cn.posteriors[start:end]))
                 for start, end in zip((0, *cn.ends), cn.ends))


def _reference_decision(word, cfg, rng):
    """("del",) | ("sub", replacement) | ("keep",) for one reference word."""
    u = rng.random()
    if u < cfg.del_rate:
        return ("del",)
    if u < cfg.del_rate + cfg.sub_rate:
        cands = (cfg.confusions or {}).get(word)
        if not cands:
            cands = tuple(w for w in cfg.vocabulary if w != word)
        if not cands:
            return ("sub", word + "'")
        return ("sub", cands[rng.randrange(len(cands))])
    return ("keep",)


def _reference_insert(cfg, rng):
    """The word inserted after a reference position, or None."""
    if rng.random() >= cfg.ins_rate:
        return None
    pool = cfg.insertion_words or cfg.vocabulary or ("euh",)
    return pool[rng.randrange(len(pool))]


def _reference_logprob(decisions, inserts, cfg):
    rates = {"del": cfg.del_rate, "sub": cfg.sub_rate,
             "keep": 1.0 - cfg.sub_rate - cfg.del_rate,
             "ins": cfg.ins_rate, "no-ins": 1.0 - cfg.ins_rate}
    log_rate = {event: math.log(p) for event, p in rates.items() if p > 0}
    logp = 0.0
    for dec in decisions:
        logp += log_rate[dec[0]]
    for ins in inserts:
        logp += log_rate["no-ins" if ins is None else "ins"]
    return logp


def _reference_emit(words, decisions, inserts):
    out = []
    for w, dec, ins in zip(words, decisions, inserts):
        if dec[0] == "keep":
            out.append(w)
        elif dec[0] == "sub":
            out.append(dec[1])
        if ins:
            out.append(ins)
    return out or ["euh"]


def _reference_primary(words, cfg, uid):
    rng = random.Random(derived_seed("asr", cfg.seed, uid, 0))
    decisions, inserts = [], []
    for w in words:
        decisions.append(_reference_decision(w, cfg, rng))
        inserts.append(_reference_insert(cfg, rng))
    return decisions, inserts


def reference_corrupt(u, cfg):
    """The primary channel draw as separate decision, insertion and
    emission passes, wrapped with flags from `align`."""
    words = u.surfaces()
    hyp = _reference_emit(words, *_reference_primary(words, cfg, u.id))
    matched = {j for op, _, j in align(words, hyp).ops if op == MATCH}
    tokens = tuple(Token(surface=w, error_flag=FLAG_CORRECT if j in matched else FLAG_ERROR)
                   for j, w in enumerate(hyp))
    return Utterance(u.id, tokens, reference_tokens=u.tokens)


def reference_decode_nbest(u, cfg, n):
    """[(weight, words), ...]: the primary draw, then n-1 re-decodes that
    each keep a primary decision or insertion with probability
    `nbest_correlation`, each draw's weight from its decisions, then its
    insertions, and its words from a separate emission pass."""
    words = u.surfaces()
    decisions, inserts = _reference_primary(words, cfg, u.id)
    out = [(math.exp(_reference_logprob(decisions, inserts, cfg)),
            _reference_emit(words, decisions, inserts))]
    kappa = cfg.nbest_correlation
    for k in range(1, n):
        rng = random.Random(derived_seed("asr-re", cfg.seed, u.id, k))
        dec_k, ins_k = [], []
        for w, dec, ins in zip(words, decisions, inserts):
            dec_k.append(dec if rng.random() < kappa else _reference_decision(w, cfg, rng))
            ins_k.append(ins if rng.random() < kappa else _reference_insert(cfg, rng))
        out.append((math.exp(_reference_logprob(dec_k, ins_k, cfg)),
                    _reference_emit(words, dec_k, ins_k)))
    return out


def fd_gradcheck(loss_fn, params, grads, h=1e-4, floor=1e-2):
    """Max relative error between analytic grads and central differences.

    `params` maps names to arrays that `loss_fn` reads; each entry is
    perturbed in place and restored.  The denominator floor turns the
    check into an absolute one (at `h * floor` scale) for near-zero
    components, where relative error is dominated by difference noise.
    """
    worst = 0.0
    for name in sorted(params):
        arr = params[name]
        gflat = np.asarray(grads[name], dtype=float).reshape(-1)
        flat = arr.reshape(-1)
        assert flat.size == gflat.size, name
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss_fn()
            flat[idx] = orig - h
            lm = loss_fn()
            flat[idx] = orig
            fd = (lp - lm) / (2.0 * h)
            rel = abs(fd - gflat[idx]) / max(abs(fd), abs(gflat[idx]), floor)
            worst = max(worst, rel)
    return worst


def reference_segments_of(utterance, value_table=None):
    """Concept segments read token by token off the utterance, closing
    each run in a nested function: the segments of an utterance as they
    were decoded before `label_segments` decoded plain label lists."""
    table = value_table or PhraseTable()
    segments = []
    start = None
    concept = None

    def close(end):
        nonlocal start, concept
        if start is not None:
            words = [t.surface for t in utterance.tokens[start:end]]
            value = " ".join(words[s].lower() if v is None else v
                             for s, _, v in table.matches(words))
            segments.append(ConceptSegment(concept, value, start, end))
        start, concept = None, None

    for i, tok in enumerate(utterance.tokens):
        lab = tok.label
        if lab in ERROR_LABELS:
            raise SchemaError(f"error label {lab!r} present; strip before segmenting")
        if lab is None or lab == NULL_LABEL:
            close(i)
        elif lab.startswith("B-"):
            close(i)
            start, concept = i, lab[2:]
        elif lab.startswith("I-"):
            if concept != lab[2:]:
                raise SchemaError(f"orphan {lab!r} at position {i}; repair first")
        else:
            raise SchemaError(f"unknown label {lab!r}")
    close(len(utterance.tokens))
    return segments


# The corpus TSV codec as it was before it walked `TOKEN_FIELDS`: every
# cell named by hand, with its own column list and helpers.

_REFERENCE_COLUMNS = (
    "INDEX", "SURFACE", "LEMMA", "POS", "GOV", "DEPREL",
    "SEMCATS", "PAP", "CONF", "ERRFLAG", "LABEL",
)


def _reference_fmt_opt(value):
    if value == ABSENT:
        raise SchemaError(f"field {ABSENT!r} would read back as absent")
    return ABSENT if value is None else value


def _reference_fmt_conf(name, v):
    if v is None:
        return ABSENT
    text = f"{v:.6f}"
    if float(text) != v:
        raise SchemaError(f"{name}={v!r} would read back as {text}")
    return text


def reference_token_row(i, tok):
    row = "\t".join((
        str(i),
        tok.surface,
        _reference_fmt_opt(tok.lemma),
        _reference_fmt_opt(tok.pos),
        ABSENT if tok.governor is None else str(tok.governor),
        _reference_fmt_opt(tok.deprel),
        _reference_fmt_opt(tok.sem_category),
        _reference_fmt_conf("pap", tok.pap),
        _reference_fmt_conf("mlp_conf", tok.mlp_conf),
        _reference_fmt_opt(tok.error_flag),
        _reference_fmt_opt(tok.label),
    ))
    if row.count("\t") != len(_REFERENCE_COLUMNS) - 1:
        raise SchemaError(f"token {i} ({tok.surface!r}) has a field holding a tab")
    return row


def _reference_parse_opt(cell, caster, what, line, path):
    """A number cell, refused unless it is the text the writer writes for
    its value: `str` of an int, six decimals of a float, never a NaN."""
    if cell == ABSENT:
        return None
    try:
        value = caster(cell)
    except ValueError as exc:
        raise ParseError(f"bad {what} {cell!r}", line, path) from exc
    if (str(value) if caster is int else f"{value:.6f}") != cell or value != value:
        raise ParseError(f"bad {what} {cell!r}", line, path)
    return value


_REFERENCE_POOLED = frozenset(_REFERENCE_COLUMNS.index(c)
                              for c in ("LEMMA", "POS", "DEPREL", "SEMCATS", "ERRFLAG",
                                        "LABEL"))


def reference_parse_token(i, line, lineno, path, text):
    """`text(cell)` is the cell's shared string."""
    cells = line.split("\t")
    if len(cells) != len(_REFERENCE_COLUMNS):
        raise ParseError(f"expected {len(_REFERENCE_COLUMNS)} columns, found {len(cells)}",
                         lineno, path)
    if _reference_parse_opt(cells[0], int, "index", lineno, path) != i:
        raise ParseError(f"index {cells[0]} out of order", lineno, path)
    opt = [None if cell == ABSENT else text(cell) if k in _REFERENCE_POOLED else cell
           for k, cell in enumerate(cells)]
    try:
        return Token(
            surface=text(cells[1]),
            lemma=opt[2],
            pos=opt[3],
            governor=_reference_parse_opt(cells[4], int, "governor", lineno, path),
            deprel=opt[5],
            sem_category=opt[6],
            pap=_reference_parse_opt(cells[7], float, "pap", lineno, path),
            mlp_conf=_reference_parse_opt(cells[8], float, "confidence", lineno, path),
            error_flag=opt[9],
            label=opt[10],
        )
    except SchemaError as exc:
        raise SchemaError(f"{path}: line {lineno}: {exc}") from exc


def reference_validate_label_sequence(labels, line_base=None):
    """The continuation rule stated apart from `repair_bio`."""
    prev = None
    for i, lab in enumerate(labels):
        if lab is not None and lab.startswith("I-"):
            if prev is None or prev[2:] != lab[2:] or not prev.startswith(("B-", "I-")):
                where = f" (row {i})" if line_base is None else f" (line {line_base + i})"
                raise SchemaError(f"label {lab!r} does not continue a segment{where}")
        prev = lab


def reference_grammar_json(grammar):
    """`DomainGrammar.to_json` with the document built field by field."""
    doc = {
        "patterns": [[w, list(items)] for w, items in grammar.patterns],
        "slots": {
            name: {
                "concept": slot.concept,
                "realizations": [[w, list(ph)] for w, ph in slot.realizations],
            }
            for name, slot in sorted(grammar.slots.items())
        },
        "categories": dict(sorted(grammar.categories.items())),
        "values": dict(sorted(grammar.values.items())),
        "word_pos": dict(sorted(grammar.word_pos.items())),
        "lemmas": dict(sorted(grammar.lemmas.items())),
        "insertion_words": list(grammar.insertion_words),
        "extra_vocab": list(grammar.extra_vocab),
    }
    return json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False)


def brute_force_phrase_spans(words, phrases):
    """Greedy longest-match (start, end, matched) spans, trying every end.

    Keys and words are compared lowercased; unlike the library it does
    not bound the span length by the longest key.
    """
    keys = {tuple(p.lower().split()) for p in phrases}
    lowered = [w.lower() for w in words]
    spans, i = [], 0
    while i < len(lowered):
        ends = [j for j in range(i + 1, len(lowered) + 1) if tuple(lowered[i:j]) in keys]
        end = max(ends, default=i + 1)
        spans.append((i, end, bool(ends)))
        i = end
    return spans


def simplex_grid(k, step):
    """Weight vectors of the grid `tune_weights` searches, by enumeration
    of `itertools.product` rather than the library's stars and bars."""
    m = round(1.0 / step)
    return [tuple(v / m for v in parts)
            for parts in itertools.product(range(m + 1), repeat=k) if sum(parts) == m]


def reference_combine_weighted(outputs_by_system, weights):
    """Weighted vote indexing systems and positions: the set of labels
    within 1e-12 of the best score, its only member when there is one,
    else the vote of the first system whose label is in the set."""
    _check_aligned(outputs_by_system)
    k = len(outputs_by_system)
    if len(weights) != k:
        raise EvaluationError(f"{k} systems but {len(weights)} weights")
    if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
        raise EvaluationError("weights must be nonnegative with at least one positive")
    combined = []
    for utt_idx, first in enumerate(outputs_by_system[0]):
        labels = []
        votes_by_system = [outputs_by_system[s][utt_idx].labels for s in range(k)]
        for pos in range(len(first.labels)):
            scores = {}
            for s in range(k):
                lab = votes_by_system[s][pos]
                scores[lab] = scores.get(lab, 0.0) + weights[s]
            best = max(scores.values())
            tied = {lab for lab, sc in scores.items() if sc >= best - 1e-12}
            if len(tied) == 1:
                labels.append(next(iter(tied)))
            else:
                labels.append(next(votes[pos] for votes in votes_by_system
                                   if votes[pos] in tied))
        combined.append(TaggerOutput(first.id, tuple(labels)))
    return combined


def reference_consensus(outputs_by_system):
    """Consensus comparing each system's label with the first system's,
    position by position."""
    _check_aligned(outputs_by_system)
    combined = []
    for utt_idx, first in enumerate(outputs_by_system[0]):
        labels = []
        for pos, lab in enumerate(first.labels):
            if all(outs[utt_idx].labels[pos] == lab for outs in outputs_by_system[1:]):
                labels.append(lab)
            else:
                labels.append(ABSTAIN)
        combined.append(TaggerOutput(first.id, tuple(labels)))
    return combined


def brute_force_tune_weights(outputs_by_system, ref, hyp, step, value_table=None):
    """Grid search that votes every position with `reference_combine_weighted`
    and scores every weighting, with the selection key `tune_weights`
    documents."""
    uniform = 1.0 / len(outputs_by_system)
    best = None
    for weights in simplex_grid(len(outputs_by_system), step):
        combined = reference_combine_weighted(outputs_by_system, weights)
        cer = score(ref, hyp, combined, value_table).cer
        dist = sum((w - uniform) ** 2 for w in weights)
        key = (round(cer, 10), round(dist, 12), weights)
        if best is None or key < best[0]:
            best = (key, weights)
    return best[1]


def reference_training_matrix(dataset, vectorizer):
    """MS-MLP training streams and labels by stacking per-utterance
    chunks with `np.concatenate`, rather than filling preallocated rows."""
    per_stream = {name: [] for name in STREAM_ORDER}
    labels = []
    for u in dataset:
        streams = vectorizer.gather(vectorizer.encode((u,)))
        for name in STREAM_ORDER:
            per_stream[name].append(streams[name])
        for i, tok in enumerate(u.tokens):
            if tok.error_flag is None:
                raise ConfidenceError(
                    f"token {i} of {u.id!r} lacks an error flag")
            labels.append(0 if tok.error_flag == "correct" else 1)
    x = {name: np.concatenate(chunks) for name, chunks in per_stream.items()}
    return x, np.array(labels, dtype=np.int64)


def reference_streams(vectorizer, u):
    """MS-MLP input streams built token by token: each window slot read
    from a word -> row dict of the fused table's words and matrix (zeros
    for an unknown word and past either end) and joined with
    `np.concatenate`, and each one-hot set in a fresh zero vector."""

    def onehot(vocab, tag):
        v = np.zeros(len(vocab))
        v[vocab.index(tag) if tag in vocab else vocab.index("<unk>")] = 1.0
        return v

    n = len(u.tokens)
    d = vectorizer.fused.dim
    pad = np.zeros(d)
    fused = dict(zip(vectorizer.fused.words, vectorizer.fused.matrix))
    vecs = [fused.get(t.surface.lower(), pad) for t in u.tokens]
    out = {name: np.zeros((n, dim)) for name, dim in vectorizer.stream_dims().items()}
    for i, tok in enumerate(u.tokens):
        window = []
        for off in range(-WINDOW, WINDOW + 1):
            j = i + off
            window.append(vecs[j] if 0 <= j < n else pad)
        out["window"][i] = np.concatenate(window)
        out["length"][i, 0] = len(tok.surface) / 10.0
        prev = u.tokens[i - 1].surface if i > 0 else BOS
        out["lm"][i, lm_category(prev, tok.surface, vectorizer.unigrams,
                                 vectorizer.bigrams)] = 1.0
        out["pos"][i] = onehot(vectorizer.pos_vocab, tok.pos or "<none>")
        out["deprel"][i] = onehot(vectorizer.deprel_vocab, tok.deprel or "<none>")
        gov = tok.governor
        out["govpos"][i] = onehot(vectorizer.pos_vocab,
                                  "root" if gov is None else (u.tokens[gov].pos or "<none>"))
    return out


def reference_train_autoencoder(tables, d, epochs=300, lr=0.05, batch=32, seed=0):
    """The fusion autoencoder trained by its own code rather than the
    trainers' shared one: a Glorot initializer with its own limits, a
    loop that rebinds each array to a new one, and the reconstruction
    gradient written out layer by layer.  Returns (model, final mse)."""
    x = concat_vectors(tables, shared_vocabulary(tables))
    din = x.shape[1]
    rng = rng_for("ae", seed)
    lim_e = np.sqrt(6.0 / (din + d))
    lim_d = np.sqrt(6.0 / (d + din))
    model = AutoencoderModel(
        w_enc=rng.uniform(-lim_e, lim_e, size=(d, din)), b_enc=np.zeros(d),
        w_dec=rng.uniform(-lim_d, lim_d, size=(din, d)), b_dec=np.zeros(din),
        source_names=tuple(t.name for t in tables),
        source_dims=tuple(t.dim for t in tables))

    def loss_and_grads(xb):
        h = np.tanh(xb @ model.w_enc.T + model.b_enc)
        diff = h @ model.w_dec.T + model.b_dec - xb
        dy = 2.0 * diff / len(xb)
        dpre = (dy @ model.w_dec) * (1.0 - h ** 2)
        return float(np.sum(diff ** 2)) / len(xb), {
            "w_dec": dy.T @ h, "b_dec": dy.sum(axis=0),
            "w_enc": dpre.T @ xb, "b_enc": dpre.sum(axis=0)}

    rng = rng_for("ae-shuffle", seed)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for s in range(0, len(x), batch):
            _, grads = loss_and_grads(x[order[s:s + batch]])
            for name, g in grads.items():
                setattr(model, name, getattr(model, name) - lr * g)
    return model, loss_and_grads(x)[0] / din


def reference_train_msmlp(dataset, vectorizer, cfg, proj, merge, hidden, lr, batch):
    """The MS-MLP trained by its own code rather than the trainers'
    shared one: its own Glorot initializer over a shape table written
    out, its own loop, and the cross-entropy gradient written out layer
    by layer, on the `reference_training_matrix` rows.  The widths, step
    and batch size are arguments here, module constants in `confidence`."""
    rng = rng_for("msmlp", cfg.seed)
    dims = vectorizer.stream_dims()
    shapes = {}
    for name in STREAM_ORDER:
        shapes[f"w_{name}"] = (proj, dims[name])
        shapes[f"b_{name}"] = (proj,)
    shapes.update(w_merge=(merge, proj * len(STREAM_ORDER)), b_merge=(merge,),
                  w_hidden=(hidden, merge), b_hidden=(hidden,),
                  w_out=(2, hidden), b_out=(2,))

    def glorot(rows, cols):
        lim = np.sqrt(6.0 / (rows + cols))
        return rng.uniform(-lim, lim, size=(rows, cols))

    p = {name: glorot(*shape) if name.startswith("w_") else np.zeros(shape)
         for name, shape in shapes.items()}

    def grads_of(streams, y):
        projs = {name: np.tanh(streams[name] @ p[f"w_{name}"].T + p[f"b_{name}"])
                 for name in STREAM_ORDER}
        m_in = np.concatenate([projs[name] for name in STREAM_ORDER], axis=1)
        m = np.tanh(m_in @ p["w_merge"].T + p["b_merge"])
        h = np.tanh(m @ p["w_hidden"].T + p["b_hidden"])
        dz = softmax(h @ p["w_out"].T + p["b_out"], axis=1)
        dz[np.arange(len(y)), y] -= 1.0
        dz /= len(y)
        grads = {"w_out": dz.T @ h, "b_out": dz.sum(axis=0)}
        dh_pre = (dz @ p["w_out"]) * (1.0 - h ** 2)
        grads["w_hidden"] = dh_pre.T @ m
        grads["b_hidden"] = dh_pre.sum(axis=0)
        dm_pre = (dh_pre @ p["w_hidden"]) * (1.0 - m ** 2)
        grads["w_merge"] = dm_pre.T @ m_in
        grads["b_merge"] = dm_pre.sum(axis=0)
        dm_in = dm_pre @ p["w_merge"]
        for k, name in enumerate(STREAM_ORDER):
            dp_pre = dm_in[:, k * proj:(k + 1) * proj] * (1.0 - projs[name] ** 2)
            grads[f"w_{name}"] = dp_pre.T @ streams[name]
            grads[f"b_{name}"] = dp_pre.sum(axis=0)
        return grads

    x, y = reference_training_matrix(dataset, vectorizer)
    rng = rng_for("msmlp-shuffle", cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for s in range(0, len(y), batch):
            idx = order[s:s + batch]
            grads = grads_of({name: x[name][idx] for name in STREAM_ORDER}, y[idx])
            for name, g in grads.items():
                p[name] -= lr * g
    return MsMlpModel(vectorizer, p, cfg)
