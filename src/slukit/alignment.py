"""Edit alignment, WER, a stochastic recognizer channel, and confusion
networks with word posteriors.

The channel replaces a real recognizer: per reference word it may
substitute (preferring phonetically near candidates), delete, or insert,
at configured rates, so the overall word error rate is steerable.  An
n-best list around a hypothesis feeds a pivot-aligned confusion network
whose bin posteriors give the word posterior (pap) confidence measure.
Everything is keyed by (seed, utterance id), so corpus-parallel runs are
bit-identical to serial ones.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from .corpus import (FLAG_CORRECT, FLAG_ERROR, NULL_LABEL, ParseError,
                     SchemaError, TextPool, Token, Utterance, read_blocks,
                     repair_bio, write_blocks)
from .numutil import derived_seed

EPS = "<eps>"

MATCH, SUB, DEL, INS = "match", "substitution", "deletion", "insertion"


class AlignmentError(Exception):
    pass


@dataclass(frozen=True)
class Alignment:
    """Edit operations in order, and their cost: the int S + D + I."""

    ops: tuple  # of (op, ref_index or None, hyp_index or None)
    cost: int

    def counts(self):
        c = {MATCH: 0, SUB: 0, DEL: 0, INS: 0}
        for op, _, _ in self.ops:
            c[op] += 1
        return c


def align(ref, hyp) -> Alignment:
    """Minimal unit-cost (Levenshtein) alignment of two sequences.

    Ties are broken by preferring match or substitution, then deletion,
    then insertion, while backtracking from the end of both sequences.

    The integer DP table is filled with explicit comparisons.  Trailing
    words the two sequences share are matched without a table: where
    ref[i-1] == hyp[j-1], D[i][j] == D[i-1][j-1], so the backtrack's
    first (diagonal) test would take each of them as a match anyway, and
    the tie order is the same as for the full table.  A common prefix is
    not stripped, since that would change it: ["a"] against ["a", "a"]
    matches hyp[1] on the full table.
    """
    n, m = len(ref), len(hyp)
    k = 0
    while k < n and k < m and ref[n - 1 - k] == hyp[m - 1 - k]:
        k += 1
    n, m = n - k, m - k
    prev = list(range(m + 1))
    dist = [prev]
    for i in range(1, n + 1):
        r = ref[i - 1]
        row = [i]
        diag, left = i - 1, i
        # D[i][j] is D[i-1][j-1] on a match (never above the other two),
        # else 1 + the least of the three neighbours; zip stops at hyp[m-1]
        for h, up in zip(hyp, prev[1:]):
            if r != h:
                if up < diag:
                    diag = up
                if left < diag:
                    diag = left
                diag += 1
            row.append(diag)
            left, diag = diag, up
        dist.append(row)
        prev = row

    ops = [(MATCH, n + t, m + t) for t in range(k - 1, -1, -1)]
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            i, j = i - 1, j - 1
            ops.append((MATCH if ref[i] == hyp[j] else SUB, i, j))
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            i -= 1
            ops.append((DEL, i, None))
        else:
            j -= 1
            ops.append((INS, None, j))
    ops.reverse()
    return Alignment(tuple(ops), dist[n][m])


def wer(ref, hyp) -> float:
    """100 * (S + D + I) / |ref| under unit edit costs."""
    if len(ref) < 1:
        raise AlignmentError("WER undefined for an empty reference")
    c = align(ref, hyp).counts()
    return 100.0 * (c[SUB] + c[DEL] + c[INS]) / len(ref)


# ---------------------------------------------------------------------------
# Noise channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseConfig:
    """Stochastic recognizer channel.

    The expected WER is 100 * (sub + del + ins) since each event makes
    exactly one edit against the reference.  `nbest_correlation` is the
    probability that a secondary decode keeps the primary decode's
    decision at a position, standing in for the acoustic correlation
    that makes real n-best lists agree on their mistakes.
    """

    sub_rate: float = 0.156
    del_rate: float = 0.046
    ins_rate: float = 0.036
    confusions: dict | None = None
    vocabulary: tuple = ()
    insertion_words: tuple = ()
    seed: int = 0
    nbest_correlation: float = 0.72

    def __post_init__(self):
        for name in ("sub_rate", "del_rate", "ins_rate"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise AlignmentError(f"{name}={v} outside [0,1)")
        if self.sub_rate + self.del_rate + self.ins_rate >= 1.0:
            raise AlignmentError("substitution+deletion+insertion rates must sum below 1")
        if not 0.0 <= self.nbest_correlation <= 1.0:
            raise AlignmentError("nbest_correlation outside [0,1]")

    @property
    def target_wer(self) -> float:
        return 100.0 * (self.sub_rate + self.del_rate + self.ins_rate)


@functools.lru_cache(maxsize=None)
def _other_words(vocabulary: tuple, word) -> tuple:
    """The vocabulary without `word`, in vocabulary order."""
    return tuple(w for w in vocabulary if w != word)


def _substitute(word, cfg: NoiseConfig, rng) -> str:
    cands = (cfg.confusions or {}).get(word)
    if not cands:
        cands = _other_words(tuple(cfg.vocabulary), word)
    if not cands:
        return word + "'"  # degenerate configs still must change the word
    return cands[rng.randrange(len(cands))]


def _draw_decision(word, cfg: NoiseConfig, rng):
    """("del",) | ("sub", replacement) | ("keep",) for one reference word."""
    u = rng.random()
    if u < cfg.del_rate:
        return ("del",)
    if u < cfg.del_rate + cfg.sub_rate:
        return ("sub", _substitute(word, cfg, rng))
    return ("keep",)


def _draw_insert(cfg: NoiseConfig, rng):
    """The word inserted after a reference position, or None."""
    if rng.random() >= cfg.ins_rate:
        return None
    pool = cfg.insertion_words or cfg.vocabulary or ("euh",)
    return pool[rng.randrange(len(pool))]


def _channel_decisions(words, cfg: NoiseConfig, rng):
    """One channel draw as per-reference-position decisions.

    Each decision is ("keep",) | ("sub", word) | ("del",), optionally
    followed by an inserted word recorded separately per gap.
    """
    decisions, inserts = [], []
    for w in words:
        decisions.append(_draw_decision(w, cfg, rng))
        inserts.append(_draw_insert(cfg, rng))
    return decisions, inserts


def _decisions_logprob(decisions, inserts, cfg: NoiseConfig) -> float:
    # an event of rate 0 is never drawn, so its log is never taken
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


def _emit(words, decisions, inserts):
    """The hypothesis words of one draw; a recognizer always emits something."""
    out = []
    for w, dec, ins in zip(words, decisions, inserts):
        if dec[0] == "keep":
            out.append(w)
        elif dec[0] == "sub":
            out.append(dec[1])
        if ins:
            out.append(ins)
    return out or ["euh"]


def _hyp_utterance(utt: Utterance, hyp_words) -> Utterance:
    """Wrap channel output as an utterance; flags come from the alignment."""
    ali = align(utt.surfaces(), hyp_words)
    matched = {j for op, _, j in ali.ops if op == MATCH}
    tokens = tuple(
        Token(surface=w, error_flag=FLAG_CORRECT if j in matched else FLAG_ERROR)
        for j, w in enumerate(hyp_words)
    )
    return Utterance(utt.id, tokens, reference_tokens=utt.tokens)


def corrupt(utt: Utterance, cfg: NoiseConfig) -> Utterance:
    """Primary channel draw for an utterance, keyed by (seed, id)."""
    rng = random.Random(derived_seed("asr", cfg.seed, utt.id, 0))
    words = utt.surfaces()
    decisions, inserts = _channel_decisions(words, cfg, rng)
    return _hyp_utterance(utt, _emit(words, decisions, inserts))


def _redecode(words, decisions, inserts, cfg: NoiseConfig, rng):
    """Secondary decode correlated with the primary decisions."""
    kappa = cfg.nbest_correlation
    new_dec, new_ins = [], []
    for w, dec, ins in zip(words, decisions, inserts):
        new_dec.append(dec if rng.random() < kappa else _draw_decision(w, cfg, rng))
        new_ins.append(ins if rng.random() < kappa else _draw_insert(cfg, rng))
    return new_dec, new_ins


def decode_nbest(utt: Utterance, cfg: NoiseConfig, n: int):
    """Primary draw plus n-1 correlated re-decodes, primary first.

    This is the pipeline's recognizer surrogate: the first entry is the
    transcription the taggers consume, and the remaining entries mimic
    the correlated alternatives a lattice would hold.
    """
    if n < 1:
        raise AlignmentError(f"need n >= 1 hypotheses, got {n}")
    words = utt.surfaces()
    rng0 = random.Random(derived_seed("asr", cfg.seed, utt.id, 0))
    decisions, inserts = _channel_decisions(words, cfg, rng0)
    out = [(math.exp(_decisions_logprob(decisions, inserts, cfg)),
            _emit(words, decisions, inserts))]
    for k in range(1, n):
        rng = random.Random(derived_seed("asr-re", cfg.seed, utt.id, k))
        dec_k, ins_k = _redecode(words, decisions, inserts, cfg, rng)
        out.append((math.exp(_decisions_logprob(dec_k, ins_k, cfg)),
                    _emit(words, dec_k, ins_k)))
    return out


# ---------------------------------------------------------------------------
# Confusion networks and word posteriors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionNetwork:
    bins: tuple  # of tuple((word, posterior), ...) sorted by -posterior
    pivot: tuple  # the word sequence the bins are aligned to

    def __post_init__(self):
        for k, entries in enumerate(self.bins):
            total = sum(p for _, p in entries)
            # written so that a NaN sum is refused too
            if not abs(total - 1.0) <= 1e-9:
                raise AlignmentError(f"bin {k} posteriors sum to {total}")


def _pivot_column(pivot, hyp) -> tuple:
    """The word `hyp` puts in each pivot bin: its aligned word on
    match/substitution, epsilon where it skips the bin."""
    column = [None] * len(pivot)
    for op, i, j in align(pivot, hyp).ops:
        if op in (MATCH, SUB):
            column[i] = hyp[j]
        elif op == DEL:
            column[i] = EPS
    if None in column:
        raise AlignmentError("a hypothesis left a pivot bin without an entry")
    return tuple(column)


def build_cn(nbest) -> ConfusionNetwork:
    """Align weighted hypotheses into the first (pivot) hypothesis.

    `nbest` is any sequence of (weight, words) pairs: a `decode_nbest`
    list or an `NBest` read back by `read_nbest`.

    Every hypothesis contributes to each pivot bin exactly once: its
    aligned word on match/substitution, epsilon where it skips the bin.
    Words it inserts between bins are dropped; at this scale the pivot
    positions are all the taggers consume.  Each distinct hypothesis is
    aligned once; weights are still added in n-best order, so repeats
    give the same posteriors, bit for bit, as aligning every entry.
    Raises AlignmentError for a weight that is not finite and positive,
    and for weights whose sum overflows.
    """
    if not nbest:
        raise AlignmentError("need at least one hypothesis")
    pivot = list(nbest[0][1])
    mass = [dict() for _ in pivot]
    columns = {}  # tuple(hyp) -> its word in each pivot bin
    total = 0.0
    for weight, hyp in nbest:
        if not (math.isfinite(weight) and weight > 0):
            raise AlignmentError(f"hypothesis weight {weight!r} is not finite and positive")
        total += weight
        key = tuple(hyp)
        column = columns.get(key)
        if column is None:
            column = columns[key] = _pivot_column(pivot, hyp)
        for entries, word in zip(mass, column):
            entries[word] = entries.get(word, 0.0) + weight
    if not math.isfinite(total):
        raise AlignmentError(f"hypothesis weights sum to {total}")
    bins = []
    for entries in mass:
        scored = [(w, p / total) for w, p in entries.items()]
        scored.sort(key=lambda e: (-e[1], e[0]))
        # renormalize away float dust so the bin invariant holds exactly
        s = sum(p for _, p in scored)
        bins.append(tuple((w, p / s) for w, p in scored))
    return ConfusionNetwork(tuple(bins), tuple(pivot))


def pap_of(cn: ConfusionNetwork, hyp_words):
    """Posterior of each pivot word in its own bin."""
    if tuple(hyp_words) != cn.pivot:
        raise AlignmentError("hypothesis is not the pivot of this confusion network")
    out = []
    for word, entries in zip(cn.pivot, cn.bins):
        post = dict(entries).get(word, 0.0)
        out.append(post)
    return out


def attach_pap(utt: Utterance, cn: ConfusionNetwork) -> Utterance:
    paps = pap_of(cn, utt.surfaces())
    return utt.with_column("pap", [round(p, 6) for p in paps])


# ---------------------------------------------------------------------------
# Label projection (reference annotations onto a hypothesis)
# ---------------------------------------------------------------------------

def project_labels(hyp: Utterance) -> Utterance:
    """Copy reference labels onto aligned hypothesis words.

    Matches and substitutions inherit the reference label, insertions
    get null, and concepts on deleted words vanish.  Orphaned I-x
    continuations are promoted to B-x.
    """
    if hyp.reference_tokens is None:
        raise AlignmentError(f"utterance {hyp.id!r} has no reference tokens")
    ref_words = [t.surface for t in hyp.reference_tokens]
    ali = align(ref_words, hyp.surfaces())
    labels = [NULL_LABEL] * len(hyp.tokens)
    for op, i, j in ali.ops:
        if op in (MATCH, SUB):
            ref_lab = hyp.reference_tokens[i].label
            labels[j] = ref_lab if ref_lab is not None else NULL_LABEL
    return hyp.with_labels(repair_bio(labels))


# ---------------------------------------------------------------------------
# N-best and confusion network files
# ---------------------------------------------------------------------------

def _check_words(uid, words):
    for word in words:
        if word.split() != [word]:
            raise SchemaError(f"utterance {uid!r}: word {word!r} is empty or holds whitespace")


def _nbest_row(uid, weight, words):
    _check_words(uid, words)
    text = f"{weight:.9e}"
    # `build_cn` takes only a finite weight > 0; checked as read back,
    # since a weight near the float maximum rounds up to inf in this form
    if not (math.isfinite(float(text)) and weight > 0):
        raise SchemaError(f"utterance {uid!r}: weight {weight!r} is not finite and positive")
    return f"{text}\t{' '.join(words)}"


def write_nbest(path, per_utt) -> None:
    """per_utt: iterable of (utterance_id, nbest), where nbest is any
    sequence of (weight, words) pairs: a `decode_nbest` list or an `NBest`.

    Raises SchemaError naming the utterance for a word that is empty or
    holds whitespace, since the words of a row are space-joined, and for
    a weight `build_cn` would refuse after the read-back.
    """
    write_blocks(path, ((uid, [_nbest_row(uid, weight, words) for weight, words in nbest])
                        for uid, nbest in per_utt))


@dataclass(frozen=True, slots=True)
class NBest:
    """One utterance's n-best list as two equal-length columns:
    `weights[k]` is the weight of `hyps[k]`, a tuple of words.

    It reads as the sequence of (weight, words) pairs `decode_nbest`
    returns: `len`, `nbest[k]` for an int k, and iteration in order.
    """

    weights: tuple
    hyps: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.hyps):
            raise AlignmentError(f"{len(self.weights)} weights for {len(self.hyps)} hypotheses")

    def __len__(self):
        return len(self.hyps)

    def __getitem__(self, k):
        return self.weights[k], self.hyps[k]

    def __iter__(self):
        return zip(self.weights, self.hyps)


def _nbest_block(path, rows, text: TextPool) -> NBest:
    weights, hyps = [], []
    floats, tuples = {}, {}  # this block's weight and words texts, parsed once
    for lineno, row in rows:
        weight_text, tab, words_text = row.partition("\t")
        if not tab:
            raise ParseError("expected weight<TAB>words", lineno, path)
        weight = floats.get(weight_text)
        if weight is None:
            try:
                weight = floats[weight_text] = float(weight_text)
            except ValueError as exc:
                raise ParseError(f"bad weight {weight_text!r}", lineno, path) from exc
        hyp = tuples.get(words_text)
        if hyp is None:
            hyp = tuples[words_text] = tuple([text[w] for w in words_text.split()])
        weights.append(weight)
        hyps.append(hyp)
    return NBest(tuple(weights), tuple(hyps))


def read_nbest(path):
    """[(utterance_id, NBest), ...] from a file `write_nbest` wrote, in order.

    Each `NBest` holds the block's weights and hypotheses as two tuples.
    Within one block, equal hypothesis texts are one tuple object and
    equal weight texts one float; across the whole file, equal words are
    one string.  So a list that repeats a hypothesis costs one tuple for
    it, and reading the file back costs less than the lists written.
    Weights are parsed as written: `build_cn` refuses one that is not
    finite and positive.  Raises ParseError naming the file and line for
    a row without a tab, a weight that is not a float, text that is not
    UTF-8, and each layout error `corpus.read_blocks` refuses.
    """
    text = TextPool()
    return [(uid, _nbest_block(path, rows, text)) for uid, rows in read_blocks(path)]


def _cn_row(uid, entries):
    _check_words(uid, [w for w, _ in entries])
    return " ".join(f"{w}:{p:.6f}" for w, p in entries)


def write_cn(path, per_utt) -> None:
    """per_utt: iterable of (utterance_id, ConfusionNetwork).

    Raises SchemaError naming the utterance for a word that is empty or
    holds whitespace, since the entries of a row are space-joined.
    """
    write_blocks(path, ((uid, [_cn_row(uid, entries) for entries in cn.bins])
                        for uid, cn in per_utt))
