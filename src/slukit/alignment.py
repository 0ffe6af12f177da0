"""Edit alignment, WER, a stochastic recognizer channel, and confusion
networks with word posteriors.

The channel replaces a real recognizer: per reference word it may
substitute (preferring phonetically near candidates), delete, or insert,
at configured rates, so the overall word error rate is steerable.  An
n-best list around a hypothesis feeds a pivot-aligned confusion network
whose bin posteriors give the word posterior (pap) confidence measure.
Everything is keyed by (seed, utterance id), so corpus-parallel runs are
bit-identical to serial ones.

`NBest` lists and `ConfusionNetwork`s are flat columns that share equal
words: read back, 1000 lists of 40 (correlation 0.3) hold 4.4 MB and their
networks 1.0 MB, where nested pairs held 8.9 MB and 4.26 MB (tracemalloc).
"""
from __future__ import annotations

import functools
import math
import random
from array import array
from dataclasses import dataclass, field
from types import MappingProxyType

from .corpus import (FLAG_CORRECT, FLAG_ERROR, NULL_LABEL, Memo, ParseError,
                     SchemaError, Token, Utterance, read_blocks, repair_bio,
                     write_blocks)
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
    confusions: dict | None = field(default=None, hash=False)  # a dict has no hash
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


@functools.lru_cache(maxsize=None)
def _log_rates(del_rate, sub_rate, ins_rate) -> MappingProxyType:
    # an event of rate 0 is never drawn, so its log is never taken; read
    # only, since every draw with these rates shares it
    rates = {"del": del_rate, "sub": sub_rate, "keep": 1.0 - sub_rate - del_rate,
             "ins": ins_rate, "no-ins": 1.0 - ins_rate}
    return MappingProxyType({event: math.log(p) for event, p in rates.items() if p > 0})


def _draw(words, cfg: NoiseConfig, uid, k, primary=None):
    """Entry k of utterance `uid`'s n-best list, drawn in one pass as
    `decode_nbest` documents: (decisions, inserts, weight, hyp).

    A decision is ("keep", word), ("sub", replacement) or ("del", None),
    an insert the word inserted after a reference word or None.  The
    weight is exp of the decisions' log-rates added in order, then the
    inserts'.  A recognizer always emits something: ("euh",) if no word.
    """
    rng = random.Random(derived_seed("asr-re" if k else "asr", cfg.seed, uid, k))
    log_rate = _log_rates(cfg.del_rate, cfg.sub_rate, cfg.ins_rate)
    kappa = cfg.nbest_correlation
    decisions, inserts, out = [], [], []
    logp = 0.0
    for i, w in enumerate(words):
        if primary is not None and rng.random() < kappa:
            dec = primary[0][i]
        else:
            u = rng.random()
            if u < cfg.del_rate:
                dec = ("del", None)
            elif u < cfg.del_rate + cfg.sub_rate:
                cands = ((cfg.confusions or {}).get(w)
                         or _other_words(tuple(cfg.vocabulary), w))
                # degenerate configs still must change the word
                dec = ("sub", cands[rng.randrange(len(cands))] if cands else w + "'")
            else:
                dec = ("keep", w)
        if primary is not None and rng.random() < kappa:
            ins = primary[1][i]
        elif rng.random() < cfg.ins_rate:
            pool = cfg.insertion_words or cfg.vocabulary or ("euh",)
            ins = pool[rng.randrange(len(pool))]
        else:
            ins = None
        decisions.append(dec)
        inserts.append(ins)
        logp += log_rate[dec[0]]
        if dec[1] is not None:
            out.append(dec[1])
        if ins:
            out.append(ins)
    for ins in inserts:
        logp += log_rate["no-ins" if ins is None else "ins"]
    return decisions, inserts, math.exp(logp), tuple(out) or ("euh",)


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
    """The primary channel draw for an utterance, keyed by (seed, id):
    the words of `decode_nbest`'s first entry, with error flags."""
    return _hyp_utterance(utt, _draw(utt.surfaces(), cfg, utt.id, 0)[3])


@dataclass(frozen=True, slots=True)
class NBest:
    """One utterance's n-best list as two equal-length columns:
    `weights[k]` is the weight of `hyps[k]`, a tuple of words.

    `decode_nbest` and `read_nbest` both return one, and within one
    list equal hypotheses are one tuple.  It reads as a sequence of
    (weight, words) pairs: `len`, `nbest[k]` for an int k, and iteration
    in order.
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


def decode_nbest(utt: Utterance, cfg: NoiseConfig, n: int) -> NBest:
    """Primary draw plus n-1 correlated re-decodes, primary first.

    This is the pipeline's recognizer surrogate: the first entry is the
    transcription the taggers consume, and the remaining entries mimic
    the correlated alternatives a lattice would hold.  Equal weights in
    the list are one float, and equal hypotheses one tuple.

    Draw contract, on which the file bytes rest: entry k takes its own
    `random.Random`, seeded with `derived_seed("asr", seed, id, 0)` for
    the primary and `derived_seed("asr-re", seed, id, k)` for k > 0, so
    no entry depends on n or on another utterance.  Per reference word
    in order, the primary draws (1) the decision: `random()`, deleting
    below `del_rate` and substituting below `del_rate + sub_rate`, and a
    substitution `randrange` over the word's confusions, else the rest
    of the vocabulary (with neither, the word gains a "'" and draws
    nothing); then (2) the insertion after the word: `random()`,
    inserting below `ins_rate`, and an insertion `randrange` over the
    insertion words, else the vocabulary, else "euh".  A re-decode
    draws, per word, `random()` and keeps the primary's decision if it
    is below `nbest_correlation`, else draws (1); then `random()` and
    keeps the primary's insertion likewise, else draws (2).
    """
    if n < 1:
        raise AlignmentError(f"need n >= 1 hypotheses, got {n}")
    words = utt.surfaces()
    primary = _draw(words, cfg, utt.id, 0)
    draws = [primary] + [_draw(words, cfg, utt.id, k, primary) for k in range(1, n)]
    shared = {}  # equal weights are one float, equal hypotheses one tuple
    weights = tuple(shared.setdefault(d[2], d[2]) for d in draws)
    return NBest(weights, tuple(shared.setdefault(d[3], d[3]) for d in draws))


# ---------------------------------------------------------------------------
# Confusion networks and word posteriors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ConfusionNetwork:
    """A pivot-aligned confusion network as four flat columns.

    `pivot` is the word sequence the bins are aligned to, one bin per
    pivot word.  `words` holds every bin's words, bin after bin, each
    bin ordered by (-posterior, word); `posteriors` is an array("d") of
    the same length, the posterior of each word.  Bin k is the slice
    [ends[k-1], ends[k]) of both, from 0 for k = 0.  No per-entry or
    per-bin object is kept.  `bins` is the nested view, a tuple per bin
    of (word, posterior) pairs, built on each access; `from_bins` builds
    a network from that view.

    Raises AlignmentError for a bin count other than the pivot length,
    columns whose lengths or `ends` do not partition `words` into
    non-empty bins, a posterior outside [0, 1], a word twice in one bin,
    and a bin whose posteriors do not sum to 1 within 1e-9.  Networks
    compare equal column by column.  A network is not hashable, since
    its posteriors are an array, and nothing hashes one.
    """

    pivot: tuple
    words: tuple
    posteriors: array
    ends: tuple

    __hash__ = None

    def __post_init__(self):
        n = len(self.words)
        if len(self.posteriors) != n:
            raise AlignmentError(f"{len(self.posteriors)} posteriors for {n} words")
        if len(self.ends) != len(self.pivot):
            raise AlignmentError(f"{len(self.ends)} bins for {len(self.pivot)} pivot words")
        if ((self.ends[-1] if self.ends else 0) != n
                or not all(start < end for start, end in _spans(self.ends))):
            raise AlignmentError(f"the ends column does not split {n} words into non-empty bins")
        # written so that a NaN is refused too
        if not all(0.0 <= p <= 1.0 for p in self.posteriors):
            raise AlignmentError("a posterior lies outside [0, 1]")
        for k, (start, end) in enumerate(_spans(self.ends)):
            if len(set(self.words[start:end])) != end - start:
                raise AlignmentError(f"bin {k} holds a word twice")
            total = sum(self.posteriors[start:end])
            if not abs(total - 1.0) <= 1e-9:
                raise AlignmentError(f"bin {k} posteriors sum to {total}")

    @classmethod
    def from_bins(cls, bins, pivot) -> ConfusionNetwork:
        """The network whose `bins` view is `bins`: per pivot word, a
        sequence of (word, posterior) pairs in bin order."""
        words, posteriors, ends = [], [], []
        for entries in bins:
            for word, p in entries:
                words.append(word)
                posteriors.append(p)
            ends.append(len(words))
        return cls(tuple(pivot), tuple(words), array("d", posteriors), tuple(ends))

    @property
    def bins(self) -> tuple:
        """Per pivot word, a tuple of its bin's (word, posterior) pairs."""
        return tuple(tuple(zip(self.words[start:end], self.posteriors[start:end]))
                     for start, end in _spans(self.ends))


def _spans(ends):
    """(start, end) of each bin of a network's `ends` column."""
    return zip((0, *ends), ends)


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

    `nbest` is an `NBest`, as `decode_nbest` and `read_nbest` return it;
    it is read as a sequence of (weight, words) pairs, so a list of such
    pairs serves too.

    Every hypothesis contributes to each pivot bin exactly once: its
    aligned word on match/substitution, epsilon where it skips the bin.
    Words it inserts between bins are dropped; at this scale the pivot
    positions are all the taggers consume.  Each distinct hypothesis is
    aligned once; weights are still added in n-best order, so repeats
    give the same posteriors, bit for bit, as aligning every entry.
    A bin's posterior is its word's mass over the total weight, and the
    bin is sorted by (-posterior, word) and divided by its own sum.
    These are written straight into the network's columns, with no
    nested `bins`; the pivot is the first hypothesis's own tuple.
    Raises AlignmentError for a weight that is not finite and positive,
    and for weights whose sum overflows.
    """
    if not nbest:
        raise AlignmentError("need at least one hypothesis")
    pivot = tuple(nbest[0][1])
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
    words, posteriors, ends = [], [], []
    for entries in mass:
        post = {w: p / total for w, p in entries.items()}
        order = sorted(post, key=lambda w: (-post[w], w))
        # renormalize away float dust so the bin invariant holds exactly
        s = sum([post[w] for w in order])
        words += order
        posteriors += [post[w] / s for w in order]
        ends.append(len(words))
    return ConfusionNetwork(pivot, tuple(words), array("d", posteriors), tuple(ends))


def pap_of(cn: ConfusionNetwork, hyp_words):
    """Posterior of each pivot word in its own bin, read from the
    network's columns; 0.0 for a pivot word its bin does not hold."""
    if tuple(hyp_words) != cn.pivot:
        raise AlignmentError("hypothesis is not the pivot of this confusion network")
    out = []
    for word, (start, end) in zip(cn.pivot, _spans(cn.ends)):
        try:
            out.append(cn.posteriors[cn.words.index(word, start, end)])
        except ValueError:
            out.append(0.0)
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
    """per_utt: iterable of (utterance_id, NBest), as `decode_nbest` and
    `read_nbest` give them; a list of (weight, words) pairs is written
    the same way.

    Raises SchemaError naming the utterance for a word that is empty or
    holds whitespace, since the words of a row are space-joined, and for
    a weight `build_cn` would refuse after the read-back.
    """
    write_blocks(path, ((uid, [_nbest_row(uid, weight, words) for weight, words in nbest])
                        for uid, nbest in per_utt))


def _nbest_block(path, rows, shared_word) -> NBest:
    weights, hyps = [], []
    # this block's weight and words texts, each parsed once; a tuple made
    # from a list is allocated at its size, one made from a map is not
    floats = Memo(float)
    tuples = Memo(lambda words: tuple([*map(shared_word, words.split())]))
    for lineno, row in rows:
        weight_text, tab, words_text = row.partition("\t")
        if not tab:
            raise ParseError("expected weight<TAB>words", lineno, path)
        try:
            weights.append(floats[weight_text])
        except ValueError as exc:
            raise ParseError(f"bad weight {weight_text!r}", lineno, path) from exc
        hyps.append(tuples[words_text])
    return NBest(tuple(weights), tuple(hyps))


def read_nbest(path):
    """[(utterance_id, NBest), ...] from a file `write_nbest` wrote, in order.

    Each `NBest` is the one written, with weights to their printed
    precision.  Within one block, equal hypothesis texts are one tuple
    object and equal weight texts one float; across the whole file,
    equal words are one string, each through a `corpus.Memo`.  So a
    read-back costs about what the `decode_nbest` lists cost, and
    `write_nbest` of it writes the same bytes.
    Weights are parsed as written: `build_cn` refuses one that is not
    finite and positive.  Raises ParseError naming the file and line for
    a row without a tab, a weight that is not a float, text that is not
    UTF-8, and each layout error `corpus.read_blocks` refuses.
    """
    shared_word = Memo(str).__getitem__
    return [(uid, _nbest_block(path, rows, shared_word)) for uid, rows in read_blocks(path)]


def _cn_rows(uid, cn: ConfusionNetwork):
    _check_words(uid, cn.words)
    entries = [f"{w}:{p:.6f}" for w, p in zip(cn.words, cn.posteriors)]
    return [" ".join(entries[start:end]) for start, end in _spans(cn.ends)]


def write_cn(path, per_utt) -> None:
    """per_utt: iterable of (utterance_id, ConfusionNetwork).

    Each bin is one row of `word:posterior` entries, read from the
    network's columns.  Raises SchemaError naming the utterance for a
    word that is empty or holds whitespace, since the entries of a row
    are space-joined.
    """
    write_blocks(path, ((uid, _cn_rows(uid, cn)) for uid, cn in per_utt))
