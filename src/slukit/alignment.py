"""Edit alignment, a stochastic recognizer channel, and confusion networks
with word posteriors.

The channel replaces a real recognizer: per reference word it may
substitute (preferring phonetically near candidates), delete, or insert,
at configured rates, so the overall word error rate is steerable.  An
n-best list around a hypothesis feeds a pivot-aligned confusion network
whose bin posteriors give the word posterior (pap) confidence measure.
Everything is keyed by (seed, utterance id), so corpus-parallel runs are
bit-identical to serial ones.

`NBest` lists and `ConfusionNetwork`s are flat columns that share equal
words: a list keeps each distinct word once and codes its entries as
indices, one byte each for a vocabulary of at most 256 words, and its
entry ends in one byte each for at most 255 indices; each array is
allocated once, at its final size.
"""
from __future__ import annotations

import functools
import math
import random
from array import array
from dataclasses import dataclass, field
from types import MappingProxyType

from .corpus import (CONFIDENCE_DECIMALS, FLAG_CORRECT, FLAG_ERROR, NULL_LABEL, ParseError,
                     SchemaError, Token, Utterance, read_blocks, repair_bio, write_blocks)
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
    """Minimal unit-cost (Levenshtein) alignment of two sequences of
    hashable items.

    Ties are broken by preferring match or substitution, then deletion,
    then insertion, while backtracking from the end of both sequences.
    """
    return _align_each(ref, (hyp,))[0]


def _align_each(ref, hyps) -> list:
    """`align(ref, hyp)` for each of `hyps`, filled in one pass.

    Each hypothesis is a lane of bits in one int, with a guard bit above
    it.  Per ref item, Hyyrö's global-distance form of Myers' bit-vector
    recurrence turns row i-1's deltas D[i-1][j] - D[i-1][j-1] (+1 in
    `vp`, -1 in `vn`) into row i's in every lane at once.  A lane's add
    carries at most into its guard, as `& mask` keeps the guards of `vp`
    clear, and `| ones` shifts in each lane's D[i][0] - D[i-1][0] = 1.
    Row i keeps `d0` (D[i][j] == D[i-1][j-1]) and `up` (D[i][j] ==
    D[i-1][j] + 1) for the backtrack, which takes the diagonal on a match
    without a lookup.  Items must be hashable: the match table is a dict.
    """
    peq, lows = {}, []
    mask = ones = 0
    low = 1
    for hyp in hyps:
        for j, w in enumerate(hyp):
            peq[w] = peq.get(w, 0) | low << j
        lows.append(low)
        ones |= low
        mask |= (low << len(hyp)) - low
        low <<= len(hyp) + 1
    vp, vn = mask, 0
    rows = []
    for r in ref:
        eq = peq.get(r, 0)
        xv = eq | vn
        d0 = (((eq & vp) + vp) ^ vp) | xv
        up = vn | ~(d0 | vp)
        rows.append((d0, up))
        hn = (vp & d0) << 1
        hp = up << 1 | ones
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv

    out = []
    for hyp, low in zip(hyps, lows):
        # the cell of ref[i] and hyp[j] is in rows[i], at hyp[j]'s `bit`
        i, j = len(ref) - 1, len(hyp) - 1
        below = (low << len(hyp)) - low
        bit = low << len(hyp) >> 1
        cost = len(ref) + (vp & below).bit_count() - (vn & below).bit_count()
        ops = []
        append = ops.append
        while i >= 0 and j >= 0:
            if ref[i] == hyp[j]:
                append((MATCH, i, j))
            else:
                # the cell is its diagonal neighbour + 1 (substitute) or
                # equal to it; then delete if the cell above is one less
                d0, up = rows[i]
                if d0 & bit:
                    if up & bit:
                        append((DEL, i, None))
                        i -= 1
                    else:
                        append((INS, None, j))
                        j, bit = j - 1, bit >> 1
                    continue
                append((SUB, i, j))
            i, j, bit = i - 1, j - 1, bit >> 1
        ops += [(DEL, t, None) for t in range(i, -1, -1)]
        ops += [(INS, None, t) for t in range(j, -1, -1)]
        out.append(Alignment(tuple(ops[::-1]), cost))
    return out


# ---------------------------------------------------------------------------
# Noise channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseConfig:
    """Stochastic recognizer channel.

    Each reference word is deleted at `del_rate`, substituted at
    `sub_rate` or kept, and followed by an insertion at `ins_rate`, so
    the channel draws 100 * (sub + del + ins) events per 100 reference
    words on average: `target_wer`.  Minimal alignment scores at most
    the events drawn for a non-empty utterance, and can score fewer: it
    may count an adjacent deletion and insertion as one substitution, so
    aligned substitutions tend to run above `sub_rate`, and aligned
    deletions and insertions below theirs.  `nbest_correlation` is the
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


@functools.lru_cache(maxsize=4096)
def _hyp_token(word, flag) -> Token:
    """The hypothesis token of `word` with error flag `flag`, one shared
    frozen object per (word, flag) while it stays in the cache.  The
    bound holds both flags of 2048 words; past it, a token is built
    again and only shares less."""
    return Token(surface=word, error_flag=flag)


def _hyp_utterance(utt: Utterance, hyp_words) -> Utterance:
    """Wrap channel output as an utterance; flags come from the alignment."""
    ali = align(utt.surfaces(), hyp_words)
    matched = {j for op, _, j in ali.ops if op == MATCH}
    tokens = tuple(_hyp_token(w, FLAG_CORRECT if j in matched else FLAG_ERROR)
                   for j, w in enumerate(hyp_words))
    return Utterance(utt.id, tokens, reference_tokens=utt.tokens)


def corrupt(utt: Utterance, cfg: NoiseConfig) -> Utterance:
    """The primary channel draw for an utterance, keyed by (seed, id):
    the words of `decode_nbest`'s first entry, with error flags.  Equal
    (word, flag) tokens are one shared frozen object, across calls too."""
    return _hyp_utterance(utt, _draw(utt.surfaces(), cfg, utt.id, 0)[3])


@dataclass(frozen=True, slots=True)
class NBest:
    """One utterance's n-best list as four flat columns.

    `weights` is an array("d"), one weight per entry.  `vocab` holds each
    distinct word of the list once, in first-appearance order, and `ids`
    is an array of indices into it, entry after entry: entry k's words
    are `vocab[i]` for i in `ids[ends[k-1]:ends[k]]`, from 0 for k = 0,
    and `ends` is an array too.  The library's lists store `ids` as an
    array("B"), one byte an id, for a vocabulary of at most 256 words,
    else as an array("I"), and `ends` by the same rule on its largest
    value, `len(ids)`: "B" for at most 255 ids, else "I".  Each of their
    arrays is built once from a list, so it is allocated at its final
    size, not grown entry by entry.  No per-entry object is kept.
    `from_pairs` builds a list from (weight, words) pairs, and the list
    reads back as them: `len`, `nbest[k]` for an int k (negative too) and
    iteration give (weight, words tuple), the tuple built on each access.

    Raises AlignmentError for a `weights` column of another length than
    `ends`, `ends` that start below 0, decrease or whose last value is not
    `len(ids)`, an id outside `vocab` (a negative one too), and a word
    twice in `vocab`; an entry may be empty.  Lists compare equal column
    by column and are not hashable.
    """

    weights: array
    vocab: tuple
    ids: array
    ends: array

    __hash__ = None

    def __post_init__(self):
        if len(self.weights) != len(self.ends):
            raise AlignmentError(f"{len(self.weights)} weights for {len(self.ends)} entries")
        if ((self.ends[-1] if self.ends else 0) != len(self.ids)
                or not all(start <= end for start, end in _spans(self.ends))):
            raise AlignmentError(f"the ends column does not split {len(self.ids)} ids "
                                 "into entries")
        outside = [i for i in self.ids if not 0 <= i < len(self.vocab)]
        if outside:
            raise AlignmentError(f"id {outside[0]} is outside a vocabulary of "
                                 f"{len(self.vocab)} words")
        if len(set(self.vocab)) != len(self.vocab):
            raise AlignmentError("a word appears twice in the vocabulary")

    @classmethod
    def from_pairs(cls, pairs) -> NBest:
        """The list of (weight, words) `pairs`, in order; words are hashable."""
        return _built(cls, *_nbest_columns(pairs))

    def __len__(self):
        return len(self.ends)

    def __getitem__(self, k):
        k = range(len(self.ends))[k]  # a negative k counts from the end
        start = self.ends[k - 1] if k else 0
        return self.weights[k], _tuple(map(self.vocab.__getitem__, self.ids[start:self.ends[k]]))

    def __iter__(self):
        words = self._words()
        return zip(self.weights, (words[start:end] for start, end in _spans(self.ends)))

    def _words(self) -> tuple:
        """Every entry's words, entry after entry: `vocab` mapped over `ids`."""
        return _tuple(map(self.vocab.__getitem__, self.ids))


def _built(cls, *columns):
    """The `cls` (`NBest` or `ConfusionNetwork`) of `columns`, given in
    field order, built without the checks of `__post_init__`.  Only for
    columns that a builder of this module has made to the class's rules;
    the public constructor checks every rule."""
    built = object.__new__(cls)
    for name, column in zip(cls.__slots__, columns):
        object.__setattr__(built, name, column)
    return built


def _tuple(items) -> tuple:
    """A tuple of `items` allocated at its size.  One grown from an
    iterator of unknown length goes back to the free list of another
    size than it came from, and tuples dropped by the thousand pile up
    there (2 MB once for 1000 lists of 40)."""
    return tuple([*items])


def _nbest_columns(pairs):
    """(weights, vocab, ids, ends), the `NBest` columns of (weight, words)
    `pairs`: `vocab` the distinct words in order of first appearance, and
    each array built once, from a list, at its final size."""
    weights, ends, words = [], [], []
    for weight, entry in pairs:
        weights.append(weight)
        words += entry
        ends.append(len(words))
    vocab = tuple(dict.fromkeys(words))
    index = dict(zip(vocab, range(len(vocab))))
    ids = _index_array(list(map(index.__getitem__, words)), len(vocab) - 1)
    return array("d", weights), vocab, ids, _index_array(ends, len(words))


def _index_array(values: list, top) -> array:
    """`values`, none above `top`, as an array of typecode "B" (one byte)
    for a `top` below 256, else "I".  An array made from a list is
    allocated at its size; one grown from an iterator is not."""
    return array("B" if top < 256 else "I", values)


def decode_nbest(utt: Utterance, cfg: NoiseConfig, n: int) -> NBest:
    """Primary draw plus n-1 correlated re-decodes, primary first.

    This is the pipeline's recognizer surrogate: the first entry is the
    transcription the taggers consume, and the remaining entries mimic
    the correlated alternatives a lattice would hold.  The list keeps
    each distinct word once (`NBest.from_pairs`), and no tuple per entry.

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
    return NBest.from_pairs([(weight, hyp) for _, _, weight, hyp in draws])


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
    per-bin object is kept.

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


def _spans(ends):
    """(start, end) of each bin of a network's `ends` column."""
    return zip((0, *ends), ends)


def _pivot_column(pivot, hyp, ali: Alignment, eps) -> tuple:
    """The entry `hyp` puts in each pivot bin by its alignment `ali`: its
    aligned entry on match/substitution, `eps` where it skips the bin."""
    column = [None] * len(pivot)
    for op, i, j in ali.ops:
        if op in (MATCH, SUB):
            column[i] = hyp[j]
        elif op == DEL:
            column[i] = eps
    if None in column:
        raise AlignmentError("a hypothesis left a pivot bin without an entry")
    return tuple(column)


def build_cn(nbest: NBest) -> ConfusionNetwork:
    """Align an `NBest` list's weighted hypotheses into its first (pivot)
    hypothesis.

    Every hypothesis contributes to each pivot bin exactly once: its
    aligned word on match/substitution, epsilon where it skips the bin.
    Words it inserts between bins are dropped; at this scale the pivot
    positions are all the taggers consume.  Hypotheses are aligned as
    runs of vocabulary ids, which are equal where the words are; the
    pivot fills each bin with its own id, and the other distinct runs
    are aligned once each, all in one `_align_each` pass (none when the
    list holds no other run); weights are still added in
    n-best order, so repeats give the same posteriors, bit for bit, as
    aligning every entry.  A bin's posterior is its word's mass over
    the total weight, and the bin is sorted by (-posterior, word), the
    ids mapped back to words first, and divided by its own sum.  These
    are written straight into the network's columns, with no per-bin
    object; the pivot's words are the list's own `vocab` strings.
    Raises AlignmentError for a weight that is not finite and positive,
    and for weights whose sum overflows.
    """
    if not nbest:
        raise AlignmentError("need at least one hypothesis")
    # epsilon gets an id of its own unless the list holds it as a word
    words_of = nbest.vocab if EPS in nbest.vocab else (*nbest.vocab, EPS)
    eps = words_of.index(EPS)
    ids = tuple(nbest.ids.tolist())
    pivot = ids[:nbest.ends[0]]
    hyps = [ids[start:end] for start, end in _spans(nbest.ends)]
    # a hypothesis's ids -> its id in each pivot bin; the pivot's are its own
    columns = {pivot: pivot}
    others = list(dict.fromkeys(hyps))[1:]  # the distinct runs after the pivot
    if others:
        columns.update((hyp, _pivot_column(pivot, hyp, ali, eps))
                       for hyp, ali in zip(others, _align_each(pivot, others)))
    mass = [dict() for _ in pivot]
    total = 0.0
    for weight, hyp in zip(nbest.weights, hyps):
        if not (math.isfinite(weight) and weight > 0):
            raise AlignmentError(f"hypothesis weight {weight!r} is not finite and positive")
        total += weight
        for entries, i in zip(mass, columns[hyp]):
            entries[i] = entries.get(i, 0.0) + weight
    if not math.isfinite(total):
        raise AlignmentError(f"hypothesis weights sum to {total}")
    words, posteriors, ends = [], [], []
    for entries in mass:
        post = {words_of[i]: p / total for i, p in entries.items()}
        order = sorted(post, key=lambda w: (-post[w], w))
        # renormalize away float dust so the bin invariant holds exactly
        s = sum([post[w] for w in order])
        words += order
        posteriors += [post[w] / s for w in order]
        ends.append(len(words))
    pivot_words = _tuple(map(words_of.__getitem__, pivot))
    return _built(ConfusionNetwork, pivot_words, tuple(words), array("d", posteriors),
                  tuple(ends))


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
    return utt.with_column("pap", [round(p, CONFIDENCE_DECIMALS) for p in paps])


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
    return hyp.with_column("label", repair_bio(labels))


# ---------------------------------------------------------------------------
# N-best and confusion network files
# ---------------------------------------------------------------------------

def _check_words(words):
    for word in words:
        if not isinstance(word, str):
            raise SchemaError(f"word {word!r} is not text")
        if word.split() != [word]:
            raise SchemaError(f"word {word!r} is empty or holds whitespace")


def _weight_cell(weight) -> str:
    """The text of `weight` in an n-best row; SchemaError for a weight
    `build_cn` refuses, checked as read back, since a weight near the
    float maximum rounds up to inf in this form."""
    text = f"{weight:.9e}"
    if not (math.isfinite(float(text)) and weight > 0):
        raise SchemaError(f"weight {weight!r} is not finite and positive")
    return text


def _nbest_rows(nbest: NBest):
    """The rows of one `NBest` list, one per entry: weight<TAB>words."""
    _check_words(nbest.vocab)
    words = nbest._words()
    for weight, (start, end) in zip(nbest.weights, _spans(nbest.ends)):
        yield f"{_weight_cell(weight)}\t{' '.join(words[start:end])}"


def write_nbest(path, per_utt) -> None:
    """per_utt: iterable of (utterance_id, NBest), as `decode_nbest` and
    `read_nbest` give them.

    Raises SchemaError naming the utterance for a breach of the block rules
    (`corpus`), a word that is not text, is empty or holds whitespace (a
    row's words are space-joined), and a weight `build_cn` would refuse
    after the read-back.
    A list's words are checked, once each, before its weights.
    """
    write_blocks(path, ((uid, _nbest_rows(nbest)) for uid, nbest in per_utt))


def _parse_weight(text) -> float:
    """The weight of an n-best row's weight text; ValueError or SchemaError
    for text other than the `_weight_cell` of its value."""
    weight = float(text)
    if _weight_cell(weight) != text:
        raise SchemaError(f"{text!r} would be written as another weight")
    return weight


def _nbest_pairs(path, rows, weight_of):
    """(weight, words) of each weight<TAB>words row of an n-best block;
    ParseError for a row other than the one `_nbest_rows` writes for them.
    `weight_of` is a `functools.cache` of `_parse_weight`."""
    for lineno, row in rows:
        weight_text, tab, words_text = row.partition("\t")
        if not tab:
            raise ParseError("expected weight<TAB>words", lineno, path)
        try:
            weight = weight_of(weight_text)
        except (ValueError, SchemaError) as exc:
            raise ParseError(f"bad weight {weight_text!r}", lineno, path) from exc
        words = words_text.split()
        if " ".join(words) != words_text:
            raise ParseError(f"words {words_text!r} are not single-space-joined", lineno, path)
        yield weight, words


def _nbest_block(path, rows, weight_of, shared_word) -> NBest:
    weights, vocab, ids, ends = _nbest_columns(_nbest_pairs(path, rows, weight_of))
    return _built(NBest, weights, _tuple(map(shared_word, vocab)), ids, ends)


def read_nbest(path):
    """[(utterance_id, NBest), ...] from a file `write_nbest` wrote, in order.

    Each `NBest` is the one written, with weights to their printed
    precision, its columns built as the rows are parsed.  Across the
    whole file, equal words are one string, and equal weight texts are
    parsed and checked once: each list's vocabulary and weights go
    through a `functools.cache` of this read.  So a read-back costs about
    what the `decode_nbest` lists cost, and `write_nbest` of it writes
    the same bytes.
    Only rows `write_nbest` writes read back.  Raises ParseError naming
    the file and line for a row without a tab, weight text other than
    the text `write_nbest` writes for a weight it takes (such as "1.0",
    "0", "nan" or "1e400"), words not joined by single spaces (such as
    "a  b" or " a"), and each refusal of `corpus.read_blocks`, which owns
    the block rules.
    """
    weight_of, shared_word = functools.cache(_parse_weight), functools.cache(str)
    return [(uid, _nbest_block(path, rows, weight_of, shared_word))
            for uid, rows in read_blocks(path)]


def _cn_rows(cn: ConfusionNetwork):
    _check_words(cn.words)
    entries = [f"{w}:{p:.6f}" for w, p in zip(cn.words, cn.posteriors)]
    yield from (" ".join(entries[start:end]) for start, end in _spans(cn.ends))


def write_cn(path, per_utt) -> None:
    """per_utt: iterable of (utterance_id, ConfusionNetwork).

    Each bin is one row of `word:posterior` entries, read from the
    network's columns.  The file records the bins but not the pivot, so
    as it stands it cannot be read back as a `ConfusionNetwork`.  Raises
    SchemaError naming the utterance for a breach of the block rules
    (`corpus`), such as a network of no bins, and a word that is not
    text, is empty or holds whitespace (entries are space-joined).
    """
    write_blocks(path, ((uid, _cn_rows(cn)) for uid, cn in per_utt))
