"""Metrics and multi-system combination.

NCE and calibration tables assess confidence measures; CER/CVER with
precision/recall assess concept extraction (edit alignment of segment
sequences, label-only for CER, label+value for CVER).  Weighted voting
and consensus merge the per-word outputs of several systems that tagged
the same recognizer word sequence, one column of aligned labels at a time.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from . import alignment
from .corpus import (FLAG_CORRECT, NULL_LABEL, Dataset, PhraseTable, TaggerOutput,
                     Utterance, label_segments, repair_bio)

ABSTAIN = "<abstain>"
CLIP_EPS = 1e-6


class EvaluationError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class ConfidenceRecord:
    correct: bool
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise EvaluationError(f"confidence {self.confidence} outside [0,1]")


def records_from_dataset(dataset: Dataset, measure: str):
    """Confidence records for every token carrying an error flag and the
    requested measure ('pap' or 'mlp')."""
    attr = {"pap": "pap", "mlp": "mlp_conf"}.get(measure)
    if attr is None:
        raise EvaluationError(f"unknown confidence measure {measure!r}, expected 'pap' or 'mlp'")
    return [ConfidenceRecord(tok.error_flag == FLAG_CORRECT, conf)
            for utt in dataset for tok in utt.tokens
            if tok.error_flag is not None and (conf := getattr(tok, attr)) is not None]


def nce(records) -> float:
    """Normalized cross entropy of a confidence measure, base-2 logs.

    Confidences are clipped to [eps, 1-eps] so perfect oracles stay
    finite.  Requires at least one correct and one incorrect record,
    otherwise the baseline entropy is zero and the ratio is undefined.
    """
    n = len(records)
    if n == 0:
        raise EvaluationError("no confidence records")
    n_correct = sum(1 for r in records if r.correct)
    if n_correct in (0, n):
        raise EvaluationError("all records in one class: baseline entropy is zero")
    p = n_correct / n
    h_base = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    total = 0.0
    for r in records:
        c = min(max(r.confidence, CLIP_EPS), 1.0 - CLIP_EPS)
        total += math.log2(c) if r.correct else math.log2(1.0 - c)
    h_cond = -total / n
    return (h_base - h_cond) / h_base


@dataclass(frozen=True)
class CalibrationReport:
    bins: int
    counts: tuple
    mean_confidence: tuple
    fraction_correct: tuple
    nce: float | None


def calibration_bins(records, k: int) -> CalibrationReport:
    """Equal-width reliability table; the top bin is right-closed."""
    if k < 2:
        raise EvaluationError(f"need >= 2 bins, got {k}")
    counts = [0] * k
    conf_sum = [0.0] * k
    correct = [0] * k
    for r in records:
        idx = min(int(r.confidence * k), k - 1)
        counts[idx] += 1
        conf_sum[idx] += r.confidence
        correct[idx] += 1 if r.correct else 0
    overall = nce(records) if 0 < sum(r.correct for r in records) < len(records) else None
    return CalibrationReport(
        bins=k,
        counts=tuple(counts),
        mean_confidence=tuple(conf_sum[i] / counts[i] if counts[i] else 0.0 for i in range(k)),
        fraction_correct=tuple(correct[i] / counts[i] if counts[i] else 0.0 for i in range(k)),
        nce=overall,
    )


# ---------------------------------------------------------------------------
# Concept scoring
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreReport:
    cer: float
    cver: float
    concept_precision: float
    concept_recall: float
    value_precision: float
    value_recall: float
    concept_errors: tuple  # (S, I, D)
    value_errors: tuple
    ref_segments: int
    hyp_segments: int


def output_segments(utt: Utterance, labels, value_table: PhraseTable | None = None):
    """Segments of a tagger's label sequence over the utterance it tagged.

    Abstentions count as null and stray I-x continuations (possible
    after voting or error-tag stripping) are promoted, so any label
    sequence of the right length is scoreable.
    """
    if len(labels) != len(utt.tokens):
        raise EvaluationError(
            f"{utt.id!r}: {len(labels)} labels for {len(utt.tokens)} tokens")
    cleaned = [NULL_LABEL if lab == ABSTAIN else lab for lab in labels]
    return label_segments(utt.surfaces(), repair_bio(cleaned), value_table)


class _Reference:
    """The reference side of `score`, built once per reference dataset:
    the value table, and each reference utterance's id with the labels
    and (label, value) pairs of its concept segments."""

    __slots__ = ("values", "rows", "segments")

    def __init__(self, ref: Dataset, value_table):
        self.values = PhraseTable((value_table or {}).items())
        self.rows = []
        for utt in ref:
            segs = label_segments(utt.surfaces(), utt.labels(), self.values)
            self.rows.append((utt.id, [g.label for g in segs],
                              [(g.label, g.value) for g in segs]))
        self.segments = sum(len(labels) for _, labels, _ in self.rows)


def score(ref: Dataset, hyp: Dataset, outputs, value_table=None) -> ScoreReport:
    """CER/CVER of tagger outputs against the reference annotation.

    `outputs` and `hyp` are matched to utterances by id and must each
    cover every reference utterance; EvaluationError names the side that
    does not.  Each output's label list is segmented over the recognizer
    words of its `hyp` utterance as it is (`output_segments`),
    with no token copied, and the hypothesized values are recovered from
    those words.  Error labels must already be stripped.  `value_table`
    maps phrases to normalized values.

    Two tallies sum the edit counts of the concept-label and the (label,
    value) alignments: S+I+D over the reference segments gives CER and CVER.

    The reference side (the value table and the reference segments) is
    built first; `tune_weights` builds it once and passes it as `ref`,
    in which case `value_table` is not read.
    """
    reference = ref if isinstance(ref, _Reference) else _Reference(ref, value_table)
    by_id = {o.id: o for o in outputs}
    hyp_by_id = hyp.by_id()
    concepts, values = Counter(), Counter()
    hyp_total = 0
    for uid, ref_labels, ref_values in reference.rows:
        if uid not in by_id:
            raise EvaluationError(f"no output for utterance {uid!r}")
        if uid not in hyp_by_id:
            raise EvaluationError(f"no recognizer hypothesis for utterance {uid!r}")
        hyp_segs = output_segments(hyp_by_id[uid], by_id[uid].labels, reference.values)
        hyp_total += len(hyp_segs)
        concepts.update(alignment.align(ref_labels, [g.label for g in hyp_segs]).counts())
        values.update(alignment.align(ref_values, [(g.label, g.value) for g in hyp_segs]).counts())
    ref_total = reference.segments
    if ref_total == 0:
        raise EvaluationError("reference contains no concept segments")
    sid = (alignment.SUB, alignment.INS, alignment.DEL)
    concept_errors, value_errors = (tuple(t[op] for op in sid) for t in (concepts, values))
    return ScoreReport(
        cer=100.0 * sum(concept_errors) / ref_total,
        cver=100.0 * sum(value_errors) / ref_total,
        concept_precision=concepts[alignment.MATCH] / hyp_total if hyp_total else 0.0,
        concept_recall=concepts[alignment.MATCH] / ref_total,
        value_precision=values[alignment.MATCH] / hyp_total if hyp_total else 0.0,
        value_recall=values[alignment.MATCH] / ref_total,
        concept_errors=concept_errors,
        value_errors=value_errors,
        ref_segments=ref_total,
        hyp_segments=hyp_total,
    )


# ---------------------------------------------------------------------------
# System combination
# ---------------------------------------------------------------------------

def _check_aligned(outputs_by_system):
    if not outputs_by_system:
        raise EvaluationError("no systems to combine")
    first = outputs_by_system[0]
    ids = [o.id for o in first]
    for sys_outputs in outputs_by_system[1:]:
        if [o.id for o in sys_outputs] != ids:
            raise EvaluationError("systems tagged different utterance sets")
        for a, b in zip(first, sys_outputs):
            if len(a.labels) != len(b.labels):
                raise EvaluationError(
                    f"{a.id!r}: label sequences of different length cannot be combined")


def combine_weighted(outputs_by_system, weights):
    """Per-position weighted vote over aligned label sequences.

    Each system adds its weight to its label's score, in system order.
    The first label voted whose score is within 1e-12 of the highest
    wins, so ties go to the earliest system voting a tied label.  Weights
    must be finite and nonnegative with one positive, else EvaluationError.
    """
    _check_aligned(outputs_by_system)
    k = len(outputs_by_system)
    if len(weights) != k:
        raise EvaluationError(f"{k} systems but {len(weights)} weights")
    if not all(math.isfinite(w) and w >= 0 for w in weights) or not any(w > 0 for w in weights):
        raise EvaluationError("weights must be finite, nonnegative and not all zero")
    combined = []
    for outs in zip(*outputs_by_system):
        labels = []
        for col in zip(*(o.labels for o in outs)):
            scores = {}
            for lab, w in zip(col, weights):
                scores[lab] = scores.get(lab, 0.0) + w
            best = max(scores.values()) - 1e-12
            for lab, sc in scores.items():
                if sc >= best:
                    break
            labels.append(lab)
        combined.append(TaggerOutput(outs[0].id, tuple(labels)))
    return combined


def consensus(outputs_by_system):
    """Keep a position's label when every system gives it; abstain
    otherwise.  Abstentions are scored as null, so they can lower recall
    but never precision."""
    _check_aligned(outputs_by_system)
    return [TaggerOutput(outs[0].id, tuple(col[0] if len(set(col)) == 1 else ABSTAIN
                                           for col in zip(*(o.labels for o in outs))))
            for outs in zip(*outputs_by_system)]


def _simplex_grid(k: int, step: float):
    """The k-weight vectors on a `step` grid summing to 1, lexicographically:
    k - 1 bars among m + k - 1 slots split m = 1/step stars into k parts."""
    if not 0.0 < step <= 1.0:
        raise EvaluationError(f"grid step {step} outside (0, 1]")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise EvaluationError(f"grid step {step} does not divide 1")
    for bars in itertools.combinations(range(m + k - 1), k - 1):
        edges = (-1, *bars, m + k - 1)
        yield tuple((b - a - 1) / m for a, b in zip(edges, edges[1:]))


def tune_weights(outputs_by_system, ref: Dataset, hyp: Dataset,
                 step: float = 0.1, value_table=None):
    """Exhaustive grid search over the weight simplex minimizing dev CER.

    A position's vote depends only on which systems agree there.  For
    the tuple `col` of labels the systems give a position, its agreement
    pattern `tuple(col.index(lab) for lab in col)` names, for each
    system, the first system giving the same label.  So each weighting
    votes the distinct patterns of the dev set, at most Bell(k) for k
    systems, in one `combine_weighted` call; the winner of a pattern is
    the index of a system whose label wins in every label tuple of that
    pattern.  A tuple of winners is mapped back to labels and scored
    only the first time it occurs, so `score` runs once per distinct
    combined output, against a reference side built once.  Ties prefer
    the candidate closest to uniform weights, then the lexicographically
    smallest one.
    """
    _check_aligned(outputs_by_system)
    k = len(outputs_by_system)
    tuples = {}  # each distinct label tuple -> its index
    columns = [[tuples.setdefault(col, len(tuples)) for col in zip(*(o.labels for o in outs))]
               for outs in zip(*outputs_by_system)]
    patterns = {}  # each distinct agreement pattern -> its column in `table`
    pattern_of = [patterns.setdefault(tuple(map(col.index, col)), len(patterns))
                  for col in tuples]
    table = [[TaggerOutput("", tuple(pattern[s] for pattern in patterns))] for s in range(k)]
    uniform = 1.0 / k
    reference = _Reference(ref, value_table)
    best = None
    cer_cache = {}
    for weights in _simplex_grid(k, step):
        winners = combine_weighted(table, weights)[0].labels
        if winners not in cer_cache:
            labels = [col[winners[p]] for col, p in zip(tuples, pattern_of)]
            combined = [TaggerOutput(o.id, tuple(labels[c] for c in cols))
                        for o, cols in zip(outputs_by_system[0], columns)]
            cer_cache[winners] = score(reference, hyp, combined).cer
        cer = cer_cache[winners]
        dist = sum((w - uniform) ** 2 for w in weights)
        key = (round(cer, 10), round(dist, 12), weights)
        if best is None or key < best[0]:
            best = (key, weights)
    return best[1]
