"""Metrics and multi-system combination.

NCE and calibration tables assess confidence measures; CER/CVER with
precision/recall assess concept extraction (edit alignment of segment
sequences, label-only for CER, label+value for CVER).  Weighted voting
and consensus merge the per-word outputs of several systems that tagged
the same recognizer word sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import alignment
from .corpus import (FLAG_CORRECT, NULL_LABEL, Dataset, PhraseTable, TaggerOutput,
                     Utterance, label_segments, repair_bio, segments_of)

ABSTAIN = "<abstain>"
CLIP_EPS = 1e-6


class EvaluationError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class ConfidenceRecord:
    utterance_id: str
    index: int
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
    records = []
    for utt in dataset:
        for i, tok in enumerate(utt.tokens):
            conf = getattr(tok, attr)
            if tok.error_flag is None or conf is None:
                continue
            records.append(ConfidenceRecord(utt.id, i, tok.error_flag == FLAG_CORRECT, conf))
    return records


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

    def csv_rows(self):
        rows = ["bin_low,bin_high,count,mean_confidence,fraction_correct"]
        for i in range(self.bins):
            rows.append("%.4f,%.4f,%d,%.6f,%.6f" % (
                i / self.bins, (i + 1) / self.bins, self.counts[i],
                self.mean_confidence[i], self.fraction_correct[i]))
        return rows


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
    n_correct = sum(1 for r in records if r.correct)
    overall = nce(records) if records and 0 < n_correct < len(records) else None
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

    def kv_rows(self, prefix=""):
        s, i, d = self.concept_errors
        vs, vi, vd = self.value_errors
        return [
            f"{prefix}cer={self.cer:.4f}",
            f"{prefix}cver={self.cver:.4f}",
            f"{prefix}concept_precision={self.concept_precision:.4f}",
            f"{prefix}concept_recall={self.concept_recall:.4f}",
            f"{prefix}value_precision={self.value_precision:.4f}",
            f"{prefix}value_recall={self.value_recall:.4f}",
            f"{prefix}concept_sid={s},{i},{d}",
            f"{prefix}value_sid={vs},{vi},{vd}",
            f"{prefix}ref_segments={self.ref_segments}",
            f"{prefix}hyp_segments={self.hyp_segments}",
        ]


def _edit_counts(ref_items, hyp_items):
    ali = alignment.align(ref_items, hyp_items)
    c = ali.counts()
    return (c[alignment.MATCH], c[alignment.SUB], c[alignment.INS], c[alignment.DEL])


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
            segs = segments_of(utt, self.values)
            self.rows.append((utt.id, [g.label for g in segs],
                              [(g.label, g.value) for g in segs]))
        self.segments = sum(len(labels) for _, labels, _ in self.rows)


def score(ref: Dataset, hyp: Dataset, outputs, value_table=None) -> ScoreReport:
    """CER/CVER of tagger outputs against the reference annotation.

    `outputs` are matched to utterances by id and must cover every
    reference utterance.  Each output's label list is segmented over the
    recognizer words of its `hyp` utterance as it is (`output_segments`),
    with no token copied, and the hypothesized values are recovered from
    those words.  Error labels must already be stripped.  `value_table`
    maps phrases to normalized values.

    The reference side (the value table and the reference segments) is
    built first; `tune_weights` builds it once and passes it as `ref`,
    in which case `value_table` is not read.
    """
    reference = ref if isinstance(ref, _Reference) else _Reference(ref, value_table)
    by_id = {o.id: o for o in outputs}
    hyp_by_id = hyp.by_id()
    m_c = s_c = i_c = d_c = 0
    m_v = s_v = i_v = d_v = 0
    hyp_total = 0
    for uid, ref_labels, ref_values in reference.rows:
        if uid not in by_id or uid not in hyp_by_id:
            raise EvaluationError(f"no output for utterance {uid!r}")
        hyp_segs = output_segments(hyp_by_id[uid], by_id[uid].labels, reference.values)
        hyp_total += len(hyp_segs)
        m, s, i, d = _edit_counts(ref_labels, [g.label for g in hyp_segs])
        m_c, s_c, i_c, d_c = m_c + m, s_c + s, i_c + i, d_c + d
        m, s, i, d = _edit_counts(ref_values, [(g.label, g.value) for g in hyp_segs])
        m_v, s_v, i_v, d_v = m_v + m, s_v + s, i_v + i, d_v + d
    ref_total = reference.segments
    if ref_total == 0:
        raise EvaluationError("reference contains no concept segments")
    return ScoreReport(
        cer=100.0 * (s_c + i_c + d_c) / ref_total,
        cver=100.0 * (s_v + i_v + d_v) / ref_total,
        concept_precision=m_c / hyp_total if hyp_total else 0.0,
        concept_recall=m_c / ref_total,
        value_precision=m_v / hyp_total if hyp_total else 0.0,
        value_recall=m_v / ref_total,
        concept_errors=(s_c, i_c, d_c),
        value_errors=(s_v, i_v, d_v),
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

    The label with the highest summed weight wins; ties go to the label
    voted by the earliest system in the list.
    """
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


def consensus(outputs_by_system):
    """Keep a position's label only when every system agrees; abstain
    otherwise.  Abstentions are scored as null, so they can lower recall
    but never precision."""
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


def _simplex_grid(k: int, step: float):
    if not 0.0 < step <= 1.0:
        raise EvaluationError(f"grid step {step} outside (0, 1]")
    m = round(1.0 / step)
    if abs(m * step - 1.0) > 1e-9:
        raise EvaluationError(f"grid step {step} does not divide 1")

    def rec(remaining, parts):
        if len(parts) == k - 1:
            yield parts + [remaining]
            return
        for v in range(remaining + 1):
            yield from rec(remaining - v, parts + [v])

    for parts in rec(m, []):
        yield tuple(v / m for v in parts)


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
