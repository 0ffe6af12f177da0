import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from slukit import evaluation
from slukit.corpus import NULL_LABEL, Dataset, TaggerOutput
from slukit.evaluation import (ABSTAIN, CalibrationReport, ConfidenceRecord,
                               EvaluationError, calibration_bins,
                               combine_weighted, consensus, nce,
                               records_from_dataset, score, tune_weights)

from helpers import (brute_force_edit_cost, brute_force_tune_weights, simplex_grid,
                     utt)


def rec(correct, conf, i=0):
    return ConfidenceRecord("u", i, correct, conf)


def test_nce_constant_at_base_rate_is_zero():
    records = [rec(True, 0.75, i) for i in range(3)] + [rec(False, 0.75, 3)]
    assert nce(records) == pytest.approx(0.0, abs=1e-9)


def test_nce_oracle_close_to_one():
    records = [rec(True, 1.0, i) for i in range(50)] + [rec(False, 0.0, i + 50) for i in range(50)]
    assert nce(records) >= 0.99


def test_nce_hand_evaluated_case():
    # frozen from a direct evaluation of the formula:
    # p=3/4, H_base=0.8112781244591328, H_cond=0.2369655941662061
    records = [rec(True, 0.9, 0), rec(True, 0.8, 1), rec(True, 0.9, 2), rec(False, 0.2, 3)]
    assert nce(records) == pytest.approx(0.7079107805055294, abs=1e-9)


def test_nce_degenerate_single_class():
    with pytest.raises(EvaluationError):
        nce([rec(True, 0.9, i) for i in range(5)])


def test_nce_calibrated_beats_constant():
    rnd = random.Random(0)
    records = []
    for i in range(50000):
        c = rnd.betavariate(4, 2)
        records.append(rec(rnd.random() < c, c, i))
    assert nce(records) > 0.0


def test_calibration_single_bin():
    records = [rec(True, 0.95, i) for i in range(7)]
    rep = calibration_bins(records, 10)
    assert rep.counts[9] == 7 and sum(rep.counts) == 7
    assert rep.fraction_correct[9] == 1.0
    assert rep.nce is None  # single class


def test_calibration_matches_counting_oracle():
    rnd = random.Random(1)
    records = [rec(rnd.random() < 0.7, rnd.random(), i) for i in range(1000)]
    k = 10
    rep = calibration_bins(records, k)
    counts = [0] * k
    hits = [0] * k
    sums = [0.0] * k
    for r in records:
        b = min(int(r.confidence * k), k - 1)
        counts[b] += 1
        hits[b] += r.correct
        sums[b] += r.confidence
    assert list(rep.counts) == counts
    for i in range(k):
        if counts[i]:
            assert rep.fraction_correct[i] == pytest.approx(hits[i] / counts[i])
            assert rep.mean_confidence[i] == pytest.approx(sums[i] / counts[i])
    assert sum(rep.counts) == len(records)


def _pair(ref_labels, hyp_labels, ref_words=None, hyp_words=None):
    ref_words = ref_words or [f"r{i}" for i in range(len(ref_labels))]
    hyp_words = hyp_words or list(ref_words)
    ref = Dataset((utt("u", ref_words, ref_labels),))
    hyp = Dataset((utt("u", hyp_words, [None] * len(hyp_words)),))
    outs = [TaggerOutput("u", tuple(hyp_labels))]
    return ref, hyp, outs


def test_score_identical():
    ref, hyp, outs = _pair(["B-A", "B-B", "B-C"], ["B-A", "B-B", "B-C"])
    rep = score(ref, hyp, outs)
    assert rep.cer == 0.0 and rep.cver == 0.0
    assert rep.concept_precision == 1.0 and rep.concept_recall == 1.0


def test_score_one_deletion():
    # ref concepts (A,B,C) vs hyp (A,C): one deletion
    ref, hyp, outs = _pair(["B-A", "B-B", "B-C"], ["B-A", NULL_LABEL, "B-C"])
    rep = score(ref, hyp, outs)
    assert rep.cer == pytest.approx(100.0 / 3.0)
    assert rep.concept_errors == (0, 0, 1)


def test_score_value_only_error():
    ref, hyp, outs = _pair(["B-A"], ["B-A"], ref_words=["paris"], hyp_words=["ferris"])
    rep = score(ref, hyp, outs)
    assert rep.cer == 0.0
    assert rep.cver > 0.0


def test_score_repairs_and_ignores_abstain():
    ref, hyp, outs = _pair(["B-A", "I-A"], [ABSTAIN, "I-A"])
    rep = score(ref, hyp, outs)  # abstain -> null, orphan I-A promoted
    assert rep.hyp_segments == 1


def test_score_missing_output():
    ref, hyp, outs = _pair(["B-A"], ["B-A"])
    with pytest.raises(EvaluationError):
        score(ref, hyp, [TaggerOutput("other", ("B-A",))])


def test_score_alignment_matches_exhaustive_oracle():
    rnd = random.Random(7)
    labels = ["A", "B", "C", "D"]
    for _ in range(60):
        ref_seq = [rnd.choice(labels) for _ in range(rnd.randint(1, 6))]
        hyp_seq = [rnd.choice(labels) for _ in range(rnd.randint(0, 6))]
        ref_labels = ["B-" + c for c in ref_seq]
        hyp_labels = ["B-" + c for c in hyp_seq] + [NULL_LABEL] * (len(ref_seq) - len(hyp_seq))
        if len(hyp_labels) > len(ref_labels):
            ref_labels = ref_labels + [NULL_LABEL] * (len(hyp_labels) - len(ref_labels))
            hyp_labels = hyp_labels[:len(ref_labels)]
        ref, hyp, outs = _pair(ref_labels, hyp_labels)
        rep = score(ref, hyp, outs)
        s, i, d = rep.concept_errors
        assert s + i + d == brute_force_edit_cost(ref_seq, hyp_seq)


def _outputs(*label_rows):
    return [[TaggerOutput("u", tuple(row))] for row in label_rows]


def test_combine_unanimous_and_majority():
    outs = _outputs(["B-A"], ["B-A"], ["B-B"])
    combined = combine_weighted(outs, [1.0, 1.0, 1.0])
    assert combined[0].labels == ("B-A",)


def test_combine_weighted_overrides_majority():
    outs = _outputs(["B-A"], ["B-A"], ["B-B"])
    combined = combine_weighted(outs, [0.2, 0.2, 0.7])
    assert combined[0].labels == ("B-B",)


def test_combine_tie_break_by_priority():
    outs = _outputs(["B-A"], ["B-B"])
    assert combine_weighted(outs, [0.5, 0.5])[0].labels == ("B-A",)
    assert combine_weighted(outs, [0.5, 0.5], priority=[1, 0])[0].labels == ("B-B",)


@given(st.integers(min_value=0, max_value=3))
def test_combine_full_weight_returns_that_system(k):
    rows = [["B-A", NULL_LABEL], ["B-B", "B-B"], [NULL_LABEL, "B-C"], ["B-D", "B-D"]]
    outs = _outputs(*rows)
    weights = [0.0] * 4
    weights[k] = 1.0
    assert combine_weighted(outs, weights)[0].labels == tuple(rows[k])


def test_combine_scale_invariance():
    rows = [["B-A", "B-C"], ["B-B", "B-C"], ["B-B", NULL_LABEL], ["B-D", "B-D"]]
    outs = _outputs(*rows)
    w = [0.1, 0.25, 0.3, 0.35]
    a = combine_weighted(outs, w)
    b = combine_weighted(outs, [x * 7.3 for x in w])
    assert a == b


def test_combine_validates():
    with pytest.raises(EvaluationError):
        combine_weighted(_outputs(["B-A"], ["B-A", "B-B"]), [0.5, 0.5])
    with pytest.raises(EvaluationError):
        combine_weighted(_outputs(["B-A"]), [0.0])


def test_consensus_behaviour():
    outs = _outputs(["B-A", "B-C"], ["B-A", "B-C"], ["B-A", NULL_LABEL], ["B-A", "B-C"])
    cons = consensus(outs)
    assert cons[0].labels == ("B-A", ABSTAIN)


def test_consensus_labels_come_from_inputs():
    rnd = random.Random(3)
    labels = ["B-A", "B-B", NULL_LABEL]
    rows = [[rnd.choice(labels) for _ in range(12)] for _ in range(4)]
    cons = consensus(_outputs(*rows))
    for pos, lab in enumerate(cons[0].labels):
        if lab != ABSTAIN:
            assert any(rows[s][pos] == lab for s in range(4))


def test_tune_weights_prefers_dominant_system():
    ref = Dataset((utt("u", ["a", "b", "c"], ["B-A", "B-B", "B-C"]),))
    hyp = Dataset((utt("u", ["a", "b", "c"]),))
    good = [TaggerOutput("u", ("B-A", "B-B", "B-C"))]
    bad1 = [TaggerOutput("u", (NULL_LABEL, NULL_LABEL, NULL_LABEL))]
    bad2 = [TaggerOutput("u", ("B-D", "B-D", "B-D"))]
    weights = tune_weights([good, bad1, bad2], ref, hyp, step=1.0)
    assert weights == (1.0, 0.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda systems, ref, hyp: tune_weights(systems, ref, hyp, step=0.0),
    lambda systems, ref, hyp: tune_weights(systems, ref, hyp, step=math.nan),
    lambda systems, ref, hyp: records_from_dataset(hyp, "bogus"),
], ids=["step-zero", "step-nan", "unknown-measure"])
def test_bad_arguments_raise_evaluation_error(call):
    ref = Dataset((utt("u", ["a"], ["B-A"]),))
    hyp = Dataset((utt("u", ["a"]),))
    systems = [[TaggerOutput("u", ("B-A",))], [TaggerOutput("u", (NULL_LABEL,))]]
    with pytest.raises(EvaluationError):
        call(systems, ref, hyp)


def test_tune_weights_beats_every_corner():
    rnd = random.Random(5)
    labels = ["B-A", "B-B", NULL_LABEL]
    n = 14
    gold = [rnd.choice(labels) for _ in range(n)]
    ref = Dataset((utt("u", [f"w{i}" for i in range(n)], gold),))
    hyp = Dataset((utt("u", [f"w{i}" for i in range(n)]),))
    systems = []
    for s in range(3):
        noisy = [g if rnd.random() < 0.7 else rnd.choice(labels) for g in gold]
        systems.append([TaggerOutput("u", tuple(noisy))])
    best = tune_weights(systems, ref, hyp, step=0.5)
    best_cer = score(ref, hyp, combine_weighted(systems, best)).cer
    for k in range(3):
        w = [0.0] * 3
        w[k] = 1.0
        assert best_cer <= score(ref, hyp, combine_weighted(systems, w)).cer + 1e-9


@st.composite
def tuning_cases(draw):
    """Dev sets for `tune_weights`: k = 2-4 systems over a small label set,
    some systems copies of others (forcing vote and CER ties), and
    zero-token outputs for utterances the reference does not score."""
    k = draw(st.integers(min_value=2, max_value=4))
    lengths = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    golds = [draw(st.lists(st.sampled_from(["B-A", "B-B", NULL_LABEL]), min_size=n, max_size=n))
             for n in lengths]
    words = [[f"w{j}" for j in range(n)] for n in lengths]
    ref = Dataset(tuple(utt(f"u{i}", w, g) for i, (w, g) in enumerate(zip(words, golds))))
    hyp = Dataset(tuple(utt(f"u{i}", w) for i, w in enumerate(words)))
    shape = [(f"u{i}", n) for i, n in enumerate(lengths)]
    shape += [(f"empty{i}", 0) for i in range(draw(st.integers(min_value=0, max_value=2)))]
    shape = draw(st.permutations(shape))
    labels = st.sampled_from(["B-A", "I-A", "B-B", NULL_LABEL, ABSTAIN])
    systems = []
    for s in range(k):
        if s and draw(st.booleans()):
            systems.append(systems[draw(st.integers(min_value=0, max_value=s - 1))])
        else:
            systems.append([TaggerOutput(uid, tuple(draw(st.lists(labels, min_size=n, max_size=n))))
                            for uid, n in shape])
    step = draw(st.sampled_from([0.5, 0.25]))
    priority = draw(st.sampled_from([None, list(reversed(range(k)))])
                    | st.permutations(range(k)))
    return systems, ref, hyp, step, priority


def _shared_pattern_case():
    """Positions 0 and 1 carry different label tuples with one agreement
    pattern (systems 0 and 2 agree, system 1 differs); priority is
    reversed, so equal-weight ties go to the last system."""
    words = ["w0", "w1", "w2"]
    ref = Dataset((utt("u", words, ["B-B", NULL_LABEL, "B-A"]),))
    hyp = Dataset((utt("u", words),))
    rows = [("B-A", "B-B", NULL_LABEL), ("B-B", NULL_LABEL, "B-A"), ("B-A", "B-B", "B-B")]
    systems = [[TaggerOutput("u", row)] for row in rows]
    return systems, ref, hyp, 0.5, [2, 1, 0]


@given(tuning_cases())
@example(_shared_pattern_case())
def test_tune_weights_equals_brute_force(case):
    systems, ref, hyp, step, priority = case
    try:
        expected = brute_force_tune_weights(systems, ref, hyp, step, priority=priority)
    except EvaluationError:
        with pytest.raises(EvaluationError):
            tune_weights(systems, ref, hyp, step=step, priority=priority)
        return
    assert tune_weights(systems, ref, hyp, step=step, priority=priority) == expected


@given(tuning_cases())
def test_tune_weights_call_contract(case):
    # bench/tracing.py counts combine_weighted calls under tune_weights as
    # grid points and divides score calls by them
    systems, ref, hyp, step, priority = case
    assume(any(lab != NULL_LABEL for u in ref for lab in u.labels()))
    grid = simplex_grid(len(systems), step)
    outputs = {tuple(o.labels for o in combine_weighted(systems, weights, priority=priority))
               for weights in grid}
    calls = {"combine_weighted": 0, "score": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(evaluation, name, counted(name, getattr(evaluation, name)))
        tune_weights(systems, ref, hyp, step=step, priority=priority)
    assert calls == {"combine_weighted": len(grid), "score": len(outputs)}
