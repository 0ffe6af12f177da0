"""Shared oracles and builders for the test suite.

Everything here is deliberately naive: exhaustive recursions and
element-wise finite differences that are independent of the library's
own dynamic programming and backpropagation code paths.
"""
import itertools

import numpy as np

from slukit.corpus import Token, Utterance
from slukit.evaluation import combine_weighted, score


def utt(uid, words, labels=None, flags=None, **token_kw):
    labels = labels or [None] * len(words)
    flags = flags or [None] * len(words)
    toks = tuple(
        Token(surface=w, label=lab, error_flag=fl, **token_kw)
        for w, lab, fl in zip(words, labels, flags)
    )
    return Utterance(uid, toks)


def brute_force_edit_cost(ref, hyp, sub=1.0, ins=1.0, dele=1.0):
    """Minimal edit cost by exhaustive recursion (no DP)."""

    def rec(i, j):
        if i == len(ref) and j == len(hyp):
            return 0.0
        best = float("inf")
        if i < len(ref) and j < len(hyp):
            step = 0.0 if ref[i] == hyp[j] else sub
            best = min(best, rec(i + 1, j + 1) + step)
        if i < len(ref):
            best = min(best, rec(i + 1, j) + dele)
        if j < len(hyp):
            best = min(best, rec(i, j + 1) + ins)
        return best

    return rec(0, 0)


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
    of `itertools.product` rather than the library's recursion."""
    m = round(1.0 / step)
    return [tuple(v / m for v in parts)
            for parts in itertools.product(range(m + 1), repeat=k) if sum(parts) == m]


def brute_force_tune_weights(outputs_by_system, ref, hyp, step, value_table=None,
                             priority=None):
    """Grid search that votes every position and scores every weighting,
    with the selection key `tune_weights` documents."""
    uniform = 1.0 / len(outputs_by_system)
    best = None
    for weights in simplex_grid(len(outputs_by_system), step):
        combined = combine_weighted(outputs_by_system, weights, priority=priority)
        cer = score(ref, hyp, combined, value_table).cer
        dist = sum((w - uniform) ** 2 for w in weights)
        key = (round(cer, 10), round(dist, 12), weights)
        if best is None or key < best[0]:
            best = (key, weights)
    return best[1]
