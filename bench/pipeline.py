"""The benchmarked pipeline, driven through public `slukit` functions only.

One call of `run_pipeline` executes stages 1-10 back to back on inputs
made from a `workloads.Workload` and the seed, checks every output it can check,
and returns the timings and quality numbers of that run.  Every call
into the library goes through a module attribute (``alignment.align``,
not a name imported from it), so the timing wrappers `tracing.Tracer`
installs see the calls this file makes and the calls the library makes
internally.
"""
from __future__ import annotations

import math
import os
import resource
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from slukit import alignment, confidence, corpus, evaluation, features
from slukit import grammar as gram


# Stand-ins for externally trained embedding tables: (name, dimension).
SOURCE_TABLES = (("cbow", 32), ("skipgram", 24), ("glove", 16))
BOTTLENECK = 24
AE_EPOCHS = 100
# A surrogate system nulls a word whose confidence falls below this.
GATE = 0.5


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


@dataclass
class RunResult:
    pipeline_s: float
    tokens: int
    quality: dict
    info: dict = field(default_factory=dict)


def setup(workdir: Path, seed: int):
    """Default grammar plus the source embedding tables, written to
    `workdir` and loaded back the way external tables are consumed."""
    grammar = gram.default_grammar()
    vocab = grammar.asr_vocabulary()
    tables = []
    for name, dim in SOURCE_TABLES:
        path = workdir / f"{name}.emb"
        confidence.write_embeddings(
            confidence.make_hash_embeddings(vocab, dim, name, seed), path)
        tables.append(confidence.load_embeddings(path, name=name))
    return grammar, tables


def _gated(u, attr):
    return corpus.repair_bio([corpus.NULL_LABEL if getattr(t, attr) < GATE else t.label
                              for t in u.tokens])


def _error_nulled(u):
    augmented = corpus.TaggerOutput(u.id, tuple(corpus.augment_error_labels(u).labels()))
    return corpus.strip_error_labels(augmented).labels


# Label sequences standing in for taggers, derived deterministically
# from pipeline outputs so that the combination stage has real,
# disagreeing inputs before any tagger exists.  A workload with k
# systems uses the first k.
SYSTEMS = {
    "projection": lambda u: u.labels(),
    "pap-gated": lambda u: _gated(u, "pap"),
    "mlp-gated": lambda u: _gated(u, "mlp_conf"),
    "error-nulled": _error_nulled,
}


def surrogate_systems(utterances, k):
    return [[corpus.TaggerOutput(u.id, tuple(labels_of(u))) for u in utterances]
            for labels_of in list(SYSTEMS.values())[:k]]


def _check_utterance(checks, ref_utt, primary, nbest, cn, labelled):
    words = primary.surfaces()
    ok = (list(nbest[0][1]) == words
          and cn.pivot == tuple(words)
          and labelled.surfaces() == words
          and [t.error_flag for t in labelled.tokens] == [t.error_flag for t in primary.tokens]
          and all(t.pap is not None and t.label is not None for t in labelled.tokens)
          and labelled.reference_tokens == ref_utt.tokens)
    checks.check(ok, f"{ref_utt.id}: stages 2-5 disagree on the hypothesis")


def run_pipeline(w, seed: int, grammar, tables, workdir: Path,
                 checks: Checks, tracer=None) -> RunResult:
    stage = tracer.stage if tracer is not None else (lambda name: nullcontext())
    info = {}
    t0 = perf_counter()

    with stage("generate"):
        ref = gram.generate_corpus(grammar, w.utterances, seed)

    with stage("decode"):
        cfg = alignment.NoiseConfig(
            sub_rate=w.sub_rate, confusions=gram.DEFAULT_CONFUSIONS,
            vocabulary=tuple(grammar.asr_vocabulary()),
            insertion_words=gram.DEFAULT_INSERTIONS, seed=seed,
            nbest_correlation=w.nbest_correlation)
        primaries = [alignment.corrupt(u, cfg) for u in ref]
        nbests = [alignment.decode_nbest(u, cfg, w.nbest) for u in ref]

    with stage("confusion"):
        cns = [alignment.build_cn(nb) for nb in nbests]

    with stage("annotate"):
        hyps = []
        for p in primaries:
            toks = gram.annotate_words(p.surfaces(), grammar)
            hyps.append(replace(p, tokens=tuple(
                replace(t, error_flag=src.error_flag) for t, src in zip(toks, p.tokens))))

    with stage("project"):
        labelled = [alignment.project_labels(alignment.attach_pap(h, cn))
                    for h, cn in zip(hyps, cns)]
        for args in zip(ref, primaries, nbests, cns, labelled):
            _check_utterance(checks, *args)

    n_train = w.utterances * 6 // 10
    n_dev = w.utterances * 2 // 10
    train, dev, test = (slice(0, n_train), slice(n_train, n_train + n_dev),
                        slice(n_train + n_dev, None))

    with stage("fuse"):
        ae, mse = confidence.train_autoencoder(tables, BOTTLENECK, epochs=AE_EPOCHS,
                                               seed=seed)
        fused = confidence.build_fused_table(ae, tables, grammar.asr_vocabulary())
        info["final_mse"] = mse

    with stage("msmlp"):
        hyp_train = corpus.Dataset(tuple(labelled[train]))
        vec = confidence.MsMlpVectorizer.from_training(
            corpus.Dataset(ref.utterances[train]), hyp_train, fused)
        model = confidence.train_msmlp(
            hyp_train, vec, confidence.MsMlpConfig(epochs=w.msmlp_epochs, seed=seed))
        hyp = confidence.attach_confidence(corpus.Dataset(tuple(labelled)), model)
        info["train_examples"] = hyp_train.n_tokens() * w.msmlp_epochs

    with stage("features"):
        spec = features.FeatureVectorSpec()
        info["features"] = sum(len(f) for u in hyp
                               for f in features.utterance_features(u, spec))

    with stage("artifacts"):
        _round_trips(checks, workdir, ref, hyp, nbests, cns, ae, model,
                     hyp.utterances[test], info)

    with stage("evaluate"):
        edits = ref_words = 0
        for r, p in zip(ref, primaries):
            c = alignment.align(r.surfaces(), p.surfaces()).counts()
            edits += c[alignment.SUB] + c[alignment.DEL] + c[alignment.INS]
            ref_words += len(r)
        wer = 100.0 * edits / ref_words
        nce_pap = evaluation.nce(evaluation.records_from_dataset(hyp, "pap"))
        nce_mlp = evaluation.nce(evaluation.records_from_dataset(hyp, "mlp"))
        systems = surrogate_systems(hyp.utterances, w.systems)
        ref_dev, hyp_dev = (corpus.Dataset(d.utterances[dev]) for d in (ref, hyp))
        ref_test, hyp_test = (corpus.Dataset(d.utterances[test]) for d in (ref, hyp))
        weights = evaluation.tune_weights([s[dev] for s in systems], ref_dev, hyp_dev,
                                          step=w.grid_step, value_table=grammar.values)
        combined = evaluation.combine_weighted([s[test] for s in systems], weights)
        for out, u in zip(combined, hyp_test):
            checks.check(out.id == u.id and len(out.labels) == len(u),
                         f"{u.id}: combined output does not cover the hypothesis")
        checks.check(len(combined) == len(hyp_test), "combination dropped utterances")
        report = evaluation.score(ref_test, hyp_test, combined, grammar.values)

    pipeline_s = perf_counter() - t0
    quality = {"wer_gap": abs(wer - cfg.target_wer), "nce_pap": nce_pap,
               "nce_mlp": nce_mlp, "cer": report.cer, "cver": report.cver}
    checks.check(all(math.isfinite(v) for v in quality.values()),
                 f"non-finite quality numbers {quality}")
    info.update(wer=wer, target_wer=cfg.target_wer, weights=list(weights))
    return RunResult(pipeline_s, hyp.n_tokens(), quality, info)


def _round_trips(checks, workdir, ref, hyp, nbests, cns, ae, model, test_utts, info):
    ds_path = workdir / "hyp.tsv"
    corpus.write_dataset(hyp, ds_path)
    back = corpus.read_dataset(ds_path)
    checks.check([(u.id, u.tokens) for u in back] == [(u.id, u.tokens) for u in hyp],
                 "read_dataset differs from the dataset written")
    info["corpus_bytes"] = os.path.getsize(ds_path)

    nb_path = workdir / "hyp.nbest"
    per_utt = [(u.id, nb) for u, nb in zip(ref, nbests)]
    alignment.write_nbest(nb_path, per_utt)
    checks.check(_same_nbest(alignment.read_nbest(nb_path), per_utt),
                 "read_nbest differs from the n-best lists written")
    info["nbest_bytes"] = os.path.getsize(nb_path)

    # There is no confusion-network reader, so only the one thing every
    # layout must keep is checked: each utterance id appears, in order.
    cn_path = workdir / "hyp.cn"
    alignment.write_cn(cn_path, ((u.id, cn) for u, cn in zip(ref, cns)))
    text = cn_path.read_text(encoding="utf-8")
    at = 0
    for u in ref:
        at = text.find(u.id, at)
        if at < 0:
            break
        at += len(u.id)
    checks.check(at >= 0, "write_cn left out an utterance")

    ae_path, mlp_path = workdir / "fusion.model", workdir / "msmlp.model"
    ae.save(ae_path)
    ae_back = confidence.AutoencoderModel.load(ae_path)
    checks.check(all(np.array_equal(getattr(ae, k), getattr(ae_back, k))
                     for k in ("w_enc", "b_enc", "w_dec", "b_dec")),
                 "reloaded autoencoder differs")
    model.save(mlp_path)
    model_back = confidence.MsMlpModel.load(mlp_path)
    checks.check(all(np.array_equal(model.confidences(u), model_back.confidences(u))
                     for u in test_utts),
                 "reloaded MS-MLP gives different confidences")
    info["model_bytes"] = os.path.getsize(ae_path) + os.path.getsize(mlp_path)


def _same_nbest(back, per_utt):
    """Ids and words exact; weights equal to the file's printed precision."""
    return (len(back) == len(per_utt)
            and all(uid == uid_back and len(nb) == len(nb_back)
                    and all(list(words) == list(words_back)
                            and math.isclose(wt, wt_back, rel_tol=1e-8)
                            for (wt, words), (wt_back, words_back) in zip(nb, nb_back))
                    for (uid, nb), (uid_back, nb_back) in zip(per_utt, back)))


def maxrss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
