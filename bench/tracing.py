"""Spans around calls into `slukit`, recorded from outside the library.

`Tracer.installed()` replaces public module attributes (and a few
methods) with timing wrappers and restores them on exit.  The library
calls these functions through module globals, so calls it makes
internally are caught too: `build_cn` calling `align` gives an `align`
span whose parent is the `build_cn` span.  Spans are kept in memory as
(name, start, end, parent) and turned into per-layer metrics once the
run ends.  Self time is a span's duration minus its direct children's.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from slukit import alignment, confidence, corpus, evaluation, features, modelio
from slukit import grammar as gram

from pipeline import maxrss_mb


def _cells(counters, args, result):
    counters["alignment.align.cells"] += (len(args[0]) + 1) * (len(args[1]) + 1)


def _nbest(counters, args, result):
    counters["alignment.nbest.entries"] += len(result)
    counters["alignment.nbest.unique"] += len({tuple(words) for _, words in result})


# (owner, attribute, span name, counter hook or None)
TARGETS = (
    (gram, "generate_corpus", "grammar.generate_corpus", None),
    (gram, "annotate_words", "grammar.annotate_words", None),
    (alignment, "corrupt", "alignment.corrupt", None),
    (alignment, "decode_nbest", "alignment.decode_nbest", _nbest),
    (alignment, "build_cn", "alignment.build_cn", None),
    (alignment, "align", "alignment.align", _cells),
    (alignment, "attach_pap", "alignment.attach_pap", None),
    (alignment, "project_labels", "alignment.project_labels", None),
    (alignment, "write_nbest", "alignment.write_nbest", None),
    (alignment, "read_nbest", "alignment.read_nbest", None),
    (alignment, "write_cn", "alignment.write_cn", None),
    (confidence, "train_autoencoder", "confidence.train_autoencoder", None),
    (confidence, "build_fused_table", "confidence.build_fused_table", None),
    (confidence.MsMlpVectorizer, "from_training", "confidence.from_training", None),
    (confidence, "train_msmlp", "confidence.train_msmlp", None),
    (confidence, "attach_confidence", "confidence.attach_confidence", None),
    (features, "utterance_features", "features.utterance_features", None),
    (corpus, "write_dataset", "corpus.write_dataset", None),
    (corpus, "read_dataset", "corpus.read_dataset", None),
    (modelio, "save_blob", "modelio.save", None),
    (modelio, "load_blob", "modelio.load", None),
    (evaluation, "nce", "evaluation.nce", None),
    (evaluation, "tune_weights", "evaluation.tune_weights", None),
    (evaluation, "combine_weighted", "evaluation.combine_weighted", None),
    (evaluation, "score", "evaluation.score", None),
)

LAYERS = ("grammar", "alignment", "confidence", "features", "corpus", "modelio",
          "evaluation", "stage")

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.stage_maxrss = {}
        self._stack = []

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][END] = perf_counter()

    @contextmanager
    def stage(self, name):
        idx = self._open("stage." + name)
        try:
            yield
        finally:
            self._close(idx)
            self.stage_maxrss[name] = maxrss_mb()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(self.counters, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                if isinstance(orig, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, orig.__func__, count)))
                else:
                    setattr(owner, attr, self.wrap(name, orig, count))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def layer_metrics(self, run):
        """Per-layer metrics of the traced `pipeline.RunResult` `run`."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        durations = defaultdict(list)
        parent_names = defaultdict(int)  # (child, parent) -> calls
        top_level = 0.0
        for name, start, end, parent in self.spans:
            d = end - start
            total[name] += d
            self_s[name] += d
            calls[name] += 1
            durations[name].append(d)
            if parent >= 0:
                self_s[self.spans[parent][NAME]] -= d
                parent_names[(name, self.spans[parent][NAME])] += 1
            else:
                top_level += d

        m = {}
        for _, _, name, _ in TARGETS:
            m[name + ".s"] = total[name]
            m[name + ".self_s"] = self_s[name]
            m[name + ".calls"] = calls[name]
        q = statistics.quantiles(durations["alignment.build_cn"], n=100, method="inclusive")
        m["alignment.build_cn.p50_us"] = 1e6 * q[49]
        m["alignment.build_cn.p99_us"] = 1e6 * q[98]
        m["alignment.align.cells"] = self.counters["alignment.align.cells"]
        m["alignment.nbest.unique_ratio"] = (self.counters["alignment.nbest.unique"]
                                             / self.counters["alignment.nbest.entries"])
        grid = parent_names[("evaluation.combine_weighted", "evaluation.tune_weights")]
        m["evaluation.tune_weights.grid_points"] = grid
        m["evaluation.tune_weights.unique_ratio"] = (
            parent_names[("evaluation.score", "evaluation.tune_weights")] / grid)
        info = run.info
        m["confidence.train_autoencoder.final_mse"] = info["final_mse"]
        m["confidence.train_msmlp.examples_per_s"] = (
            info["train_examples"] / total["confidence.train_msmlp"])
        m["confidence.attach_confidence.tokens_per_s"] = (
            run.tokens / total["confidence.attach_confidence"])
        m["features.features_per_token"] = info["features"] / run.tokens
        m["alignment.nbest.bytes"] = info["nbest_bytes"]
        m["corpus.bytes"] = info["corpus_bytes"]
        m["modelio.bytes"] = info["model_bytes"]

        for stage, rss in self.stage_maxrss.items():
            m[f"stage.{stage}.s"] = total["stage." + stage]
            m[f"stage.{stage}.maxrss_mb"] = rss
        m["trace.stage_coverage"] = top_level / run.pipeline_s
        # Share of the run spent in each module's own code; `stage` is
        # the benchmark's code between library calls.
        for module in LAYERS:
            m[module + ".self_share"] = sum(
                v for k, v in self_s.items() if k.startswith(module + ".")) / run.pipeline_s
        return m

    def untraced_calls(self):
        """Names of library spans with no enclosing stage span."""
        return sorted({s[NAME] for s in self.spans
                       if s[PARENT] < 0 and not s[NAME].startswith("stage.")})
