"""Smoke-size tests of the benchmark itself.

    python3 -m pytest -q bench/tests
"""
import argparse
import dataclasses
import json
import math
import time

import pytest

import rep
import run
from slukit import corpus
from workloads import WORKLOADS

SEED = 3
COUNTERS = ("alignment.align.cells", "alignment.nbest.unique_ratio",
            "evaluation.tune_weights.grid_points", "evaluation.score.calls",
            "evaluation.tune_weights.unique_ratio")


def smoke(name):
    return dataclasses.replace(WORKLOADS[name], utterances=50)


def repetition(name, workdir, trace=0):
    return rep.repetition(smoke(name), SEED, trace, workdir, time.perf_counter())


@pytest.fixture(scope="module")
def declared():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_match_benchmark_json(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_measured_and_finite(name, declared, tmp_path):
    reps = run.measure(smoke(name), SEED, 0, 1, tmp_path)
    metrics, _, failed, messages = run.summarize(reps)
    assert failed == 0, messages
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert m["name"] in metrics, m["name"]
        assert math.isfinite(metrics[m["name"]]), m["name"]
    for m in declared["end_to_end"]:
        assert metrics[m["name"]] > 0, m["name"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quality_is_identical_across_runs_and_under_tracing(name, tmp_path):
    runs = [repetition(name, tmp_path, trace) for trace in (0, 0, 1)]
    assert all(r["failed"] == 0 for r in runs), [r["messages"] for r in runs]
    assert set(runs[0]["quality"]) == {"wer_gap", "nce_pap", "nce_mlp", "cer", "cver"}
    assert runs[0]["quality"] == runs[1]["quality"] == runs[2]["quality"]


def test_traced_counters_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        layers = repetition("paper-full", tmp_path, trace=1)["layers"]
        counts.append({k: layers[k] for k in COUNTERS})
    assert counts[0] == counts[1]
    assert counts[0]["evaluation.tune_weights.grid_points"] == 66  # C(12, 2) for 3 systems


@pytest.fixture()
def corrupt_reader(monkeypatch):
    """Make read_dataset hand back a dataset that differs from the file."""
    real = corpus.read_dataset

    def read_dataset(path, *args, **kwargs):
        ds = real(path, *args, **kwargs)
        first = ds.utterances[0]
        return corpus.Dataset((dataclasses.replace(first, id=first.id + "x"),)
                              + ds.utterances[1:])

    monkeypatch.setattr(corpus, "read_dataset", read_dataset)


def test_corrupted_round_trip_raises_error_rate(corrupt_reader, tmp_path):
    r = repetition("paper-full", tmp_path)
    assert r["failed"] == 1
    assert r["failed"] / r["attempted"] > 0


def test_command_fails_when_a_check_fails(corrupt_reader, declared, tmp_path, capsys):
    reps = [repetition("paper-full", tmp_path)]
    args = argparse.Namespace(workload="paper-full", seed=SEED, trace=0)
    code = run.report(args, declared["end_to_end"], reps)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] == 1
