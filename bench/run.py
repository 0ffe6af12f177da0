#!/usr/bin/env python3
"""One measured run of the slukit pipeline benchmark.

    python3 bench/run.py --workload paper-full --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run starts one fresh interpreter per
repetition of the whole pipeline (bench/rep.py) until `--seconds` have
passed, and reports medians over the repetitions.  With `--trace 1` it
alternates traced and untraced repetitions and reports the per-layer
metrics of the traced ones; with `--trace 0` it reports the end-to-end
metrics.  Metric names and units are those in BENCHMARK.json.

It prints every metric by name and unit, the environment, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics.  Exit status: 0 when every output check passed, 1 when one
failed or a repetition crashed, 2 when the slukit sources are missing.
"""
import os

# One BLAS/OpenMP thread, fixed before numpy is imported by any
# repetition, which inherits this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REP_TIMEOUT_S = 170


class RepetitionFailed(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed, reps):
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "git_sha": git_sha(),
    }


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def spawn(workload, seed, trace, workdir):
    """Run one repetition in a fresh interpreter and return its report."""
    spec = {"workload": dataclasses.asdict(workload), "seed": seed, "trace": trace,
            "workdir": str(workdir), "spawned_at": time.perf_counter()}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "rep.py"), json.dumps(spec)],
                              capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepetitionFailed(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RepetitionFailed(f"repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, workdir):
    """Repetitions until `seconds` have passed; traced ones first when tracing."""
    reps = []
    deadline = time.perf_counter() + seconds
    while True:
        for mode in ((1, 0) if trace else (0,)):
            reps.append(spawn(workload, seed, mode, workdir))
        if time.perf_counter() >= deadline:
            return reps


def summarize(reps):
    """(metrics, attempted, failed, messages) over the repetitions."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    messages = [m for r in reps for m in r["messages"]]
    for r in reps:
        attempted += 1
        if r["quality"] != reps[0]["quality"]:
            failed += 1
            messages.append(f"quality changed between repetitions: "
                            f"{r['quality']} != {reps[0]['quality']}")

    untraced = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    pipeline_s = statistics.median(r["pipeline_s"] for r in untraced)
    metrics = {
        "pipeline_s": pipeline_s,
        "tokens_per_s": untraced[0]["tokens"] / pipeline_s,
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in untraced),
    }
    metrics.update({f"quality.{k}": v for k, v in reps[0]["quality"].items()})
    metrics["quality.wer"] = reps[0]["info"]["wer"]
    if traced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        metrics["trace.pipeline_s"] = statistics.median(r["pipeline_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.pipeline_s"] - pipeline_s
    return metrics, attempted, failed, messages


def report(args, wanted, reps):
    """Print every metric and the result line; return the exit status."""
    metrics, attempted, failed, messages = summarize(reps)
    for m in wanted:
        attempted += 1
        if m["name"] not in metrics:
            failed += 1
            messages.append(f"metric {m['name']} was not measured")
    env = environment(args.seed, reps)
    print(f"# workload={args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# " + json.dumps({
        "pipeline_s": [r["pipeline_s"] for r in reps if not r["trace"]],
        "traced_pipeline_s": [r["pipeline_s"] for r in reps if r["trace"]],
        "setup_s": [r["setup_s"] for r in reps],
        "tokens": reps[0]["tokens"],
        "target_wer": reps[0]["info"]["target_wer"],
        "weights": reps[0]["info"]["weights"],
        "quality": reps[0]["quality"],
    }))
    for m in wanted:
        print(f"{m['name']:<42} {metrics.get(m['name'], float('nan')):>18.6f} {m['unit']}")
    print(f"{'error_rate':<42} {failed / attempted:>18.6f} ratio "
          f"({failed} of {attempted} checks failed)")
    for msg in messages[:20]:
        print(f"# check failed: {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "slukit" / "__init__.py").is_file():
        print(f"run.py: no slukit sources at {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    workdir = Path(tempfile.mkdtemp(prefix=".run-", dir=BENCH))
    try:
        reps = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                       workdir)
    except RepetitionFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, wanted, reps)


if __name__ == "__main__":
    sys.exit(main())
