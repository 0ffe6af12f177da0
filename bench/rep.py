"""One repetition of the benchmark in a fresh interpreter; run.py starts it.

    python3 bench/rep.py SPEC

SPEC is a JSON object with the keys workload (the fields of
`workloads.Workload`), seed, trace (0 or 1), workdir, and spawned_at: the
parent's `time.perf_counter()` just before it started this process.  On
Linux perf_counter reads CLOCK_MONOTONIC, which every process shares, so
the set-up time measured here includes interpreter start-up and imports.

Prints one JSON object: set-up and pipeline times, the quality block,
the per-layer metrics when traced, the RSS high-water mark, and the
checks attempted and failed.
"""
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import pipeline  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload  # noqa: E402

# The stage spans must account for this share of the traced pipeline time.
MIN_STAGE_COVERAGE = 0.99


def repetition(workload, seed, trace, workdir, spawned_at):
    """Set up, run the pipeline once (traced when `trace`), and report."""
    workdir = Path(workdir)
    grammar, tables = pipeline.setup(workdir, seed)
    setup_s = time.perf_counter() - spawned_at
    checks = pipeline.Checks()
    gc.collect()
    layers = {}
    if trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            run = pipeline.run_pipeline(workload, seed, grammar, tables, workdir, checks,
                                        tracer=tracer)
        layers = tracer.layer_metrics(run)
        checks.check(layers["trace.stage_coverage"] >= MIN_STAGE_COVERAGE,
                     f"stage spans cover {layers['trace.stage_coverage']:.4f} "
                     "of the traced pipeline time")
        checks.check(not tracer.untraced_calls(),
                     f"library calls outside any stage: {tracer.untraced_calls()}")
    else:
        run = pipeline.run_pipeline(workload, seed, grammar, tables, workdir, checks)
    return {
        "setup_s": setup_s,
        "trace": trace,
        "pipeline_s": run.pipeline_s,
        "tokens": run.tokens,
        "quality": run.quality,
        "info": run.info,
        "layers": layers,
        "maxrss_mb": pipeline.maxrss_mb(),
        "numpy": numpy.__version__,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
    }


def main(argv):
    spec = json.loads(argv[0])
    print(json.dumps(repetition(Workload(**spec["workload"]), spec["seed"], spec["trace"],
                                spec["workdir"], spec["spawned_at"])))


if __name__ == "__main__":
    main(sys.argv[1:])
