"""The benchmark's workloads; README.md says why each exists.

Each is a closed loop: one process and one thread run the pipeline's
stages back to back, and the next repetition starts when one ends.
"""
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    utterances: int
    nbest: int
    nbest_correlation: float
    sub_rate: float
    msmlp_epochs: int
    systems: int
    grid_step: float


# Sizes are set so that one repetition takes 4-6 s on one core.
WORKLOADS = {
    w.name: w for w in (
        Workload("paper-full", utterances=2000, nbest=10, nbest_correlation=0.72,
                 sub_rate=0.156, msmlp_epochs=5, systems=3, grid_step=0.1),
        Workload("lattice-deep", utterances=1000, nbest=40, nbest_correlation=0.3,
                 sub_rate=0.25, msmlp_epochs=1, systems=2, grid_step=0.5),
        Workload("combine-grid", utterances=500, nbest=3, nbest_correlation=0.72,
                 sub_rate=0.156, msmlp_epochs=1, systems=4, grid_step=0.05),
    )
}
