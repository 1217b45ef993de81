#!/usr/bin/env python3
"""Quick end-to-end demo on the 2-D cluster tasks (runs in ~a minute).

Trains gvcl, vcl, ewc and map_sgd on the two conflicting binary tasks and
prints the result matrix and summary metrics for each.
"""

import sys

import numpy as np

from gvcl import metrics
from gvcl.data import gen_toy_clusters
from gvcl.objectives import GVCLConfig
from gvcl.runner import RunnerConfig, run_continual, run_independent


def main():
    tasks = gen_toy_clusters(seed=0)
    cfg = RunnerConfig(
        # the tempering and EWC strength of configs/toy_clusters.ini; at
        # beta = lam = 1 gvcl is plain vcl
        gvcl=GVCLConfig(beta=0.2, lam=100.0, epochs=60, batch_size=50, eval_samples=20),
        map_epochs=60,
        ewc_lam=100000.0,
    )
    r_ind = run_independent(tasks, cfg, seed=0)
    print(f"independent reference accuracies: {np.round(r_ind, 3)}")
    for method in ("gvcl", "vcl", "ewc", "map_sgd"):
        record, _ = run_continual(method, tasks, cfg, seed=0)
        r = record.result_matrix
        print(f"\n{method}")
        for row in r:
            print("  " + "  ".join(f"{v:.3f}" for v in row))
        print(
            f"  ACC {metrics.acc(r):.3f}  BWT {metrics.bwt(r):+.3f}  "
            f"FWT {metrics.fwt(r, r_ind):+.3f}  NET {metrics.net_gain(r, r_ind):+.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
