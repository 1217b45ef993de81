#!/usr/bin/env python3
"""Quick end-to-end demo on the 2-D cluster tasks (runs in ~a minute).

Trains the methods of configs/toy_clusters.ini on its two conflicting
binary tasks, with the config's first seed, and prints the result matrix
and summary metrics for each.
"""

import sys
from pathlib import Path

import numpy as np

from gvcl import metrics
from gvcl.cli import build_tasks
from gvcl.config import load_config
from gvcl.runner import run_continual, run_independent

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "toy_clusters.ini"


def main():
    cfg = load_config(CONFIG)
    tasks = build_tasks(cfg.dataset, None, cfg.data_seed)
    seed = cfg.seeds[0]
    r_ind = run_independent(tasks, cfg.runner, seed=seed)
    print(f"independent reference accuracies: {np.round(r_ind, 3)}")
    for method in cfg.methods:
        record, _ = run_continual(method, tasks, cfg.runner, seed=seed)
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
