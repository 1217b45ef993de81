"""Workloads, their rounds, the correctness checks and the metrics."""

from __future__ import annotations

import csv
import json
import os
import shutil

import numpy as np

import checks
import inputs
from reference import Burst
from gvcl import cli, runner, toys
from gvcl.config import ExperimentConfig, save_config
from gvcl.nets import Architecture
from gvcl.objectives import GVCLConfig
from gvcl.runner import RunnerConfig
from probes import Probe, Tracer, clock

# beta and lambda as in the paper's Split-MNIST runs; one epoch per task
# keeps a round of five tasks within a run.
MNIST_VI = RunnerConfig(
    gvcl=GVCLConfig(beta=0.2, lam=100.0, lr=1e-3, epochs=1, batch_size=256, eval_samples=20)
)
# Two SGD epochs per task at a step size that learns the synthetic pairs.
MNIST_EWC = RunnerConfig(
    map_lr=0.5, map_lr_decay=1.0, map_epochs=2, fisher_samples=600,
    gvcl=GVCLConfig(batch_size=256, eval_samples=20),
)
# Acceptance criterion 7's settings with a quarter of its epochs.
TINY = RunnerConfig(gvcl=GVCLConfig(beta=1.0, lam=1.0, epochs=300, lr=1e-2, eval_samples=10))
TINY_ARCH = Architecture.mlp(input_dim=12, hidden=(8,))
TINY_METHODS = ("gvcl", "gvcl_film")
METHOD = {"mnist_vi": "gvcl_film", "mnist_ewc": "ewc"}

OPS = (
    "matmul", "add", "sub", "mul", "exp", "square", "tsum", "tmean", "relu",
    "scale_shift", "softmax_cross_entropy",
)


# Rounds per run are round(seconds / ROUND_S), at least one: a fixed count,
# so that every run of a workload does the same work. ROUND_S is about one
# round's wall time on this machine.
ROUND_S = {"mnist_vi": 40.0, "mnist_ewc": 25.0, "tiny_mlp": 11.5}
# Full reference bursts run at most once per BURST_EVERY_S seconds. Every
# timed interval is scaled to the machine speed at which each reference
# part takes its NOMINAL_S seconds. These are about the median part times
# on this machine, rounded, and fixed here: they are the unit of the
# figures, so changing one rescales every figure measured with it.
BURST_EVERY_S = {"mnist_vi": 0.5, "mnist_ewc": 0.5, "tiny_mlp": 0.1}
NOMINAL_S = {
    "mnist_vi": {"train": 0.020, "eval": 0.028, "other": 0.0035},
    "mnist_ewc": {"train": 0.011, "eval": 0.024, "other": 0.0135},
    "tiny_mlp": {"train": 0.0035, "eval": 0.0014},
}


class SpeedTrack:
    """Machine speed measured by the reference bursts, as a step function.

    Each burst rules the time closest to it, with the factor nominal over
    measured burst time. The speed changes within a second, so the nearest
    burst alone tracks it better than an average over neighbours.
    """

    def __init__(self, bursts, nominal_s):
        start = np.array([b[0] for b in bursts])
        dur = np.array([b[1] - b[0] for b in bursts])
        self.factor = nominal_s / dur
        mid = start + dur / 2
        self.edges = (mid[:-1] + mid[1:]) / 2

    def scaled(self, start, end):
        """Length of [start, end] at nominal machine speed."""
        k0, k1 = np.searchsorted(self.edges, (start, end))
        if k0 == k1:
            return (end - start) * self.factor[k0]
        bounds = np.r_[start, self.edges[k0:k1], end]
        return float(np.diff(bounds) @ self.factor[k0 : k1 + 1])

    def rate(self, windows):
        """Examples per second at nominal speed over (start, end, examples) windows."""
        return sum(w[2] for w in windows) / sum(self.scaled(w[0], w[1]) for w in windows)


class Bench:
    def __init__(self, args, import_s, work, run_dir):
        self.args = args
        self.import_s = import_s
        self.run_dir = run_dir
        self.probe = Probe(Burst(args.workload), BURST_EVERY_S[args.workload])
        self.setup_s = None
        self.ckpt_bytes = []
        self.rounds = {False: [], True: []}
        self.tasks_done = {False: 0, True: 0}
        self.attempted = self.failed = 0
        self.problems = []
        self.tracer = Tracer(self.probe)
        self.traced_rounds = 0
        self.fisher_examples = 0
        if args.workload == "tiny_mlp":
            t0 = clock()
            self.tasks = toys.gen_synthetic_pair(args.seed)
            self.build_s = clock() - t0
        else:
            cache = os.path.join(work, "idx")
            os.makedirs(cache, exist_ok=True)
            self.idx_root = inputs.cached_idx_root(args.seed, cache)
            cfg = ExperimentConfig(
                name=args.workload, dataset="split_mnist", methods=(METHOD[args.workload],),
                seeds=(args.seed,),
                runner=MNIST_VI if args.workload == "mnist_vi" else MNIST_EWC,
            )
            self.ini = os.path.join(run_dir, f"{args.workload}.ini")
            save_config(cfg, self.ini)

    # -- rounds --------------------------------------------------------------

    def round(self, traced):
        probe = self.probe
        probe.reset()
        out = os.path.join(self.run_dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            self.tracer.install()
        t0 = clock()
        try:
            if self.args.workload == "tiny_mlp":
                for method in TINY_METHODS:
                    runner.run_continual(
                        method, self.tasks, TINY, self.args.seed, arch=TINY_ARCH,
                        out_dir=_mkdir(os.path.join(out, method)),
                    )
            else:
                cli.cmd_run(self.ini, 1, self.idx_root, out)
        finally:
            t1 = clock()
            if traced:
                self.tracer.uninstall()
        if self.args.workload != "tiny_mlp":
            self._check_summary(os.path.join(out, self.args.workload, "summary.csv"))
        if self.setup_s is None:
            # import + task construction + the first net's init; on the
            # mnist workloads build_tasks is the first probe.setup interval
            if self.args.workload == "tiny_mlp":
                parts = self.build_s + probe.setup[0][1] - probe.setup[0][0]
            else:
                parts = sum(e - s for s, e in probe.setup[:2])
            self.setup_s = self.import_s + parts
        bursts = [b for part in probe.bursts.values() for b in part if t0 <= b[0] < t1]
        self.rounds[traced].append({
            "start": t0, "end": t1, "excluded": probe.setup + bursts,
            "steps": probe.steps, "evals": probe.eval_windows, "predicts": probe.predict_windows,
        })
        n_tasks = sum(len(c["record"].result_matrix) for c in probe.cells)
        self.tasks_done[traced] += n_tasks
        self.attempted += sum(len(c["tasks"]) for c in probe.cells)
        self.failed += sum(len(c["tasks"]) for c in probe.cells) - n_tasks
        if traced:
            self.traced_rounds += 1
            self.fisher_examples += sum(sum(c["fisher_passes"]) for c in probe.cells)
        else:
            self.ckpt_bytes += probe.ckpt_bytes
        self._check_round()

    def _check_summary(self, path):
        """summary.csv has the cell's row, with its metrics unless the cell failed."""
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        cell_failed = any(c["record"].error for c in self.probe.cells)
        if len(rows) != 1 or not (cell_failed or rows[0]["acc"] and not rows[0]["error"]):
            self.problems.append(f"summary.csv: {rows}")

    def _check_round(self):
        cells = [c for c in self.probe.cells if not c["record"].error]
        for cell in cells:
            self.problems += checks.check_learning(cell)
            if cell["method"].startswith("gvcl"):
                self.problems += checks.check_kl(cell) + checks.check_steps(cell)
            else:
                self.problems += checks.check_fisher(cell) + checks.check_fisher_work(cell)
        if self.args.workload == "tiny_mlp" and len(cells) == 2:
            plain, film = (checks.active_units(c) for c in cells)
            if film < plain:
                self.problems.append(f"pruning: FiLM keeps {film} active units, plain {plain}")

    # -- results -------------------------------------------------------------

    def speeds(self):
        nominal = NOMINAL_S[self.args.workload]
        return {part: SpeedTrack(self.probe.bursts[part], nominal[part]) for part in nominal}

    def task_s(self, speeds, traced):
        """Seconds per task at nominal speed, set-up and bursts left out.

        Training steps and predict calls are scaled by their own reference
        parts, the rest of the round by "other" ("train" where a
        workload has no "other" part).
        """
        other = speeds.get("other", speeds["train"])
        total = 0.0
        for r in self.rounds[traced]:
            total += other.scaled(r["start"], r["end"])
            total -= sum(other.scaled(s, e) for s, e in r["excluded"])
            for windows, track in (
                (r["steps"], speeds["train"]),
                (r["evals"] + r["predicts"], speeds["eval"]),
            ):
                total += sum(track.scaled(s, e) - other.scaled(s, e) for s, e, _ in windows)
        return total / self.tasks_done[traced]

    def end_to_end(self):
        speeds = self.speeds()
        rounds = self.rounds[False]
        return {
            "setup_s": {"value": self.setup_s, "unit": "s"},
            "train_examples_per_s": {
                "value": speeds["train"].rate([w for r in rounds for w in r["steps"]]),
                "unit": "examples/s",
            },
            "eval_examples_per_s": {
                "value": speeds["eval"].rate([w for r in rounds for w in r["evals"]]),
                "unit": "examples/s",
            },
            "task_s": {"value": self.task_s(speeds, False), "unit": "s"},
            "ckpt_bytes": {"value": float(np.mean(self.ckpt_bytes)), "unit": "bytes"},
        }

    def per_layer(self):
        n = self.traced_rounds
        sec = {k: v / n for k, v in self.tracer.seconds.items()}
        calls = {k: v / n for k, v in self.tracer.calls.items()}
        speeds = self.speeds()
        traced_task_s = self.task_s(speeds, True)
        untraced_task_s = self.task_s(speeds, False)
        m = {}

        def add(name, value, unit):
            m[name] = {"value": float(value), "unit": unit}

        def timed(label, with_calls=False, name=None):
            name = name or label
            add(f"{name}_s", sec.get(label, 0.0), "s")
            if with_calls:
                add(f"{name}_calls", calls.get(label, 0), "count")

        timed("data.load_idx", True)
        timed("data.make_split_tasks")
        timed("autodiff.backward", True)
        for op in OPS:
            timed(f"autodiff.{op}", True)
        add("autodiff.ops_per_step", self.tracer.ops_in_loss / max(self.tracer.loss_calls, 1), "count")
        timed("nets.VariationalNet.sample_noise", True, "nets.sample_noise")
        timed("nets.VariationalNet.forward_sample", True, "nets.forward_sample")
        timed("nets.predict", True)
        timed("nets.save_checkpoint", True)
        for name in ("beta_elbo_loss", "shared_kl_node", "nll_node", "ewc_loss", "fisher_diag",
                     "posterior_to_prior"):
            timed(f"objectives.{name}")
        add("objectives.fisher_diag_examples", self.fisher_examples / n, "count")
        timed("optim.Adam.step", True)
        timed("optim.SGD.step", True)
        for name in ("train_task_vi", "train_task_point", "evaluate_matrix_row", "run_continual"):
            timed(f"runner.{name}")
        outside = sec["cli.cmd_run"] - sec["runner.run_continual"] if "cli.cmd_run" in sec else 0.0
        add("cli.cmd_run_outside_run_continual_s", outside, "s")
        add("trace.task_s", traced_task_s, "s")
        add("trace.untraced_task_s", untraced_task_s, "s")
        add("trace.overhead", traced_task_s / untraced_task_s - 1.0, "ratio")
        return m, {"seconds": sec, "calls": calls}


def _mkdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def run(args, import_s, work, run_dir):
    bench = Bench(args, import_s, work, run_dir)
    bench.probe.install()
    try:
        rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
        # With --trace 1, untraced and traced rounds alternate, so that the
        # traced task_s can be set against an untraced one from the same run.
        if args.trace:
            rounds *= 2
        for i in range(rounds):
            bench.round(traced=bool(args.trace) and i % 2 == 1)
    finally:
        bench.probe.uninstall()
    for problem in bench.problems:
        print(f"check failed: {problem}")
    result = {"correct": not bench.problems, "attempted": bench.attempted, "failed": bench.failed}
    if args.trace:
        metrics, raw = bench.per_layer()
        path = os.path.join(work, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                       "metrics": metrics, "per_round": raw}, f, indent=1, sort_keys=True)
        result["metrics"] = metrics
    else:
        result["metrics"] = bench.end_to_end()
        with open(os.path.join(work, f"windows-{args.workload}-seed{args.seed}.json"), "w") as f:
            json.dump({"bursts": bench.probe.bursts, "rounds": bench.rounds[False]}, f)
    return result
