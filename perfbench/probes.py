"""Timers and counters wrapped around gvcl's public functions from outside.

`Probe` is always installed. It wraps a few coarse boundaries, three or
four wrapper calls per optimizer step, and records what the end-to-end metrics
and the correctness checks need: per-step and per-prediction windows,
set-up parts, checkpoint sizes, Fisher passes, the priors and the trained
nets.

`Tracer` is installed only for a traced round. It wraps every public
function of the gvcl modules, every autodiff op included, and records
inclusive time and calls per function.

A function is wrapped under every name through which gvcl code looks it
up: `runner` and `cli` import `predict`, `save_checkpoint` and
`run_continual` by name, so replacing only the defining module's
attribute would miss their calls.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import defaultdict

from gvcl import autodiff, cli, config, data, nets, objectives, optim, runner, toys

MODULES = (autodiff, cli, config, data, nets, objectives, optim, runner, toys)
TRACED_MODULES = (data, autodiff, nets, objectives, runner, cli)
TRACED_METHODS = (
    (nets.VariationalNet, "forward_sample"),
    (nets.VariationalNet, "sample_noise"),
    (optim.Adam, "step"),
    (optim.SGD, "step"),
)
LOSSES = ("beta_elbo_loss", "ewc_loss")
# A predict call that runs longer than this between "eval" reference runs
# gets another run before its next MC sample.
PREDICT_BURST_EVERY_S = 0.25
clock = time.perf_counter


class Patches:
    """Install wrappers and restore the originals, newest first."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, name, make_wrapper):
        if isinstance(owner, type):
            orig = owner.__dict__[name]
            setattr(owner, name, make_wrapper(orig))
            self._undo.append((owner, name, orig))
            return
        orig = getattr(owner, name)
        wrapped = make_wrapper(orig)
        for mod in MODULES:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, orig))

    def restore(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)


class Probe:
    """Coarse, always-on timers and counters.

    Times are kept as (start, end) clock intervals so that they can be
    scaled by the machine speed the reference bursts measure. A burst runs
    only between gvcl calls, never inside a timed window: the "train" and
    "other" parts at most once per `every` seconds, the "eval" part around
    each predict call and between the MC samples of a long one.
    """

    def __init__(self, burst, every):
        self.burst = burst
        self.every = every
        # "eval" runs only around predict calls, the only windows it scales
        self._periodic = [name for name in burst.parts if name != "eval"]
        self.bursts = {}  # reference part -> (start, end) of each time it ran
        self.burst_s = 0.0
        self._last_burst = clock()
        self._patches = Patches()
        self._step_start = None
        self._batch = 0
        self._in_eval = False
        self._segments = None  # (start, end) pieces of the running predict call
        self._segment_start = None
        self._eval_burst_at = 0.0
        self._fisher_passes = None
        self.reset()

    def reset(self):
        """Forget the previous round (its nets and tasks too)."""
        self.steps = []  # (start, end, examples) per optimizer step
        self.step_calls = 0
        self.eval_windows = []  # (start, end, examples) per result-matrix prediction
        self.predict_windows = []  # the same for every other predict call
        self.setup = []  # (start, end) of build_tasks and init_net calls
        self.ckpt_bytes = []
        self.fisher_passes = []  # backward passes per fisher_diag call
        self.posteriors = []  # shared (mu, logvar, b_mu, b_logvar) when each task ends
        self.priors = []
        self.cells = []  # one dict per run_continual call

    def install(self):
        p = self._patches
        for name in LOSSES:
            p.wrap(objectives, name, self._loss)
        for cls in (optim.Adam, optim.SGD):
            p.wrap(cls, "step", self._step)
        p.wrap(runner, "evaluate_matrix_row", self._evaluate)
        p.wrap(runner, "predict", self._predict)
        p.wrap(nets.VariationalNet, "sample_noise", self._noise)
        p.wrap(objectives, "fisher_diag", self._fisher)
        p.wrap(autodiff, "backward", self._backward)
        p.wrap(objectives, "posterior_to_prior", self._to_prior)
        p.wrap(runner, "init_net", self._setup)
        p.wrap(cli, "build_tasks", self._setup)
        p.wrap(runner, "save_checkpoint", self._checkpoint)
        p.wrap(cli, "run_continual", self._run_continual)

    def uninstall(self):
        self._patches.restore()

    def tick(self, force=False, names=None):
        """Run the periodic parts if they last ran `every` seconds ago, or
        the named parts now if forced."""
        periodic = names is None
        if not force and clock() - self._last_burst < self.every:
            return
        for name, interval in self.burst(names or self._periodic).items():
            self.bursts.setdefault(name, []).append(interval)
            self.burst_s += interval[1] - interval[0]
        if periodic:
            self._last_burst = clock()

    def _setup(self, f):
        def wrapper(*args, **kwargs):
            t0 = clock()
            out = f(*args, **kwargs)
            self.setup.append((t0, clock()))
            return out

        return wrapper

    def _loss(self, f):
        def wrapper(net, task, x, y, *args, **kwargs):
            self._step_start = clock()
            self._batch = len(y)
            return f(net, task, x, y, *args, **kwargs)

        return wrapper

    def _step(self, f):
        probe = self

        def wrapper(opt):
            out = f(opt)
            probe.steps.append((probe._step_start, clock(), probe._batch))
            probe.step_calls += 1
            probe.tick()
            return out

        return wrapper

    def _evaluate(self, f):
        def wrapper(*args, **kwargs):
            self._in_eval = True
            try:
                return f(*args, **kwargs)
            finally:
                self._in_eval = False

        return wrapper

    def _eval_burst(self):
        self.tick(force=True, names=["eval"])
        self._eval_burst_at = clock()

    def _predict(self, f):
        def wrapper(net, task, x, *args, **kwargs):
            # Each prediction is bracketed by runs of the "eval" reference
            # part, and a long one is cut into pieces by more runs (_noise).
            # Its examples are counted once, on its last piece.
            self._eval_burst()
            self._segments = []
            self._segment_start = clock()
            out = f(net, task, x, *args, **kwargs)
            pieces = self._segments + [(self._segment_start, clock())]
            self._segments = None
            windows = self.eval_windows if self._in_eval else self.predict_windows
            windows += [(s, e, 0) for s, e in pieces[:-1]]
            windows.append((*pieces[-1], len(x)))
            self._eval_burst()
            self.tick()
            return out

        return wrapper

    def _noise(self, f):
        def wrapper(*args, **kwargs):
            # inside predict, sample_noise starts an MC sample
            if self._segments is not None and clock() - self._eval_burst_at >= PREDICT_BURST_EVERY_S:
                self._segments.append((self._segment_start, clock()))
                self._eval_burst()
                self._segment_start = clock()
            return f(*args, **kwargs)

        return wrapper

    def _fisher(self, f):
        def wrapper(*args, **kwargs):
            self._fisher_passes = 0
            try:
                return f(*args, **kwargs)
            finally:
                self.fisher_passes.append(self._fisher_passes)
                self._fisher_passes = None

        return wrapper

    def _backward(self, f):
        def wrapper(loss):
            out = f(loss)
            if self._fisher_passes is not None:
                self._fisher_passes += 1
                self.tick()
            return out

        return wrapper

    def _to_prior(self, f):
        def wrapper(net, *args, **kwargs):
            self.posteriors.append(
                [(l.weight_mu.data.copy(), l.weight_logvar.data.copy(),
                  l.bias_mu.data.copy(), l.bias_logvar.data.copy()) for l in net.shared]
            )
            prior = f(net, *args, **kwargs)
            self.priors.append(prior)
            return prior

        return wrapper

    def _checkpoint(self, f):
        def wrapper(net, path):
            out = f(net, path)
            self.ckpt_bytes.append(os.path.getsize(path))
            self.tick()
            return out

        return wrapper

    def _run_continual(self, f):
        def wrapper(method, tasks, cfg, seed, *args, **kwargs):
            first = len(self.priors), len(self.fisher_passes), self.step_calls
            record, net = f(method, tasks, cfg, seed, *args, **kwargs)
            self.cells.append({
                "method": method, "cfg": cfg, "tasks": tasks, "record": record, "net": net,
                "priors": self.priors[first[0]:],
                "posteriors": self.posteriors[first[0]:],
                "fisher_passes": self.fisher_passes[first[1]:],
                "steps": self.step_calls - first[2],
            })
            return record, net

        return wrapper


def _traced_functions():
    for mod in TRACED_MODULES:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, value in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ == mod.__name__:
                yield mod, name, f"{short}.{name}"
    for cls, name in TRACED_METHODS:
        short = cls.__module__.rsplit(".", 1)[-1]
        yield cls, name, f"{short}.{cls.__name__}.{name}"


# Listed before anything is wrapped: a wrapped function no longer looks
# like one defined in its module.
TRACED = tuple(_traced_functions())


class Tracer:
    """Inclusive time and calls of every public gvcl function, per name.

    Reference bursts that run inside a traced call are not counted in it.
    """

    def __init__(self, probe):
        self.probe = probe
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.loss_calls = 0
        self.ops_in_loss = 0
        self._loss_depth = 0
        self._patches = Patches()

    def install(self):
        for owner, name, label in TRACED:
            is_op = owner is autodiff and name != "backward"
            self._patches.wrap(owner, name, self._make(label, is_op, name in LOSSES))

    def uninstall(self):
        self._patches.restore()

    def _make(self, label, is_op, is_loss):
        seconds, calls, probe = self.seconds, self.calls, self.probe

        def make(f):
            def wrapper(*args, **kwargs):
                if is_op and self._loss_depth:
                    self.ops_in_loss += 1
                if is_loss:
                    self._loss_depth += 1
                    self.loss_calls += 1
                t0, b0 = clock(), probe.burst_s
                try:
                    return f(*args, **kwargs)
                finally:
                    seconds[label] += clock() - t0 - (probe.burst_s - b0)
                    calls[label] += 1
                    if is_loss:
                        self._loss_depth -= 1

            return wrapper

        return make
