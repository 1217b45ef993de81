"""Mean-field Bayesian MLPs with per-task FiLM layers and heads.

A net owns a stack of shared mean-field dense layers, one FiLM parameter
set per (task, FiLM layer), and one mean-field head per task. Each layer
is one ``autodiff.dense`` node, which makes the draw theta = mu +
exp(logvar / 2) * eps itself, with noise shared across the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

INIT_LOGVAR = np.log(1e-6)  # every mean-field tensor starts at variance 1e-6


@dataclass(frozen=True)
class Architecture:
    """Shared dense layer stack plus head geometry.

    `layers` holds one (fan_in, fan_out) pair per shared layer. A net with
    heads (`head_in` > 0) has a FiLM layer after every shared layer; with
    `head_in` 0 the last shared layer is a single sigmoid logit, no FiLM.
    """

    name: str
    layers: tuple
    head_in: int  # features entering a task head; 0 means no heads

    @staticmethod
    def mlp(input_dim=784, hidden=(256, 256)):
        dims = (input_dim, *hidden)
        return Architecture("mlp", tuple(zip(dims, dims[1:])), head_in=dims[-1])

    @staticmethod
    def logistic(input_dim=2):
        # single shared logit, shared across tasks; no heads, no FiLM
        return Architecture("logistic", ((input_dim, 1),), head_in=0)


class MeanFieldLayer:
    """Gaussian weight and bias parameters of one dense layer."""

    def __init__(self, fan_in, fan_out, rng):
        std = 0.1 / np.sqrt(fan_in)
        self.weight_mu = Tensor(rng.normal(0.0, std, size=(fan_in, fan_out)), requires_grad=True)
        self.weight_logvar = Tensor(np.full((fan_in, fan_out), INIT_LOGVAR), requires_grad=True)
        self.bias_mu = Tensor(np.zeros(fan_out), requires_grad=True)
        self.bias_logvar = Tensor(np.full(fan_out, INIT_LOGVAR), requires_grad=True)

    def params(self):
        return {
            "weight_mu": self.weight_mu,
            "weight_logvar": self.weight_logvar,
            "bias_mu": self.bias_mu,
            "bias_logvar": self.bias_logvar,
        }

    def variational_params(self):
        return [self.weight_mu, self.weight_logvar, self.bias_mu, self.bias_logvar]

    def forward(self, h, noise, gamma=None, shift=None, relu=True):
        """The layer's dense node on input h: at the means when noise is
        None, else at the draw that takes the next two N(0, 1) arrays of
        the `noise` iterator, weight then bias."""
        draw = None
        if noise is not None:
            draw = (self.weight_logvar, next(noise), self.bias_logvar, next(noise))
        return ad.dense(h, self.weight_mu, self.bias_mu, gamma, shift, relu, draw)


class FiLMParams:
    """Per-task feature-wise scale and shift (point estimates)."""

    def __init__(self, width):
        self.gamma = Tensor(np.ones(width), requires_grad=True)
        self.shift = Tensor(np.zeros(width), requires_grad=True)

    def params(self):
        return {"gamma": self.gamma, "shift": self.shift}


class VariationalNet:
    def __init__(self, arch: Architecture, rng):
        self.arch = arch
        self.shared = [MeanFieldLayer(*dims, rng) for dims in arch.layers]
        self.film = {}
        self.heads = {}
        self.film_enabled = True

    # -- task management ---------------------------------------------------

    def add_task(self, task, classes, rng):
        """Lazily create the head (and fresh identity FiLM params) for a task."""
        if task in self.heads:
            raise ValueError(f"task {task!r} already present")
        if self.arch.head_in:
            self.heads[task] = MeanFieldLayer(self.arch.head_in, classes, rng)
        self.film[task] = [FiLMParams(d) for _, d in self.arch.layers] if self.arch.head_in else []

    # -- forward -----------------------------------------------------------

    def forward_sample(self, task, x, noise=None):
        """Logits for a batch; noise is a `sample_noise` list, or None for the means."""
        if task not in self.film:
            raise KeyError(f"unknown task id {task!r}")
        h = x if isinstance(x, Tensor) else Tensor(x)
        film = self.film[task] if self.film_enabled else []
        noise = None if noise is None else iter(noise)
        last = len(self.shared) - 1
        for i, layer in enumerate(self.shared):
            gamma, shift = (film[i].gamma, film[i].shift) if film else (None, None)
            # the shared stack is all hidden (ReLU) unless there are no heads
            h = layer.forward(h, noise, gamma, shift, relu=bool(self.arch.head_in) or i < last)
        if self.arch.head_in:
            h = self.heads[task].forward(h, noise, relu=False)
        return h

    # -- noise -------------------------------------------------------------

    def sample_noise(self, task, rng):
        """N(0, 1) draws, weight then bias for each layer: the shared layers
        in order, then the task's head."""
        layers = self.shared + ([self.heads[task]] if self.arch.head_in else [])
        return [rng.standard_normal(t.shape) for l in layers for t in (l.weight_mu, l.bias_mu)]

    # -- parameter access --------------------------------------------------

    def shared_means(self):
        """The shared layers' mean tensors in flat order: w0, b0, w1, b1, ..."""
        return [p for l in self.shared for p in (l.weight_mu, l.bias_mu)]

    def shared_logvars(self):
        """The matching log-variance tensors, in the same order."""
        return [p for l in self.shared for p in (l.weight_logvar, l.bias_logvar)]

    def trainable_params(self, task, means_only=False):
        """The tensors trained for `task`, the one rule every method uses.

        The shared layers, the task's FiLM scales and shifts when FiLM is
        enabled, then the task's head. Point methods pass `means_only` and
        leave the log-variances out.
        """

        def layer_params(layer):
            return [layer.weight_mu, layer.bias_mu] if means_only else layer.variational_params()

        out = [p for layer in self.shared for p in layer_params(layer)]
        if self.film_enabled:
            out += [t for fp in self.film[task] for t in (fp.gamma, fp.shift)]
        if self.arch.head_in:
            out += layer_params(self.heads[task])
        return out

    def named_params(self):
        out = {}
        for i, layer in enumerate(self.shared):
            for k, t in layer.params().items():
                out[f"shared.{i}.{k}"] = t
        for task in sorted(self.film, key=repr):
            for j, fp in enumerate(self.film[task]):
                for k, t in fp.params().items():
                    out[f"film.{task!r}.{j}.{k}"] = t
            if self.arch.head_in:
                for k, t in self.heads[task].params().items():
                    out[f"head.{task!r}.{k}"] = t
        return out


def split_flat(flat, tensors):
    """Views of a flat vector, one per tensor in order, each shaped like it.

    Raises ShapeError, a ValueError, when the vector's size is not the
    tensors' total size.
    """
    sizes = [t.size for t in tensors]
    if flat.size != sum(sizes):
        raise ShapeError(f"flat vector of size {flat.size} does not fit tensors of {sum(sizes)}")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return [part.reshape(t.shape) for part, t in zip(parts, tensors)]


def init_net(arch: Architecture, seed: int) -> VariationalNet:
    return VariationalNet(arch, np.random.default_rng(seed))


def predict(net, task, x, num_samples, rng=None):
    """Class probabilities for a batch: one pass at the posterior means when
    `num_samples` is 0, else the average over that many posterior draws
    from `rng` (softmax per draw).

    The forward passes run under ``no_grad``: they record no graph.
    """
    if num_samples < 0:
        raise ValueError(f"num_samples must be >= 0, got {num_samples}")
    if num_samples and rng is None:
        raise ValueError("posterior draws need an rng")
    binary, draws = net.arch.head_in == 0, max(num_samples, 1)
    acc = None
    for _ in range(draws):
        noise = net.sample_noise(task, rng) if num_samples else None
        with ad.no_grad():
            logits = net.forward_sample(task, x, noise=noise).data
        p = _probs(logits, binary)
        acc = p if acc is None else acc + p
    return acc / draws


def _probs(logits, binary):
    if binary:
        p1 = 1.0 / (1.0 + np.exp(-logits[:, 0]))
        return np.stack([1.0 - p1, p1], axis=1)
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def prune_diagnostics(net, prior_var: float, task):
    """Per-node deviation of incoming-weight posteriors from the prior.

    Score of a node is the mean symmetric KL between each incoming weight's
    posterior and N(0, prior_var); returned with each node's bias posterior
    mean, one row per shared layer.
    """
    rows = []
    for layer in net.shared:
        w_mu = layer.weight_mu.data
        w_var = np.exp(layer.weight_logvar.data)
        # symmetric KL of N(mu, v) vs N(0, pv), per weight
        pv = prior_var
        skl = 0.5 * (w_var / pv + pv / w_var - 2.0) + 0.5 * w_mu**2 * (1.0 / pv + 1.0 / w_var)
        rows.append({"scores": skl.mean(axis=0), "bias_mu": layer.bias_mu.data.copy()})
    return rows


# -- checkpoint format -----------------------------------------------------

CHECKPOINT_VERSION = 2  # version 1 was hex-float JSON
_META = ("__version__", "__arch__")


def save_checkpoint(net, path):
    """Versioned .npz checkpoint: the version, the arch name and one float64
    array per `named_params` entry (bit-exact), written to exactly `path`."""
    arrays = {"__version__": np.array(CHECKPOINT_VERSION), "__arch__": np.array(net.arch.name)}
    arrays.update((name, t.data) for name, t in net.named_params().items())
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def load_checkpoint(net, path):
    """Load values into an already-structured net; names and shapes must match.

    Every net parameter must be in the file, and every file entry in the
    net. The whole file is checked before any value is set, so a bad file
    leaves the net unchanged.
    """
    with np.load(path, allow_pickle=False) as doc:
        version = int(doc["__version__"]) if "__version__" in doc.files else None
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        arch = str(doc["__arch__"])
        if arch != net.arch.name:
            raise ValueError(f"checkpoint is for arch {arch!r}, net is {net.arch.name!r}")
        values = {name: doc[name] for name in doc.files if name not in _META}
    named = net.named_params()
    missing = sorted(set(named) - set(values))
    if missing:
        raise KeyError(f"checkpoint lacks net parameters: {', '.join(missing)}")
    for name, vals in values.items():
        if name not in named:
            raise KeyError(f"checkpoint parameter {name} not present in net")
        if vals.dtype != np.float64 or vals.shape != named[name].shape:
            raise ValueError(f"dtype or shape mismatch for {name}")
    for name, vals in values.items():
        named[name].data = vals
