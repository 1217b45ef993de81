"""Mean-field Bayesian MLPs with per-task FiLM layers and heads.

A net owns a stack of shared mean-field dense layers, one FiLM parameter
set per (task, FiLM layer), and one mean-field head per task. Sampling
uses the reparameterization theta = mu + exp(logvar / 2) * eps with noise
shared across the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_LOGVAR = np.log(1e-6)  # every mean-field tensor starts at variance 1e-6


@dataclass(frozen=True)
class LayerSpec:
    """One shared dense layer: (fan_in, fan_out), and whether it has FiLM."""

    dims: tuple
    film: bool = False


@dataclass(frozen=True)
class Architecture:
    """Shared dense layer stack plus head geometry."""

    name: str
    layers: tuple
    head_in: int  # features entering a task head; 0 means no heads
    binary_logit: bool = False  # single-logit sigmoid model (no heads)

    @staticmethod
    def mlp(input_dim=784, hidden=(256, 256)):
        layers = []
        fan_in = input_dim
        for h in hidden:
            layers.append(LayerSpec((fan_in, h), film=True))
            fan_in = h
        return Architecture("mlp", tuple(layers), head_in=fan_in)

    @staticmethod
    def logistic(input_dim=2):
        # single shared logit, shared across tasks; no heads, no FiLM
        return Architecture(
            "logistic", (LayerSpec((input_dim, 1)),), head_in=0, binary_logit=True
        )


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

    def sample(self, noise):
        """Draw (weight, bias) tensors with the next two N(0, 1) draws of the
        `noise` iterator; the means when noise is None."""
        if noise is None:
            return self.weight_mu, self.bias_mu
        return (
            ad.reparam(self.weight_mu, self.weight_logvar, next(noise)),
            ad.reparam(self.bias_mu, self.bias_logvar, next(noise)),
        )


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
        self.shared = [MeanFieldLayer(*spec.dims, rng) for spec in arch.layers]
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
        self.film[task] = [FiLMParams(spec.dims[1]) for spec in self.arch.layers if spec.film]

    def has_task(self, task):
        return task in self.film

    # -- forward -----------------------------------------------------------

    def forward_sample(self, task, x, noise=None):
        """Logits for a batch; noise is a `sample_noise` list, or None for the means."""
        if not self.has_task(task):
            raise KeyError(f"unknown task id {task!r}")
        h = x if isinstance(x, Tensor) else Tensor(x)
        film = iter(self.film[task])
        noise = None if noise is None else iter(noise)
        for i, (spec, layer) in enumerate(zip(self.arch.layers, self.shared)):
            w, b = layer.sample(noise)
            gamma = shift = None
            fp = next(film) if spec.film else None
            if fp is not None and self.film_enabled:
                gamma, shift = fp.gamma, fp.shift
            h = ad.dense(h, w, b, gamma, shift, relu=not self._is_output(i))
        if self.arch.head_in:
            head = self.heads[task]
            w, b = head.sample(noise)
            h = ad.dense(h, w, b, relu=False)
        return h

    def _is_output(self, i):
        # the shared stack is all hidden (ReLU) unless there are no heads
        return self.arch.head_in == 0 and i == len(self.shared) - 1

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

    def task_params(self, task):
        out = []
        for fp in self.film[task]:
            out.extend([fp.gamma, fp.shift])
        if self.arch.head_in:
            out.extend(self.heads[task].variational_params())
        return out

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

    Raises ValueError when the vector's size is not the tensors' total size.
    """
    sizes = [t.size for t in tensors]
    if flat.size != sum(sizes):
        raise ValueError(f"flat vector of size {flat.size} does not fit tensors of {sum(sizes)}")
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return [part.reshape(t.shape) for part, t in zip(parts, tensors)]


def init_net(arch: Architecture, seed: int) -> VariationalNet:
    return VariationalNet(arch, np.random.default_rng(seed))


def predict(net, task, x, num_samples=1, mode="sampled", rng=None):
    """Class probabilities averaged over posterior samples (softmax per draw).

    The forward passes run under ``no_grad``: they record no graph.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if mode not in ("sampled", "mean"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "mean":
        with ad.no_grad():
            logits = net.forward_sample(task, x, noise=None).data
        return _probs(logits, net.arch.binary_logit)
    if rng is None:
        rng = np.random.default_rng(0)
    acc = None
    for _ in range(num_samples):
        noise = net.sample_noise(task, rng)
        with ad.no_grad():
            logits = net.forward_sample(task, x, noise=noise).data
        p = _probs(logits, net.arch.binary_logit)
        acc = p if acc is None else acc + p
    return acc / num_samples


def _probs(logits, binary_logit):
    if binary_logit:
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
