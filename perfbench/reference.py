"""Fixed reference work, timed in alternation with gvcl to track machine speed.

On a shared machine the speed of the same code can change by half for
seconds at a time, and the process's CPU time changes with it. Fixed pieces
of work, timed between gvcl's own calls, measure that speed; each timed
interval of gvcl is then scaled by nominal / measured time of the matching
reference piece nearest to it (see README.md, "Why the timings are
normalised").

A reference only tracks the program when its mix of work matches, so a
burst has up to three parts, each a numpy replica of one phase of the
workload at the workload's own sizes: "train" (one optimizer step), "eval"
(one MC-evaluation forward pass) and "other" (Fisher-like single-example
passes and the hex-float JSON formatting of the checkpoint). This code
shares nothing with gvcl, so a change to gvcl never moves it.
"""

from __future__ import annotations

import json
import time

import numpy as np

clock = time.perf_counter


class MLPStep:
    """Numpy replica of a gvcl training step on a dense ReLU MLP.

    `sampled` selects a mean-field step (weight noise, reparameterised
    weights, the elementwise KL terms and Adam over means and
    log-variances); otherwise it is an EWC step (weights at their means, a
    quadratic penalty over the shared parameters and SGD). Like gvcl's
    matmul it also computes the gradient for the data matrix. Updates are
    computed but never applied, so every call does the same work.
    """

    def __init__(self, dims, batch, sampled, seed=0):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.sampled = sampled
        self.x = rng.uniform(size=(batch, dims[0]))
        self.y = rng.integers(0, dims[-1], batch)
        self.params = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            self.params += [rng.normal(0.0, 0.1 / np.sqrt(fan_in), (fan_in, fan_out)), np.zeros(fan_out)]
        self.logvars = [np.full(p.shape, -13.8) for p in self.params]
        self.anchor = [p + 0.01 for p in self.params]
        self.fisher = [np.ones(p.shape) for p in self.params]
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]

    def _weights(self):
        if not self.sampled:
            return self.params
        return [
            p + np.exp(0.5 * lv) * self.rng.standard_normal(p.shape)
            for p, lv in zip(self.params, self.logvars)
        ]

    def _forward(self, params, x):
        acts, pre = [x], []
        h = x
        for i in range(len(params) // 2):
            z = h @ params[2 * i] + params[2 * i + 1]
            if 2 * i + 2 < len(params):
                pre.append(z)
                h = np.maximum(z, 0.0)
                acts.append(h)
        return z, acts, pre

    def predict(self, x):
        """Class probabilities of one forward pass (one weight draw if sampled)."""
        z = self._forward(self._weights(), x)[0]
        p = np.exp(z - z.max(axis=1, keepdims=True))
        return p / p.sum(axis=1, keepdims=True)

    def gradients(self, x, y):
        params = self._weights()
        z, acts, pre = self._forward(params, x)
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(y)), y] -= 1.0
        delta = p / len(y)
        grads = [None] * len(params)
        for i in range(len(params) // 2 - 1, -1, -1):
            grads[2 * i] = acts[i].T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            delta = delta @ params[2 * i].T
            if i:
                delta = delta * (pre[i - 1] > 0)
        return grads

    def __call__(self):
        total = 0.0
        for j, g in enumerate(self.gradients(self.x, self.y)):
            p = self.params[j]
            if self.sampled:
                lv = self.logvars[j]
                total += float(np.sum(np.square(p) + np.exp(lv) - lv))
                for grad in (g + p, np.exp(lv) - 1.0):
                    m = 0.9 * self.m[j] + 0.1 * grad
                    v = 0.999 * self.v[j] + 0.001 * grad * grad
                    total += float(np.sum(1e-3 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)))
            else:
                d = p - self.anchor[j]
                total += float(np.sum(np.square(d) * self.fisher[j]))
                total += float(np.sum(p - 0.5 * (g + d * self.fisher[j])))
        return total

    def per_example(self, count):
        """`count` single-example passes with squared gradients, like fisher_diag."""
        total = 0.0
        for i in range(count):
            grads = self.gradients(self.x[i : i + 1], self.y[i : i + 1])
            total += sum(float(np.sum(g * g)) for g in grads)
        return total


class Burst:
    """One workload's reference parts; calling it times each part."""

    def __init__(self, workload):
        hex_values = np.random.default_rng(1).normal(size=2000).tolist()

        def hex_json():
            return len(json.dumps([v.hex() for v in hex_values]))

        if workload == "tiny_mlp":
            step = MLPStep((12, 8, 12), 64, sampled=True)
            tiny_rows = np.random.default_rng(2).normal(size=(720, 12))
            self.parts = {
                "train": [step] * 20,
                "eval": [lambda: step.predict(tiny_rows)] * 10,
            }
            return
        # one Split-MNIST task's test set: the rows every evaluation predict sees
        rows = np.random.default_rng(2).uniform(size=(2000, 784))
        if workload == "mnist_vi":
            step = MLPStep((784, 256, 256, 2), 256, sampled=True)
            self.parts = {
                "train": [step],
                "eval": [lambda: step.predict(rows)],
                "other": [hex_json] * 4,
            }
        else:
            step = MLPStep((784, 256, 256, 2), 256, sampled=False)
            self.parts = {
                "train": [step],
                "eval": [lambda: step.predict(rows)],
                "other": [lambda: step.per_example(8)] + [hex_json] * 4,
            }

    def __call__(self, names):
        """Run the named parts; returns {part: (start, end)}."""
        out = {}
        for name in names:
            t0 = clock()
            for call in self.parts[name]:
                call()
            out[name] = (t0, clock())
        return out
