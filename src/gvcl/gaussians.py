"""Closed-form calculus on diagonal Gaussians.

KL divergences (plain, mean-tempered, trace-tempered), covariance
tempering, the clipped data-dependent prior precision, diagonal and
low-rank precision approximations, and the optimal FiLM scale for a
Gaussian posterior/prior pair.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np


@dataclass(frozen=True)
class DiagGaussian:
    """Mean-field Gaussian: per-coordinate mean and variance vectors."""

    mu: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "var", np.asarray(self.var, dtype=np.float64))
        if self.mu.shape != self.var.shape or self.mu.ndim != 1:
            raise ValueError(f"mu {self.mu.shape} and var {self.var.shape} must be equal 1-D")
        if np.any(self.var <= 0):
            raise ValueError("variances must be strictly positive")

    @property
    def dim(self):
        return self.mu.shape[0]


def clipped_precision(var, prior0_var, lam):
    """lam * max(0, 1/var - 1/prior0_var) + 1/prior0_var, clipped at exactly 0."""
    return lam * np.maximum(0.0, 1.0 / var - 1.0 / prior0_var) + 1.0 / prior0_var


def _check_dims(q, p):
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {p.dim}")


def kl_diag(q: DiagGaussian, p: DiagGaussian) -> float:
    """KL(q || p) for diagonal Gaussians."""
    _check_dims(q, p)
    return 0.5 * float(
        np.sum(
            np.log(p.var / q.var) - 1.0 + q.var / p.var + (q.mu - p.mu) ** 2 / p.var
        )
    )


def temper(g: DiagGaussian, lam: float) -> DiagGaussian:
    """Raise g to the power lam: mean unchanged, variance scaled by 1/lam."""
    if lam <= 0:
        raise ValueError(f"tempering power must be positive, got {lam}")
    return DiagGaussian(g.mu, g.var / lam)


def kl_lambda(q: DiagGaussian, p: DiagGaussian, lam: float) -> float:
    """KL with only the quadratic mean term multiplied by lam.

    Equals kl_diag(temper(q, lam), temper(p, lam)).
    """
    _check_dims(q, p)
    if lam < 1:
        warnings.warn(f"kl_lambda called with lam={lam} < 1", stacklevel=2)
    return 0.5 * float(
        np.sum(
            lam * (q.mu - p.mu) ** 2 / p.var
            + q.var / p.var
            + np.log(p.var / q.var)
            - 1.0
        )
    )


def diag_approx_by_precision(full_precision: np.ndarray) -> np.ndarray:
    """Variances of the diagonal Gaussian that KL-matches a full precision.

    Minimizing forward KL over diagonal Gaussians matches the diagonal of
    the precision matrix: var_i = 1 / precision_ii.
    """
    full_precision = np.asarray(full_precision, dtype=np.float64)
    d = np.diag(full_precision)
    if np.any(d <= 0):
        raise ValueError("precision diagonal must be strictly positive")
    return 1.0 / d


def low_rank_select(h: np.ndarray, k: int, delta: float = 1e-6):
    """Top-k eigenpairs of an SPD matrix, optimal under the low-rank KL cost.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns,
    sorted by decreasing eigenvalue. The implied reconstruction keeps the
    k largest eigenvalues and replaces the rest with delta.
    """
    h = np.asarray(h, dtype=np.float64)
    p = h.shape[0]
    if not (1 <= k < p):
        raise ValueError(f"k must satisfy 1 <= k < {p}, got {k}")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not np.allclose(h, h.T):
        raise ValueError("matrix must be symmetric")
    vals, vecs = np.linalg.eigh(h)
    if np.any(vals <= 0):
        raise ValueError("matrix must be positive definite")
    order = np.argsort(vals)[::-1][:k]
    return vals[order], vecs[:, order]


def low_rank_kl_cost(h: np.ndarray, keep_idx, delta: float) -> float:
    """KL cost (up to constants) of keeping a given eigenvalue subset of h."""
    vals = np.linalg.eigvalsh(np.asarray(h, dtype=np.float64))
    keep = np.zeros(len(vals), dtype=bool)
    keep[list(keep_idx)] = True
    return float(np.sum(vals[~keep]) / delta + np.sum(np.log(vals[keep])))


def film_optimal_scale(q: DiagGaussian, prior: DiagGaussian) -> float:
    """Positive root c* of the KL-in-c stationarity condition.

    Scaling q's mean by c and variance by c^2 (compensated by a FiLM scale
    of 1/c) changes only the KL to the prior; c* minimizes it. The optimal
    FiLM scale is 1/c*.
    """
    _check_dims(q, prior)
    d = q.dim
    a = float(np.sum(q.var / prior.var) + np.sum(q.mu**2 / prior.var))
    b = float(np.sum(prior.mu * q.mu / prior.var))
    # a c^2 - b c - d = 0, positive root
    return (b + np.sqrt(b * b + 4.0 * d * a)) / (2.0 * a)


def scaled_kl(q: DiagGaussian, prior: DiagGaussian, c: float) -> float:
    """KL(N(c mu, c^2 var) || prior); the objective film_optimal_scale minimizes."""
    return kl_diag(DiagGaussian(c * q.mu, c * c * q.var), prior)
