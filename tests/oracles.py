"""Reference formulas the fused library ops are checked against.

`kl_lambda_tilde` is the GVCL prior KL written on flat `DiagGaussian`s,
term by term from the paper; `autodiff.diag_gauss_kl` computes the same
value over many tensors at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gvcl.gaussians import DiagGaussian, clipped_precision


@dataclass(frozen=True)
class ClippedPrecisionPrior:
    """Previous posterior with its data-dependent precision up-weighted.

    Effective precision is lam * max(0, 1/base.var - 1/prior0_var)
    + 1/prior0_var; the clip threshold is exactly zero.
    """

    base: DiagGaussian
    prior0_var: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(
            self, "prior0_var", np.asarray(self.prior0_var, dtype=np.float64)
        )
        if self.prior0_var.shape != self.base.mu.shape:
            raise ValueError("prior0_var must match base dimension")
        if np.any(self.effective_precision() <= 0):
            raise ValueError("effective precision must be strictly positive")

    def effective_precision(self):
        return clipped_precision(self.base.var, self.prior0_var, self.lam)


def kl_lambda_tilde(q: DiagGaussian, prior: ClippedPrecisionPrior) -> float:
    """KL against the previous posterior with clipped up-weighted precision.

    The quadratic mean term uses the clipped effective precision; trace and
    log-det terms use the unmodified base variances.
    """
    if q.dim != prior.base.dim:
        raise ValueError(f"dimension mismatch: {q.dim} vs {prior.base.dim}")
    prec = prior.effective_precision()
    base = prior.base
    return 0.5 * float(
        np.sum(
            prec * (q.mu - base.mu) ** 2
            + q.var / base.var
            + np.log(base.var / q.var)
            - 1.0
        )
    )
