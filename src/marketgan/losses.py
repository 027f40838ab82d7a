"""Adversarial objectives: minimax GAN losses, Wasserstein losses and the
gradient penalty.

All functions return scalar Tensors still attached to the recording, so
callers can run backward() through them. Probabilities are clamped to
[EPS_LOG, 1 - EPS_LOG] before any log, which keeps every loss finite even
when the discriminator saturates.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

EPS_LOG = 1e-7
GP_LAMBDA = 10.0


def _check_probability(t: Tensor, name: str) -> Tensor:
    t = ad._as_tensor(t)
    if (t.data < 0).any() or (t.data > 1).any():
        raise ValueError(f"{name} must contain probabilities in [0, 1]")
    return ad.clip(t, EPS_LOG, 1.0 - EPS_LOG)


def minimax_d_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """Discriminator objective -mean(log d_real) - mean(log(1 - d_fake)).

    Minimized when real samples score 1 and fakes score 0; equals 2 ln 2
    at the d = 1/2 equilibrium.
    """
    pr = _check_probability(d_real, "d_real")
    pf = _check_probability(d_fake, "d_fake")
    return ad.neg(ad.tmean(ad.tlog(pr))) - ad.tmean(ad.tlog(1.0 - pf))


def minimax_g_loss(d_fake: Tensor, variant: str = "non_saturating") -> Tensor:
    """Generator objective.

    saturating: mean(log(1 - d_fake)), the direct minimax form; its
    gradient dies exactly when the discriminator wins.
    non_saturating: -mean(log d_fake), same fixed points with usable
    gradients when d_fake is small.
    """
    pf = _check_probability(d_fake, "d_fake")
    if variant == "saturating":
        return ad.tmean(ad.tlog(1.0 - pf))
    if variant == "non_saturating":
        return ad.neg(ad.tmean(ad.tlog(pf)))
    raise ValueError(f"unknown generator loss variant {variant!r}")


def wasserstein_losses(c_real: Tensor, c_fake: Tensor):
    """(critic_loss, g_loss) for unbounded critic scores.

    critic_loss = mean(c_fake) - mean(c_real); g_loss = -mean(c_fake).
    """
    c_real = ad._as_tensor(c_real)
    c_fake = ad._as_tensor(c_fake)
    mean_fake = ad.tmean(c_fake)
    return mean_fake - ad.tmean(c_real), ad.neg(mean_fake)


def gradient_penalty(critic, real_batch, fake_batch, lam: float = GP_LAMBDA,
                     interpolation_rng=None):
    """Two-sided gradient penalty on real/fake interpolates.

    Draws one u ~ Uniform(0,1) per sample, forms x_hat = u*real +
    (1-u)*fake, differentiates the critic's summed score with respect to
    x_hat (recording the backward pass so the penalty itself remains
    differentiable), and returns

        (lam * mean((||grad||_2 - 1)^2), mean gradient norm)

    where the second element is a plain float reported for diagnostics.
    Per-sample gradients are only meaningful because the critic applies
    no cross-sample mixing (no batch norm).
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if interpolation_rng is None:
        interpolation_rng = np.random.default_rng()
    real = real_batch.data if isinstance(real_batch, Tensor) else np.asarray(real_batch, dtype=np.float64)
    fake = fake_batch.data if isinstance(fake_batch, Tensor) else np.asarray(fake_batch, dtype=np.float64)
    if real.shape != fake.shape:
        raise ad.ShapeError(
            f"real and fake batches must share a shape, got {real.shape} vs {fake.shape}")
    batch = real.shape[0]
    u = interpolation_rng.uniform(0.0, 1.0, size=(batch,) + (1,) * (real.ndim - 1))
    x_hat = Tensor(u * real + (1.0 - u) * fake, requires_grad=True)
    scores = critic.forward(x_hat, mode="train", update_stats=False)
    (grads,) = ad.grad(ad.tsum(scores), [x_hat], create_graph=True)
    sq = ad.tsum(grads * grads, axis=tuple(range(1, real.ndim)))
    norms = ad.tsqrt(sq)
    gp = lam * ad.tmean((norms - 1.0) ** 2)
    return gp, float(norms.data.mean())
