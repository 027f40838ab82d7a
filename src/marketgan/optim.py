"""Gradient-descent update rules: plain SGD and Adam.

Both operate in place on (name, Tensor) parameter lists whose .grad
fields have been populated by a backward pass. Adam keeps per-parameter
first/second moment estimates and applies the bias correction, so the
very first step with gradient g moves by almost exactly -lr * sign(g).
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import NonFiniteError


class GradientError(RuntimeError):
    """A parameter reached the optimizer without a usable gradient."""


# DCGAN-convention defaults for adversarial training
ADAM_LR = 2e-4
ADAM_BETA1 = 0.5
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _check_grads(named_params):
    for name, p in named_params:
        if p.grad is None:
            raise GradientError(f"parameter {name!r} has no gradient")
        if not np.isfinite(p.grad).all():
            raise NonFiniteError(f"gradient of parameter {name!r} is not finite")


class SGD:
    def __init__(self, lr: float):
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {lr}")
        self.lr = float(lr)

    def step(self, named_params):
        _check_grads(named_params)
        for _, p in named_params:
            p.data = p.data - self.lr * p.grad


class Adam:
    def __init__(self, lr: float = ADAM_LR, beta1: float = ADAM_BETA1,
                 beta2: float = ADAM_BETA2, eps: float = ADAM_EPS):
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {lr}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError("eps must be finite and > 0")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {}
        self.v = {}

    def step(self, named_params):
        _check_grads(named_params)
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, p in named_params:
            g = p.grad
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / b1c
            v_hat = self.v[name] / b2c
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def make_optimizer(settings: dict):
    """Build an optimizer from a flat settings dict ({"kind", "lr", ...}).
    A missing setting takes its ADAM_* default, SGD's lr too: those are the
    values TrainConfig.to_flat writes for it."""
    kind = settings.get("kind", "adam")
    lr = float(settings.get("lr", ADAM_LR))
    if kind == "sgd":
        return SGD(lr=lr)
    if kind == "adam":
        return Adam(
            lr=lr,
            beta1=float(settings.get("beta1", ADAM_BETA1)),
            beta2=float(settings.get("beta2", ADAM_BETA2)),
            eps=float(settings.get("eps", ADAM_EPS)),
        )
    raise ValueError(f"unknown optimizer kind {kind!r}")
