"""Shared test helpers: a central finite-difference gradient checker, a
bit-for-bit view of float arrays, and two inputs the CLI must refuse
without a traceback."""

import json

import numpy as np
import pytest

import marketgan.autodiff as ad
from marketgan.market_data import write_returns_csv

FD_STEP = 1e-4
FD_REL_TOL = 1e-3
FD_ABS_FLOOR = 1e-6


def numerical_grad(fn, arrays, index, h=FD_STEP):
    """Central finite differences of fn(*arrays) w.r.t. arrays[index].

    fn must map plain numpy arrays to a float. Returns an array shaped
    like arrays[index].
    """
    base = [np.array(a, dtype=np.float64, copy=True) for a in arrays]
    target = base[index]
    out = np.zeros_like(target)
    flat = target.reshape(-1)
    grad_flat = out.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = fn(*base)
        flat[i] = keep - h
        down = fn(*base)
        flat[i] = keep
        grad_flat[i] = (up - down) / (2.0 * h)
    return out


def check_gradients(build, arrays, rel_tol=FD_REL_TOL, abs_floor=FD_ABS_FLOOR,
                    h=FD_STEP):
    """Compare reverse-mode gradients of a scalar graph against central
    finite differences.

    build(*tensors) -> scalar Tensor; arrays are the leaf values. Entries
    smaller than abs_floor on both sides are compared absolutely, the
    rest relatively.
    """
    tensors = [ad.Tensor(np.array(a, dtype=np.float64), requires_grad=True)
               for a in arrays]
    loss = build(*tensors)
    grads = ad.grad(loss, tensors)

    def as_float(*plain):
        with ad.no_grad():
            return float(build(*[ad.Tensor(p) for p in plain]).data)

    for i, t in enumerate(tensors):
        numeric = numerical_grad(as_float, arrays, i, h=h)
        analytic = grads[i].data
        assert analytic.shape == numeric.shape
        denom = np.maximum(np.abs(numeric), np.abs(analytic))
        gap = np.abs(analytic - numeric)
        ok = (gap <= abs_floor) | (gap <= rel_tol * denom)
        if not ok.all():
            worst = np.unravel_index(np.argmax(gap - rel_tol * denom), gap.shape)
            raise AssertionError(
                f"gradient mismatch for input {i} at {worst}: "
                f"analytic {analytic[worst]!r} vs numeric {numeric[worst]!r}")
    return grads


def bits(a):
    """The float64 values of ``a`` as int64, for bit-for-bit comparisons."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def huge_config_checkpoint(ckpt, path):
    """A copy of a checkpoint whose config sets latent_dim to 2**40, so the
    generator's first weight alone would take petabytes."""
    doc = json.loads(ckpt.read_text())
    doc["config"]["latent_dim"] = 2 ** 40
    path.write_text(json.dumps(doc))
    return path


def overflowing_series(path, value=1e308, index=100):
    """2,000 t(5) returns with one cell set to ``value`` (by default 1e308:
    finite, but its squares overflow float64)."""
    values = np.random.default_rng(2).standard_t(5, 2000) * 0.01
    values[index] = value
    write_returns_csv(path, values)
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
