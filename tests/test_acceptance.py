"""Release acceptance suite: eight numbered criteria, one verdict line each.

Every criterion test prints exactly one line of the form

    [criterion N] PASS: <measurements>
    [criterion N] FAIL: <what missed>

and then asserts. The repository's pytest configuration includes -rP so
the lines for passing criteria appear in the run summary; failing ones
surface through the ordinary captured-output report.

Budgets and tolerances are pinned inline next to each criterion:

  1  finite-difference gradient oracle, >= 100 configurations, < 2 min
  2  Adam convergence on a quadratic plus a one-step hand oracle
  3  mlp_gan recovers N(0,1) moments on 4 of 5 fixed seeds, < 10 min
  4  wgan_gp ends with interpolate gradient norms near 1
  5  stylized-facts statistics match brute-force oracles to 1e-12,
     control processes land on the right side of every verdict, < 1 min
  6  bundled fixture reproduces the expected signs; frozen regressions
  7  dcgan1d on the fixture: 100-epoch smoke variant (< 5 min, always
     on) and a 1000-epoch five-seed variant which is opt-in because it
     needs about 40 CPU-minutes: MARKETGAN_FULL=1 python3 -m pytest
     tests/test_acceptance.py -m full
  8  byte-identical artifacts on rerun and bit-exact checkpoint resume
"""

import math
import os
import time

import numpy as np
import pytest

import marketgan.autodiff as ad
import marketgan.layers as ly
import marketgan.losses as losses
import marketgan.market_data as md
import marketgan.optim as optim
import marketgan.stylized_facts as sf
import marketgan.training as tr
from marketgan.cli import main

FD_H = 1e-4
FD_TOL = 1e-3
ORACLE_TOL = 1e-12


def _verdict(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle
# ---------------------------------------------------------------------------

def _rel_err(fd: float, an: float) -> float:
    return abs(fd - an) / max(abs(fd), abs(an), 1e-6)


def _wsum(expr, w):
    """Scalar loss with a random positive weight per output element, so
    every input element receives a nondegenerate gradient."""
    return ad.tsum(expr * ad.Tensor(np.asarray(w)))


def _screened_fd(f):
    """Central difference of the one-argument offset function f, or None
    when halving the step moves the estimate materially. Disagreement
    between the two step sizes flags a derivative discontinuity (an
    activation boundary) inside the interval, where a difference
    quotient does not estimate the derivative of the piecewise map."""
    full = (f(FD_H) - f(-FD_H)) / (2.0 * FD_H)
    half = (f(FD_H / 2.0) - f(-FD_H / 2.0)) / FD_H
    # smooth maps agree to O(h^2) here, far below this threshold; a
    # boundary inside the interval distorts the two estimates unequally
    if abs(full - half) > 2e-4 * max(abs(full), abs(half), 1e-6):
        return None
    return half


def _max_fd_error(build, arrays):
    """Worst relative error between reverse-mode and central-difference
    gradients of a scalar-valued function, over every input element.
    Returns (worst, checked, skipped)."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    grads = ad.grad(build(*tensors), tensors)

    def value(plain):
        with ad.no_grad():
            return build(*[ad.Tensor(p) for p in plain]).item()

    worst, checked, skipped = 0.0, 0, 0
    for i in range(len(arrays)):
        for idx in np.ndindex(arrays[i].shape):
            def at(offset, i=i, idx=idx):
                shifted = [a.copy() for a in arrays]
                shifted[i][idx] += offset
                return value(shifted)

            fd = _screened_fd(at)
            if fd is None:
                skipped += 1
                continue
            checked += 1
            worst = max(worst, _rel_err(fd, grads[i].data[idx]))
    return worst, checked, skipped


SHAPES = ((5,), (3, 4), (2, 3, 2))


def _smooth(rng, shape):
    return rng.uniform(-1.5, 1.5, shape)


def _positive(rng, shape):
    return rng.uniform(0.4, 2.0, shape)


def _away_from_zero(rng, shape):
    # keeps kinked activations (relu, leaky relu) far from their corner
    return rng.uniform(0.3, 1.4, shape) * rng.choice([-1.0, 1.0], size=shape)


def _inside_clip(rng, shape):
    return rng.uniform(-0.8, 0.8, shape)


def _elementwise_cases(rng):
    cases = []

    def unary(label, sampler, fn):
        for shape in SHAPES:
            a = sampler(rng, shape)
            w = rng.uniform(0.5, 1.5, shape)
            cases.append((f"{label}{shape}", [a],
                          lambda a, fn=fn, w=w: _wsum(fn(a), w)))

    def binary(label, sa, sb, fn):
        for shape in SHAPES:
            a, b = sa(rng, shape), sb(rng, shape)
            w = rng.uniform(0.5, 1.5, shape)
            cases.append((f"{label}{shape}", [a, b],
                          lambda a, b, fn=fn, w=w: _wsum(fn(a, b), w)))

    binary("add", _smooth, _smooth, lambda a, b: a + b)
    binary("sub", _smooth, _smooth, lambda a, b: a - b)
    binary("mul", _smooth, _smooth, lambda a, b: a * b)
    binary("div", _smooth, _away_from_zero, lambda a, b: a / b)
    unary("neg", _smooth, lambda a: -a)
    unary("pow3", _smooth, lambda a: ad.powc(a, 3.0))
    unary("pow1.7", _positive, lambda a: ad.powc(a, 1.7))
    unary("exp", _smooth, ad.texp)
    unary("log", _positive, ad.tlog)
    unary("sqrt", _positive, ad.tsqrt)
    unary("clip", _inside_clip, lambda a: ad.clip(a, -1.0, 1.0))
    unary("relu", _away_from_zero, ad.relu)
    unary("leaky_relu", _away_from_zero, lambda a: ad.leaky_relu(a, alpha=0.2))
    unary("tanh", _smooth, ad.tanh)
    unary("sigmoid", _smooth, ad.sigmoid)
    unary("softmax", _smooth, lambda a: ad.softmax(a, axis=-1))
    return cases


def _shape_cases(rng):
    cases = []
    for shape in ((3, 4), (2, 3, 2)):
        a = _smooth(rng, shape)
        wt = rng.uniform(0.5, 1.5, shape[:-2] + (shape[-1], shape[-2]))
        cases.append((f"transpose_last{shape}", [a],
                      lambda a, wt=wt: _wsum(ad.transpose_last(a), wt)))
    for shape in SHAPES:
        a = _smooth(rng, shape)
        flat = (int(np.prod(shape)),)
        wf = rng.uniform(0.5, 1.5, flat)
        cases.append((f"reshape{shape}", [a],
                      lambda a, flat=flat, wf=wf: _wsum(ad.reshape(a, flat), wf)))
    for src, dst in (((3, 1), (3, 4)), ((1, 4), (3, 4)), ((2, 1, 3), (2, 4, 3))):
        a = _smooth(rng, src)
        w = rng.uniform(0.5, 1.5, dst)
        cases.append((f"broadcast{src}->{dst}", [a],
                      lambda a, dst=dst, w=w: _wsum(ad.broadcast_to(a, dst), w)))
    for red, label in ((ad.tsum, "sum"), (ad.tmean, "mean")):
        for shape, axis in (((5,), None), ((3, 4), 0), ((2, 3, 2), -1), ((3, 4), 1)):
            a = _smooth(rng, shape)
            out_shape = () if axis is None else tuple(np.delete(np.array(shape), axis))
            w = rng.uniform(0.5, 1.5, out_shape)
            cases.append((f"{label}{shape}ax{axis}", [a],
                          lambda a, red=red, axis=axis, w=w: _wsum(red(a, axis=axis), w)))
        a = _smooth(rng, (3, 4))
        w = rng.uniform(0.5, 1.5, (3, 1))
        cases.append((f"{label}(3,4)ax1keep", [a],
                      lambda a, red=red, w=w: _wsum(red(a, axis=1, keepdims=True), w)))
    return cases


def _matmul_cases(rng):
    cases = []
    for sa, sb in (((3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5)), ((4, 2), (2, 2))):
        a, b = rng.normal(0.0, 0.8, sa), rng.normal(0.0, 0.8, sb)
        w = rng.uniform(0.5, 1.5, sa[:-1] + (sb[-1],))
        cases.append((f"matmul{sa}x{sb}", [a, b],
                      lambda a, b, w=w: _wsum(ad.matmul(a, b), w)))
    return cases


_CONV = ((1, 1, 8, 1, 3, 1, 0), (2, 2, 10, 3, 3, 1, 1), (1, 3, 12, 2, 4, 2, 1),
         (2, 1, 9, 2, 3, 2, 0), (1, 2, 7, 2, 5, 1, 2), (2, 2, 8, 1, 2, 2, 0))
_TCONV = ((1, 1, 4, 1, 3, 1, 0), (2, 2, 5, 3, 3, 1, 1), (1, 3, 6, 2, 4, 2, 1),
          (2, 1, 5, 2, 3, 2, 0), (1, 2, 4, 2, 5, 1, 2), (2, 2, 6, 1, 4, 2, 1))


def _conv_cases(rng):
    cases = []
    for b, ci, length, co, k, s, p in _CONV:
        x = rng.normal(0.0, 0.7, (b, ci, length))
        kern = rng.normal(0.0, 0.5, (co, ci, k))
        lout = (length + 2 * p - k) // s + 1
        w = rng.uniform(0.5, 1.5, (b, co, lout))
        cases.append((f"conv1d k{k}s{s}p{p}", [x, kern],
                      lambda x, kern, s=s, p=p, w=w:
                          _wsum(ad.conv1d(x, kern, s, p), w)))
    for b, co, length, ci, k, s, p in _TCONV:
        x = rng.normal(0.0, 0.7, (b, co, length))
        kern = rng.normal(0.0, 0.5, (co, ci, k))
        lout = s * (length - 1) + k - 2 * p
        w = rng.uniform(0.5, 1.5, (b, ci, lout))
        cases.append((f"tconv1d k{k}s{s}p{p}", [x, kern],
                      lambda x, kern, s=s, p=p, w=w:
                          _wsum(ad.conv1d_transpose(x, kern, s, p), w)))
    return cases


def _norm_and_attention_cases(rng):
    cases = []
    for i in range(3):
        x = rng.normal(0.0, 1.0, (6, 4))
        gamma = rng.uniform(0.5, 1.5, 4)
        beta = rng.normal(0.0, 0.3, 4)
        w = rng.uniform(0.5, 1.5, (6, 4))
        cases.append((f"batch_norm#{i}", [x, gamma, beta],
                      lambda x, g, b, w=w: _wsum(ad.batch_norm(x, g, b)[0], w)))
    for i in range(2):
        x = rng.normal(0.0, 1.0, (5, 3))
        gamma = rng.uniform(0.5, 1.5, 3)
        beta = rng.normal(0.0, 0.3, 3)
        mean = rng.normal(0.0, 0.2, 3)
        var = rng.uniform(0.5, 1.5, 3)
        w = rng.uniform(0.5, 1.5, (5, 3))
        cases.append((f"batch_norm_inference#{i}", [x, gamma, beta],
                      lambda x, g, b, mean=mean, var=var, w=w:
                          _wsum(ad.batch_norm_inference(x, g, b, mean, var), w)))
    for q in (1, 2):
        x = rng.normal(0.0, 0.7, (2, 3, 5))
        wq = rng.normal(0.0, 0.5, (q, 3, 1))
        wk = rng.normal(0.0, 0.5, (q, 3, 1))
        wv = rng.normal(0.0, 0.5, (3, 3, 1))
        gate = np.asarray(0.4)
        w = rng.uniform(0.5, 1.5, (2, 3, 5))
        cases.append((f"attention q{q}", [x, wq, wk, wv, gate],
                      lambda x, a, b, c, g, w=w:
                          _wsum(ad.self_attention(x, a, b, c, g), w)))
    return cases


def _composite_cases(rng):
    a = rng.normal(0.0, 0.8, (3, 4))
    b = rng.normal(0.0, 0.8, (4, 5))
    d = rng.normal(0.0, 0.8, (5, 2))
    w = rng.uniform(0.5, 1.5, (3, 2))
    g = rng.normal(0.0, 0.8, (4, 6))
    return [
        ("dense chain", [a, b, d],
         lambda a, b, d, w=w:
             _wsum(ad.sigmoid(ad.matmul(ad.tanh(ad.matmul(a, b)), d)), w)),
        ("norm penalty chain", [g],
         lambda g: ad.tmean((ad.tsqrt(ad.tsum(g * g, axis=1)) - 1.0) ** 2)),
    ]


def _open_attention_gates(net):
    """Attention layers initialize as the identity (zero gate); open the
    gate so the q/k/v parameters carry nonzero gradients."""
    for name, p in net.parameters():
        if name.endswith("gamma_attn"):
            p.data = np.asarray(0.3)


def _spot_param_fd(params, value, rng, spots):
    """Screened finite differences at randomly chosen elements of each
    parameter tensor, against the .grad already left by a backward pass.
    Returns (worst, checked, skipped)."""
    worst, checked, skipped = 0.0, 0, 0
    for _, p in params:
        flat = p.data.reshape(-1)
        grad = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        for j in rng.choice(flat.size, size=min(spots, flat.size), replace=False):
            def at(offset, flat=flat, j=j):
                orig = flat[j]
                flat[j] = orig + offset
                try:
                    return value()
                finally:
                    flat[j] = orig

            fd = _screened_fd(at)
            if fd is None:
                skipped += 1
                continue
            checked += 1
            worst = max(worst, _rel_err(fd, grad[j]))
    return worst, checked, skipped


def _preset_param_fd(net, x_plain, w, rng, spots=2):
    """Spot finite differences on every parameter tensor of a network."""
    def value():
        with ad.no_grad():
            out = net.forward(ad.Tensor(x_plain), mode="train", update_stats=False)
            return float((out.data * w).sum())

    net.zero_grad()
    out = net.forward(ad.Tensor(x_plain), mode="train", update_stats=False)
    ad.backward(_wsum(out, w))
    return _spot_param_fd(net.parameters(), value, rng, spots)


def _gp_param_fd(critic, real, fake, gp_seed, rng, spots=2):
    """Spot finite differences of the gradient penalty with respect to
    critic parameters; exercises the double-backward path. Reseeding the
    interpolation draw makes every evaluation use the same u."""
    def value():
        gp, _ = losses.gradient_penalty(critic, real, fake, 10.0,
                                        np.random.default_rng(gp_seed))
        return gp.item()

    critic.zero_grad()
    gp, _ = losses.gradient_penalty(critic, real, fake, 10.0,
                                    np.random.default_rng(gp_seed))
    ad.backward(gp)
    return _spot_param_fd(critic.parameters(), value, rng, spots)


def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    cases = (_elementwise_cases(rng) + _shape_cases(rng) + _matmul_cases(rng)
             + _conv_cases(rng) + _norm_and_attention_cases(rng)
             + _composite_cases(rng))
    worst, worst_label, n_cfg = 0.0, "none", 0
    checked, skipped = 0, 0

    def absorb(result, label):
        nonlocal worst, worst_label, n_cfg, checked, skipped
        err, n_ok, n_skip = result
        n_cfg += 1
        checked += n_ok
        skipped += n_skip
        if err > worst:
            worst, worst_label = err, label

    for label, arrays, build in cases:
        absorb(_max_fd_error(build, [np.asarray(a, dtype=np.float64)
                                     for a in arrays]), label)

    for i, name in enumerate(ly.PRESET_NAMES):
        g_spec, d_spec = ly.preset(name, seq_len=32, latent_dim=8)
        gen, disc = ly.build(g_spec, 100 + i), ly.build(d_spec, 200 + i)
        _open_attention_gates(gen)
        _open_attention_gates(disc)
        z = rng.normal(0.0, 0.6, (2, 8))
        xr = rng.uniform(-0.8, 0.8, (2, 32))
        wg = rng.uniform(0.5, 1.5, (2, 32))
        wd = rng.uniform(0.5, 1.5, (2, 1))
        for net, xin, w, tag in ((gen, z, wg, "G"), (disc, xr, wd, "D")):
            absorb(_max_fd_error(
                lambda t, net=net, w=w:
                    _wsum(net.forward(t, mode="train", update_stats=False), w),
                [xin]), f"{name} {tag} input")
            absorb(_preset_param_fd(net, xin, w, rng), f"{name} {tag} params")

    g_spec, d_spec = ly.preset("wgan_gp", seq_len=32, latent_dim=8)
    critic = ly.build(d_spec, 314)
    real = rng.normal(0.0, 0.5, (4, 32))
    fake = rng.normal(0.0, 0.5, (4, 32))
    for gp_seed in (7, 8):
        absorb(_gp_param_fd(critic, real, fake, gp_seed, rng),
               f"gradient penalty (draw {gp_seed})")

    elapsed = time.perf_counter() - t0
    # the screen may only ever drop a sliver of points, so it cannot
    # hide a broken gradient wholesale
    attempted = checked + skipped
    ok = (worst < FD_TOL and n_cfg >= 100 and elapsed < 120.0
          and skipped <= 0.05 * attempted)
    _verdict(1, ok, f"{n_cfg} configurations (>=100), {checked} gradient "
             f"elements checked ({skipped} near activation boundaries "
             f"screened out), worst rel err {worst:.2e} at {worst_label} "
             f"(<1e-3), {elapsed:.1f}s (<120s)")


# ---------------------------------------------------------------------------
# criterion 2: optimizer oracle
# ---------------------------------------------------------------------------

def test_criterion_2_adam_oracle():
    theta = ad.Tensor(0.0, requires_grad=True)
    opt = optim.Adam(lr=0.05)
    steps_used = None
    for step in range(1, 501):
        theta.grad = None
        ad.backward(ad.powc(theta - 3.0, 2.0))
        opt.step([("theta", theta)])
        if abs(theta.item() - 3.0) < 1e-2:
            steps_used = step
            break

    # one step from theta=5 with gradient 1 at lr 1e-3 and betas 0.9 /
    # 0.999: bias correction gives m_hat = v_hat = 1, so the update is
    # -lr / (1 + eps), within 1e-9 of -0.001
    p = ad.Tensor(5.0, requires_grad=True)
    p.grad = np.asarray(1.0)
    optim.Adam(lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8).step([("p", p)])
    delta = p.item() - 5.0
    hand_err = abs(delta - (-0.001))

    ok = steps_used is not None and hand_err < 1e-9
    reached = f"after {steps_used} steps (<=500)" if steps_used else "not reached in 500 steps"
    _verdict(2, ok, f"|theta-3| < 1e-2 {reached}; one-step delta {delta:.12f}, "
             f"|delta+0.001| = {hand_err:.1e} (<1e-9)")


# ---------------------------------------------------------------------------
# criteria 3 and 4: toy-distribution training runs
# ---------------------------------------------------------------------------

_C3_ADAM = {"kind": "adam", "beta1": 0.5, "beta2": 0.999, "eps": 1e-8}


def _toy_dataset(seq_len, stride):
    values = np.random.default_rng(123).normal(0.0, 1.0, 2048)
    return md.normalize_and_window(values, seq_len, stride)


def test_criterion_3_toy_distribution_gan():
    t0 = time.perf_counter()
    ds = _toy_dataset(8, 4)
    outcomes = []
    for seed in range(5):
        cfg = tr.TrainConfig(gan_variant="mlp_gan", epochs=900, batch_size=128,
                             latent_dim=16, seq_len=8, seed=seed,
                             g_optimizer=dict(_C3_ADAM, lr=4e-4),
                             d_optimizer=dict(_C3_ADAM, lr=8e-4))
        state = tr.train(cfg, ds)
        values = tr.generate(state, 500, seed=900 + seed).reshape(-1) * ds.scale
        outcomes.append((seed, float(values.mean()), float(values.std())))
    good = [s for s, m, sd in outcomes if -0.15 <= m <= 0.15 and 0.8 <= sd <= 1.2]
    elapsed = time.perf_counter() - t0
    ok = len(good) >= 4 and elapsed < 600.0
    summary = ", ".join(f"seed {s}: mean {m:+.3f} std {sd:.3f}"
                        for s, m, sd in outcomes)
    _verdict(3, ok, f"{len(good)}/5 seeds with mean in [-0.15,0.15] and std in "
             f"[0.8,1.2] (need >=4); {summary}; {elapsed:.0f}s (<600s)")


def test_criterion_4_gradient_penalty_effectiveness():
    t0 = time.perf_counter()
    cfg = tr.TrainConfig(gan_variant="wgan_gp", epochs=300, batch_size=64,
                         latent_dim=16, seq_len=32, seed=0)
    state = tr.train(cfg, _toy_dataset(32, 4))
    final_epoch = max(rec.epoch for rec in state.history)
    d_steps = [rec.step for rec in state.history
               if rec.epoch == final_epoch and rec.phase == "d"]
    norm_by_step = dict(state.grad_norm_history)
    mean_norm = float(np.mean([norm_by_step[s] for s in d_steps]))
    max_gp = max(rec.gp_term for rec in state.history
                 if rec.epoch == final_epoch and rec.phase == "d")
    elapsed = time.perf_counter() - t0
    bound = 0.5 * cfg.gp_lambda
    ok = 0.7 <= mean_norm <= 1.3 and max_gp < bound
    _verdict(4, ok, f"final-epoch mean interpolate gradient norm {mean_norm:.4f} "
             f"(in [0.7,1.3]); max final-epoch gp_term {max_gp:.4f} (<{bound:.1f}); "
             f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: stylized-facts oracles and control processes
# ---------------------------------------------------------------------------

def _brute_acf(values, max_lag):
    n = len(values)
    mean = math.fsum(values) / n
    c = [v - mean for v in values]
    denom = math.fsum(x * x for x in c)
    return np.array([
        math.fsum(c[t] * c[t + tau] for t in range(n - tau)) / denom
        for tau in range(1, max_lag + 1)
    ])


def _brute_moments(values):
    n = len(values)
    mean = math.fsum(values) / n
    d = [v - mean for v in values]
    m2 = math.fsum(x * x for x in d) / n
    m3 = math.fsum(x ** 3 for x in d) / n
    m4 = math.fsum(x ** 4 for x in d) / n
    return mean, math.sqrt(m2), m3 / m2 ** 1.5, m4 / m2 ** 2 - 3.0


def _brute_ks(a, b):
    best = 0.0
    for x in list(a) + list(b):
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        best = max(best, abs(fa - fb))
    return best


def _brute_w1(a, b):
    a, b = sorted(a), sorted(b)
    m = min(len(a), len(b))
    return math.fsum(abs(x - y) for x, y in zip(a[:m], b[:m])) / m


def _brute_leverage(values, max_lag):
    out = []
    for tau in range(1, max_lag + 1):
        x = list(values[:-tau])
        y = [v ** 2 for v in values[tau:]]
        mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
        dx = [v - mx for v in x]
        dy = [v - my for v in y]
        sx = math.sqrt(math.fsum(v * v for v in dx) / len(dx))
        sy = math.sqrt(math.fsum(v * v for v in dy) / len(dy))
        cov = math.fsum(p * q for p, q in zip(dx, dy)) / len(dx)
        out.append(cov / (sx * sy))
    return np.array(out)


def _ar1(phi, n, seed):
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, 1.0, size=n)
    values = np.empty(n)
    values[0] = eps[0]
    for t in range(1, n):
        values[t] = phi * values[t - 1] + eps[t]
    return values


def test_criterion_5_stylized_facts_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    x = rng.normal(0.0, 1.0, 400)
    diffs = []

    diffs.append(np.max(np.abs(sf.acf(x, 25) - _brute_acf(x, 25))))
    m = sf.moments(x)
    bm = _brute_moments(x)
    diffs.extend(abs(a - b) / max(abs(b), 1e-300) for a, b in
                 zip((m.mean, m.std, m.skewness, m.excess_kurtosis), bm))
    rho_abs, summary = sf.volatility_clustering_score(x, 20, 10)
    brute_rho_abs = _brute_acf(np.abs(x), 20)
    diffs.append(np.max(np.abs(rho_abs - brute_rho_abs)))
    diffs.append(abs(summary - brute_rho_abs[:10].mean()))
    band = 2.0 / math.sqrt(len(x))
    brute_lin = float((np.abs(_brute_acf(x, 20)) < band).mean())
    # the score evaluate reports; scales short enough for 400 values
    rep_x = sf.evaluate(x, x, sf.FactThresholds(aggregational_scales=(1, 5)))
    diffs.append(abs(rep_x.linear_score - brute_lin))
    a2 = rng.normal(0.0, 1.0, 120)
    b2 = rng.standard_t(5, 90)
    diffs.append(abs(sf.ks_statistic(a2, b2) - _brute_ks(a2, b2)))
    diffs.append(abs(sf.wasserstein1(a2, b2) - _brute_w1(a2, b2)))
    diffs.append(np.max(np.abs(sf.leverage_effect_score(x, 5) - _brute_leverage(x, 5))))
    oracle_worst = float(max(diffs))

    white = np.random.default_rng(7).normal(0.0, 1.0, 4000)
    ref = np.random.default_rng(8).normal(0.0, 1.0, 4000)
    rep_white = sf.evaluate(white, ref)
    rep_ar1 = sf.evaluate(_ar1(0.9, 4000, seed=3), white)
    t4 = np.random.default_rng(11).standard_t(4, 4000)
    rep_t4 = sf.evaluate(t4, white)
    profile = sf.aggregational_gaussianity_profile(t4)

    controls = {
        "white noise passes linear_unpredictability":
            rep_white.verdicts["linear_unpredictability"] is True,
        "white noise fails volatility_clustering":
            rep_white.verdicts["volatility_clustering"] is False,
        "AR(1) phi=0.9 fails linear_unpredictability":
            rep_ar1.verdicts["linear_unpredictability"] is False,
        "Student-t(4) passes heavy_tails":
            rep_t4.verdicts["heavy_tails"] is True,
        # t(4) has no finite population kurtosis, so sampled profiles
        # fluctuate at large scales; decreasing means every aggregated
        # scale sits below the base scale and the verdict agrees
        "Student-t(4) kurtosis profile decreases":
            bool(np.all(profile[1:] < profile[0]))
            and rep_t4.verdicts["aggregational_gaussianity"] is True,
    }
    failed = [name for name, passed in controls.items() if not passed]
    elapsed = time.perf_counter() - t0
    ok = oracle_worst <= ORACLE_TOL and not failed and elapsed < 60.0
    control_note = "all controls correct" if not failed else "failed: " + ", ".join(failed)
    _verdict(5, ok, f"brute-force oracle worst diff {oracle_worst:.2e} (<=1e-12); "
             f"{control_note}; t(4) profile {np.round(profile, 2).tolist()}; "
             f"{elapsed:.1f}s (<60s)")


# ---------------------------------------------------------------------------
# criterion 6: bundled fixture signs and frozen regressions
# ---------------------------------------------------------------------------

def test_criterion_6_fixture_reproduction():
    r = md.load_return_series(md.fixture_path()).values
    m = sf.moments(r)
    rho_abs, vol_summary = sf.volatility_clustering_score(r)
    lev = sf.leverage_effect_score(r, 3)
    profile = sf.aggregational_gaussianity_profile(r)
    report = sf.evaluate(r, r)
    lin = report.linear_score

    frozen = [
        (m.mean, 8.101158578085222e-05),
        (m.std, 0.011467365483225342),
        (m.skewness, -0.4318957085612606),
        (m.excess_kurtosis, 6.952836714687821),
        (lin, 0.95),
        (rho_abs[0], 0.18859567120511728),
        (vol_summary, 0.1557787962640313),
        (lev[0], -0.06167431835873018),
        (lev[1], -0.061684588708381026),
        (lev[2], -0.023944525940928794),
        (profile[0], 6.952836714687821),
        (profile[1], 2.9671105256259356),
        (profile[2], 2.255466457264573),
        (profile[3], 0.9534664897248635),
    ]
    reg_worst = max(abs(got - want) / abs(want) for got, want in frozen)

    signs_ok = (m.n == 5029 and m.skewness < 0.0 and m.excess_kurtosis > 3.0
                and report.verdicts["linear_unpredictability"]
                and report.verdicts["volatility_clustering"])
    ok = signs_ok and reg_worst <= 1e-12
    _verdict(6, ok, f"n={m.n}, skewness {m.skewness:.4f} (<0), excess kurtosis "
             f"{m.excess_kurtosis:.4f} (>3), linear_unpredictability score {lin} "
             f"(pass), volatility summary {vol_summary:.4f} (pass); "
             f"14 frozen regressions worst rel err {reg_worst:.2e} (<=1e-12)")


# ---------------------------------------------------------------------------
# criterion 7: fixture-scale training (smoke always, full opt-in)
# ---------------------------------------------------------------------------

def _fixture_gan_dataset():
    r = md.load_return_series(md.fixture_path()).values
    return md.normalize_and_window(r, 127, 12)


def test_criterion_7_smoke():
    t0 = time.perf_counter()
    ds = _fixture_gan_dataset()
    cfg = tr.TrainConfig(gan_variant="dcgan1d", epochs=100, batch_size=32,
                         latent_dim=100, seq_len=127, seed=0)
    state = tr.train(cfg, ds)
    values = tr.generate(state, 500, seed=7000).reshape(-1) * ds.scale
    in_range = float(np.mean((values >= -0.15) & (values <= 0.15)))
    mean = float(values.mean())
    elapsed = time.perf_counter() - t0
    ok = in_range >= 0.99 and abs(mean) < 0.01 and elapsed < 300.0
    _verdict(7, ok, f"smoke variant (100 epochs, seed 0): {100 * in_range:.2f}% "
             f"of generated values in [-0.15,0.15] (>=99%), mean {mean:+.5f} "
             f"(|mean|<0.01), {elapsed:.0f}s (<300s)")


@pytest.mark.full
@pytest.mark.skipif(os.environ.get("MARKETGAN_FULL") != "1",
                    reason="1000-epoch five-seed run (~40 min); set MARKETGAN_FULL=1")
def test_criterion_7_full():
    t0 = time.perf_counter()
    ds = _fixture_gan_dataset()
    reference = md.load_return_series(md.fixture_path()).values
    outcomes = []
    for seed in range(5):
        cfg = tr.TrainConfig(gan_variant="dcgan1d", epochs=1000, batch_size=32,
                             latent_dim=100, seq_len=127, seed=seed)
        state = tr.train(cfg, ds)
        values = tr.generate(state, 500, seed=7000 + seed).reshape(-1) * ds.scale
        report = sf.evaluate(values, reference)
        outcomes.append({
            "seed": seed,
            "in_range": float(np.mean((values >= -0.15) & (values <= 0.15))),
            "mean": float(values.mean()),
            "gain_loss": report.verdicts["gain_loss_asymmetry"],
            "heavy_tails": report.verdicts["heavy_tails"],
        })
    documented = outcomes[0]
    verdict_passes = sum(1 for o in outcomes if o["gain_loss"] and o["heavy_tails"])
    elapsed = time.perf_counter() - t0
    ok = (documented["in_range"] >= 0.99 and abs(documented["mean"]) < 0.01
          and verdict_passes >= 3 and elapsed < 3600.0)
    summary = "; ".join(
        f"seed {o['seed']}: range {100 * o['in_range']:.1f}% mean {o['mean']:+.4f}"
        f" gain_loss {'pass' if o['gain_loss'] else 'FAIL'}"
        f" heavy_tails {'pass' if o['heavy_tails'] else 'FAIL'}"
        for o in outcomes)
    _verdict(7, ok, f"full variant (1000 epochs): documented seed 0 has "
             f"{100 * documented['in_range']:.2f}% in [-0.15,0.15] and mean "
             f"{documented['mean']:+.5f}; gain_loss+heavy_tails pass on "
             f"{verdict_passes}/5 seeds (need >=3); {summary}; "
             f"{elapsed:.0f}s (<3600s)")


# ---------------------------------------------------------------------------
# criterion 8: determinism and persistence through the command line
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    data = tmp_path / "returns.csv"
    md.write_returns_csv(data, np.random.default_rng(0).normal(0.0, 0.02, 2000))
    base = ["--variant", "mlp_gan", "--batch-size", "16", "--seq-len", "8",
            "--latent-dim", "4", "--seed", "11", "--window-stride", "8"]

    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--data", str(data), "--out", str(run_a),
                 "--epochs", "3"] + base) == 0
    assert main(["train", "--data", str(data), "--out", str(run_b),
                 "--epochs", "3"] + base) == 0
    same_ckpt = ((run_a / "checkpoint.json").read_bytes()
                 == (run_b / "checkpoint.json").read_bytes())
    same_losses = ((run_a / "losses.csv").read_bytes()
                   == (run_b / "losses.csv").read_bytes())

    gen1, gen2 = tmp_path / "g1", tmp_path / "g2"
    gen_args = ["generate", "--checkpoint", str(run_a / "checkpoint.json"),
                "--n", "2000", "--seed", "3"]
    assert main(gen_args + ["--out", str(gen1)]) == 0
    assert main(gen_args + ["--out", str(gen2)]) == 0
    same_gen = ((gen1 / "generated.csv").read_bytes()
                == (gen2 / "generated.csv").read_bytes())

    ev1, ev2 = tmp_path / "e1", tmp_path / "e2"
    ev_args = ["evaluate", "--candidate", str(gen1 / "generated.csv"),
               "--reference", str(data)]
    assert main(ev_args + ["--out", str(ev1)]) == 0
    assert main(ev_args + ["--out", str(ev2)]) == 0
    same_report = ((ev1 / "report.json").read_bytes()
                   == (ev2 / "report.json").read_bytes())

    straight = tmp_path / "straight"
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["train", "--data", str(data), "--out", str(straight),
                 "--epochs", "5"] + base) == 0
    assert main(["train", "--data", str(data), "--out", str(first),
                 "--epochs", "3"] + base) == 0
    assert main(["train", "--resume", str(first / "checkpoint.json"),
                 "--data", str(data), "--out", str(second), "--epochs", "5",
                 "--window-stride", "8"]) == 0
    same_resume = ((straight / "checkpoint.json").read_bytes()
                   == (second / "checkpoint.json").read_bytes())

    ok = same_ckpt and same_losses and same_gen and same_report and same_resume
    _verdict(8, ok, f"rerun byte-identity: checkpoint {same_ckpt}, losses CSV "
             f"{same_losses}, generated CSV {same_gen}, report JSON {same_report}; "
             f"resume at epoch 3 of 5 matches the uninterrupted run: {same_resume}")
