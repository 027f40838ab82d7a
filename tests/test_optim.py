"""SGD and Adam update rules against hand-computed oracles."""

import numpy as np
import pytest

import marketgan.autodiff as ad
import marketgan.optim as optim
from marketgan.autodiff import Tensor


def param(value, grad=None):
    p = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    if grad is not None:
        p.grad = np.asarray(grad, dtype=np.float64)
    return p


class TestSGD:
    def test_hand_step(self):
        p = param(5.0, grad=2.0)
        optim.SGD(lr=0.1).step([("theta", p)])
        assert p.data == pytest.approx(4.8, abs=1e-15)

    def test_zero_gradient_leaves_parameters(self):
        p = param([1.0, -2.0], grad=[0.0, 0.0])
        optim.SGD(lr=0.5).step([("theta", p)])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            optim.SGD(lr=0.0)

    def test_state_roundtrip(self):
        # SGD keeps no state, so a checkpoint load rebuilds it from the config
        opt = optim.make_optimizer({"kind": "sgd", "lr": 0.3})
        assert isinstance(opt, optim.SGD) and opt.lr == 0.3
        assert optim.make_optimizer({"kind": "sgd"}).lr == optim.ADAM_LR


class TestAdamHandOracle:
    def test_single_step_moves_by_minus_lr(self):
        # g=1, lr=0.001, beta1=0.9, beta2=0.999: bias correction gives
        # m_hat = v_hat = 1, so the step is -lr / (1 + eps)
        p = param(0.0, grad=1.0)
        opt = optim.Adam(lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step([("theta", p)])
        assert abs(float(p.data) - (-0.001)) < 1e-9
        assert opt.t == 1

    def test_single_step_exact_value(self):
        p = param(0.0, grad=1.0)
        opt = optim.Adam(lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step([("theta", p)])
        assert float(p.data) == pytest.approx(-0.001 / (1.0 + 1e-8), abs=1e-18)

    def test_two_steps_match_manual_recurrence(self):
        grads = [0.7, -1.3]
        lr, b1, b2, eps = 0.01, 0.5, 0.999, 1e-8
        p = param(2.0)
        opt = optim.Adam(lr=lr, beta1=b1, beta2=b2, eps=eps)
        theta, m, v = 2.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            p.grad = np.asarray(g)
            opt.step([("theta", p)])
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert float(p.data) == pytest.approx(theta, abs=1e-15)

    def test_zero_gradient_leaves_parameters(self):
        p = param([3.0], grad=[0.0])
        optim.Adam().step([("theta", p)])
        np.testing.assert_array_equal(p.data, [3.0])

    def test_first_step_bounded_by_lr_over_one_minus_beta1(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = rng.standard_normal(5) * 10.0 ** rng.integers(-3, 4)
            p = param(np.zeros(5), grad=g)
            lr = 0.05
            optim.Adam(lr=lr, beta1=0.5).step([("theta", p)])
            moved = np.abs(p.data)
            assert (moved <= lr / (1 - 0.5) + 1e-12).all()


class TestAdamConvergence:
    def test_quadratic_reaches_minimum_within_500_steps(self):
        theta = param(0.0)
        opt = optim.Adam(lr=0.05)
        for step in range(1, 501):
            x = Tensor(theta.data, requires_grad=True)
            loss = (x - 3.0) ** 2
            ad.backward(ad.tsum(loss))
            theta.grad = x.grad
            opt.step([("theta", theta)])
            theta.grad = None
            if abs(float(theta.data) - 3.0) < 1e-2:
                break
        assert abs(float(theta.data) - 3.0) < 1e-2
        assert step <= 500

    def test_determinism(self):
        def run():
            p = param(np.zeros(3))
            opt = optim.Adam(lr=0.01)
            rng = np.random.default_rng(7)
            for _ in range(50):
                p.grad = rng.standard_normal(3)
                opt.step([("w", p)])
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())


class TestGradientValidation:
    def test_missing_gradient_names_parameter(self):
        p = param(1.0)
        with pytest.raises(optim.GradientError, match="conv.kernel"):
            optim.Adam().step([("conv.kernel", p)])

    def test_non_finite_gradient_names_parameter(self):
        p = param(1.0, grad=np.nan)
        with pytest.raises(ad.NonFiniteError, match="w0"):
            optim.Adam().step([("w0", p)])

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            optim.Adam(lr=-1.0)
        with pytest.raises(ValueError):
            optim.Adam(beta1=1.0)
        with pytest.raises(ValueError):
            optim.Adam(beta2=-0.1)
        with pytest.raises(ValueError):
            optim.Adam(eps=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                optim.Adam(lr=bad)
            with pytest.raises(ValueError):
                optim.Adam(eps=bad)
            with pytest.raises(ValueError):
                optim.SGD(lr=bad)


class TestSerialization:
    def test_make_optimizer_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            optim.make_optimizer({"kind": "rmsprop"})

    def test_make_optimizer_defaults(self):
        opt = optim.make_optimizer({})
        assert isinstance(opt, optim.Adam)
        assert opt.lr == optim.ADAM_LR
        assert opt.beta1 == optim.ADAM_BETA1
