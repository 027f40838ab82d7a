"""GAN objectives: hand values, gradient direction, and the penalty path."""

import math

import numpy as np
import pytest

import marketgan.autodiff as ad
import marketgan.layers as ly
import marketgan.losses as losses
from marketgan.autodiff import Tensor


class TestMinimaxLosses:
    def test_equilibrium_value_is_2_log_2(self):
        half = Tensor(np.full(8, 0.5))
        loss = losses.minimax_d_loss(half, half)
        assert loss.item() == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_d_loss_hand_value(self):
        # -log(0.8) - log(1 - 0.3)
        loss = losses.minimax_d_loss(Tensor([0.8]), Tensor([0.3]))
        assert loss.item() == pytest.approx(-math.log(0.8) - math.log(0.7), abs=1e-9)

    def test_perfect_discriminator_loss_is_tiny(self):
        loss = losses.minimax_d_loss(Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
        assert 0.0 <= loss.item() < 1e-5

    def test_clamp_keeps_saturated_scores_finite(self):
        loss = losses.minimax_d_loss(Tensor([0.0]), Tensor([1.0]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(-2.0 * math.log(losses.EPS_LOG), rel=1e-6)

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError, match="d_real"):
            losses.minimax_d_loss(Tensor([1.2]), Tensor([0.5]))
        with pytest.raises(ValueError, match="d_fake"):
            losses.minimax_d_loss(Tensor([0.5]), Tensor([-0.1]))

    def test_g_loss_variants_hand_values(self):
        pf = Tensor([0.25])
        sat = losses.minimax_g_loss(pf, "saturating")
        non_sat = losses.minimax_g_loss(pf, "non_saturating")
        assert sat.item() == pytest.approx(math.log(0.75), abs=1e-12)
        assert non_sat.item() == pytest.approx(-math.log(0.25), abs=1e-12)
        with pytest.raises(ValueError):
            losses.minimax_g_loss(pf, "hinge")

    def test_non_saturating_gradient_stays_alive(self):
        """When the discriminator wins (d_fake ~ 0) the saturating loss has a
        vanishing gradient but the non-saturating one does not."""
        p = Tensor([1e-6], requires_grad=True)
        ad.backward(losses.minimax_g_loss(p, "saturating"))
        saturating_slope = abs(float(p.grad[0]))
        p2 = Tensor([1e-6], requires_grad=True)
        ad.backward(losses.minimax_g_loss(p2, "non_saturating"))
        alive_slope = abs(float(p2.grad[0]))
        assert saturating_slope < 1.01
        assert alive_slope > 1e5

    def test_d_loss_gradient_signs(self):
        pr = Tensor([0.6], requires_grad=True)
        pf = Tensor([0.4], requires_grad=True)
        ad.backward(losses.minimax_d_loss(pr, pf))
        assert float(pr.grad[0]) < 0   # pushing d_real up lowers the loss
        assert float(pf.grad[0]) > 0   # pushing d_fake down lowers the loss


class TestWassersteinLosses:
    def test_hand_values(self):
        c_real = Tensor([2.0, 4.0])
        c_fake = Tensor([1.0, -3.0])
        critic_loss, g_loss = losses.wasserstein_losses(c_real, c_fake)
        assert critic_loss.item() == pytest.approx(-1.0 - 3.0, abs=1e-12)
        assert g_loss.item() == pytest.approx(1.0, abs=1e-12)

    def test_unbounded_scores_allowed(self):
        critic_loss, _ = losses.wasserstein_losses(Tensor([1e6]), Tensor([-1e6]))
        assert critic_loss.item() == pytest.approx(-2e6)

    def test_gradients_oppose_each_other(self):
        c_fake = Tensor([0.5, -0.5], requires_grad=True)
        critic_loss, g_loss = losses.wasserstein_losses(Tensor([1.0, 1.0]), c_fake)
        (g1,) = ad.grad(critic_loss, [c_fake])
        (g2,) = ad.grad(g_loss, [c_fake])
        np.testing.assert_allclose(g1.data, -g2.data, atol=1e-15)


class LinearCritic:
    """critic(x) = sum(w * x) per sample; gradient norm is ||w|| exactly."""

    def __init__(self, w):
        self.w = Tensor(np.asarray(w, dtype=np.float64), requires_grad=True)

    def forward(self, x, mode="train", update_stats=False):
        return ad.matmul(x, ad.reshape(self.w, (self.w.size, 1)))


class TestGradientPenalty:
    def test_linear_critic_hand_value(self):
        # ||grad critic|| = ||w|| = 5 for every interpolate, so
        # gp = lam * (5 - 1)^2 regardless of the random interpolation
        critic = LinearCritic([3.0, 4.0])
        rng = np.random.default_rng(0)
        real = rng.standard_normal((6, 2))
        fake = rng.standard_normal((6, 2))
        gp, mean_norm = losses.gradient_penalty(critic, real, fake, lam=10.0,
                                                interpolation_rng=rng)
        assert mean_norm == pytest.approx(5.0, abs=1e-12)
        assert gp.item() == pytest.approx(10.0 * 16.0, abs=1e-9)

    def test_unit_norm_critic_gives_zero_penalty(self):
        critic = LinearCritic([0.6, 0.8])
        rng = np.random.default_rng(1)
        gp, mean_norm = losses.gradient_penalty(
            critic, rng.standard_normal((4, 2)), rng.standard_normal((4, 2)),
            lam=10.0, interpolation_rng=rng)
        assert mean_norm == pytest.approx(1.0, abs=1e-12)
        assert gp.item() == pytest.approx(0.0, abs=1e-12)

    def test_penalty_gradient_reaches_critic_weights(self):
        # gp(w) = lam * (|w| - 1)^2 for a scalar critic, so
        # d gp / d w = 2 * lam * (w - 1) at w > 0
        critic = LinearCritic([2.0])
        rng = np.random.default_rng(2)
        gp, _ = losses.gradient_penalty(
            critic, rng.standard_normal((5, 1)), rng.standard_normal((5, 1)),
            lam=10.0, interpolation_rng=rng)
        ad.backward(gp)
        assert critic.w.grad == pytest.approx(2.0 * 10.0 * (2.0 - 1.0), abs=1e-9)

    def test_interpolates_lie_between_real_and_fake(self):
        captured = {}

        class Probe:
            def forward(self, x, mode="train", update_stats=False):
                captured["x"] = x.data.copy()
                return ad.tsum(x, axis=1)

        real = np.zeros((8, 3))
        fake = np.ones((8, 3))
        losses.gradient_penalty(Probe(), real, fake, lam=1.0,
                                interpolation_rng=np.random.default_rng(3))
        x = captured["x"]
        assert ((x >= 0.0) & (x <= 1.0)).all()
        # one shared u per sample: within a row all entries agree
        np.testing.assert_allclose(x, np.broadcast_to(x[:, :1], x.shape), atol=1e-15)
        assert len(np.unique(x[:, 0])) > 1

    def test_seeded_interpolation_is_deterministic(self):
        critic = LinearCritic([1.5, -0.5])
        rng = np.random.default_rng(9)
        real = rng.standard_normal((4, 2))
        fake = rng.standard_normal((4, 2))
        gp1, n1 = losses.gradient_penalty(critic, real, fake,
                                          interpolation_rng=np.random.default_rng(42))
        gp2, n2 = losses.gradient_penalty(critic, real, fake,
                                          interpolation_rng=np.random.default_rng(42))
        assert gp1.item() == gp2.item()
        assert n1 == n2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            losses.gradient_penalty(LinearCritic([1.0]), np.zeros((3, 1)),
                                    np.zeros((4, 1)))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            losses.gradient_penalty(LinearCritic([1.0]), np.zeros((3, 1)),
                                    np.zeros((3, 1)), lam=-1.0)

    def test_through_real_critic_network(self):
        """The penalty differentiates through conv layers and pushes the
        critic's interpolate gradient norms toward one."""
        _, critic_spec = ly.preset("wgan_gp", seq_len=32, latent_dim=8)
        critic = ly.build(critic_spec, 5)
        rng = np.random.default_rng(11)
        real = rng.standard_normal((4, 32)) * 0.1
        fake = rng.standard_normal((4, 32)) * 0.1
        gp, mean_norm = losses.gradient_penalty(critic, real, fake, lam=10.0,
                                                interpolation_rng=rng)
        assert gp.item() >= 0.0
        assert mean_norm > 0.0
        ad.backward(gp)
        grads = [p.grad for _, p in critic.parameters() if p.grad is not None]
        assert any(np.abs(g).sum() > 0 for g in grads)
