"""Layer specs, shape inference, presets, parameter init and serialization."""

import numpy as np
import pytest

import marketgan.autodiff as ad
import marketgan.layers as ly
from conftest import check_gradients


def tiny_generator_spec():
    """A miniature conv generator: 3 latent dims -> 8 outputs."""
    return ly.NetworkSpec([
        ly.Dense(3, 2 * 4),
        ly.Reshape((2, 4)),
        ly.BatchNorm(2),
        ly.Activation("relu"),
        ly.Conv1dTranspose(2, 1, 4, stride=2, padding=1),
        ly.Activation("tanh"),
        ly.Reshape((8,)),
    ], (3,), "generator")


def tiny_discriminator_spec():
    return ly.NetworkSpec([
        ly.Reshape((1, 8)),
        ly.Conv1d(1, 2, 4, stride=2, padding=1),
        ly.Activation("leaky_relu", alpha=0.2),
        ly.Reshape((2 * 4,)),
        ly.Dense(8, 1),
        ly.Activation("sigmoid"),
    ], (8,), "discriminator")


class TestLayerSpec:
    def test_constructors_fill_fields(self):
        d = ly.Dense(4, 7)
        assert (d.kind, d.in_features, d.out_features) == ("dense", 4, 7)
        c = ly.Conv1d(1, 16, 4, stride=2, padding=1)
        assert (c.in_channels, c.out_channels, c.kernel_size, c.stride, c.padding) \
            == (1, 16, 4, 2, 1)
        a = ly.Activation("leaky_relu", alpha=0.3)
        assert (a.kind, a.fn, a.alpha) == ("activation", "leaky_relu", 0.3)
        r = ly.Reshape((2, 3))
        assert (r.kind, r.shape) == ("reshape", (2, 3))

    def test_roundtrip_through_dict(self):
        for layer in [ly.Dense(2, 3), ly.Conv1d(1, 4, 3, 2, 1),
                      ly.Conv1dTranspose(4, 2, 5, 2, 1), ly.BatchNorm(6),
                      *(ly.Activation(fn) for fn in ad._ACTIVATIONS),
                      ly.Activation("leaky_relu", alpha=0.5), ly.self_attention(8),
                      ly.Reshape((2, 2))]:
            again = ly.LayerSpec.from_dict(layer.to_dict())
            assert again == layer

    def test_unknown_kind_rejected(self):
        with pytest.raises(ly.BuildError, match="dropout"):
            ly.LayerSpec.from_dict({"kind": "dropout"})

    @pytest.mark.parametrize("make, field", [
        (lambda: ly.Conv1dTranspose(2, 1, 4, stride=0), "stride"),
        (lambda: ly.Conv1dTranspose(2, 1, 0), "kernel_size"),
        (lambda: ly.build(ly.NetworkSpec(
            [ly.Reshape((2, 2, 2)), ly.BatchNorm(2), ly.Reshape((8,)), ly.Activation("tanh")],
            (8,), "generator"), 0), r"layer 1 \(batch_norm\)"),
        (lambda: ly.Reshape((-2, -4)), "shape"),
        (lambda: ly.Conv1d(1, 0, 3), "out_channels"),
        (lambda: ly.LayerSpec.from_dict(
            {"kind": "dense", "in_features": 2, "out_features": 3, "kernel_size": 3}),
         "kernel_size"),
        (lambda: ly.Activation("tanh", alpha=0.5), "alpha"),
        (lambda: ly.LayerSpec.from_dict({"kind": "activation", "fn": "relu", "alpha": 0.1}),
         "alpha"),
        (lambda: ly.self_attention(8, -3), "query_channels"),
    ], ids=["transpose_stride_0", "transpose_kernel_0", "batch_norm_3d",
            "negative_reshape", "conv_0_out_channels", "dense_foreign_field",
            "tanh_with_alpha", "relu_with_alpha_in_dict", "attention_negative_query"])
    def test_invalid_layer_rejected_before_forward(self, make, field):
        with pytest.raises(ly.BuildError, match=field):
            make()


class TestShapeInference:
    def test_shapes_through_tiny_generator(self):
        shapes = ly.infer_shapes(tiny_generator_spec())
        assert shapes == [(8,), (2, 4), (2, 4), (2, 4), (1, 8), (1, 8), (8,)]

    def test_shapes_through_tiny_discriminator(self):
        shapes = ly.infer_shapes(tiny_discriminator_spec())
        assert shapes == [(1, 8), (2, 4), (2, 4), (8,), (1,), (1,)]

    def test_validate_returns_output_shape(self):
        assert ly.validate(tiny_generator_spec()) == (8,)
        assert ly.validate(tiny_discriminator_spec()) == (1,)

    def test_channel_mismatch_names_layer(self):
        spec = ly.NetworkSpec([
            ly.Reshape((2, 8)),
            ly.Conv1d(3, 4, 3, padding=1),    # wrong in_channels
            ly.Activation("sigmoid"),
        ], (16,), "discriminator")
        with pytest.raises(ly.BuildError, match=r"layer 1 \(conv1d\)"):
            ly.validate(spec)

    def test_dense_on_3d_input_rejected(self):
        spec = ly.NetworkSpec([
            ly.Reshape((2, 8)),
            ly.Dense(16, 1),
            ly.Activation("sigmoid"),
        ], (16,), "discriminator")
        with pytest.raises(ly.BuildError):
            ly.validate(spec)

    def test_reshape_size_mismatch_rejected(self):
        spec = ly.NetworkSpec([ly.Reshape((3, 5)), ly.Activation("tanh")], (16,), "generator")
        with pytest.raises(ly.BuildError, match="layer 0"):
            ly.validate(spec)

    def test_head_rules(self):
        body = [ly.Dense(4, 1)]
        ok = {"generator": "tanh", "discriminator": "sigmoid", "critic": "linear"}
        for role, fn in ok.items():
            ly.validate(ly.NetworkSpec(body + [ly.Activation(fn)], (4,), role))
        for role, fn in [("discriminator", "linear"), ("critic", "sigmoid"),
                         ("generator", "relu")]:
            with pytest.raises(ly.BuildError):
                ly.validate(ly.NetworkSpec(body + [ly.Activation(fn)], (4,), role))

    def test_generator_head_rule_sees_through_reshape(self):
        # the closing reshape after tanh must not hide the head activation
        ly.validate(tiny_generator_spec())

    def test_batch_norm_feature_mismatch(self):
        spec = ly.NetworkSpec([ly.Dense(4, 6), ly.BatchNorm(5), ly.Activation("tanh")],
                              (4,), "generator")
        with pytest.raises(ly.BuildError, match="layer 1"):
            ly.validate(spec)


class TestPlanConvLengths:
    def test_length_127(self):
        lengths, kernels = ly.plan_conv_lengths(127)
        assert lengths == (15, 31, 63, 127)
        assert kernels == (5, 5, 5)

    def test_length_64(self):
        lengths, kernels = ly.plan_conv_lengths(64)
        assert lengths == (8, 16, 32, 64)
        assert kernels == (4, 4, 4)

    def test_too_short_raises(self):
        with pytest.raises(ly.BuildError):
            ly.plan_conv_lengths(8)

    @pytest.mark.parametrize("seq_len", [32, 40, 63, 64, 100, 127, 255])
    def test_schedule_is_conv_exact(self, seq_len):
        """Each planned step must be exact for the downsampling conv and for
        the transposed conv going back up."""
        lengths, kernels = ly.plan_conv_lengths(seq_len)
        for i, k in enumerate(kernels):
            shorter, longer = lengths[i], lengths[i + 1]
            assert ad.conv_output_length(longer, k, 2, 1) == shorter
            assert ad.conv_transpose_output_length(shorter, k, 2, 1) == longer


class TestPresets:
    # frozen regression values; the mlp numbers check out by hand:
    # G 12928 + 33024 + 65792 + 32639, D 32768 + 65792 + 32896 + 129
    EXPECTED_COUNTS = {
        "mlp_gan": (144383, 131585),
        "dcgan1d": (110113, 14145),
        "wgan_gp": (110113, 13953),
        "sagan1d": (110434, 15426),
    }

    @pytest.mark.parametrize("name", ly.PRESET_NAMES)
    def test_param_counts_frozen(self, name):
        g_spec, d_spec = ly.preset(name, seq_len=127, latent_dim=100)
        assert (ly.param_count(g_spec), ly.param_count(d_spec)) \
            == self.EXPECTED_COUNTS[name]

    @pytest.mark.parametrize("name", ly.PRESET_NAMES)
    def test_preset_validates_and_runs(self, name):
        g_spec, d_spec = ly.preset(name, seq_len=32, latent_dim=7)
        assert ly.validate(g_spec) == (32,)
        assert ly.validate(d_spec) == (1,)
        g = ly.build(g_spec, 1)
        d = ly.build(d_spec, 2)
        z = ad.Tensor(np.random.default_rng(0).uniform(-1, 1, size=(4, 7)))
        with ad.no_grad():
            fake = g.forward(z, mode="train")
            score = d.forward(fake, mode="train")
        assert fake.shape == (4, 32)
        assert (np.abs(fake.data) <= 1.0).all()
        assert score.shape == (4, 1)
        if d_spec.role == "discriminator":
            assert ((score.data > 0) & (score.data < 1)).all()

    def test_roles(self):
        assert ly.preset("wgan_gp")[1].role == "critic"
        assert ly.preset("dcgan1d")[1].role == "discriminator"

    def test_wgan_critic_has_no_batch_norm(self):
        _, critic = ly.preset("wgan_gp")
        assert all(layer.kind != "batch_norm" for layer in critic.layers)

    def test_sagan_has_attention_in_both(self):
        g_spec, d_spec = ly.preset("sagan1d")
        assert any(layer.kind == "self_attention" for layer in g_spec.layers)
        assert any(layer.kind == "self_attention" for layer in d_spec.layers)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            ly.preset("stylegan")

    def test_spec_roundtrip_through_dict(self):
        for name in ly.PRESET_NAMES:
            for spec in ly.preset(name, seq_len=64, latent_dim=10):
                again = ly.NetworkSpec.from_dict(spec.to_dict())
                assert again == spec


class TestBuildAndInit:
    def test_same_seed_same_params(self):
        spec = tiny_generator_spec()
        a = ly.build(spec, 42)
        b = ly.build(spec, 42)
        for (name_a, pa), (name_b, pb) in zip(a.parameters(), b.parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_weights(self):
        spec = tiny_generator_spec()
        a = ly.build(spec, 1)
        b = ly.build(spec, 2)
        assert any(not np.array_equal(pa.data, pb.data)
                   for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()))

    def test_init_statistics(self):
        g_spec, _ = ly.preset("mlp_gan", seq_len=64, latent_dim=100)
        net = ly.build(g_spec, 3)
        weights = np.concatenate([p.data.reshape(-1)
                                  for name, p in net.parameters()
                                  if name.endswith("weight")])
        assert abs(weights.mean()) < 0.002
        assert abs(weights.std() - ly.INIT_STD) < 0.002
        for name, p in net.parameters():
            if name.endswith("bias"):
                assert (p.data == 0).all()

    def test_batch_norm_and_attention_init(self):
        spec = ly.NetworkSpec([
            ly.Reshape((1, 8)),
            ly.Conv1d(1, 4, 3, padding=1),
            ly.BatchNorm(4),
            ly.Activation("leaky_relu"),
            ly.self_attention(4),
            ly.Reshape((32,)),
            ly.Dense(32, 1),
            ly.Activation("sigmoid"),
        ], (8,), "discriminator")
        net = ly.build(spec, 0)
        assert (net.params["2.gamma"].data == 1).all()
        assert (net.params["2.beta"].data == 0).all()
        assert (net.params["4.gamma_attn"].data == 0).all()
        np.testing.assert_array_equal(net.running[2]["mean"], np.zeros(4))
        np.testing.assert_array_equal(net.running[2]["var"], np.ones(4))

    def test_all_params_require_grad(self):
        net = ly.build(tiny_generator_spec(), 0)
        assert all(p.requires_grad for _, p in net.parameters())


class TestForward:
    def test_input_shape_check(self):
        net = ly.build(tiny_generator_spec(), 0)
        with pytest.raises(ad.ShapeError):
            net.forward(ad.Tensor(np.zeros((4, 5))))

    def test_mode_check(self):
        net = ly.build(tiny_generator_spec(), 0)
        with pytest.raises(ValueError):
            net.forward(ad.Tensor(np.zeros((4, 3))), mode="test")

    def test_batch_norm_train_uses_batch_stats(self, rng):
        spec = ly.NetworkSpec([ly.BatchNorm(3), ly.Activation("tanh")], (3,), "generator")
        net = ly.build(spec, 0)
        x = rng.standard_normal((64, 3)) * 4.0 + 1.0
        with ad.no_grad():
            out = net.forward(ad.Tensor(x), mode="train")
        inner = np.arctanh(out.data)
        np.testing.assert_allclose(inner.mean(axis=0), 0.0, atol=1e-10)

    def test_batch_norm_running_stat_update_rule(self, rng):
        spec = ly.NetworkSpec([ly.BatchNorm(3), ly.Activation("tanh")], (3,), "generator")
        net = ly.build(spec, 0)
        x = rng.standard_normal((32, 3)) + 2.0
        with ad.no_grad():
            net.forward(ad.Tensor(x), mode="train", update_stats=True)
        expected_mean = ly.BN_MOMENTUM * 0.0 + (1 - ly.BN_MOMENTUM) * x.mean(axis=0)
        expected_var = ly.BN_MOMENTUM * 1.0 + (1 - ly.BN_MOMENTUM) * x.var(axis=0)
        np.testing.assert_allclose(net.running[0]["mean"], expected_mean)
        np.testing.assert_allclose(net.running[0]["var"], expected_var)

    def test_batch_norm_stats_frozen_when_asked(self, rng):
        spec = ly.NetworkSpec([ly.BatchNorm(3), ly.Activation("tanh")], (3,), "generator")
        net = ly.build(spec, 0)
        x = rng.standard_normal((32, 3)) + 2.0
        with ad.no_grad():
            net.forward(ad.Tensor(x), mode="train", update_stats=False)
        np.testing.assert_array_equal(net.running[0]["mean"], np.zeros(3))
        np.testing.assert_array_equal(net.running[0]["var"], np.ones(3))

    def test_batch_norm_eval_uses_running_stats(self, rng):
        spec = ly.NetworkSpec([ly.BatchNorm(2), ly.Activation("tanh")], (2,), "generator")
        net = ly.build(spec, 0)
        net.running[0]["mean"] = np.array([1.0, -1.0])
        net.running[0]["var"] = np.array([4.0, 0.25])
        x = np.array([[1.0, -1.0], [3.0, 0.0]])
        with ad.no_grad():
            out = net.forward(ad.Tensor(x), mode="eval")
        expected = np.tanh((x - [1.0, -1.0]) / np.sqrt(np.array([4.0, 0.25]) + ly.BN_EPS))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_batch_norm_3d_normalizes_per_channel(self, rng):
        spec = ly.NetworkSpec([
            ly.Reshape((2, 6)),
            ly.BatchNorm(2),
            ly.Activation("tanh"),
            ly.Reshape((12,)),
        ], (12,), "generator")
        net = ly.build(spec, 0)
        x = rng.standard_normal((16, 12)) * 3.0
        with ad.no_grad():
            out = net.forward(ad.Tensor(x), mode="train")
        inner = np.arctanh(out.data.reshape(16, 2, 6))
        # per channel, mean over batch and positions is zero
        np.testing.assert_allclose(inner.mean(axis=(0, 2)), 0.0, atol=1e-10)
        assert net.running[1]["mean"].shape == (2,)

    def test_attention_gate_starts_as_identity(self, rng):
        x = ad.Tensor(rng.standard_normal((2, 3, 4)))
        wq = ad.Tensor(rng.standard_normal((1, 3, 1)))
        wk = ad.Tensor(rng.standard_normal((1, 3, 1)))
        wv = ad.Tensor(rng.standard_normal((3, 3, 1)))
        with ad.no_grad():
            gated_off = ad.self_attention(x, wq, wk, wv, ad.Tensor(0.0))
            gated_on = ad.self_attention(x, wq, wk, wv, ad.Tensor(1.0))
        np.testing.assert_array_equal(gated_off.data, x.data)
        assert not np.array_equal(gated_on.data, x.data)

    def test_forward_deterministic(self, rng):
        net = ly.build(tiny_discriminator_spec(), 5)
        x = ad.Tensor(rng.standard_normal((6, 8)))
        with ad.no_grad():
            a = net.forward(x, mode="train").data
            b = net.forward(x, mode="train", update_stats=False).data
        np.testing.assert_array_equal(a, b)


class TestNetworkGradients:
    def test_tiny_generator_end_to_end(self, rng):
        net = ly.build(tiny_generator_spec(), 11)
        z = rng.uniform(-1, 1, size=(5, 3))
        names = [name for name, _ in net.parameters()]
        arrays = [p.data.copy() for _, p in net.parameters()]

        def build(*tensors):
            for name, t in zip(names, tensors):
                net.params[name] = t
            out = net.forward(ad.Tensor(z), mode="train", update_stats=False)
            return (out * out).sum()

        check_gradients(build, arrays)

    def test_tiny_discriminator_end_to_end(self, rng):
        net = ly.build(tiny_discriminator_spec(), 13)
        x = rng.standard_normal((5, 8)) * 0.5
        names = [name for name, _ in net.parameters()]
        arrays = [p.data.copy() for _, p in net.parameters()]

        def build(*tensors):
            for name, t in zip(names, tensors):
                net.params[name] = t
            out = net.forward(ad.Tensor(x), mode="train", update_stats=False)
            return (out * out).sum()

        check_gradients(build, arrays)

    def test_attention_gradients(self, rng):
        x = rng.standard_normal((2, 3, 4))
        wq = rng.standard_normal((1, 3, 1)) * 0.5
        wk = rng.standard_normal((1, 3, 1)) * 0.5
        wv = rng.standard_normal((3, 3, 1)) * 0.5
        gamma = np.array(0.7)

        def build(tx, tq, tk, tv, tg):
            return (ad.self_attention(tx, tq, tk, tv, tg) ** 2).sum()

        check_gradients(build, [x, wq, wk, wv, gamma])

    def test_attention_mixing_weights_sum_to_one(self, rng):
        x = ad.Tensor(rng.standard_normal((2, 3, 5)))
        wq = ad.Tensor(rng.standard_normal((1, 3, 1)))
        wk = ad.Tensor(rng.standard_normal((1, 3, 1)))
        with ad.no_grad():
            q = ad.conv1d(x, wq)
            k = ad.conv1d(x, wk)
            attn = ad.softmax(ad.matmul(ad.transpose_last(q), k), axis=1)
        np.testing.assert_allclose(attn.data.sum(axis=1), 1.0, atol=1e-12)


class TestSerialization:
    def test_state_dict_roundtrip_bit_exact(self, rng):
        spec = ly.NetworkSpec([
            ly.Reshape((1, 8)),
            ly.Conv1d(1, 3, 4, stride=2, padding=1),
            ly.BatchNorm(3),
            ly.Activation("leaky_relu"),
            ly.Reshape((12,)),
            ly.Dense(12, 1),
            ly.Activation("sigmoid"),
        ], (8,), "discriminator")
        net = ly.build(spec, 21)
        with ad.no_grad():
            net.forward(ad.Tensor(rng.standard_normal((16, 8))), mode="train")
        clone = ly.Network.from_state_dict(net.state_dict())
        for (name_a, pa), (name_b, pb) in zip(net.parameters(), clone.parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)
        np.testing.assert_array_equal(net.running[2]["mean"], clone.running[2]["mean"])
        np.testing.assert_array_equal(net.running[2]["var"], clone.running[2]["var"])
        x = ad.Tensor(rng.standard_normal((4, 8)))
        with ad.no_grad():
            np.testing.assert_array_equal(net.forward(x, mode="eval").data,
                                          clone.forward(x, mode="eval").data)

    def test_state_dict_is_json_compatible(self):
        import json
        net = ly.build(tiny_generator_spec(), 1)
        doc = json.loads(json.dumps(net.state_dict()))
        clone = ly.Network.from_state_dict(doc)
        for (_, pa), (_, pb) in zip(net.parameters(), clone.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_corrupt_state_rejected(self):
        net = ly.build(tiny_generator_spec(), 1)
        state = net.state_dict()
        state["params"]["99.weight"] = state["params"]["0.weight"]
        with pytest.raises(ly.BuildError):
            ly.Network.from_state_dict(state)


class TestNoiseSource:
    def test_deterministic_per_seed(self):
        a = ly.NoiseSource("uniform", 5, 9).sample(4).data
        b = ly.NoiseSource("uniform", 5, 9).sample(4).data
        np.testing.assert_array_equal(a, b)

    def test_uniform_range_and_shape(self):
        z = ly.NoiseSource("uniform", 10, 0).sample(100).data
        assert z.shape == (100, 10)
        assert (np.abs(z) < 1.0).all()

    def test_normal_distribution(self):
        z = ly.NoiseSource("standard_normal", 50, 0).sample(200).data
        assert abs(z.mean()) < 0.05
        assert abs(z.std() - 1.0) < 0.05

    def test_state_roundtrip_continues_stream(self):
        src = ly.NoiseSource("uniform", 3, 4)
        src.sample(2)
        saved = src.rng.bit_generator.state
        expected = src.sample(2).data
        src2 = ly.NoiseSource("uniform", 3, 0)
        src2.rng.bit_generator.state = saved
        np.testing.assert_array_equal(src2.sample(2).data, expected)

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            ly.NoiseSource("laplace", 3, 0)
