"""Tensor, recording and operator tests, anchored by finite differences."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import marketgan.autodiff as ad
import marketgan.layers as ly
from conftest import bits, check_gradients, numerical_grad


class TestTensorBasics:
    def test_construction_coerces_to_float64(self):
        t = ad.Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)
        assert not t.requires_grad

    def test_scalar_item(self):
        assert ad.Tensor(2.5).item() == 2.5

    def test_non_finite_construction_rejected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.Tensor([1.0, np.nan])
        with pytest.raises(ad.NonFiniteError):
            ad.Tensor(np.inf)

    def test_operator_sugar_matches_functions(self):
        x = ad.Tensor([2.0, 3.0])
        np.testing.assert_allclose((x + 1.0).data, [3.0, 4.0])
        np.testing.assert_allclose((1.0 - x).data, [-1.0, -2.0])
        np.testing.assert_allclose((x * 2.0).data, [4.0, 6.0])
        np.testing.assert_allclose((x / 2.0).data, [1.0, 1.5])
        np.testing.assert_allclose((-x).data, [-2.0, -3.0])
        np.testing.assert_allclose((x ** 2).data, [4.0, 9.0])

    def test_repr_mentions_shape_and_grad_flag(self):
        assert "shape=(2,)" in repr(ad.Tensor([1.0, 2.0]))
        assert "requires_grad=True" in repr(ad.Tensor([1.0], requires_grad=True))


class TestTapeSemantics:
    def test_backward_populates_leaf_grads_only(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        loss = ad.tsum(y)
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])
        assert y.grad is None

    def test_backward_consumes_recording(self):
        x = ad.Tensor([1.0], requires_grad=True)
        loss = ad.tsum(x * x)
        ad.backward(loss)
        with pytest.raises(ad.TapeError):
            ad.backward(loss)

    def test_grad_over_consumed_recording_raises(self):
        x = ad.Tensor([1.0], requires_grad=True)
        loss = ad.tsum(x * x)
        ad.backward(loss)
        with pytest.raises(ad.TapeError):
            ad.grad(loss, [x])

    def test_backward_of_shared_subgraph_consumed(self):
        x = ad.Tensor([1.0], requires_grad=True)
        y = x * 2.0
        loss_a = ad.tsum(y * y)
        loss_b = ad.tsum(y * 3.0)
        ad.backward(loss_a)
        with pytest.raises(ad.TapeError):
            ad.backward(loss_b)

    def test_grads_accumulate_across_fresh_graphs(self):
        x = ad.Tensor([1.0], requires_grad=True)
        ad.backward(ad.tsum(x * x))
        ad.backward(ad.tsum(x * x))
        np.testing.assert_allclose(x.grad, [4.0])
        x.grad = None  # cleared, the next backward starts afresh
        ad.backward(ad.tsum(x * x))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_backward_requires_scalar(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(x * x)

    def test_backward_requires_recorded_tensor(self):
        with pytest.raises(ad.TapeError):
            ad.backward(ad.Tensor(1.0, requires_grad=True))

    def test_no_grad_blocks_recording(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            y = ad.tsum(x * x)
        assert y._node is None
        assert not y.requires_grad

    def test_no_grad_restores_on_exit(self):
        x = ad.Tensor([1.0], requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert (x * x)._node is None     # the inner exit keeps it off
        assert (x * x)._node is not None

    def test_grad_does_not_consume(self):
        x = ad.Tensor([3.0], requires_grad=True)
        loss = ad.tsum(x * x)
        (g1,) = ad.grad(loss, [x])
        (g2,) = ad.grad(loss, [x])
        np.testing.assert_allclose(g1.data, [6.0])
        np.testing.assert_allclose(g2.data, [6.0])
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_grad_returns_zeros_for_unreached_inputs(self):
        x = ad.Tensor([1.0], requires_grad=True)
        other = ad.Tensor([5.0, 6.0], requires_grad=True)
        (g,) = ad.grad(ad.tsum(x * x), [other])
        np.testing.assert_array_equal(g.data, [0.0, 0.0])

    def test_constant_inputs_get_no_grad(self):
        x = ad.Tensor([1.0], requires_grad=True)
        c = ad.Tensor([2.0])
        loss = ad.tsum(x * c)
        ad.backward(loss)
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [2.0])


class TestSweepPruning:
    """The reverse sweep forms only gradients that lead to its targets."""

    @staticmethod
    def recorded_ops(monkeypatch):
        ops = []
        record = ad._record

        def spy(op, *args):
            ops.append(op)
            return record(op, *args)

        monkeypatch.setattr(ad, "_record", spy)
        return ops

    def test_input_gradient_through_conv_records_no_kernel_gradient(
            self, rng, monkeypatch):
        x = ad.Tensor(rng.standard_normal((2, 3, 9)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
        out = ad.tsum(ad.leaky_relu(ad.conv1d(x, w, stride=2, padding=1)))
        ops = self.recorded_ops(monkeypatch)
        (gx,) = ad.grad(out, [x], create_graph=True)
        assert "conv1d_kgrad" not in ops
        assert "conv1d_transpose" in ops
        monkeypatch.undo()
        (gx_ref, _) = ad.grad(out, [x, w])
        np.testing.assert_array_equal(gx.data, gx_ref.data)

    def test_gradient_with_respect_to_intermediate(self):
        x = ad.Tensor([1.0, -2.0, 3.0], requires_grad=True)
        h = x * x
        loss = ad.tsum(h * 3.0 + x * h)
        gh, gx = ad.grad(loss, [h, x])
        np.testing.assert_array_equal(gh.data, 3.0 + x.data)
        np.testing.assert_allclose(gx.data, 6.0 * x.data + 3.0 * x.data ** 2)
        # asking for the intermediate alone stops the sweep at it
        (gh_only,) = ad.grad(loss, [h])
        np.testing.assert_array_equal(gh_only.data, gh.data)

    def test_requested_input_without_requires_grad_gets_zeros(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        c = ad.Tensor([5.0, 7.0])
        gc_, gx = ad.grad(ad.tsum(x * c), [c, x])
        np.testing.assert_array_equal(gc_.data, [0.0, 0.0])
        np.testing.assert_array_equal(gx.data, [5.0, 7.0])

    @pytest.mark.parametrize("sweep", ["grad", "backward"])
    def test_sweep_does_not_pin_intermediates(self, sweep):
        # the four ops whose gradient reads their own output, freed without
        # the cycle collector: backward even with loss kept, grad once the
        # caller drops the graph
        for op in (ad.texp, ad.tsqrt, ad.tanh, ad.sigmoid):
            x = ad.Tensor(np.arange(1.0, 5.0), requires_grad=True)
            h = op(x)
            freed = weakref.ref(h.data)
            loss = ad.tsum(h * h)
            gc.disable()
            try:
                if sweep == "grad":
                    ad.grad(loss, [x])
                else:
                    ad.backward(loss)
                del h
                if sweep == "grad":
                    del loss
                assert freed() is None, op.__name__
            finally:
                gc.enable()


def _traced_peak(fn) -> int:
    """Bytes that tracemalloc saw allocated at once during fn(), beyond
    what was already allocated when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSweepMemory:
    """The sweep lets go of each intermediate gradient once it is used."""

    MIB = 1 << 20

    @staticmethod
    def chain(x, links):
        # three elementwise ops per link, each forming a new gradient array
        outs = []
        for _ in range(links):
            x = ad.tanh(x * 0.5 + 0.25)
            outs.append(x)
        return outs

    def test_backward_holds_a_few_gradients_at_once(self):
        x = ad.Tensor(np.linspace(-2.0, 2.0, self.MIB // 8), requires_grad=True)
        loss = ad.tsum(self.chain(x, 10)[-1])
        peak = _traced_peak(lambda: ad.backward(loss))
        # the leaf's .grad, the gradient in flight and tanh's temporaries;
        # keeping every gradient until the sweep ends took over 20 MiB
        assert peak < 6 * self.MIB, peak / self.MIB
        assert x.grad.shape == x.shape

    def test_grad_keeps_what_it_was_asked_for(self):
        x = ad.Tensor(np.linspace(-2.0, 2.0, 64), requires_grad=True)
        outs = self.chain(x, 10)
        loss = ad.tsum(outs[-1])
        g_mid, g_loss, g_x = ad.grad(loss, [outs[4], loss, x])
        np.testing.assert_array_equal(g_loss.data, 1.0)
        # tanh's closure multiplies by 1 - out * out, add passes the
        # gradient on, mul by 0.5 multiplies it: the same numpy steps
        expect = np.ones(x.shape)
        for out in reversed(outs[5:]):
            expect = expect * (1.0 - out.data * out.data) * 0.5
        np.testing.assert_array_equal(g_mid.data, expect)
        (g_x_alone,) = ad.grad(loss, [x])
        np.testing.assert_array_equal(g_x.data, g_x_alone.data)


class TestDoubleBackward:
    def test_second_derivative_of_cube(self):
        x = ad.Tensor([2.0], requires_grad=True)
        y = ad.tsum(x ** 3)
        (g,) = ad.grad(y, [x], create_graph=True)
        (gg,) = ad.grad(ad.tsum(g), [x])
        np.testing.assert_allclose(g.data, [12.0])
        np.testing.assert_allclose(gg.data, [12.0])

    def test_penalty_style_gradient_flows_to_weights(self):
        # critic(x) = w x; d/dx = w, penalty (w - 1)^2, d(penalty)/dw = 2(w - 1)
        w = ad.Tensor(np.array([[3.0]]), requires_grad=True)
        x = ad.Tensor(np.array([[1.7]]), requires_grad=True)
        score = ad.tsum(ad.matmul(x, ad.transpose_last(w)))
        (gx,) = ad.grad(score, [x], create_graph=True)
        penalty = ad.tsum((gx - 1.0) ** 2)
        ad.backward(penalty)
        np.testing.assert_allclose(w.grad, [[4.0]])

    def test_double_backward_through_conv(self, rng):
        x = ad.Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
        out = ad.conv1d(x, w, stride=2, padding=1)
        loss = ad.tsum(out * out)
        (gx,) = ad.grad(loss, [x], create_graph=True)
        (gw,) = ad.grad(ad.tsum(gx * gx), [w])
        assert gw.data.shape == w.shape
        assert np.abs(gw.data).sum() > 0


class TestNonFiniteDetection:
    def test_log_of_negative(self):
        with pytest.raises(ad.NonFiniteError):
            ad.tlog(ad.Tensor([-1.0]))

    def test_division_by_zero(self):
        with pytest.raises(ad.NonFiniteError):
            ad.div(ad.Tensor([1.0]), ad.Tensor([0.0]))

    def test_exp_overflow(self):
        with pytest.raises(ad.NonFiniteError):
            ad.texp(ad.Tensor([1000.0]))

    def test_sqrt_of_negative(self):
        with pytest.raises(ad.NonFiniteError):
            ad.tsqrt(ad.Tensor([-4.0]))

    def test_error_names_the_op(self):
        with pytest.raises(ad.NonFiniteError, match="log"):
            ad.tlog(ad.Tensor([0.0]))


class TestNonFiniteInSweep:
    """A value that is finite going forward can overflow in the reverse
    sweep: y = 1 / b at b = 1e-200 is 1e200, but dy/db = -1e400 is -inf.
    The sweep must still raise, whichever check catches it."""

    @staticmethod
    def overflowing_loss():
        b = ad.Tensor([1e-200], requires_grad=True)
        return ad.tsum(ad.div(1.0, b)), b

    def test_backward_raises(self):
        y, b = self.overflowing_loss()
        with pytest.raises(ad.NonFiniteError):
            ad.backward(y)
        assert b.grad is None

    @pytest.mark.parametrize("create_graph", [False, True])
    def test_grad_raises(self, create_graph):
        y, b = self.overflowing_loss()
        with pytest.raises(ad.NonFiniteError):
            ad.grad(y, [b], create_graph=create_graph)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflow_times_relu_zero_mask_raises(self):
        # the -inf gradient of 1 / (relu(c) + d) meets relu's zero mask at
        # c < 0: -inf * 0 is NaN, not 0
        c = ad.Tensor([-1.0], requires_grad=True)
        y = ad.tsum(ad.div(1.0, ad.add(ad.relu(c), 1e-200)))
        with pytest.raises(ad.NonFiniteError):
            ad.backward(y)

    def test_forward_checks_resume_after_a_failed_sweep(self):
        y, _ = self.overflowing_loss()
        with pytest.raises(ad.NonFiniteError):
            ad.backward(y)
        with pytest.raises(ad.NonFiniteError, match="log"):
            ad.tlog(ad.Tensor([0.0]))

    def test_backward_screens_only_leaf_gradients(self, monkeypatch, rng):
        # one screen per leaf gradient, none per op the sweep runs
        x = ad.Tensor(rng.normal(size=(4, 3)))
        w1 = ad.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b1 = ad.Tensor(np.zeros(5), requires_grad=True)
        w2 = ad.Tensor(rng.normal(size=(1, 5)), requires_grad=True)
        b2 = ad.Tensor(np.zeros(1), requires_grad=True)
        loss = ad.tmean(ad.sigmoid(ad.linear(ad.tanh(ad.linear(x, w1, b1)), w2, b2)))
        screened = []
        real = ad._check_finite

        def counting(arr, op):
            if not ad._SWEEPING:
                screened.append(op)
            real(arr, op)

        monkeypatch.setattr(ad, "_check_finite", counting)
        ad.backward(loss)
        assert screened == ["backward"] * 4


class TestForwardScreening:
    """Forward ops screen their output only where a non-finite value can
    be born; the ops of _FINITE_PRESERVING keep finite inputs finite."""

    def test_finite_preserving_set(self):
        assert ad._FINITE_PRESERVING == frozenset({
            "neg", "clip", "reshape", "transpose", "broadcast_to",
            "relu", "leaky_relu", "tanh", "sigmoid", "softmax"})

    def test_eval_forward_screens_only_ops_that_can_overflow(self, monkeypatch):
        # the twin of test_backward_screens_only_leaf_gradients for the
        # generate path: no mask is built, the reshapes, relus and tanh are
        # not screened, and each batch norm is folded into the layer before
        # it by ops on parameter-sized arrays, all folds before the first
        # layer runs: frozen_batch_norm's constants, scale = gamma * inv and
        # (bias - mean) * scale + beta, then weight * scale
        gen = ly.build(ly.preset("wgan_gp")[0], init_seed=5)
        z = ad.Tensor(np.random.default_rng(5).uniform(-1.0, 1.0, (4, 100)))
        screened = []
        real = ad._check_finite

        def counting(arr, op):
            screened.append(op)
            real(arr, op)

        monkeypatch.setattr(ad, "_check_finite", counting)
        with ad.no_grad():
            gen.forward(z, mode="eval")
        fold = ["tensor construction", "mul", "tensor construction", "sub", "mul", "add",
                "mul"]
        assert screened == fold * 3 + ["linear"] + ["conv1d_transpose", "add"] * 3


_EXTREMES = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324,
             2.2250738585072014e-308, -1e-310, 0.0, -0.0]


def _sums_finitely(a):
    with np.errstate(over="ignore"):
        return bool(np.isfinite(a.sum()))


# arrays a Tensor accepts: finite, and with a sum that does not overflow
_finite_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=3),
    elements=st.one_of(st.sampled_from(_EXTREMES),
                       st.floats(allow_nan=False, allow_infinity=False)),
).filter(_sums_finitely)

_finite = st.floats(allow_nan=False, allow_infinity=False)

# each finite-preserving op, by its recorded name, as f(x, draw)
_FINITE_PRESERVING_OPS = {
    "neg": lambda x, draw: ad.neg(x),
    "clip": lambda x, draw: ad.clip(x, *sorted(draw(st.lists(_finite, min_size=2, max_size=2,
                                                              unique=True)))),
    "reshape": lambda x, draw: ad.reshape(x, (x.size,)),
    "transpose": lambda x, draw: ad.transpose_last(x),
    "broadcast_to": lambda x, draw: ad.broadcast_to(x, (2,) + x.shape),
    "relu": lambda x, draw: ad.relu(x),
    "leaky_relu": lambda x, draw: ad.leaky_relu(
        x, draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))),
    "tanh": lambda x, draw: ad.tanh(x),
    "sigmoid": lambda x, draw: ad.sigmoid(x),
    "softmax": lambda x, draw: ad.softmax(x, draw(st.integers(-x.ndim, x.ndim - 1))),
}


# softmax lets x - max overflow to -inf on purpose: that entry weighs 0
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_FINITE_PRESERVING_OPS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_finite_preserving_ops_keep_finite_inputs_finite(name, data):
    assert name in ad._FINITE_PRESERVING
    x = ad.Tensor(data.draw(_finite_arrays), requires_grad=True)
    out = _FINITE_PRESERVING_OPS[name](x, data.draw)
    assert out._node.op == name
    assert np.isfinite(out.data).all()


ELEMENTWISE_CASES = [
    ("add", lambda a, b: ad.tsum(ad.add(a, b)), 2, (3, 4), None),
    ("add_broadcast", lambda a, b: ad.tsum(ad.add(a, b)), 2, (3, 4), (4,)),
    ("add_broadcast_col", lambda a, b: ad.tsum(ad.add(a, b)), 2, (3, 4), (3, 1)),
    ("sub", lambda a, b: ad.tsum(ad.sub(a, b)), 2, (2, 5), None),
    ("mul", lambda a, b: ad.tsum(ad.mul(a, b)), 2, (4, 3), None),
    ("mul_broadcast", lambda a, b: ad.tsum(ad.mul(a, b)), 2, (4, 3), (1, 3)),
    ("div", lambda a, b: ad.tsum(ad.div(a, b)), 2, (3, 3), None),
    ("neg", lambda a: ad.tsum(ad.neg(a)), 1, (6,), None),
    ("pow2", lambda a: ad.tsum(ad.powc(a, 2)), 1, (5,), None),
    ("pow3", lambda a: ad.tsum(ad.powc(a, 3)), 1, (5,), None),
    ("exp", lambda a: ad.tsum(ad.texp(a)), 1, (4, 2), None),
    ("tanh", lambda a: ad.tsum(ad.tanh(a)), 1, (7,), None),
    ("sigmoid", lambda a: ad.tsum(ad.sigmoid(a)), 1, (7,), None),
    ("relu", lambda a: ad.tsum(ad.relu(a)), 1, (9,), None),
    ("leaky_relu", lambda a: ad.tsum(ad.leaky_relu(a, 0.2)), 1, (9,), None),
    ("reshape", lambda a: ad.tsum(ad.reshape(a, (2, 6)) ** 2), 1, (3, 4), None),
    ("transpose", lambda a: ad.tsum(ad.transpose_last(a) ** 2), 1, (3, 4), None),
    ("broadcast_to", lambda a: ad.tsum(ad.broadcast_to(a, (5, 3)) ** 2), 1, (1, 3), None),
    ("sum_axis0", lambda a: ad.tsum(ad.tsum(a, axis=0) ** 2), 1, (4, 3), None),
    ("sum_keepdims", lambda a: ad.tsum(ad.tsum(a, axis=1, keepdims=True) ** 2), 1, (4, 3), None),
    ("mean", lambda a: ad.tsum(ad.tmean(a, axis=0) ** 2), 1, (5, 2), None),
    ("mean_all", lambda a: ad.tmean(a) * 3.0, 1, (5, 2), None),
    ("softmax", lambda a: ad.tsum(ad.softmax(a, axis=1) ** 2), 1, (3, 5), None),
    ("softmax_axis0", lambda a: ad.tsum(ad.softmax(a, axis=0) ** 2), 1, (4, 3), None),
    ("matmul", lambda a, b: ad.tsum(ad.matmul(a, b)), 2, (3, 4), (4, 2)),
    ("matmul_batched", lambda a, b: ad.tsum(ad.matmul(a, b) ** 2), 2, (2, 3, 4), (2, 4, 5)),
]


@pytest.mark.parametrize("name,build,arity,shape_a,shape_b",
                         ELEMENTWISE_CASES, ids=[c[0] for c in ELEMENTWISE_CASES])
def test_op_gradients_match_finite_differences(name, build, arity, shape_a,
                                               shape_b, rng):
    a = rng.standard_normal(shape_a)
    if name == "div":
        b = rng.standard_normal(shape_b or shape_a) + 3.0
        arrays = [a, b]
    elif name.startswith(("relu", "leaky_relu")):
        a = a + np.sign(a) * 0.05        # keep away from the kink
        arrays = [a]
    elif arity == 2:
        arrays = [a, rng.standard_normal(shape_b or shape_a)]
    else:
        arrays = [a]
    check_gradients(build, arrays)


def test_log_and_sqrt_gradients(rng):
    a = rng.uniform(0.5, 3.0, size=(6,))
    check_gradients(lambda t: ad.tsum(ad.tlog(t)), [a])
    check_gradients(lambda t: ad.tsum(ad.tsqrt(t)), [a])


def test_clip_gradient_masks_out_of_range(rng):
    a = np.array([-2.0, -0.3, 0.4, 2.5])
    t = ad.Tensor(a, requires_grad=True)
    loss = ad.tsum(ad.clip(t, -1.0, 1.0) * ad.Tensor([1.0, 2.0, 3.0, 4.0]))
    ad.backward(loss)
    np.testing.assert_allclose(t.grad, [0.0, 2.0, 3.0, 0.0])


def test_activation_dispatch(rng):
    x = ad.Tensor(rng.standard_normal(5))
    np.testing.assert_allclose(ad.activation(x, "relu").data, ad.relu(x).data)
    np.testing.assert_allclose(ad.activation(x, "tanh").data, ad.tanh(x).data)
    np.testing.assert_allclose(ad.activation(x, "sigmoid").data, ad.sigmoid(x).data)
    np.testing.assert_allclose(ad.activation(x, "leaky_relu", 0.1).data,
                               ad.leaky_relu(x, 0.1).data)
    np.testing.assert_allclose(ad.activation(x, "linear").data, x.data)
    with pytest.raises(ValueError):
        ad.activation(x, "swish")


@settings(max_examples=60, deadline=None)
@given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                    elements=st.floats(-1e100, 1e100, allow_subnormal=True)
                    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
       alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
       | st.sampled_from([5e-324, 1e-300, 0.2, 1.0 - 2.0 ** -53]))
def test_leaky_relu_matches_where_bit_for_bit(x, alpha):
    t = ad.Tensor(x, requires_grad=True)
    out = ad.leaky_relu(t, alpha)
    # d(sum)/dx multiplies a gradient of exact ones by the slope
    (slope,) = ad.grad(ad.tsum(out), [t])
    np.testing.assert_array_equal(bits(out.data), bits(np.where(x > 0, x, alpha * x)))
    np.testing.assert_array_equal(bits(slope.data), bits(np.where(x > 0, 1.0, alpha)))


@settings(max_examples=80, deadline=None)
@given(batch=st.integers(1, 3), channels=st.integers(1, 4),
       length=st.integers(1, 20), k=st.integers(1, 6), stride=st.integers(1, 4),
       padding=st.integers(0, 3), contiguous=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_conv_windows_match_pad_and_sliding_view(batch, channels, length, k, stride,
                                                 padding, contiguous, seed):
    if length + 2 * padding < k:
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, channels, length))
    if not contiguous:
        x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    padded = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    ref = np.lib.stride_tricks.sliding_window_view(padded, k, axis=2)[:, :, ::stride, :]
    got = ad._conv1d_windows(x, k, stride, padding)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(bits(got), bits(ref))


def test_sigmoid_is_stable_for_large_inputs():
    out = ad.sigmoid(ad.Tensor([-500.0, 500.0]))
    assert 0.0 <= out.data[0] < 1e-100
    assert out.data[1] == pytest.approx(1.0)


def test_softmax_columns_sum_to_one(rng):
    x = ad.Tensor(rng.standard_normal((4, 6)) * 5)
    for axis in (0, 1, -1):
        s = ad.softmax(x, axis=axis)
        np.testing.assert_allclose(s.data.sum(axis=axis), 1.0, atol=1e-12)
        assert (s.data > 0).all()


def test_matmul_shape_errors():
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))))
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros((3, 2))))


def test_broadcast_grad_shapes(rng):
    a = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((4,)), requires_grad=True)
    ad.backward(ad.tsum(ad.mul(a, b)))
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    np.testing.assert_allclose(b.grad, a.data.sum(axis=0))


# ---------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------

def conv1d_brute(x, w, stride, padding):
    """Direct triple-loop cross-correlation, the oracle for conv1d."""
    b, cin, length = x.shape
    cout, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    lo = (length + 2 * padding - k) // stride + 1
    out = np.zeros((b, cout, lo))
    for bi in range(b):
        for co in range(cout):
            for t in range(lo):
                start = t * stride
                out[bi, co, t] = (xp[bi, :, start: start + k] * w[co]).sum()
    return out


CONV_GRID = [(1, 1, 1, 5, 3, 1, 0), (2, 3, 4, 8, 3, 1, 1), (2, 2, 3, 9, 4, 2, 1),
             (1, 4, 2, 12, 5, 3, 2), (3, 1, 5, 7, 2, 2, 0), (2, 3, 3, 15, 4, 2, 1),
             (1, 2, 2, 6, 1, 1, 0), (2, 5, 4, 10, 5, 5, 2)]


@pytest.mark.parametrize("b,cin,cout,length,k,s,p", CONV_GRID)
def test_conv1d_matches_brute_force(b, cin, cout, length, k, s, p, rng):
    x = rng.standard_normal((b, cin, length))
    w = rng.standard_normal((cout, cin, k))
    with ad.no_grad():
        got = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride=s, padding=p).data
    np.testing.assert_allclose(got, conv1d_brute(x, w, s, p), atol=1e-12)


@pytest.mark.parametrize("b,cin,cout,length,k,s,p", CONV_GRID)
def test_conv1d_gradients(b, cin, cout, length, k, s, p, rng):
    x = rng.standard_normal((b, cin, length))
    w = rng.standard_normal((cout, cin, k))
    check_gradients(
        lambda tx, tw: ad.tsum(ad.conv1d(tx, tw, stride=s, padding=p) ** 2),
        [x, w])


@pytest.mark.parametrize("b,cin,cout,length,k,s,p", CONV_GRID[:5])
def test_conv1d_transpose_gradients(b, cin, cout, length, k, s, p, rng):
    lo = ad.conv_output_length(length, k, s, p)
    y = rng.standard_normal((b, cout, lo))
    w = rng.standard_normal((cout, cin, k))
    check_gradients(
        lambda ty, tw: ad.tsum(ad.conv1d_transpose(ty, tw, stride=s, padding=p,
                                                   output_length=length) ** 2),
        [y, w])


def test_conv_transpose_is_exact_adjoint(rng):
    for b, cin, cout, length, k, s, p in CONV_GRID:
        x = rng.standard_normal((b, cin, length))
        w = rng.standard_normal((cout, cin, k))
        lo = ad.conv_output_length(length, k, s, p)
        y = rng.standard_normal((b, cout, lo))
        with ad.no_grad():
            cx = ad.conv1d(ad.Tensor(x), ad.Tensor(w), stride=s, padding=p).data
            ty = ad.conv1d_transpose(ad.Tensor(y), ad.Tensor(w), stride=s,
                                     padding=p, output_length=length).data
        assert float((cx * y).sum()) == pytest.approx(float((x * ty).sum()), rel=1e-10)


def conv1d_transpose_scatter(x, w, stride, padding, out_len):
    """Scatter loop, the oracle for conv1d_transpose: input position l adds
    x[:, :, l] @ w[:, :, t] at output position l*stride + t - padding."""
    b, _, length = x.shape
    _, cout, k = w.shape
    out = np.zeros((b, cout, out_len))
    for pos_in in range(length):
        for t in range(k):
            pos = pos_in * stride + t - padding
            if 0 <= pos < out_len:
                out[:, :, pos] += x[:, :, pos_in] @ w[:, :, t]
    return out


@settings(max_examples=80, deadline=None)
@given(batch=st.integers(1, 3), cin=st.integers(1, 5), cout=st.integers(1, 5),
       length=st.integers(1, 12), k=st.integers(1, 6), stride=st.integers(1, 4),
       padding=st.integers(0, 3), extra=st.none() | st.integers(0, 6),
       contiguous=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_conv1d_transpose_matches_scatter_loop(batch, cin, cout, length, k, stride,
                                               padding, extra, contiguous, seed):
    # extra > padding asks for more output than the input reaches, which the
    # op fills with zeros; extra >= stride asks for an output that a conv
    # would not map back onto the input, which the op rejects
    natural = (length - 1) * stride + k - 2 * padding
    out_len = natural if extra is None else natural + extra
    if out_len < 1:
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, cin, length))
    if not contiguous:
        x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    w = rng.standard_normal((cin, cout, k))
    if extra is not None and extra >= stride:
        with pytest.raises(ad.ShapeError, match="does not conv back"):
            ad.conv1d_transpose(ad.Tensor(x), ad.Tensor(w), stride=stride, padding=padding,
                                output_length=out_len)
        return
    with ad.no_grad():
        got = ad.conv1d_transpose(ad.Tensor(x), ad.Tensor(w), stride=stride, padding=padding,
                                  output_length=None if extra is None else out_len).data
    assert got.shape == (batch, cout, out_len)
    np.testing.assert_allclose(got, conv1d_transpose_scatter(x, w, stride, padding, out_len),
                               rtol=1e-12, atol=1e-12)


def conv1d_transpose_row_gemm(x, w, stride, padding, out_len):
    """The earlier _conv1d_transpose_raw: one [B*L, C] @ [C, O*k] gemm, read
    back one strided tap at a time."""
    batch, c_in, l_in = x.shape
    _, c_out, k = w.shape
    xt = np.ascontiguousarray(x.transpose(0, 2, 1)).reshape(batch * l_in, c_in)
    contrib = (xt @ w.reshape(c_in, c_out * k)).reshape(batch, l_in, c_out, k)
    full = (l_in - 1) * stride + k
    buf = np.zeros((batch, c_out, full))
    for t in range(k):
        buf[:, :, t: t + stride * l_in: stride] += contrib[:, :, :, t].transpose(0, 2, 1)
    return buf[:, :, padding: padding + out_len]


# Every conv1d_transpose call the conv presets make at seq 127: the
# generator's three layers (kernel 5, stride 2, padding 1, L -> 2L+1). The
# input gradients of the critic's three convs run the same three shapes.
PRESET_TRANSPOSE_SHAPES = [(64, 32, 15), (32, 16, 31), (16, 1, 63)]


@pytest.mark.parametrize("batch", [32, 256])
@pytest.mark.parametrize("cin,cout,length", PRESET_TRANSPOSE_SHAPES)
def test_conv1d_transpose_keeps_bits_at_preset_shapes(batch, cin, cout, length, rng):
    # the O*k-row gemm sums in another order than the row gemm it replaced,
    # which on other shapes can move the last bits; at these shapes it must
    # not, so the presets' artifacts stay byte-identical
    x = rng.standard_normal((batch, cin, length))
    w = rng.standard_normal((cin, cout, 5)) * 0.02
    out_len = 2 * length + 1
    got = ad._conv1d_transpose_raw(x, w, 2, 1, out_len)
    np.testing.assert_array_equal(bits(got), bits(conv1d_transpose_row_gemm(x, w, 2, 1, out_len)))


def test_conv_builds_each_im2col_once(monkeypatch, rng):
    # conv1d's forward im2col of x serves its kernel gradient too, and
    # conv1d_transpose's backward builds the im2col of g once for both
    # of its gradients
    calls = []
    windows = ad._conv1d_windows

    def counted(x, *args):
        calls.append(x.shape)
        return windows(x, *args)

    monkeypatch.setattr(ad, "_conv1d_windows", counted)
    x = ad.Tensor(rng.standard_normal((2, 3, 9)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((4, 3, 4)), requires_grad=True)
    ad.backward(ad.tsum(ad.conv1d(x, w, stride=2, padding=1) ** 2))
    assert calls == [(2, 3, 9)]
    calls.clear()
    y = ad.conv1d_transpose(x, ad.Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True),
                            stride=2, padding=1)
    assert calls == []
    ad.backward(ad.tsum(y ** 2))
    assert calls == [y.shape]


def test_conv1d_transpose_rejects_inconsistent_output_length():
    # a conv of length 10 with kernel 3 and stride 2 has length 4, not 3;
    # the backward would fail to reshape, so the forward refuses the call
    x = ad.Tensor(np.ones((1, 1, 3)), requires_grad=True)
    w = ad.Tensor(np.ones((1, 1, 3)), requires_grad=True)
    with pytest.raises(ad.ShapeError, match="output_length 10"):
        ad.conv1d_transpose(x, w, stride=2, output_length=10)
    for length in (7, 8):  # both conv back to 3
        y = ad.conv1d_transpose(x, w, stride=2, output_length=length)
        ad.backward(ad.tsum(y))
        assert y.shape == (1, 1, length)


def test_conv_output_length_formulas():
    assert ad.conv_output_length(127, 4, 2, 1) == 63
    assert ad.conv_output_length(8, 3, 1, 1) == 8
    assert ad.conv_transpose_output_length(63, 4, 2, 1) == 126
    assert ad.conv_transpose_output_length(63, 5, 2, 1) == 127


def test_conv1d_rejects_bad_arguments(rng):
    x = ad.Tensor(rng.standard_normal((1, 2, 8)))
    w = ad.Tensor(rng.standard_normal((3, 2, 3)))
    with pytest.raises(ValueError):
        ad.conv1d(x, w, stride=0)
    with pytest.raises(ValueError):
        ad.conv1d(x, w, padding=-1)
    with pytest.raises(ad.ShapeError):
        ad.conv1d(x, ad.Tensor(rng.standard_normal((3, 4, 3))))
    with pytest.raises(ad.ShapeError):
        ad.conv1d(x, ad.Tensor(rng.standard_normal((3, 2, 20))))
    # only [B,C,L] input and [O,C,k] kernels: no 1-D or 2-D input, no 1-D kernel
    for bad_x, bad_w in ((rng.standard_normal(8), w.data),
                         (rng.standard_normal((2, 8)), w.data),
                         (x.data, rng.standard_normal(3))):
        with pytest.raises(ad.ShapeError):
            ad.conv1d(ad.Tensor(bad_x), ad.Tensor(bad_w))


@pytest.mark.parametrize("shape", [(16, 5), (6, 5, 4)], ids=["2d", "3d"])
def test_batch_norm_normalizes_and_differentiates(rng, shape):
    x = rng.standard_normal(shape) * 3.0 + 2.0
    axes = (0,) if len(shape) == 2 else (0, 2)
    gamma = np.ones(5)
    beta = np.zeros(5)
    out, mean, var = ad.batch_norm(ad.Tensor(x), ad.Tensor(gamma), ad.Tensor(beta))
    np.testing.assert_allclose(out.data.mean(axis=axes), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.std(axis=axes), 1.0, atol=1e-4)
    np.testing.assert_allclose(mean, x.mean(axis=axes))
    np.testing.assert_allclose(var, x.var(axis=axes))

    # weighted, with gamma and beta off 1 and 0, so the x gradient is not ~0
    small = x[:3] if len(shape) == 3 else x[:6]
    weights = ad.Tensor(rng.uniform(0.5, 1.5, small.shape))

    def build(tx, tg, tb):
        o, _, _ = ad.batch_norm(tx, tg, tb)
        return ad.tsum(o ** 2 * weights)

    check_gradients(build, [small, rng.uniform(0.5, 1.5, 5), rng.normal(0.0, 0.3, 5)])


@pytest.mark.parametrize("shape", [(4, 3), (4, 3, 5)], ids=["2d", "3d"])
def test_batch_norm_inference_uses_running_stats(rng, shape):
    x = rng.standard_normal(shape)
    running_mean = np.array([0.5, -0.2, 0.0])
    running_var = np.array([1.5, 0.7, 2.0])
    gamma = np.array([1.0, 2.0, 0.5])
    beta = np.array([0.0, 1.0, -1.0])
    with ad.no_grad():
        out = ad.batch_norm_inference(ad.Tensor(x), ad.Tensor(gamma), ad.Tensor(beta),
                                      running_mean, running_var)
    per_feature = (1, 3) if len(shape) == 2 else (1, 3, 1)

    def col(v):
        return v.reshape(per_feature)

    expected = (x - col(running_mean)) / np.sqrt(col(running_var) + 1e-5) * col(gamma) \
        + col(beta)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def _composite_batch_norm(x, gamma, beta, eps=1e-5):
    """The batch norm formula composed from primitives, as a reference."""
    axes = (0,) if x.ndim == 2 else (0, 2)
    per_feature = (1, x.shape[1]) if x.ndim == 2 else (1, x.shape[1], 1)
    mean = ad.tmean(x, axis=axes, keepdims=True)
    centered = ad.sub(x, mean)
    var = ad.tmean(ad.mul(centered, centered), axis=axes, keepdims=True)
    inv = ad.div(1.0, ad.tsqrt(ad.add(var, eps)))
    out = ad.add(ad.mul(ad.mul(centered, inv), ad.reshape(gamma, per_feature)),
                 ad.reshape(beta, per_feature))
    return out, mean.data.reshape(-1), var.data.reshape(-1)


@st.composite
def _batch_norm_inputs(draw):
    batch = draw(st.integers(2, 8))
    features = draw(st.integers(1, 6))
    length = draw(st.one_of(st.none(), st.integers(1, 9)))
    shape = (batch, features) if length is None else (batch, features, length)
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    # per-feature offsets and spreads vary, but no feature is near-constant
    x = (rng.normal(0.0, 2.0, (1, features) + shape[2:])
         + rng.uniform(0.5, 3.0, (1, features) + (1,) * (len(shape) - 2))
         * rng.standard_normal(shape))
    gamma = rng.uniform(0.5, 1.5, features)
    beta = rng.normal(0.0, 0.3, features)
    weights = rng.uniform(0.5, 1.5, shape)
    return x, gamma, beta, weights


def _batch_norm_derivatives(fn, x_data, gamma_data, beta_data, weights):
    """Output, statistics, first-order gradients (via grad and backward) and
    double backward of one batch norm implementation."""
    x, gamma, beta = (ad.Tensor(a, requires_grad=True) for a in (x_data, gamma_data, beta_data))
    out, mean, var = fn(x, gamma, beta)
    gx, gg, gb = ad.grad(ad.tsum(out * ad.Tensor(weights)), [x, gamma, beta],
                         create_graph=True)
    hx, hg = ad.grad(ad.tsum(gx * gx), [x, gamma])
    x2, gamma2, beta2 = (ad.Tensor(a, requires_grad=True) for a in (x_data, gamma_data, beta_data))
    out2, _, _ = fn(x2, gamma2, beta2)
    ad.backward(ad.tsum(out2 * ad.Tensor(weights)))
    return {"out": out.data, "mean": mean, "var": var, "gx": gx.data, "gg": gg.data,
            "gb": gb.data, "hx": hx.data, "hg": hg.data, "x.grad": x2.grad,
            "gamma.grad": gamma2.grad, "beta.grad": beta2.grad}


class TestFusedBatchNorm:
    @settings(max_examples=60, deadline=None)
    @given(_batch_norm_inputs())
    def test_matches_composite_formula(self, inputs):
        _, gamma, _, weights = inputs
        fused = _batch_norm_derivatives(ad.batch_norm, *inputs)
        composite = _batch_norm_derivatives(_composite_batch_norm, *inputs)
        # dx is what is left of gamma * inv * g after removing its parts along
        # 1 and xhat; little may be left (with two values per feature only eps
        # leaves anything), so it and the second derivatives built on it are
        # compared relative to the size of the terms that cancel
        inv = (1.0 / np.sqrt(composite["var"] + 1e-5)).max()
        term = np.abs(gamma).max() * inv * np.abs(weights).max()
        scales = {"gx": term, "x.grad": term, "hx": term * term * inv,
                  "hg": term * term / np.abs(gamma).max()}
        for name, ref in composite.items():
            scale = max(np.abs(ref).max(), scales.get(name, 0.0))
            np.testing.assert_allclose(fused[name], ref, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=name)

    def test_is_one_recorded_op(self, rng):
        x = ad.Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True)
        out, _, _ = ad.batch_norm(x, ad.Tensor(np.ones(3)), ad.Tensor(np.zeros(3)))
        assert out._node.op == "batch_norm"
        assert out._node.inputs[0] is x

    @pytest.mark.parametrize("shape", [(1, 3), (1, 3, 5), (6,), (2, 3, 4, 5)])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(ad.ShapeError):
            ad.batch_norm(ad.Tensor(np.zeros(shape)), ad.Tensor(np.ones(3)),
                          ad.Tensor(np.zeros(3)))

    def test_rejects_parameter_size_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.batch_norm(ad.Tensor(np.zeros((4, 3))), ad.Tensor(np.ones(2)),
                          ad.Tensor(np.zeros(3)))


def _composite_batch_norm_inference(x, gamma, beta, mean, var, eps=1e-5):
    """Eval-mode batch norm as the four-op composite it replaced."""
    per_feature = (1, x.shape[1]) if x.ndim == 2 else (1, x.shape[1], 1)
    inv = ad.Tensor((1.0 / np.sqrt(var + eps)).reshape(per_feature))
    centered = ad.sub(x, ad.Tensor(mean.reshape(per_feature)))
    return ad.add(ad.mul(centered, ad.mul(ad.reshape(gamma, per_feature), inv)),
                  ad.reshape(beta, per_feature))


@st.composite
def _batch_norm_inference_inputs(draw):
    x, gamma, beta, weights = draw(_batch_norm_inputs())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    features = x.shape[1]
    stats = rng.normal(0.0, 2.0, features), rng.uniform(0.05, 4.0, features)
    return [x, gamma, beta], stats, weights


class TestFusedBatchNormInference:
    @settings(max_examples=60, deadline=None)
    @given(_batch_norm_inference_inputs())
    def test_matches_composite(self, inputs):
        arrays, (mean, var), weights = inputs
        fused = _derivatives(
            lambda x, g, b: ad.batch_norm_inference(x, g, b, mean, var), arrays, weights)
        composite = _derivatives(
            lambda x, g, b: _composite_batch_norm_inference(x, g, b, mean, var),
            arrays, weights)
        _assert_matches(fused, composite)

    @pytest.mark.parametrize("shape", [(5, 3), (4, 3, 6)], ids=["2d", "3d"])
    def test_forward_bits_of_the_composite(self, rng, shape):
        # x as the transposed view a conv layer hands on, too
        x = rng.standard_normal(shape)
        views = [x, np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)]
        gamma, beta, mean = (rng.standard_normal(3) for _ in range(3))
        var = rng.uniform(0.1, 2.0, 3)
        for view in views:
            with ad.no_grad():
                got = ad.batch_norm_inference(ad.Tensor(view), ad.Tensor(gamma),
                                              ad.Tensor(beta), mean, var)
                ref = _composite_batch_norm_inference(ad.Tensor(view), ad.Tensor(gamma),
                                                      ad.Tensor(beta), mean, var)
            np.testing.assert_array_equal(bits(got.data), bits(ref.data))

    @pytest.mark.parametrize("sizes", [(2, 3, 3, 3), (3, 2, 3, 3), (3, 3, 2, 3),
                                       (3, 3, 3, 4)])
    def test_rejects_size_mismatch(self, sizes):
        gamma, beta, mean, var = (np.ones(n) for n in sizes)
        with pytest.raises(ad.ShapeError, match="batch_norm_inference"):
            ad.batch_norm_inference(ad.Tensor(np.zeros((4, 3))), ad.Tensor(gamma),
                                    ad.Tensor(beta), mean, var)


# ---------------------------------------------------------------------
# linear: a dense layer as one recorded op
# ---------------------------------------------------------------------

def _composite_linear(x, w, b):
    return ad.matmul(x, ad.transpose_last(w)) + b


def test_linear_gradients_match_finite_differences(rng):
    check_gradients(lambda x, w, b: ad.tsum(ad.linear(x, w, b) ** 2),
                    [rng.standard_normal((4, 5)), rng.standard_normal((3, 5)),
                     rng.standard_normal(3)])


@st.composite
def _linear_inputs(draw):
    batch = draw(st.integers(1, 4))
    c_in, c_out = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    arrays = [rng.standard_normal((batch, c_in)), rng.standard_normal((c_out, c_in)),
              rng.standard_normal(c_out)]
    return arrays, rng.uniform(0.5, 1.5, size=(batch, c_out))


def _linear_derivatives(fn, arrays, weights):
    """Output, gradients by backward() and by grad(create_graph=True), and
    second derivatives of the squared x and w gradients."""
    def loss_of(out):
        return ad.tsum(out * out * ad.Tensor(weights))

    ts = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*ts)
    firsts = ad.grad(loss_of(out), ts, create_graph=True)
    seconds = ad.grad(ad.tsum(firsts[0] * firsts[0]) + ad.tsum(firsts[1] * firsts[1]), ts)
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
    ad.backward(loss_of(fn(*leaves)))
    found = {"out": out.data}
    for i, name in enumerate("xwb"):
        found[f"grad {name}"] = firsts[i].data
        found[f"second {name}"] = seconds[i].data
        found[f"backward {name}"] = leaves[i].grad
    return found


class TestLinear:
    @settings(max_examples=80, deadline=None)
    @given(_linear_inputs())
    def test_matches_composite_bit_for_bit(self, inputs):
        got = _linear_derivatives(ad.linear, *inputs)
        want = _linear_derivatives(_composite_linear, *inputs)
        for name, ref in want.items():
            assert got[name].shape == ref.shape, name
            np.testing.assert_array_equal(bits(got[name]), bits(ref), err_msg=name)

    def test_is_one_recorded_op(self, rng):
        x = ad.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        b = ad.Tensor(np.zeros(3), requires_grad=True)
        out = ad.linear(x, w, b)
        assert out._node.op == "linear"
        assert out._node.inputs == (x, w, b)

    def test_second_derivative_through_linear(self, rng):
        # d/dw and d/dx of the squared input gradient of a tanh layer,
        # against finite differences of the first-order gradient
        arrays = [rng.standard_normal((3, 4)), rng.standard_normal((2, 4)),
                  rng.standard_normal(2)]

        def penalty(x, w, b):
            (gx,) = ad.grad(ad.tsum(ad.tanh(ad.linear(x, w, b))), [x], create_graph=True)
            return ad.tsum(gx * gx)

        ts = [ad.Tensor(a, requires_grad=True) for a in arrays]
        analytic = ad.grad(penalty(*ts), ts)

        def as_float(*plain):
            return float(penalty(*(ad.Tensor(p, requires_grad=True) for p in plain)).data)

        for i in range(3):
            numeric = numerical_grad(as_float, arrays, i)
            np.testing.assert_allclose(analytic[i].data, numeric, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((4,), (3, 4), (3,)),            # 1-D input
        ((2, 4, 1), (3, 4), (3,)),       # 3-D input
        ((2, 4), (3, 5), (3,)),          # inner sizes differ
        ((2, 4), (3, 4, 1), (3,)),       # 3-D weight
        ((2, 4), (3, 4), (4,)),          # bias of the input size
        ((2, 4), (3, 4), (1, 3)),        # 2-D bias
    ])
    def test_linear_rejects_bad_shapes(self, x_shape, w_shape, b_shape):
        with pytest.raises(ad.ShapeError, match="linear"):
            ad.linear(ad.Tensor(np.zeros(x_shape)), ad.Tensor(np.zeros(w_shape)),
                      ad.Tensor(np.zeros(b_shape)))


# ---------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(length=st.integers(1, 40), k=st.integers(1, 6),
       s=st.integers(1, 4), p=st.integers(0, 3))
def test_conv_length_formula_matches_actual_output(length, k, s, p):
    if length + 2 * p < k:
        return
    lo = ad.conv_output_length(length, k, s, p)
    if lo < 1:
        return
    with ad.no_grad():
        out = ad.conv1d(ad.Tensor(np.zeros((1, 1, length))),
                        ad.Tensor(np.zeros((1, 1, k))), stride=s, padding=p)
    assert out.shape == (1, 1, lo)


@settings(max_examples=40, deadline=None)
@given(length=st.integers(1, 30), k=st.integers(1, 6),
       s=st.integers(1, 4), p=st.integers(0, 3))
def test_transpose_length_inverts_conv_length(length, k, s, p):
    if length + 2 * p < k:
        return
    lo = ad.conv_output_length(length, k, s, p)
    if lo < 1 or (lo - 1) * s + k - 2 * p < 1:
        return
    back = ad.conv_transpose_output_length(lo, k, s, p)
    # the transpose recovers the largest input length mapping to lo
    assert ad.conv_output_length(back, k, s, p) == lo
    assert back >= length - (s - 1)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
def test_tanh_bounded_and_odd(values):
    x = np.array(values)
    with ad.no_grad():
        out = ad.tanh(ad.Tensor(x)).data
        neg = ad.tanh(ad.Tensor(-x)).data
    assert (np.abs(out) <= 1.0).all()
    np.testing.assert_allclose(out, -neg, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=12))
def test_sum_matches_numpy(values):
    x = np.array(values)
    with ad.no_grad():
        assert ad.tsum(ad.Tensor(x)).item() == pytest.approx(x.sum(), rel=1e-12)
        assert ad.tmean(ad.Tensor(x)).item() == pytest.approx(x.mean(), rel=1e-12)


# ---------------------------------------------------------------------
# softmax and self-attention: one recorded op each
# ---------------------------------------------------------------------

def _composite_softmax(x, axis):
    e = ad.texp(ad.sub(x, ad.Tensor(x.data.max(axis=axis, keepdims=True))))
    return ad.div(e, ad.tsum(e, axis=axis, keepdims=True))


def _composite_attention(x, wq, wk, wv, gate):
    q, k, v = ad.conv1d(x, wq), ad.conv1d(x, wk), ad.conv1d(x, wv)
    attn = _composite_softmax(ad.matmul(ad.transpose_last(q), k), 1)
    return ad.add(x, ad.mul(gate, ad.matmul(v, attn)))


def _derivatives(fn, arrays, weights):
    """Output, gradients by grad(create_graph=True) and by backward(), and
    the gradient of the summed squared first gradients (double backward)."""
    def loss_of(out):
        return ad.tsum(out * out * ad.Tensor(weights))

    ts = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*ts)
    firsts = ad.grad(loss_of(out), ts, create_graph=True)
    penalty = firsts[0] * firsts[0]
    seconds = ad.grad(sum((ad.tsum(f * f) for f in firsts[1:]), ad.tsum(penalty)), ts)
    leaves = [ad.Tensor(a, requires_grad=True) for a in arrays]
    ad.backward(loss_of(fn(*leaves)))
    found = {"out": out.data}
    for i in range(len(arrays)):
        found[f"grad {i}"] = firsts[i].data
        found[f"second {i}"] = seconds[i].data
        found[f"backward {i}"] = leaves[i].grad
    return found


def _assert_matches(fused, composite):
    np.testing.assert_array_equal(bits(fused["out"]), bits(composite["out"]))
    # softmax's backward subtracts a weighted mean of the output gradient,
    # so a derivative can be far smaller than the terms that cancel in it:
    # each is compared relative to the largest derivative of its order
    derivatives = {name: ref for name, ref in composite.items() if name != "out"}
    scales = {}
    for name, ref in derivatives.items():
        order = name.startswith("second")
        scales[order] = max(scales.get(order, 0.0), np.abs(ref).max())
    for name, ref in derivatives.items():
        assert fused[name].shape == ref.shape, name
        scale = scales[name.startswith("second")]
        np.testing.assert_allclose(fused[name], ref, rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=name)


@st.composite
def _softmax_inputs(draw):
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # spreads of a few units: a saturated softmax's gradient is rounding
    # noise in any form, so two forms cannot be held to 1e-12 there
    x = rng.standard_normal(shape) * draw(st.floats(0.1, 1.0))
    return x, axis, rng.uniform(0.5, 1.5, shape)


@st.composite
def _attention_inputs(draw):
    batch, channels, length = (draw(st.integers(1, n)) for n in (3, 6, 7))
    query = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(0.0, 1.0, (batch, channels, length))
    wq, wk = (rng.normal(0.0, 0.7, (query, channels, 1)) for _ in range(2))
    # scores within +-2, so the softmax is not saturated (see _softmax_inputs)
    scores = np.einsum("qc,bci,qd,bdj->bij", wq[..., 0], x, wk[..., 0], x)
    shrink = np.sqrt(max(1.0, np.abs(scores).max() / 2.0))
    arrays = [x, wq / shrink, wk / shrink, rng.normal(0.0, 0.7, (channels, channels, 1)),
              np.asarray(rng.uniform(-1.5, 1.5))]
    return arrays, rng.uniform(0.5, 1.5, (batch, channels, length))


class TestFusedSoftmax:
    @settings(max_examples=80, deadline=None)
    @given(_softmax_inputs())
    def test_matches_composite(self, inputs):
        x, axis, weights = inputs
        _assert_matches(_derivatives(lambda t: ad.softmax(t, axis), [x], weights),
                        _derivatives(lambda t: _composite_softmax(t, axis), [x], weights))

    def test_is_one_recorded_op(self, rng):
        x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = ad.softmax(x, axis=0)
        assert out._node.op == "softmax"
        assert out._node.inputs == (x,)

    def test_weight_beyond_the_float_range_is_zero(self):
        out = ad.softmax(ad.Tensor([1e308, -1e308, 1e308]))
        np.testing.assert_array_equal(out.data, [0.5, 0.0, 0.5])


class TestFusedSelfAttention:
    @settings(max_examples=60, deadline=None)
    @given(_attention_inputs())
    def test_matches_composite(self, inputs):
        _assert_matches(_derivatives(ad.self_attention, *inputs),
                        _derivatives(_composite_attention, *inputs))

    def test_is_one_recorded_op(self, rng):
        ts = [ad.Tensor(rng.standard_normal(shape), requires_grad=True)
              for shape in ((2, 4, 5), (1, 4, 1), (1, 4, 1), (4, 4, 1), ())]
        out = ad.self_attention(*ts)
        assert out._node.op == "self_attention"
        assert out._node.inputs == tuple(ts)

    @pytest.mark.parametrize("x_shape,q_shape,k_shape,v_shape,gate_shape", [
        ((4, 5), (1, 4, 1), (1, 4, 1), (4, 4, 1), ()),             # x not 3-D
        ((2, 4, 5), (1, 3, 1), (1, 3, 1), (4, 4, 1), ()),          # query channels
        ((2, 4, 5), (1, 4, 1), (1, 4, 1), (4, 3, 1), ()),          # value in channels
        ((2, 4, 5), (1, 4, 1), (1, 4, 1), (3, 4, 1), ()),          # value out channels
        ((2, 4, 5), (2, 4, 1), (1, 4, 1), (4, 4, 1), ()),          # wq vs wk query size
        ((2, 4, 5), (1, 4, 2), (1, 4, 2), (4, 4, 1), ()),          # not a 1x1 kernel
        ((2, 4, 5), (4, 1), (4, 1), (4, 4, 1), ()),                # 2-D kernels
        ((2, 4, 5), (1, 4, 1), (1, 4, 1), (4, 4, 1), (1,)),        # gate not a scalar
    ])
    def test_rejects_bad_shapes(self, x_shape, q_shape, k_shape, v_shape, gate_shape):
        with pytest.raises(ad.ShapeError, match="self_attention"):
            ad.self_attention(*(ad.Tensor(np.zeros(shape)) for shape in
                                (x_shape, q_shape, k_shape, v_shape, gate_shape)))

    @staticmethod
    def attention_inputs(batch, rng):
        channels, length = 4, 95
        return [rng.standard_normal((batch, channels, length)),
                rng.normal(0.0, 0.3, (1, channels, 1)), rng.normal(0.0, 0.3, (1, channels, 1)),
                rng.normal(0.0, 0.3, (channels, channels, 1)), np.asarray(0.7)]

    @staticmethod
    def unrecorded(x, *weights):
        with ad.no_grad():
            return ad.self_attention(*map(ad.Tensor, (x, *weights))).data

    @pytest.mark.parametrize("batch", [70, 257])
    def test_unrecorded_map_in_blocks_keeps_the_bits(self, batch, rng):
        arrays = self.attention_inputs(batch, rng)
        recorded = ad.self_attention(*(ad.Tensor(a, requires_grad=True) for a in arrays))
        assert recorded._node is not None
        got = self.unrecorded(*arrays)
        np.testing.assert_array_equal(bits(got), bits(recorded.data))
        one_by_one = [self.unrecorded(arrays[0][b: b + 1], *arrays[1:]) for b in range(batch)]
        np.testing.assert_array_equal(bits(got), bits(np.concatenate(one_by_one)))

    def test_unrecorded_map_is_not_held_whole(self, rng):
        x, *weights = self.attention_inputs(257, rng)
        peak = _traced_peak(lambda: self.unrecorded(x, *weights))
        # the whole [B, L, L] map is 17.7 MiB here, a block of
        # _ATTENTION_BLOCK windows 2.2 MiB
        assert peak < x.shape[0] * x.shape[2] ** 2 * 8 // 2, peak

    def test_non_finite_value_names_the_op(self):
        # q . k overflows to inf, and the softmax turns it into NaN
        x = ad.Tensor(np.full((1, 1, 3), 1e200))
        one = ad.Tensor(np.ones((1, 1, 1)))
        with pytest.raises(ad.NonFiniteError, match="self_attention"):
            ad.self_attention(x, one, one, one, ad.Tensor(0.5))
