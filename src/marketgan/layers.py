"""Network building blocks and the default GAN architectures.

Networks are described declaratively by a NetworkSpec (an ordered list of
LayerSpecs plus the per-sample input shape) and instantiated by build(),
which allocates and initializes parameter tensors (a checkpoint load calls
allocate() alone and reads the trained values in). Keeping the description
separate from the parameters makes shape validation straightforward, and a
checkpoint stores no description: its config names the preset.
"""

import copy
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class BuildError(ValueError):
    """A NetworkSpec is internally inconsistent."""


BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # weight on the old running statistic
INIT_STD = 0.02


@dataclass
class LayerSpec:
    """One layer of a network. Each kind is a subclass, declared with its
    `kind` name, that owns its fields, shape rule,
    parameters and forward(x, params, running, mode, update_stats), where
    params are the tensors param_shapes() names and running the
    new_running() stats. Every int field, and every entry of a tuple
    field, must be >= 1 (`padding` >= 0)."""
    kind = ""

    def __init_subclass__(cls, kind: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kind = kind

    def __post_init__(self):
        for f in fields(self):
            if f.type in (int, tuple):
                value = getattr(self, f.name)
                ints = tuple(value) if f.type is tuple else (value,)
                low = 0 if f.name == "padding" else 1
                if not all(isinstance(n, int) and n >= low for n in ints):
                    raise BuildError(f"{self.kind}: {f.name} must be integer(s) >= {low}, "
                                     f"got {value!r}")
                setattr(self, f.name, ints if f.type is tuple else value)

    def out_shape(self, in_shape: tuple) -> tuple:
        """Per-sample output shape; raises BuildError if the input does not fit."""
        return in_shape

    def param_shapes(self) -> list:
        """[(name, shape, fill)] of the parameters this layer owns; each starts
        at the constant fill, or at a Normal(0, INIT_STD) draw if fill is None."""
        return []

    def new_running(self):
        """Fresh running statistics, or None for a layer that keeps none."""
        return None


def _expect_channels(shape: tuple, channels: int):
    if len(shape) != 2:
        raise BuildError(f"expected [channels, length] input, got {shape}")
    if shape[0] != channels:
        raise BuildError(f"expects {channels} channels, got {shape[0]}")


@dataclass
class Dense(LayerSpec, kind="dense"):
    fold_axis = 0  # the weight's output axis, see _fold_batch_norm

    in_features: int
    out_features: int

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise BuildError(f"expected a flat input, got shape {in_shape}")
        if in_shape[0] != self.in_features:
            raise BuildError(f"expects {self.in_features} features, got {in_shape[0]}")
        return (self.out_features,)

    def param_shapes(self):
        return [("weight", (self.out_features, self.in_features), None),
                ("bias", (self.out_features,), 0.0)]

    def forward(self, x, params, *_):
        return ad.linear(x, *params)


@dataclass
class Conv1d(LayerSpec, kind="conv1d"):
    in_channels: int
    out_channels: int
    kernel_size: int
    stride: int = 1
    padding: int = 0

    def out_shape(self, in_shape):
        _expect_channels(in_shape, self.in_channels)
        return (self.out_channels, ad.conv_output_length(
            in_shape[1], self.kernel_size, self.stride, self.padding))

    def param_shapes(self):
        return [("kernel", (self.out_channels, self.in_channels, self.kernel_size), None),
                ("bias", (self.out_channels,), 0.0)]

    def forward(self, x, params, *_):
        kernel, bias = params
        x = ad.conv1d(x, kernel, self.stride, self.padding)
        return x + ad.reshape(bias, (1, self.out_channels, 1))


@dataclass
class Conv1dTranspose(Conv1d, kind="conv1d_transpose"):
    fold_axis = 1  # the kernel's output axis, see _fold_batch_norm

    def out_shape(self, in_shape):
        _expect_channels(in_shape, self.in_channels)
        return (self.out_channels, ad.conv_transpose_output_length(
            in_shape[1], self.kernel_size, self.stride, self.padding))

    def param_shapes(self):
        return [("kernel", (self.in_channels, self.out_channels, self.kernel_size), None),
                ("bias", (self.out_channels,), 0.0)]

    def forward(self, x, params, *_):
        kernel, bias = params
        x = ad.conv1d_transpose(x, kernel, self.stride, self.padding)
        return x + ad.reshape(bias, (1, self.out_channels, 1))


def _fold_batch_norm(weight, bias, bn_params, running, axis):
    """The parameters of a layer followed by an eval-mode batch norm, which
    maps each output channel by ad.frozen_batch_norm: the bias goes through
    that map, (bias - mean) * scale + beta, and the weight is multiplied by
    its scale along the weight's output ``axis``. A Dense whose outputs a
    Reshape lays out as [C, L] has L channel-major outputs per channel, so
    its weight and bias are viewed as [C, -1] for the fold. Built from
    module ops on parameter-sized arrays, so a recorded forward reaches
    gamma, beta, weight and bias."""
    gamma, beta = bn_params
    channels = gamma.size
    if bias.size == channels:
        b, scale = ad.frozen_batch_norm(bias, gamma, beta, running["mean"], running["var"],
                                        BN_EPS, (channels,))
        view = [1] * weight.ndim
        view[axis] = channels
        return ad.mul(weight, ad.reshape(scale, tuple(view))), b
    b, scale = ad.frozen_batch_norm(ad.reshape(bias, (channels, -1)), gamma, beta,
                                    running["mean"], running["var"], BN_EPS, (channels, 1))
    w = ad.mul(ad.reshape(weight, (channels, -1)), scale)
    return ad.reshape(w, weight.shape), ad.reshape(b, bias.shape)


@dataclass
class BatchNorm(LayerSpec, kind="batch_norm"):
    """Normalizes [F] per feature, or [C, L] per channel over batch and length."""
    num_features: int

    def out_shape(self, in_shape):
        if len(in_shape) not in (1, 2):
            raise BuildError(f"expected [features] or [channels, length], got {in_shape}")
        if in_shape[0] != self.num_features:
            raise BuildError(f"expects {self.num_features} features, got {in_shape[0]}")
        return in_shape

    def param_shapes(self):
        return [("gamma", (self.num_features,), 1.0), ("beta", (self.num_features,), 0.0)]

    def new_running(self):
        return {"mean": np.zeros(self.num_features), "var": np.ones(self.num_features)}

    def forward(self, x, params, running, mode, update_stats):
        gamma, beta = params
        if mode == "eval":
            return ad.batch_norm_inference(x, gamma, beta, running["mean"],
                                           running["var"], BN_EPS)
        out, m, v = ad.batch_norm(x, gamma, beta, BN_EPS)
        if update_stats:
            running["mean"] = BN_MOMENTUM * running["mean"] + (1 - BN_MOMENTUM) * m
            running["var"] = BN_MOMENTUM * running["var"] + (1 - BN_MOMENTUM) * v
        return out


@dataclass
class Activation(LayerSpec, kind="activation"):
    fn: str
    alpha: float = 0.2

    def __post_init__(self):
        super().__post_init__()
        if self.fn not in ad._ACTIVATIONS:
            raise BuildError(f"activation: unknown function {self.fn!r}")
        if self.fn == "leaky_relu" and not 0.0 < self.alpha < 1.0:
            raise BuildError("activation: alpha must lie in (0,1)")

    def forward(self, x, params, *_):
        return ad.activation(x, self.fn, self.alpha)


@dataclass
class SelfAttention(LayerSpec, kind="self_attention"):
    channels: int
    query_channels: int

    def out_shape(self, in_shape):
        _expect_channels(in_shape, self.channels)
        return in_shape

    def param_shapes(self):
        c, q = self.channels, self.query_channels
        return [("wq", (q, c, 1), None), ("wk", (q, c, 1), None),
                ("wv", (c, c, 1), None), ("gamma_attn", (), 0.0)]  # starts as identity

    def forward(self, x, params, *_):
        return attention_forward(x, *params)


@dataclass
class Reshape(LayerSpec, kind="reshape"):
    shape: tuple  # per-sample target shape

    def out_shape(self, in_shape):
        if int(np.prod(in_shape)) != int(np.prod(self.shape)):
            raise BuildError(
                f"cannot reshape {in_shape} into {self.shape} (size mismatch)")
        return self.shape

    def forward(self, x, params, *_):
        return ad.reshape(x, (x.shape[0],) + self.shape)


def self_attention(channels, query_channels=0):
    if query_channels == 0:  # the default; SelfAttention rejects negative values
        query_channels = max(1, channels // 8)
    return SelfAttention(channels, query_channels)


@dataclass
class NetworkSpec:
    layers: list
    input_shape: tuple
    role: str  # generator | discriminator | critic

    def __post_init__(self):
        self.input_shape = tuple(int(s) for s in self.input_shape)
        if self.role not in ("generator", "discriminator", "critic"):
            raise BuildError(f"unknown network role {self.role!r}")


def infer_shapes(spec: NetworkSpec) -> list:
    """Per-sample shape after every layer; raises BuildError on mismatch."""
    shapes = []
    cur = spec.input_shape
    for i, layer in enumerate(spec.layers):
        try:
            cur = layer.out_shape(cur)
        except (BuildError, ad.ShapeError) as e:
            raise BuildError(f"layer {i} ({layer.kind}): {e}") from e
        shapes.append(cur)
    return shapes


def validate(spec: NetworkSpec) -> tuple:
    """Validate shape compatibility and the role's head contract.

    Returns the per-sample output shape.
    """
    shapes = infer_shapes(spec)
    if not shapes:
        raise BuildError("network has no layers")
    last_act = None
    for layer in spec.layers:
        if isinstance(layer, Activation):
            last_act = layer.fn
        elif not isinstance(layer, Reshape):
            last_act = None  # a parametric layer after the activation resets it
    if spec.role == "discriminator" and last_act != "sigmoid":
        raise BuildError("discriminator must end in a sigmoid activation")
    if spec.role == "critic" and last_act != "linear":
        raise BuildError("critic must end in a linear activation")
    if spec.role == "generator" and last_act != "tanh":
        raise BuildError("generator must end in a tanh activation")
    return shapes[-1]


class Network:
    """A NetworkSpec with instantiated parameters and running statistics."""

    def __init__(self, spec: NetworkSpec, params: dict, running: dict):
        self.spec = spec
        self.params = params          # {"3.weight": Tensor, ...} keyed by layer index
        self.running = running        # {3: {"mean": arr, "var": arr}} for batch_norm
        self.output_shape = validate(spec)
        self._folded = None           # folded(): indices of batch norms its params hold

    def parameters(self) -> list:
        """(name, tensor) pairs in a fixed order."""
        return sorted(self.params.items(), key=lambda kv: (int(kv[0].split(".")[0]), kv[0]))

    def zero_grad(self):
        for _, p in self.params.items():
            p.grad = None

    def forward(self, x: Tensor, mode: str = "train", update_stats: bool | None = None) -> Tensor:
        """Run the network on a batch [B, *input_shape].

        In train mode batch_norm uses batch statistics (and, when
        update_stats is true, refreshes the running estimates); in eval
        mode it uses the stored running statistics. An eval-mode batch norm
        is the fixed per-channel map ad.frozen_batch_norm. Right after a
        Conv1dTranspose, or after a Dense directly or through one Reshape
        to [C, L], it is folded into that layer's parameters (see folded()
        and _batch_norm_folds) instead of mapping the activations; anywhere
        else it runs as batch_norm_inference, the same map over the
        activations. A network that folded() returned runs in eval mode
        only.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if mode == "train" and self._folded is not None:
            raise ValueError("a folded network runs in eval mode only")
        if update_stats is None:
            update_stats = mode == "train"
        x = ad._as_tensor(x)
        expected = self.spec.input_shape
        if x.shape[1:] != expected:
            raise ad.ShapeError(
                f"input shape {x.shape} does not match spec "
                f"[batch, {', '.join(map(str, expected))}]")
        net = self.folded() if mode == "eval" and self._folded is None else self
        skip = net._folded or ()
        for i, layer in enumerate(self.spec.layers):
            if i not in skip:
                x = layer.forward(x, net._layer_params(i), self.running.get(i), mode,
                                  update_stats)
        return x

    def folded(self) -> "Network":
        """This network with every batch norm of _batch_norm_folds folded
        into the layer before it, for eval-mode forwards only: the fold
        runs once here instead of once per forward, and each forward has
        the bits of this network's eval forward. The folded parameters are
        module ops on this network's, so under recording a folded forward
        reaches them; a caller that runs many forwards under no_grad, as
        training's sampler does, folds once under no_grad. A folded network
        is its own fold."""
        if self._folded is not None:
            return self
        folds = _batch_norm_folds(self.spec.layers)
        params = dict(self.params)
        for i, j in folds.items():
            layer = self.spec.layers[i]
            names = [f"{i}.{name}" for name, _, _ in layer.param_shapes()]
            params.update(zip(names, _fold_batch_norm(
                *self._layer_params(i), self._layer_params(j), self.running[j],
                layer.fold_axis)))
        net = copy.copy(self)
        net.params = params
        net._folded = frozenset(folds.values())
        return net

    def _layer_params(self, i: int) -> list:
        return [self.params[f"{i}.{name}"] for name, _, _ in self.spec.layers[i].param_shapes()]


def _batch_norm_folds(layers: list) -> dict:
    """{index of a layer: index of the BatchNorm folded into it in eval mode}
    for every BatchNorm right after a Conv1dTranspose, or after a Dense
    directly or through one Reshape to [C, L]."""
    folds = {}
    for i, layer in enumerate(layers):
        if not isinstance(layer, BatchNorm) or i == 0:
            continue
        prev = layers[i - 1]
        if isinstance(prev, (Dense, Conv1dTranspose)):
            folds[i - 1] = i
        elif (isinstance(prev, Reshape) and len(prev.shape) == 2 and i >= 2
              and isinstance(layers[i - 2], Dense)):
            folds[i - 2] = i
    return folds


def attention_forward(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                      gamma_attn: Tensor) -> Tensor:
    """Self-attention over positions of a [B, C, L] feature map, gated into
    a residual: out = x + gamma_attn * (V @ map). One recorded op; see
    autodiff.self_attention. Kept as a module-level function because the
    benchmark's tracer wraps it by name for its per-layer attention metric."""
    return ad.self_attention(x, wq, wk, wv, gamma_attn)


def allocate(spec: NetworkSpec) -> Network:
    """A network for a validated spec with its parameters allocated but not
    drawn: each starts at its constant fill, or at zero where build() would
    draw it. A checkpoint load fills in the trained values. Raises
    MemoryError when a parameter cannot be allocated."""
    validate(spec)
    params = {}
    running = {}
    for i, layer in enumerate(spec.layers):
        for name, shape, fill in layer.param_shapes():
            try:
                data = np.zeros(shape) if fill is None else np.full(shape, fill)
            except ValueError as exc:  # numpy: larger than the address space can index
                raise MemoryError(str(exc)) from exc
            params[f"{i}.{name}"] = Tensor(data, requires_grad=True)
        stats = layer.new_running()
        if stats is not None:
            running[i] = stats
    return Network(spec, params, running)


def build(spec: NetworkSpec, init_seed: int) -> Network:
    """allocate(), then draw every parameter that has no constant fill from
    Normal(0, INIT_STD), in layer and param_shapes() order. Deterministic for
    a given seed."""
    net = allocate(spec)
    rng = np.random.default_rng(int(init_seed))
    for i, layer in enumerate(spec.layers):
        for name, shape, fill in layer.param_shapes():
            if fill is None:
                net.params[f"{i}.{name}"].data = rng.normal(0.0, INIT_STD, size=shape)
    return net


class NoiseSource:
    """Seeded latent-noise sampler: uniform(-1,1) or standard normal."""

    def __init__(self, distribution: str, dim: int, seed):
        if distribution not in ("uniform", "standard_normal"):
            raise ValueError(f"unknown noise distribution {distribution!r}")
        if dim < 1:
            raise ValueError("latent dimension must be >= 1")
        self.distribution = distribution
        self.dim = int(dim)
        self.rng = np.random.default_rng(seed)

    def sample(self, batch: int) -> Tensor:
        if self.distribution == "uniform":
            z = self.rng.uniform(-1.0, 1.0, size=(batch, self.dim))
        else:
            z = self.rng.standard_normal(size=(batch, self.dim))
        return Tensor(z)


# ----------------------------------------------------------------------
# presets
# ----------------------------------------------------------------------

def plan_conv_lengths(seq_len: int, n_steps: int = 3) -> tuple:
    """Work the length schedule backwards from seq_len through n_steps
    stride-2 layers, picking kernel 4 or 5 per step so every conv and
    transposed conv keeps the arithmetic exact with padding 1.

    With stride 2 and padding 1, kernel 4 doubles an even length
    (L -> 2L) and kernel 5 maps L -> 2L+1; both invert exactly in the
    conv direction. Returns (lengths, kernels) where lengths runs from
    the innermost length up to seq_len (n_steps+1 entries) and kernels
    has one entry per step in the same upward order.
    """
    lengths = [int(seq_len)]
    kernels = []
    for _ in range(n_steps):
        length = lengths[-1]
        if length % 2 == 0:
            kernels.append(4)
            prev = length // 2
        else:
            kernels.append(5)
            prev = (length - 1) // 2
        if prev < 4:
            raise BuildError(
                f"seq_len {seq_len} is too short for {n_steps} stride-2 conv "
                f"stages (inner length would be {prev})")
        lengths.append(prev)
    return tuple(reversed(lengths)), tuple(reversed(kernels))


def _mlp_generator(seq_len, latent_dim):
    widths = [128, 256, 256, seq_len]
    layers = []
    prev = latent_dim
    for w in widths:
        layers.append(Dense(prev, w))
        layers.append(Activation("tanh"))
        prev = w
    return NetworkSpec(layers, (latent_dim,), "generator")


def _mlp_discriminator(seq_len, role="discriminator"):
    widths = [256, 256, 128]
    layers = []
    prev = seq_len
    for w in widths:
        layers.append(Dense(prev, w))
        layers.append(Activation("tanh"))
        prev = w
    layers.append(Dense(prev, 1))
    layers.append(Activation("sigmoid" if role == "discriminator" else "linear"))
    return NetworkSpec(layers, (seq_len,), role)


_G_CHANNELS = (64, 32, 16)
_D_CHANNELS = (16, 32, 64)


def _conv_generator(seq_len, latent_dim, with_attention=False):
    lengths, kernels = plan_conv_lengths(seq_len)
    c = _G_CHANNELS
    layers = [
        Dense(latent_dim, c[0] * lengths[0]),
        Reshape((c[0], lengths[0])),
        BatchNorm(c[0]),
        Activation("relu"),
    ]
    chain = list(c[1:]) + [1]
    for step, out_ch in enumerate(chain):
        in_ch = c[step]
        layers.append(Conv1dTranspose(in_ch, out_ch, kernels[step], stride=2, padding=1))
        if out_ch == 1:
            layers.append(Activation("tanh"))
        else:
            layers.append(BatchNorm(out_ch))
            layers.append(Activation("relu"))
            if with_attention and step == len(chain) - 2:
                layers.append(self_attention(out_ch))
    layers.append(Reshape((seq_len,)))
    return NetworkSpec(layers, (latent_dim,), "generator")


def _conv_discriminator(seq_len, role="discriminator", use_batch_norm=True,
                        with_attention=False):
    lengths, kernels = plan_conv_lengths(seq_len)
    down_kernels = tuple(reversed(kernels))
    down_lengths = tuple(reversed(lengths))
    c = _D_CHANNELS
    layers = [Reshape((1, seq_len))]
    prev_ch = 1
    for step, out_ch in enumerate(c):
        layers.append(Conv1d(prev_ch, out_ch, down_kernels[step], stride=2, padding=1))
        if use_batch_norm and step > 0:
            layers.append(BatchNorm(out_ch))
        layers.append(Activation("leaky_relu", alpha=0.2))
        if with_attention and step == 1:
            layers.append(self_attention(out_ch))
        prev_ch = out_ch
    flat = c[-1] * down_lengths[-1]
    layers.append(Reshape((flat,)))
    layers.append(Dense(flat, 1))
    layers.append(Activation("sigmoid" if role == "discriminator" else "linear"))
    return NetworkSpec(layers, (seq_len,), role)


def preset(name: str, seq_len: int = 127, latent_dim: int = 100):
    """Default architecture pair (generator spec, discriminator/critic spec).

    mlp_gan: four dense+tanh layers each way, sigmoid discriminator head.
    dcgan1d: strided convolutions in D, transposed convolutions in G,
             batch norm in both, ReLU/tanh in G and leaky ReLU in D.
    wgan_gp: dcgan1d generator with a batch-norm-free linear-head critic.
    sagan1d: dcgan1d plus one self-attention layer midway in each network.
    """
    if seq_len < 1 or latent_dim < 1:
        raise ValueError("seq_len and latent_dim must be >= 1")
    if name == "mlp_gan":
        return (_mlp_generator(seq_len, latent_dim),
                _mlp_discriminator(seq_len, "discriminator"))
    if name == "dcgan1d":
        return (_conv_generator(seq_len, latent_dim),
                _conv_discriminator(seq_len, "discriminator", use_batch_norm=True))
    if name == "wgan_gp":
        return (_conv_generator(seq_len, latent_dim),
                _conv_discriminator(seq_len, "critic", use_batch_norm=False))
    if name == "sagan1d":
        return (_conv_generator(seq_len, latent_dim, with_attention=True),
                _conv_discriminator(seq_len, "discriminator", use_batch_norm=True,
                                    with_attention=True))
    raise ValueError(f"unknown preset {name!r}")


PRESET_NAMES = ("mlp_gan", "dcgan1d", "wgan_gp", "sagan1d")
