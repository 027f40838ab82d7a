"""Network building blocks and the default GAN architectures.

Networks are described declaratively by a NetworkSpec (an ordered list of
LayerSpecs plus the per-sample input shape) and instantiated by build(),
which allocates and initializes parameter tensors. Keeping the description
separate from the parameters makes shape validation, parameter counting
and checkpointing straightforward.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class BuildError(ValueError):
    """A NetworkSpec is internally inconsistent."""


LAYER_KINDS = (
    "dense", "conv1d", "conv1d_transpose", "batch_norm",
    "activation", "self_attention", "reshape",
)

BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # weight on the old running statistic
INIT_STD = 0.02


@dataclass
class LayerSpec:
    kind: str
    # dense
    in_features: int = 0
    out_features: int = 0
    # conv1d / conv1d_transpose
    in_channels: int = 0
    out_channels: int = 0
    kernel_size: int = 0
    stride: int = 1
    padding: int = 0
    # batch_norm
    num_features: int = 0
    # activation
    fn: str = ""
    alpha: float = 0.2
    # self_attention
    channels: int = 0
    query_channels: int = 0
    # reshape (per-sample target shape)
    shape: tuple = ()

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise BuildError(f"unknown layer kind {self.kind!r}")
        self.shape = tuple(int(s) for s in self.shape)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "dense":
            d.update(in_features=self.in_features, out_features=self.out_features)
        elif self.kind in ("conv1d", "conv1d_transpose"):
            d.update(in_channels=self.in_channels, out_channels=self.out_channels,
                     kernel_size=self.kernel_size, stride=self.stride,
                     padding=self.padding)
        elif self.kind == "batch_norm":
            d.update(num_features=self.num_features)
        elif self.kind == "activation":
            d.update(fn=self.fn)
            if self.fn == "leaky_relu":
                d.update(alpha=self.alpha)
        elif self.kind == "self_attention":
            d.update(channels=self.channels, query_channels=self.query_channels)
        elif self.kind == "reshape":
            d.update(shape=list(self.shape))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "LayerSpec":
        d = dict(d)
        if "shape" in d:
            d["shape"] = tuple(d["shape"])
        return cls(**d)


# convenience constructors, used by the presets and handy in tests
def dense(in_features, out_features):
    return LayerSpec("dense", in_features=in_features, out_features=out_features)


def conv(in_channels, out_channels, kernel_size, stride=1, padding=0):
    return LayerSpec("conv1d", in_channels=in_channels, out_channels=out_channels,
                     kernel_size=kernel_size, stride=stride, padding=padding)


def conv_transpose(in_channels, out_channels, kernel_size, stride=1, padding=0):
    return LayerSpec("conv1d_transpose", in_channels=in_channels,
                     out_channels=out_channels, kernel_size=kernel_size,
                     stride=stride, padding=padding)


def batch_norm(num_features):
    return LayerSpec("batch_norm", num_features=num_features)


def act(fn, alpha=0.2):
    return LayerSpec("activation", fn=fn, alpha=alpha)


def self_attention(channels, query_channels=0):
    if query_channels <= 0:
        query_channels = max(1, channels // 8)
    return LayerSpec("self_attention", channels=channels, query_channels=query_channels)


def reshape_to(*shape):
    return LayerSpec("reshape", shape=tuple(shape))


@dataclass
class NetworkSpec:
    layers: list
    input_shape: tuple
    role: str  # generator | discriminator | critic

    def __post_init__(self):
        self.input_shape = tuple(int(s) for s in self.input_shape)
        if self.role not in ("generator", "discriminator", "critic"):
            raise BuildError(f"unknown network role {self.role!r}")

    def to_dict(self) -> dict:
        return {
            "layers": [layer.to_dict() for layer in self.layers],
            "input_shape": list(self.input_shape),
            "role": self.role,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        return cls(
            layers=[LayerSpec.from_dict(x) for x in d["layers"]],
            input_shape=tuple(d["input_shape"]),
            role=d["role"],
        )


def _shape_after(layer: LayerSpec, shape: tuple, index: int) -> tuple:
    """Per-sample output shape of one layer, or a BuildError naming it."""
    where = f"layer {index} ({layer.kind})"
    if layer.kind == "dense":
        if len(shape) != 1:
            raise BuildError(f"{where}: expected a flat input, got shape {shape}")
        if shape[0] != layer.in_features:
            raise BuildError(
                f"{where}: expects {layer.in_features} features, got {shape[0]}")
        if layer.out_features < 1:
            raise BuildError(f"{where}: out_features must be >= 1")
        return (layer.out_features,)
    if layer.kind == "conv1d":
        if len(shape) != 2:
            raise BuildError(f"{where}: expected [channels, length] input, got {shape}")
        if shape[0] != layer.in_channels:
            raise BuildError(
                f"{where}: expects {layer.in_channels} channels, got {shape[0]}")
        if layer.kernel_size < 1 or layer.stride < 1 or layer.padding < 0:
            raise BuildError(f"{where}: invalid kernel/stride/padding")
        try:
            l_out = ad.conv_output_length(shape[1], layer.kernel_size,
                                          layer.stride, layer.padding)
        except ad.ShapeError as e:
            raise BuildError(f"{where}: {e}") from e
        return (layer.out_channels, l_out)
    if layer.kind == "conv1d_transpose":
        if len(shape) != 2:
            raise BuildError(f"{where}: expected [channels, length] input, got {shape}")
        if shape[0] != layer.in_channels:
            raise BuildError(
                f"{where}: expects {layer.in_channels} channels, got {shape[0]}")
        try:
            l_out = ad.conv_transpose_output_length(shape[1], layer.kernel_size,
                                                    layer.stride, layer.padding)
        except ad.ShapeError as e:
            raise BuildError(f"{where}: {e}") from e
        return (layer.out_channels, l_out)
    if layer.kind == "batch_norm":
        feat = shape[0]
        if feat != layer.num_features:
            raise BuildError(
                f"{where}: expects {layer.num_features} features, got {feat}")
        return shape
    if layer.kind == "activation":
        if layer.fn not in ("relu", "leaky_relu", "tanh", "sigmoid", "linear"):
            raise BuildError(f"{where}: unknown activation {layer.fn!r}")
        if layer.fn == "leaky_relu" and not 0.0 < layer.alpha < 1.0:
            raise BuildError(f"{where}: alpha must lie in (0,1)")
        return shape
    if layer.kind == "self_attention":
        if len(shape) != 2:
            raise BuildError(f"{where}: expected [channels, length] input, got {shape}")
        if shape[0] != layer.channels:
            raise BuildError(f"{where}: expects {layer.channels} channels, got {shape[0]}")
        if layer.query_channels < 1:
            raise BuildError(f"{where}: query_channels must be >= 1")
        return shape
    if layer.kind == "reshape":
        if int(np.prod(shape)) != int(np.prod(layer.shape)):
            raise BuildError(
                f"{where}: cannot reshape {shape} into {layer.shape} (size mismatch)")
        return layer.shape
    raise BuildError(f"{where}: unhandled kind")


def infer_shapes(spec: NetworkSpec) -> list:
    """Per-sample shape after every layer; raises BuildError on mismatch."""
    shapes = []
    cur = spec.input_shape
    for i, layer in enumerate(spec.layers):
        cur = _shape_after(layer, cur, i)
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
        if layer.kind == "activation":
            last_act = layer.fn
        elif layer.kind != "reshape":
            last_act = None  # a parametric layer after the activation resets it
    if spec.role == "discriminator" and last_act != "sigmoid":
        raise BuildError("discriminator must end in a sigmoid activation")
    if spec.role == "critic" and last_act != "linear":
        raise BuildError("critic must end in a linear activation")
    if spec.role == "generator" and last_act != "tanh":
        raise BuildError("generator must end in a tanh activation")
    return shapes[-1]


def _layer_param_shapes(layer: LayerSpec) -> list:
    """[(name, shape)] of the parameters this layer owns."""
    if layer.kind == "dense":
        return [("weight", (layer.out_features, layer.in_features)),
                ("bias", (layer.out_features,))]
    if layer.kind == "conv1d":
        return [("kernel", (layer.out_channels, layer.in_channels, layer.kernel_size)),
                ("bias", (layer.out_channels,))]
    if layer.kind == "conv1d_transpose":
        return [("kernel", (layer.in_channels, layer.out_channels, layer.kernel_size)),
                ("bias", (layer.out_channels,))]
    if layer.kind == "batch_norm":
        return [("gamma", (layer.num_features,)), ("beta", (layer.num_features,))]
    if layer.kind == "self_attention":
        c, q = layer.channels, layer.query_channels
        return [("wq", (q, c, 1)), ("wk", (q, c, 1)), ("wv", (c, c, 1)),
                ("gamma_attn", ())]
    return []


def param_count(spec: NetworkSpec) -> int:
    total = 0
    for layer in spec.layers:
        for _, shape in _layer_param_shapes(layer):
            total += int(np.prod(shape)) if shape else 1
    return total


def _b64(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _unb64(s: str, shape) -> np.ndarray:
    arr = np.frombuffer(base64.b64decode(s), dtype="<f8").copy()
    return arr.reshape(tuple(shape))


class Network:
    """A NetworkSpec with instantiated parameters and running statistics."""

    def __init__(self, spec: NetworkSpec, params: dict, running: dict, init_seed: int):
        self.spec = spec
        self.params = params          # {"3.weight": Tensor, ...} keyed by layer index
        self.running = running        # {3: {"mean": arr, "var": arr}} for batch_norm
        self.init_seed = init_seed
        self.output_shape = validate(spec)

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
        mode it uses the stored running statistics.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if update_stats is None:
            update_stats = mode == "train"
        x = ad._as_tensor(x)
        expected = self.spec.input_shape
        if x.shape[1:] != expected:
            raise ad.ShapeError(
                f"input shape {x.shape} does not match spec "
                f"[batch, {', '.join(map(str, expected))}]")
        batch = x.shape[0]
        for i, layer in enumerate(self.spec.layers):
            if layer.kind == "dense":
                x = ad.linear(x, self.params[f"{i}.weight"], self.params[f"{i}.bias"])
            elif layer.kind == "conv1d":
                k = self.params[f"{i}.kernel"]
                b = self.params[f"{i}.bias"]
                x = ad.conv1d(x, k, layer.stride, layer.padding)
                x = x + ad.reshape(b, (1, layer.out_channels, 1))
            elif layer.kind == "conv1d_transpose":
                k = self.params[f"{i}.kernel"]
                b = self.params[f"{i}.bias"]
                x = ad.conv1d_transpose(x, k, layer.stride, layer.padding)
                x = x + ad.reshape(b, (1, layer.out_channels, 1))
            elif layer.kind == "batch_norm":
                x = self._batch_norm(i, x, mode, update_stats)
            elif layer.kind == "activation":
                x = ad.activation(x, layer.fn, layer.alpha)
            elif layer.kind == "self_attention":
                x = self._attention(i, x)
            elif layer.kind == "reshape":
                x = ad.reshape(x, (batch,) + layer.shape)
        return x

    def _batch_norm(self, i, x, mode, update_stats):
        # [B, F] per feature, [B, C, L] per channel over batch and length
        gamma = self.params[f"{i}.gamma"]
        beta = self.params[f"{i}.beta"]
        stats = self.running[i]
        if mode == "eval":
            return ad.batch_norm_inference(x, gamma, beta, stats["mean"], stats["var"], BN_EPS)
        out, m, v = ad.batch_norm(x, gamma, beta, BN_EPS)
        if update_stats:
            stats["mean"] = BN_MOMENTUM * stats["mean"] + (1 - BN_MOMENTUM) * m
            stats["var"] = BN_MOMENTUM * stats["var"] + (1 - BN_MOMENTUM) * v
        return out

    def _attention(self, i, x):
        wq = self.params[f"{i}.wq"]
        wk = self.params[f"{i}.wk"]
        wv = self.params[f"{i}.wv"]
        gamma = self.params[f"{i}.gamma_attn"]
        return attention_forward(x, wq, wk, wv, gamma)

    # -- serialization ---------------------------------------------------
    def state_dict(self) -> dict:
        params = {}
        for name, p in self.parameters():
            params[name] = {"shape": list(p.shape), "data": _b64(p.data)}
        running = {}
        for idx, stats in self.running.items():
            running[str(idx)] = {
                "mean": {"shape": list(stats["mean"].shape), "data": _b64(stats["mean"])},
                "var": {"shape": list(stats["var"].shape), "data": _b64(stats["var"])},
            }
        return {
            "spec": self.spec.to_dict(),
            "init_seed": int(self.init_seed),
            "params": params,
            "running": running,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "Network":
        spec = NetworkSpec.from_dict(state["spec"])
        net = build(spec, int(state["init_seed"]))
        if set(state["params"]) != set(net.params):
            raise BuildError(f"checkpoint parameters {sorted(state['params'])} do not "
                             f"match the spec's {sorted(net.params)}")
        if set(state["running"]) != {str(i) for i in net.running}:
            raise BuildError(f"checkpoint running statistics for layers "
                             f"{sorted(state['running'])} do not match the spec's "
                             f"batch-norm layers {sorted(net.running)}")
        for name, entry in state["params"].items():
            arr = _unb64(entry["data"], entry["shape"])
            if arr.shape != net.params[name].shape:
                raise BuildError(f"checkpoint parameter {name!r} has shape "
                                 f"{arr.shape}, spec wants {net.params[name].shape}")
            net.params[name].data = arr
        for idx_str, stats in state["running"].items():
            running = net.running[int(idx_str)]
            for key in ("mean", "var"):
                arr = _unb64(stats[key]["data"], stats[key]["shape"])
                if arr.shape != running[key].shape:
                    raise BuildError(f"checkpoint running {key} of layer {idx_str} has "
                                     f"shape {arr.shape}, spec wants {running[key].shape}")
                running[key] = arr
        return net


def attention_forward(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor,
                      gamma_attn: Tensor) -> Tensor:
    """Self-attention over positions of a [B, C, L] feature map.

    Query/Key/Value are 1x1 convolutions of x. Attention scores are
    Q^T K over positions, normalized with a softmax so each output
    position mixes value vectors with weights summing to one, and the
    result is gated into a residual: out = x + gamma_attn * (V @ map).
    """
    x = ad._as_tensor(x)
    if x.ndim != 3:
        raise ad.ShapeError(f"self_attention expects [batch, channels, length], got {x.shape}")
    q = ad.conv1d(x, wq)                       # [B, Cq, L]
    k = ad.conv1d(x, wk)                       # [B, Cq, L]
    v = ad.conv1d(x, wv)                       # [B, C, L]
    scores = ad.matmul(ad.transpose_last(q), k)    # [B, L, L], scores[b,i,j] = q_i . k_j
    attn = ad.softmax(scores, axis=1)              # columns (fixed j) sum to 1
    term = ad.matmul(v, attn)                      # [B, C, L]
    return x + gamma_attn * term


def build(spec: NetworkSpec, init_seed: int) -> Network:
    """Instantiate parameters for a validated spec.

    Weights are drawn Normal(0, 0.02), biases start at zero, batch-norm
    gains at one, and the attention gate at zero (so attention layers
    begin as the identity). Deterministic for a given seed.
    """
    validate(spec)
    rng = np.random.default_rng(int(init_seed))
    params = {}
    running = {}
    for i, layer in enumerate(spec.layers):
        for name, shape in _layer_param_shapes(layer):
            key = f"{i}.{name}"
            if name in ("weight", "kernel", "wq", "wk", "wv"):
                data = rng.normal(0.0, INIT_STD, size=shape)
            elif name == "gamma":
                data = np.ones(shape)
            else:  # bias, beta, gamma_attn
                data = np.zeros(shape)
            params[key] = Tensor(data, requires_grad=True)
        if layer.kind == "batch_norm":
            running[i] = {"mean": np.zeros(layer.num_features),
                          "var": np.ones(layer.num_features)}
    return Network(spec, params, running, int(init_seed))


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

    def state(self) -> dict:
        return self.rng.bit_generator.state

    def set_state(self, state: dict):
        self.rng.bit_generator.state = state


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
        layers.append(dense(prev, w))
        layers.append(act("tanh"))
        prev = w
    return NetworkSpec(layers, (latent_dim,), "generator")


def _mlp_discriminator(seq_len, role="discriminator"):
    widths = [256, 256, 128]
    layers = []
    prev = seq_len
    for w in widths:
        layers.append(dense(prev, w))
        layers.append(act("tanh"))
        prev = w
    layers.append(dense(prev, 1))
    layers.append(act("sigmoid" if role == "discriminator" else "linear"))
    return NetworkSpec(layers, (seq_len,), role)


_G_CHANNELS = (64, 32, 16)
_D_CHANNELS = (16, 32, 64)


def _conv_generator(seq_len, latent_dim, with_attention=False):
    lengths, kernels = plan_conv_lengths(seq_len)
    c = _G_CHANNELS
    layers = [
        dense(latent_dim, c[0] * lengths[0]),
        reshape_to(c[0], lengths[0]),
        batch_norm(c[0]),
        act("relu"),
    ]
    chain = list(c[1:]) + [1]
    for step, out_ch in enumerate(chain):
        in_ch = c[step]
        layers.append(conv_transpose(in_ch, out_ch, kernels[step], stride=2, padding=1))
        if out_ch == 1:
            layers.append(act("tanh"))
        else:
            layers.append(batch_norm(out_ch))
            layers.append(act("relu"))
            if with_attention and step == len(chain) - 2:
                layers.append(self_attention(out_ch))
    layers.append(reshape_to(seq_len))
    return NetworkSpec(layers, (latent_dim,), "generator")


def _conv_discriminator(seq_len, role="discriminator", use_batch_norm=True,
                        with_attention=False):
    lengths, kernels = plan_conv_lengths(seq_len)
    down_kernels = tuple(reversed(kernels))
    down_lengths = tuple(reversed(lengths))
    c = _D_CHANNELS
    layers = [reshape_to(1, seq_len)]
    prev_ch = 1
    for step, out_ch in enumerate(c):
        layers.append(conv(prev_ch, out_ch, down_kernels[step], stride=2, padding=1))
        if use_batch_norm and step > 0:
            layers.append(batch_norm(out_ch))
        layers.append(act("leaky_relu", alpha=0.2))
        if with_attention and step == 1:
            layers.append(self_attention(out_ch))
        prev_ch = out_ch
    flat = c[-1] * down_lengths[-1]
    layers.append(reshape_to(flat))
    layers.append(dense(flat, 1))
    layers.append(act("sigmoid" if role == "discriminator" else "linear"))
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
