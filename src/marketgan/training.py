"""The alternating adversarial training loop.

Each step runs n_critic discriminator (or critic) updates on fresh real
batches, then one generator update. During the generator update the
discriminator's parameters are frozen (``requires_grad`` off): the loss
still flows through D into G, but no D gradient is formed or kept.

All randomness flows from named streams spawned off the master seed,
every stream's state is serialized into checkpoints, and the loop never
reorders work, so a run is reproducible bit for bit and can resume from a
checkpoint as if it had never stopped. Training always runs the full
epoch budget: loss levels are not a stopping signal for adversarial
training, so model selection happens afterwards from checkpoints.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers as ly
from . import losses
from . import optim
from .autodiff import Tensor
from .market_data import DataError, WindowedDataset, atomic_write_text, open_input

CHECKPOINT_FORMAT = "marketgan-checkpoint"
CHECKPOINT_VERSION = 1


class TrainingDivergedError(RuntimeError):
    """A loss or gradient went non-finite; the run is unsalvageable."""


class CheckpointError(ValueError):
    """A checkpoint document is malformed or inconsistent."""


DEFAULT_EPOCHS = 1000
DEFAULT_BATCH = 32
DEFAULT_SEQ_LEN = 127
DEFAULT_LATENT = 100


def default_n_critic(variant: str) -> int:
    return 5 if variant == "wgan_gp" else 1


def _default_opt() -> dict:
    return {"kind": "adam", "lr": optim.ADAM_LR, "beta1": optim.ADAM_BETA1,
            "beta2": optim.ADAM_BETA2, "eps": optim.ADAM_EPS}


@dataclass
class TrainConfig:
    gan_variant: str = "dcgan1d"
    epochs: int = DEFAULT_EPOCHS
    batch_size: int = DEFAULT_BATCH
    n_critic: int | None = None         # None -> 5 for wgan_gp, 1 otherwise
    latent_dim: int = DEFAULT_LATENT
    seq_len: int = DEFAULT_SEQ_LEN
    seed: int = 0
    checkpoint_interval: int = 0        # epochs between checkpoints, 0 = final only
    gp_lambda: float = losses.GP_LAMBDA
    g_optimizer: dict = field(default_factory=_default_opt)
    d_optimizer: dict = field(default_factory=_default_opt)
    g_loss_variant: str = "non_saturating"
    noise_distribution: str = "uniform"

    def resolved_n_critic(self) -> int:
        return default_n_critic(self.gan_variant) if self.n_critic is None else self.n_critic

    def validate(self):
        if self.gan_variant not in ly.PRESET_NAMES:
            raise ValueError(f"unknown gan_variant {self.gan_variant!r}; "
                             f"expected one of {ly.PRESET_NAMES}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        n_critic = self.resolved_n_critic()
        if n_critic < 1:
            raise ValueError(f"n_critic must be >= 1, got {n_critic}")
        if self.gan_variant != "wgan_gp" and n_critic != 1:
            raise ValueError("n_critic must be 1 for non-Wasserstein variants")
        if self.latent_dim < 1 or self.seq_len < 1:
            raise ValueError("latent_dim and seq_len must be >= 1")
        try:
            # specs only, no weights: the preset's own checks, such as a seq_len
            # too short for three stride-2 stages
            ly.preset(self.gan_variant, self.seq_len, self.latent_dim)
        except ly.BuildError as exc:
            raise ValueError(f"{self.gan_variant} at seq_len {self.seq_len}: {exc}") from exc
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if not self.gp_lambda >= 0:     # NaN too
            raise ValueError(f"gp_lambda must be >= 0, got {self.gp_lambda!r}")
        if self.g_loss_variant not in ("saturating", "non_saturating"):
            raise ValueError(f"unknown g_loss_variant {self.g_loss_variant!r}")
        if self.noise_distribution not in ("uniform", "standard_normal"):
            raise ValueError(f"unknown noise_distribution {self.noise_distribution!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for settings in (self.g_optimizer, self.d_optimizer):
            optim.make_optimizer(settings)      # raises on bad settings

    # flat-dict mirror, also the config-file schema
    def to_flat(self) -> dict:
        d = {
            "gan_variant": self.gan_variant,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "n_critic": self.resolved_n_critic(),
            "latent_dim": self.latent_dim,
            "seq_len": self.seq_len,
            "seed": self.seed,
            "checkpoint_interval": self.checkpoint_interval,
            "gp_lambda": self.gp_lambda,
            "g_loss_variant": self.g_loss_variant,
            "noise_distribution": self.noise_distribution,
        }
        for prefix, opt_settings in (("g", self.g_optimizer), ("d", self.d_optimizer)):
            d[f"{prefix}_optimizer"] = opt_settings.get("kind", "adam")
            d[f"{prefix}_lr"] = opt_settings.get("lr", optim.ADAM_LR)
            d[f"{prefix}_beta1"] = opt_settings.get("beta1", optim.ADAM_BETA1)
            d[f"{prefix}_beta2"] = opt_settings.get("beta2", optim.ADAM_BETA2)
            d[f"{prefix}_eps"] = opt_settings.get("eps", optim.ADAM_EPS)
        return d

    @classmethod
    def from_flat(cls, flat: dict) -> "TrainConfig":
        flat = dict(flat)
        known = {"gan_variant", "epochs", "batch_size", "n_critic", "latent_dim",
                 "seq_len", "seed", "checkpoint_interval", "gp_lambda",
                 "g_loss_variant", "noise_distribution",
                 "g_optimizer", "g_lr", "g_beta1", "g_beta2", "g_eps",
                 "d_optimizer", "d_lr", "d_beta1", "d_beta2", "d_eps",
                 "window_stride", "data"}
        unknown = set(flat) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls()
        for key in ("gan_variant", "g_loss_variant", "noise_distribution"):
            if key in flat:
                setattr(cfg, key, str(flat[key]))
        for key in ("epochs", "batch_size", "latent_dim", "seq_len", "seed",
                    "checkpoint_interval"):
            if key in flat:
                setattr(cfg, key, _whole_number(key, flat[key]))
        if "n_critic" in flat and flat["n_critic"] is not None:
            cfg.n_critic = _whole_number("n_critic", flat["n_critic"])
        if "gp_lambda" in flat:
            cfg.gp_lambda = _real_number("gp_lambda", flat["gp_lambda"])
        for prefix, target in (("g", cfg.g_optimizer), ("d", cfg.d_optimizer)):
            if f"{prefix}_optimizer" in flat:
                target["kind"] = str(flat[f"{prefix}_optimizer"])
            for part in ("lr", "beta1", "beta2", "eps"):
                key = f"{prefix}_{part}"
                if key in flat:
                    target[part] = _real_number(key, flat[key])
        return cfg


def _whole_number(key: str, value) -> int:
    """A config value as an int. Bools and numbers with a fractional part
    (or non-finite ones) raise a ValueError naming ``key`` instead of being
    truncated; whole numbers such as 3 or 3.0 pass."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key} must be a whole number, got {value!r}") from exc


def _real_number(key: str, value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key} must be a number, got {value!r}") from exc


@dataclass
class LossRecord:
    step: int
    epoch: int
    phase: str          # "d" or "g"
    d_loss: float | None
    g_loss: float | None
    gp_term: float | None


class TrainState:
    """Everything needed to continue (or interrogate) a training run."""

    def __init__(self, config: TrainConfig, g_net: ly.Network, d_net: ly.Network,
                 g_opt, d_opt, noise: ly.NoiseSource, shuffle_rng, gp_rng, diag_rng,
                 data_scale: float, n_windows: int):
        self.config = config
        self.g_net = g_net
        self.d_net = d_net
        self.g_opt = g_opt
        self.d_opt = d_opt
        self.noise = noise
        self.shuffle_rng = shuffle_rng
        self.gp_rng = gp_rng
        self.diag_rng = diag_rng
        self.data_scale = float(data_scale)
        self.n_windows = int(n_windows)
        self.epoch = 0
        self.step = 0
        self.history: list = []             # LossRecord per parameter update
        self.diversity_history: list = []   # (epoch, value)
        self.grad_norm_history: list = []   # (step, mean interpolate grad norm)


def _fresh_state(config: TrainConfig, dataset: WindowedDataset) -> TrainState:
    ss = np.random.SeedSequence(config.seed)
    g_init, d_init, noise_seed, shuffle_seed, gp_seed, diag_seed = ss.spawn(6)
    g_spec, d_spec = ly.preset(config.gan_variant, config.seq_len, config.latent_dim)
    g_net = ly.build(g_spec, g_init.generate_state(1)[0])
    d_net = ly.build(d_spec, d_init.generate_state(1)[0])
    noise = ly.NoiseSource(config.noise_distribution, config.latent_dim, noise_seed)
    return TrainState(
        config, g_net, d_net,
        optim.make_optimizer(config.g_optimizer),
        optim.make_optimizer(config.d_optimizer),
        noise,
        np.random.default_rng(shuffle_seed),
        np.random.default_rng(gp_seed),
        np.random.default_rng(diag_seed),
        dataset.scale, len(dataset),
    )


def _check_dataset(config: TrainConfig, dataset: WindowedDataset):
    if len(dataset) == 0:
        raise ValueError("dataset has no windows")
    if dataset.window_length != config.seq_len:
        raise ValueError(
            f"dataset windows have length {dataset.window_length}, "
            f"config wants seq_len {config.seq_len}")


def _record(writer, state, rec: LossRecord):
    state.history.append(rec)
    if writer is not None:
        writer(rec)


def train(config: TrainConfig, dataset: WindowedDataset, *,
          checkpoint_hook=None, record_hook=None) -> TrainState:
    """Train from scratch for config.epochs epochs. Hooks are optional:
    checkpoint_hook(state) fires every checkpoint_interval epochs,
    record_hook(LossRecord) fires per parameter update."""
    config.validate()
    _check_dataset(config, dataset)
    state = _fresh_state(config, dataset)
    return _run(state, dataset, checkpoint_hook, record_hook)


def resume(state: TrainState, dataset: WindowedDataset, *,
           checkpoint_hook=None, record_hook=None) -> TrainState:
    """Continue a loaded state to state.config.epochs. The continuation is
    bit-identical to a run that never stopped."""
    state.config.validate()
    _check_dataset(state.config, dataset)
    if len(dataset) != state.n_windows or dataset.scale != state.data_scale:
        raise CheckpointError(
            "dataset does not match the one this checkpoint was trained on "
            f"(windows {len(dataset)} vs {state.n_windows}, "
            f"scale {dataset.scale!r} vs {state.data_scale!r})")
    return _run(state, dataset, checkpoint_hook, record_hook)


def _run(state: TrainState, dataset: WindowedDataset, checkpoint_hook, record_hook):
    config = state.config
    wasserstein = config.gan_variant == "wgan_gp"
    n_critic = config.resolved_n_critic()
    windows = dataset.windows
    n = len(windows)
    ref_batch = windows[: min(config.batch_size, n)]

    for epoch in range(state.epoch, config.epochs):
        order = state.shuffle_rng.permutation(n)
        batches = [order[i: i + config.batch_size]
                   for i in range(0, n, config.batch_size)]
        # a singleton batch breaks batch statistics, drop it
        batches = [b for b in batches if len(b) >= 2]
        i = 0
        while i < len(batches):
            group = batches[i: i + n_critic]
            i += len(group)
            state.step += 1
            for idx in group:
                _d_update(state, windows[idx], wasserstein, epoch, record_hook)
            _g_update(state, wasserstein, epoch, record_hook)
        state.epoch = epoch + 1
        gen = _sample_eval(state, len(ref_batch), state.diag_rng)
        try:
            div = diversity_diagnostic(gen, ref_batch)
        except ValueError:
            div = float("nan")
        state.diversity_history.append((state.epoch, div))
        if (checkpoint_hook is not None and config.checkpoint_interval > 0
                and state.epoch % config.checkpoint_interval == 0
                and state.epoch < config.epochs):
            checkpoint_hook(state)
    if checkpoint_hook is not None:
        checkpoint_hook(state)
    return state


def _d_update(state, real_rows, wasserstein, epoch, record_hook):
    config = state.config
    batch = real_rows.shape[0]
    real = Tensor(real_rows)
    try:
        z = state.noise.sample(batch)
        with ad.no_grad():
            fake = state.g_net.forward(z, mode="train", update_stats=False)
        d_real = state.d_net.forward(real, mode="train", update_stats=True)
        d_fake = state.d_net.forward(fake, mode="train", update_stats=True)
        if wasserstein:
            critic_loss, _ = losses.wasserstein_losses(d_real, d_fake)
            gp, mean_norm = losses.gradient_penalty(
                state.d_net, real.data, fake.data, config.gp_lambda, state.gp_rng)
            total = critic_loss + gp
            gp_value = gp.item()
            d_value = critic_loss.item()
            state.grad_norm_history.append((state.step, mean_norm))
        else:
            total = losses.minimax_d_loss(d_real, d_fake)
            d_value = total.item()
            gp_value = None
        state.d_net.zero_grad()
        state.g_net.zero_grad()
        ad.backward(total)
        state.d_opt.step(state.d_net.parameters())
    except ad.NonFiniteError as e:
        raise TrainingDivergedError(
            f"non-finite value in discriminator phase at step {state.step}, "
            f"epoch {epoch}: {e}") from e
    _record(record_hook, state,
            LossRecord(state.step, epoch, "d", d_value, None, gp_value))


@contextmanager
def _frozen(net: ly.Network):
    """Switch off gradients for net's parameters; they come back on exit,
    also when the body raises."""
    params = list(net.params.values())
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = True


def _g_update(state, wasserstein, epoch, record_hook):
    config = state.config
    try:
        # zero first: the D phase left its gradients on the parameters
        state.d_net.zero_grad()
        with _frozen(state.d_net):
            z = state.noise.sample(config.batch_size)
            fake = state.g_net.forward(z, mode="train", update_stats=True)
            d_fake = state.d_net.forward(fake, mode="train", update_stats=False)
            if wasserstein:
                g_loss = ad.neg(ad.tmean(d_fake))
            else:
                g_loss = losses.minimax_g_loss(d_fake, config.g_loss_variant)
            g_value = g_loss.item()
            state.g_net.zero_grad()
            ad.backward(g_loss)     # flows through the frozen D into G
        state.g_opt.step(state.g_net.parameters())
    except ad.NonFiniteError as e:
        raise TrainingDivergedError(
            f"non-finite value in generator phase at step {state.step}, "
            f"epoch {epoch}: {e}") from e
    _record(record_hook, state,
            LossRecord(state.step, epoch, "g", None, g_value, None))


def _sample_eval(state, n_series: int, rng) -> np.ndarray:
    """Generator output in eval mode using the given RNG for noise."""
    config = state.config
    out = np.empty((n_series, config.seq_len))
    # NoiseSource draws from the given Generator itself, advancing its stream
    noise = ly.NoiseSource(config.noise_distribution, config.latent_dim, rng)
    done = 0
    with ad.no_grad():
        while done < n_series:
            take = min(256, n_series - done)
            out[done: done + take] = state.g_net.forward(noise.sample(take), mode="eval").data
            done += take
    return out


def generate(state: TrainState, n_series: int, seed: int) -> np.ndarray:
    """n_series normalized return windows from the trained generator,
    deterministic per seed and independent of the training RNG streams.
    Values lie in (-1, 1); multiply by the dataset scale to get returns."""
    if n_series < 1:
        raise ValueError("n_series must be >= 1")
    return _sample_eval(state, n_series, np.random.default_rng(int(seed)))


def diversity_diagnostic(generated: np.ndarray, real: np.ndarray) -> float:
    """Mean pairwise distance among generated windows, normalized by the
    same statistic on a real batch. Values near 0 flag mode collapse;
    a batch as spread out as real data scores about 1 (an unusually
    dispersed batch can exceed 1)."""
    gen = np.asarray(generated, dtype=np.float64)
    ref = np.asarray(real, dtype=np.float64)
    if gen.ndim != 2 or ref.ndim != 2:
        raise ValueError("diversity_diagnostic expects 2-D window batches")
    if gen.shape[0] < 2 or ref.shape[0] < 2:
        raise ValueError("diversity_diagnostic needs at least 2 windows per batch")
    num = _mean_pairwise_distance(gen)
    den = _mean_pairwise_distance(ref)
    if den == 0.0:
        raise ValueError("real batch has zero pairwise diversity")
    return float(num / den)


def _mean_pairwise_distance(x: np.ndarray) -> float:
    n = x.shape[0]
    sq = (x ** 2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    iu = np.triu_indices(n, k=1)
    return float(np.sqrt(np.maximum(d2[iu], 0.0)).mean())


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------

def checkpoint_document(state: TrainState) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": state.config.to_flat(),
        "epoch": state.epoch,
        "step": state.step,
        "data_scale": state.data_scale,
        "n_windows": state.n_windows,
        "generator": state.g_net.state_dict(),
        "discriminator": state.d_net.state_dict(),
        "g_optimizer": state.g_opt.state_dict(),
        "d_optimizer": state.d_opt.state_dict(),
        "rng": {
            "noise": state.noise.rng.bit_generator.state,
            "shuffle": state.shuffle_rng.bit_generator.state,
            "gp": state.gp_rng.bit_generator.state,
            "diag": state.diag_rng.bit_generator.state,
        },
    }


@contextmanager
def _reading(key: str):
    """Turn a lookup, type or decode failure inside the block into a
    CheckpointError that names the checkpoint field being read."""
    try:
        yield
    except CheckpointError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as e:
        raise CheckpointError(f"checkpoint field {key!r} is malformed: {e!r}") from e


def _check_arrays(key: str, arrays: dict, non_negative: bool = False):
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"checkpoint field {key!r}: {name} is not finite")
        if non_negative and (arr < 0).any():
            raise CheckpointError(f"checkpoint field {key!r}: {name} has negative entries")


def _check_network(key: str, net: ly.Network):
    _check_arrays(key, {name: p.data for name, p in net.params.items()})
    for idx, stats in net.running.items():
        _check_arrays(key, {f"running mean of layer {idx}": stats["mean"]})
        _check_arrays(key, {f"running var of layer {idx}": stats["var"]},
                      non_negative=True)


def _check_optimizer(key: str, opt, net: ly.Network):
    """Adam's moments must continue the run exactly: none before the first
    step, afterwards one finite entry per parameter with its shape (and a
    non-negative second moment)."""
    if not isinstance(opt, optim.Adam):
        return
    if opt.t < 0:
        raise CheckpointError(f"checkpoint field {key!r}: step count {opt.t} is negative")
    expected = set(net.params) if opt.t > 0 else set()
    for part, moments in (("m", opt.m), ("v", opt.v)):
        if set(moments) != expected:
            raise CheckpointError(
                f"checkpoint field {key!r}: Adam {part} at step {opt.t} has entries "
                f"{sorted(moments)}, expected {sorted(expected)}")
        for name, arr in moments.items():
            if arr.shape != net.params[name].shape:
                raise CheckpointError(
                    f"checkpoint field {key!r}: Adam {part}[{name!r}] has shape "
                    f"{arr.shape}, the parameter has {net.params[name].shape}")
        _check_arrays(key, {f"Adam {part}[{name!r}]": arr for name, arr in moments.items()},
                      non_negative=part == "v")


def _count(key: str, value) -> int:
    with _reading(key):
        n = int(value)
    if n < 0:
        raise CheckpointError(f"checkpoint field {key!r} is negative: {n}")
    return n


def state_from_document(doc: dict) -> TrainState:
    """Rebuild a TrainState from a checkpoint document. Every malformed,
    missing or non-finite field raises CheckpointError naming it."""
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint is not a JSON object")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a training checkpoint (bad format tag)")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
    with _reading("config"):
        config = TrainConfig.from_flat(doc["config"])
        config.validate()
        specs = ly.preset(config.gan_variant, config.seq_len, config.latent_dim)
    nets = {}
    for key, spec in zip(("generator", "discriminator"), specs):
        with _reading(key):
            nets[key] = ly.Network.from_state_dict(doc[key])
        if nets[key].spec != spec:
            raise CheckpointError(f"checkpoint field {key!r}: spec is not the preset "
                                  f"its config names ({config.gan_variant})")
        _check_network(key, nets[key])
    opts = {}
    for key, net in (("g_optimizer", nets["generator"]),
                     ("d_optimizer", nets["discriminator"])):
        with _reading(key):
            opts[key] = optim.restore_optimizer(doc[key])
        _check_optimizer(key, opts[key], net)
    with _reading("data_scale"):
        data_scale = float(doc["data_scale"])
    if not (math.isfinite(data_scale) and data_scale > 0):
        raise CheckpointError(f"checkpoint field 'data_scale' must be positive "
                              f"and finite, got {data_scale!r}")
    n_windows = _count("n_windows", doc.get("n_windows"))
    epoch = _count("epoch", doc.get("epoch"))
    step = _count("step", doc.get("step"))
    with _reading("rng"):
        rng_doc = dict(doc["rng"])
    with _reading("rng.noise"):
        noise = ly.NoiseSource(config.noise_distribution, config.latent_dim, 0)
        noise.rng.bit_generator.state = rng_doc["noise"]
    state = TrainState(
        config, nets["generator"], nets["discriminator"],
        opts["g_optimizer"], opts["d_optimizer"], noise,
        np.random.default_rng(0), np.random.default_rng(0), np.random.default_rng(0),
        data_scale, n_windows,
    )
    for name, rng in (("shuffle", state.shuffle_rng), ("gp", state.gp_rng),
                      ("diag", state.diag_rng)):
        with _reading(f"rng.{name}"):
            rng.bit_generator.state = rng_doc[name]
    state.epoch = epoch
    state.step = step
    return state


def save_checkpoint(state: TrainState, path):
    doc = checkpoint_document(state)
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=None,
                                       separators=(",", ":")) + "\n")


def load_checkpoint(path) -> TrainState:
    try:
        with open_input(path) as f:
            doc = json.load(f)
    except DataError as e:
        raise CheckpointError(f"checkpoint: {e}") from e
    except json.JSONDecodeError as e:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {e}") from e
    return state_from_document(doc)
