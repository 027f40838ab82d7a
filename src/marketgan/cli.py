"""Command-line driver: train, generate, evaluate, report.

Exit codes are a stable contract: 0 success, 2 configuration error,
3 data or IO error, 4 numeric divergence or degenerate series. Every
artifact is written atomically (temp file plus rename) and all text
output is UTF-8 with LF line endings, so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import plots
from . import stylized_facts as sf
from . import training
from .autodiff import NonFiniteError
from .market_data import (DataError, atomic_write_text, load_return_series,
                          normalize_and_window, open_input, returns_to_prices,
                          write_returns_csv)
from .stylized_facts import DegenerateSeriesError, FactThresholds
from .training import (CheckpointError, TrainConfig, TrainingDivergedError,
                       load_checkpoint, save_checkpoint)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

MANIFEST_FORMAT = "marketgan-manifest"

LOSS_HEADER = "step,epoch,phase,d_loss,g_loss,gp_term"
ACF_HEADER = "lag,candidate,reference,band"
PDF_HEADER = "bin_center,candidate_density,reference_density"
SERIES_HEADER = "index,candidate,reference"


class CliError(Exception):
    """Carries the exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                digest.update(chunk)
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read {path}: {exc}") from exc
    return digest.hexdigest()


def _num(value) -> str:
    """Canonical decimal text for CSV cells; None becomes an empty cell."""
    if value is None:
        return ""
    return repr(float(value))


def _ensure_out_dir(out: str) -> str:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot create output directory {out}: {exc}") from exc
    return out


def _load_config_file(path) -> dict:
    try:
        with open_input(path) as fh:
            doc = json.load(fh)
    except DataError as exc:
        raise CliError(EXIT_DATA, f"bad config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_CONFIG, f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(EXIT_CONFIG, f"config {path} must be a JSON object")
    return doc


def _write_manifest(out: str, command: str, config: dict, seed: int,
                    inputs: dict, artifacts: dict, started: str):
    doc = {
        "format": MANIFEST_FORMAT,
        "tool_version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "inputs": inputs,
        "artifacts": artifacts,
        "started_utc": started,
        "finished_utc": _utc_now(),
    }
    path = os.path.join(out, "manifest.json")
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
    return path


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------

def _window_stride(value) -> int:
    try:
        stride = training._whole_number("window_stride", value)
    except ValueError as exc:
        raise CliError(EXIT_CONFIG, f"bad training config: {exc}") from exc
    if stride < 1:
        raise CliError(EXIT_CONFIG, f"window_stride must be >= 1, got {stride}")
    return stride


def _merged_train_config(args, state) -> tuple[TrainConfig, str, int]:
    """The base layer, then the config file, then the flags. The base is {}
    for a fresh run; on resume (``state`` is the loaded checkpoint) it is the
    checkpoint's flat config, and only its epochs may change, to no earlier
    than the checkpoint's epoch. Returns (config, data path, stride)."""
    base = state.config.to_flat() if state is not None else {}
    flat = dict(base)
    flat.update(_load_config_file(args.config) if args.config else {})
    overrides = {
        "gan_variant": args.variant,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "seq_len": args.seq_len,
        "latent_dim": args.latent_dim,
        "n_critic": args.n_critic,
        "checkpoint_interval": args.checkpoint_interval,
        "seed": args.seed,
        "gp_lambda": args.gp_lambda,
        "data": args.data,
        "window_stride": args.window_stride,
    }
    for key, value in overrides.items():
        if value is not None:
            flat[key] = value
    data = flat.pop("data", None)
    stride = flat.pop("window_stride", 1)
    if data is None:
        raise CliError(EXIT_CONFIG, "no input data: pass --data or a config 'data' key")
    stride = _window_stride(stride)
    try:
        config = TrainConfig.from_flat(flat)
        merged = config.to_flat()
        changed = sorted(k for k in base if k != "epochs" and merged[k] != base[k])
        if changed:
            raise CliError(EXIT_CONFIG, "--resume cannot change "
                           + ", ".join(f"{k} ({base[k]!r} -> {merged[k]!r})"
                                       for k in changed))
        config.validate()
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_CONFIG, f"bad training config: {exc}") from exc
    if state is not None and config.epochs < state.epoch:
        raise CliError(EXIT_CONFIG, f"epochs {config.epochs} is before the "
                                    f"checkpoint's epoch {state.epoch}")
    return config, str(data), stride


def _loss_csv_text(history) -> str:
    lines = [LOSS_HEADER]
    for rec in history:
        lines.append(f"{rec.step},{rec.epoch},{rec.phase},"
                     f"{_num(rec.d_loss)},{_num(rec.g_loss)},{_num(rec.gp_term)}")
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    started = _utc_now()
    state = None
    if args.resume:
        try:
            state = load_checkpoint(args.resume)
        except CheckpointError as exc:
            raise CliError(EXIT_DATA, f"bad checkpoint: {exc}") from exc
    config, data_path, stride = _merged_train_config(args, state)
    if state is not None:
        state.config.epochs = config.epochs
    out = _ensure_out_dir(args.out)
    try:
        returns = load_return_series(data_path)
        dataset = normalize_and_window(returns.values, config.seq_len, stride)
    except (DataError, OSError) as exc:
        raise CliError(EXIT_DATA, f"bad input data: {exc}") from exc
    if dataset.windows.shape[0] < 2:
        raise CliError(EXIT_DATA,
                       f"only {dataset.windows.shape[0]} window(s) of length "
                       f"{config.seq_len}; need at least 2")

    ckpt_path = os.path.join(out, "checkpoint.json")

    def checkpoint_hook(st):
        save_checkpoint(st, ckpt_path)

    try:
        if state is not None:
            state = training.resume(state, dataset, checkpoint_hook=checkpoint_hook)
        else:
            state = training.train(config, dataset, checkpoint_hook=checkpoint_hook)
    except CheckpointError as exc:
        raise CliError(EXIT_DATA, f"cannot resume: {exc}") from exc
    except TrainingDivergedError as exc:
        raise CliError(EXIT_NUMERIC, f"training diverged: {exc}") from exc
    except NonFiniteError as exc:
        raise CliError(EXIT_NUMERIC, f"non-finite value during training: {exc}") from exc

    losses_path = os.path.join(out, "losses.csv")
    atomic_write_text(losses_path, _loss_csv_text(state.history))
    manifest_config = state.config.to_flat()
    manifest_config["window_stride"] = stride
    manifest_path = _write_manifest(
        out, "train", manifest_config, state.config.seed,
        {"data": {"path": data_path, "sha256": _sha256_file(data_path)}},
        {"checkpoint": os.path.basename(ckpt_path),
         "losses": os.path.basename(losses_path)},
        started)
    print(f"trained {state.config.gan_variant} for {state.epoch} epochs "
          f"({state.step} steps) on {dataset.windows.shape[0]} windows")
    print(f"wrote {ckpt_path}, {losses_path}, {manifest_path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------

def cmd_generate(args) -> int:
    started = _utc_now()
    if args.n < 1:
        raise CliError(EXIT_CONFIG, f"--n must be >= 1, got {args.n}")
    if args.p0 is not None and args.p0 <= 0:
        raise CliError(EXIT_CONFIG, f"--p0 must be positive, got {args.p0}")
    if args.prices and args.p0 is None:
        raise CliError(EXIT_CONFIG, "--prices needs --p0 <initial price>")
    try:
        state = load_checkpoint(args.checkpoint)
    except CheckpointError as exc:
        raise CliError(EXIT_DATA, f"bad checkpoint: {exc}") from exc
    out = _ensure_out_dir(args.out)
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise CliError(EXIT_CONFIG, f"--seed must be >= 0, got {seed}")

    seq_len = state.config.seq_len
    n_windows = -(-args.n // seq_len)
    try:
        windows = training.generate(state, n_windows, seed)
    except NonFiniteError as exc:
        raise CliError(EXIT_NUMERIC, f"generator produced non-finite output: {exc}") from exc
    values = windows.reshape(-1)[: args.n] * state.data_scale

    returns_path = os.path.join(out, "generated.csv")
    write_returns_csv(returns_path, values)
    artifacts = {"returns": os.path.basename(returns_path)}

    if args.prices:
        prices = returns_to_prices(values, args.p0)
        lines = ["index,price"]
        lines.extend(f"{i},{_num(p)}" for i, p in enumerate(prices))
        prices_path = os.path.join(out, "generated_prices.csv")
        atomic_write_text(prices_path, "\n".join(lines) + "\n")
        artifacts["prices"] = os.path.basename(prices_path)

    manifest_config = state.config.to_flat()
    manifest_config["n"] = args.n
    _write_manifest(out, "generate", manifest_config, seed,
                    {"checkpoint": {"path": str(args.checkpoint),
                                    "sha256": _sha256_file(args.checkpoint)}},
                    artifacts, started)
    print(f"wrote {args.n} generated returns to {returns_path}")
    return EXIT_OK


# ----------------------------------------------------------------------
# evaluate
# ----------------------------------------------------------------------

def _load_series(path, label: str) -> np.ndarray:
    try:
        return load_return_series(path).values
    except (DataError, OSError) as exc:
        raise CliError(EXIT_DATA, f"cannot load {label} series: {exc}") from exc


def _acf_csv_text(cand: np.ndarray, ref: np.ndarray, max_lag: int) -> str:
    rho_c = sf.acf(cand, max_lag)
    rho_r = sf.acf(ref, max_lag)
    band = sf.confidence_band(len(cand))
    lines = [ACF_HEADER]
    for lag in range(1, max_lag + 1):
        lines.append(f"{lag},{_num(rho_c[lag - 1])},{_num(rho_r[lag - 1])},{_num(band)}")
    return "\n".join(lines) + "\n"


def _pdf_csv_text(cand: np.ndarray, ref: np.ndarray, bins: int) -> str:
    lo = min(cand.min(), ref.min())
    hi = max(cand.max(), ref.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    cand_density, _ = np.histogram(cand, bins=edges, density=True)
    ref_density, _ = np.histogram(ref, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    lines = [PDF_HEADER]
    for c, dc, dr in zip(centers, cand_density, ref_density):
        lines.append(f"{_num(c)},{_num(dc)},{_num(dr)}")
    return "\n".join(lines) + "\n"


def _series_pair_csv_text(cand: np.ndarray, ref: np.ndarray) -> str:
    lines = [SERIES_HEADER]
    for i in range(max(len(cand), len(ref))):
        c = _num(cand[i]) if i < len(cand) else ""
        r = _num(ref[i]) if i < len(ref) else ""
        lines.append(f"{i},{c},{r}")
    return "\n".join(lines) + "\n"


def cmd_evaluate(args) -> int:
    started = _utc_now()
    cand = _load_series(args.candidate, "candidate")
    ref = _load_series(args.reference, "reference")
    out = _ensure_out_dir(args.out)
    thresholds = FactThresholds()
    if args.max_lag is not None:
        if args.max_lag < 1:
            raise CliError(EXIT_CONFIG, f"--max-lag must be >= 1, got {args.max_lag}")
        thresholds = FactThresholds(
            linear_max_lag=args.max_lag,
            volatility_max_lag=args.max_lag,
            volatility_summary_lags=min(thresholds.volatility_summary_lags,
                                        args.max_lag))
    if args.bins < 2:
        raise CliError(EXIT_CONFIG, f"--bins must be >= 2, got {args.bins}")
    try:
        report = sf.evaluate(cand, ref, thresholds)
    except DegenerateSeriesError as exc:
        raise CliError(EXIT_NUMERIC, f"degenerate series: {exc}") from exc
    except sf.InsufficientDataError as exc:
        raise CliError(EXIT_DATA, f"not enough data: {exc}") from exc

    report_path = os.path.join(out, "report.json")
    atomic_write_text(report_path, json.dumps(report.to_dict(), indent=2) + "\n")
    try:
        acf_text = _acf_csv_text(cand, ref, thresholds.linear_max_lag)
    except sf.InsufficientDataError as exc:
        raise CliError(EXIT_DATA, f"not enough data for the ACF table: {exc}") from exc
    atomic_write_text(os.path.join(out, "acf.csv"), acf_text)
    atomic_write_text(os.path.join(out, "pdf.csv"), _pdf_csv_text(cand, ref, args.bins))
    atomic_write_text(os.path.join(out, "returns.csv"), _series_pair_csv_text(cand, ref))
    atomic_write_text(os.path.join(out, "prices.csv"),
                      _series_pair_csv_text(returns_to_prices(cand, 1.0),
                                            returns_to_prices(ref, 1.0)))
    _write_manifest(
        out, "evaluate",
        {"max_lag": thresholds.linear_max_lag, "bins": args.bins,
         "thresholds": thresholds.to_dict()},
        0,
        {"candidate": {"path": str(args.candidate),
                       "sha256": _sha256_file(args.candidate)},
         "reference": {"path": str(args.reference),
                       "sha256": _sha256_file(args.reference)}},
        {"report": "report.json", "acf": "acf.csv", "pdf": "pdf.csv",
         "returns": "returns.csv", "prices": "prices.csv"},
        started)
    passed = sum(1 for v in report.verdicts.values() if v)
    print(f"wrote {report_path} ({passed}/{len(report.verdicts)} fact verdicts pass)")
    return EXIT_OK


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def cmd_report(args) -> int:
    out = args.out
    rendered = []
    for name, renderer in plots.RENDERERS.items():
        csv_path = os.path.join(out, name)
        if not os.path.exists(csv_path):
            raise CliError(EXIT_DATA, f"missing plot data {csv_path}; run evaluate first")
        svg_path = os.path.join(out, name[: -len(".csv")] + ".svg")
        try:
            renderer(csv_path, svg_path)
        except (DataError, ValueError) as exc:
            raise CliError(EXIT_DATA, f"cannot render {csv_path}: {exc}") from exc
        rendered.append(svg_path)
    print("wrote " + ", ".join(rendered))
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketgan",
        description="Train GAN variants on daily log returns and score the "
                    "output against stylized facts of financial time series.")
    parser.add_argument("--version", action="version", version=f"marketgan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default=".", metavar="DIR",
                        help="output directory (default: current directory)")

    p = sub.add_parser("train", parents=[shared],
                       help="train a GAN variant on a price or return CSV")
    p.add_argument("--config", metavar="PATH",
                   help="flat JSON config file; flags override its values")
    p.add_argument("--seed", type=int, metavar="U64", help="master RNG seed")
    p.add_argument("--data", metavar="PATH",
                   help="input CSV: date,adjusted_close prices or index,log_return returns")
    p.add_argument("--variant", choices=("mlp_gan", "dcgan1d", "wgan_gp", "sagan1d"),
                   help="network preset (default dcgan1d)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seq-len", type=int, help="window length in trading days")
    p.add_argument("--latent-dim", type=int)
    p.add_argument("--n-critic", type=int,
                   help="critic updates per generator update (wgan_gp only)")
    p.add_argument("--window-stride", type=int,
                   help="stride between training windows (default 1)")
    p.add_argument("--checkpoint-interval", type=int,
                   help="epochs between checkpoint writes (default: final only)")
    p.add_argument("--gp-lambda", type=float, help="gradient penalty weight")
    p.add_argument("--resume", metavar="CKPT",
                   help="continue training from a checkpoint file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", parents=[shared],
                       help="sample log returns from a trained checkpoint")
    p.add_argument("--checkpoint", required=True, metavar="PATH")
    p.add_argument("--seed", type=int, metavar="U64", help="noise seed (default 0)")
    p.add_argument("--n", type=int, required=True, help="number of return values")
    p.add_argument("--prices", action="store_true",
                   help="also write a price path (needs --p0)")
    p.add_argument("--p0", type=float, help="initial price for --prices")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", parents=[shared],
                       help="score a candidate series against a reference")
    p.add_argument("--candidate", required=True, metavar="PATH")
    p.add_argument("--reference", required=True, metavar="PATH")
    p.add_argument("--max-lag", type=int, help="ACF lags for the report (default 20)")
    p.add_argument("--bins", type=int, default=50, help="histogram bins for pdf.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", parents=[shared],
                       help="render SVG plots from evaluate's CSV output")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (TrainingDivergedError, NonFiniteError, DegenerateSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
