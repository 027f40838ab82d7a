"""End-to-end tests of the command-line driver, run in process.

Each command is exercised through main(argv) so the exit-code contract
and the artifact layout are tested exactly as a shell user sees them.
"""

import base64
import datetime
import errno
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import marketgan
from conftest import huge_config_checkpoint, overflowing_series
from marketgan import stylized_facts as sf
from marketgan.cli import main
from marketgan.market_data import load_return_series, write_returns_csv

REPORT_KEY_ORDER = [
    "moments", "linear_unpredictability", "heavy_tails",
    "volatility_clustering", "gain_loss_asymmetry",
    "aggregational_gaussianity", "ks_statistic", "wasserstein1",
    "leverage_effect", "verdicts", "thresholds",
]

TRAIN_FLAGS = ["--variant", "mlp_gan", "--epochs", "1", "--batch-size", "8",
               "--seq-len", "8", "--latent-dim", "4", "--seed", "5"]
NOT_UTF8 = b"\xff\xfeindex,log_return\n0,0.01\n"


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A tiny but complete pipeline: data file, one trained checkpoint,
    and two long return series for evaluation."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "returns.csv"
    write_returns_csv(data, np.random.default_rng(0).normal(0.0, 0.02, 100))
    train_out = root / "trained"
    assert main(["train", "--data", str(data), "--out", str(train_out)]
                + TRAIN_FLAGS) == 0
    # mlp_gan has no batch norm; this checkpoint stores running statistics
    bn_out = root / "trained_bn"
    assert main(["train", "--data", str(data), "--out", str(bn_out), "--variant",
                 "dcgan1d", "--epochs", "1", "--batch-size", "8", "--seq-len", "32",
                 "--latent-dim", "4", "--seed", "5"]) == 0
    big_a = root / "big_a.csv"
    write_returns_csv(big_a, np.random.default_rng(1).normal(0.0, 0.01, 2000))
    big_b = root / "big_b.csv"
    write_returns_csv(big_b, np.random.default_rng(2).standard_t(5, 2000) * 0.01)
    return {"root": root, "data": data, "train_out": train_out,
            "ckpt": train_out / "checkpoint.json", "bn_ckpt": bn_out / "checkpoint.json",
            "big_a": big_a, "big_b": big_b}


class TestTrainCommand:
    def test_writes_all_artifacts(self, work):
        out = work["train_out"]
        assert (out / "checkpoint.json").exists()
        assert (out / "losses.csv").exists()
        assert (out / "manifest.json").exists()

    def test_losses_csv_reparses(self, work):
        lines = (work["train_out"] / "losses.csv").read_text().splitlines()
        assert lines[0] == "step,epoch,phase,d_loss,g_loss,gp_term"
        assert len(lines) > 1
        for line in lines[1:]:
            step, epoch, phase, d, g, gp = line.split(",")
            int(step), int(epoch)
            assert phase in ("d", "g")
            assert gp == ""            # not a Wasserstein run
            if phase == "d":
                float(d)
                assert g == ""
            else:
                float(g)
                assert d == ""

    def test_manifest_contents(self, work):
        doc = json.loads((work["train_out"] / "manifest.json").read_text())
        assert doc["format"] == "marketgan-manifest"
        assert doc["command"] == "train"
        assert doc["seed"] == 5
        assert doc["config"]["gan_variant"] == "mlp_gan"
        assert doc["config"]["window_stride"] == 1
        assert doc["artifacts"] == {"checkpoint": "checkpoint.json",
                                    "losses": "losses.csv"}
        expected = hashlib.sha256(work["data"].read_bytes()).hexdigest()
        assert doc["inputs"]["data"]["sha256"] == expected
        for key in ("started_utc", "finished_utc"):
            datetime.datetime.fromisoformat(doc[key])

    def test_manifest_records_the_numeric_build(self, work):
        build = json.loads((work["train_out"] / "manifest.json").read_text())["build"]
        assert build["python"] == platform.python_version()
        assert build["numpy"] == np.__version__
        assert build["blas"] is None or set(build["blas"]) == {"name", "version"}
        assert build["threads"] == {k: v for k, v in os.environ.items()
                                    if k.endswith("_NUM_THREADS")}

    def test_repeat_run_is_byte_identical(self, work, tmp_path):
        args = ["train", "--data", str(work["data"])] + TRAIN_FLAGS
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("checkpoint.json", "losses.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_config_file_with_flag_override(self, work, tmp_path):
        cfg = {"gan_variant": "mlp_gan", "epochs": 1, "batch_size": 8,
               "seq_len": 8, "latent_dim": 4, "seed": 5,
               "data": str(work["data"])}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--epochs", "2",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["epochs"] == 2          # flag wins
        assert doc["config"]["seq_len"] == 8         # file value kept

    def test_resume_matches_straight_run(self, work, tmp_path):
        args = ["train", "--data", str(work["data"])] + TRAIN_FLAGS
        straight = tmp_path / "straight"
        assert main(["train", "--data", str(work["data"]), "--out", str(straight),
                     "--variant", "mlp_gan", "--epochs", "2", "--batch-size", "8",
                     "--seq-len", "8", "--latent-dim", "4", "--seed", "5"]) == 0
        first = tmp_path / "first"
        assert main(args + ["--out", str(first)]) == 0
        second = tmp_path / "second"
        assert main(["train", "--resume", str(first / "checkpoint.json"),
                     "--data", str(work["data"]), "--epochs", "2",
                     "--out", str(second)]) == 0
        assert (second / "checkpoint.json").read_bytes() == \
               (straight / "checkpoint.json").read_bytes()
        # the resumed run only performed the second epoch
        straight_rows = (straight / "losses.csv").read_text().count("\n")
        second_rows = (second / "losses.csv").read_text().count("\n")
        assert second_rows - 1 == (straight_rows - 1) // 2

    def test_exit_2_on_bad_config(self, work, tmp_path, capsys):
        base = ["train", "--data", str(work["data"]), "--out", str(tmp_path)]
        assert main(base + ["--epochs", "0"]) == 2
        assert main(base + ["--variant", "mlp_gan", "--n-critic", "3"]) == 2
        assert main(base + ["--window-stride", "0"]) == 2
        assert main(["train", "--out", str(tmp_path)]) == 2    # no data source
        for lr in ("-1", "NaN"):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(f'{{"g_lr": {lr}}}')
            assert main(base + ["--config", str(cfg_path)]) == 2
        # numbers that are not whole are refused, not truncated
        for key, value in (("epochs", "2.7"), ("batch_size", "true"),
                           ("window_stride", "1.5"), ("epochs", "Infinity")):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(f'{{"{key}": {value}}}')
            capsys.readouterr()
            assert main(base + ["--config", str(cfg_path)]) == 2
            assert key in capsys.readouterr().err
        # a conv preset needs a seq_len long enough for three stride-2 stages
        for variant, seq_len in (("dcgan1d", "20"), ("wgan_gp", "31")):
            assert main(base + ["--variant", variant, "--seq-len", seq_len]) == 2
            assert "too short" in capsys.readouterr().err

    def test_exit_2_on_unknown_config_key(self, tmp_path, work):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data": str(work["data"]), "lerning": 1}))
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2

    def test_exit_3_on_data_problems(self, work, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "gone.csv"),
                     "--out", str(tmp_path)] + TRAIN_FLAGS) == 3
        assert "error:" in capsys.readouterr().err
        # 8 return values with seq_len 8 give one window; two are required
        short = tmp_path / "short.csv"
        write_returns_csv(short, np.full(8, 0.01))
        assert main(["train", "--data", str(short),
                     "--out", str(tmp_path)] + TRAIN_FLAGS) == 3
        capsys.readouterr()
        bad_day = tmp_path / "bad_day.csv"
        bad_day.write_text("date,adjusted_close\n"
                           + "".join(f"2021-02-{d:02d},{100 + d}.0\n" for d in range(1, 32)))
        assert main(["train", "--data", str(bad_day),
                     "--out", str(tmp_path)] + TRAIN_FLAGS) == 3
        assert "row 30: invalid ISO date '2021-02-29'" in capsys.readouterr().err
        # files that are not UTF-8, as data and as config
        not_utf8 = tmp_path / "not_utf8.csv"
        not_utf8.write_bytes(NOT_UTF8)
        assert main(["train", "--data", str(not_utf8),
                     "--out", str(tmp_path)] + TRAIN_FLAGS) == 3
        assert main(["train", "--data", str(work["data"]), "--config", str(not_utf8),
                     "--out", str(tmp_path)] + TRAIN_FLAGS) == 3
        assert capsys.readouterr().err.count("invalid start byte") == 2

    def test_exit_3_on_bad_resume_checkpoint(self, work, tmp_path):
        assert main(["train", "--resume", str(tmp_path / "gone.json"),
                     "--data", str(work["data"]), "--out", str(tmp_path)]) == 3

    def test_exit_3_on_huge_consistent_spec_without_allocating(self, work, tmp_path,
                                                               capsys):
        # a config whose preset is consistent but takes a 2**40-wide input:
        # its first weight cannot be allocated, and the load names the config
        ckpt = huge_config_checkpoint(work["ckpt"], tmp_path / "huge.json")
        capsys.readouterr()
        assert main(["train", "--resume", str(ckpt), "--data", str(work["data"]),
                     "--out", str(tmp_path / "t")]) == 3
        assert main(["generate", "--checkpoint", str(ckpt), "--n", "10",
                     "--out", str(tmp_path / "g")]) == 3
        err = capsys.readouterr().err
        assert err.count("checkpoint field 'config': cannot allocate") == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--latent-dim", 2 ** 40, "cannot allocate the mlp_gan networks for seq_len 8 "
                                  f"and latent_dim {2 ** 40}"),
        ("--latent-dim", 2 ** 62, "cannot allocate the mlp_gan networks for seq_len 8 "
                                  f"and latent_dim {2 ** 62}"),
        ("--batch-size", 2 ** 50, "Unable to allocate"),
    ], ids=["latent_dim_2**40", "latent_dim_2**62", "batch_size_2**50"])
    def test_exit_2_on_config_too_large_to_allocate(self, work, tmp_path, capsys, flag,
                                                    value, message):
        # each asks for petabytes, past any address space (2**62 for more than
        # numpy can index), so nothing is allocated; the batch fails at the
        # generator's first noise draw
        capsys.readouterr()
        assert main(["train", "--data", str(work["data"]), "--out", str(tmp_path)]
                    + TRAIN_FLAGS + [flag, str(value)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad training config: {message}")
        assert not (tmp_path / "checkpoint.json").exists()

    def test_exit_2_on_resume_epochs_before_checkpoint(self, work, tmp_path):
        first = tmp_path / "first"
        assert main(["train", "--data", str(work["data"]), "--out", str(first),
                     "--variant", "mlp_gan", "--epochs", "2", "--batch-size", "8",
                     "--seq-len", "8", "--latent-dim", "4", "--seed", "5"]) == 0
        assert main(["train", "--resume", str(first / "checkpoint.json"),
                     "--data", str(work["data"]), "--epochs", "1",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flags,key", [
        (["--variant", "wgan_gp"], "gan_variant"),
        (["--seed", "99"], "seed"),
    ])
    def test_exit_2_on_resume_flag_that_differs(self, work, tmp_path, capsys, flags, key):
        capsys.readouterr()
        assert main(["train", "--resume", str(work["ckpt"]), "--data", str(work["data"]),
                     "--out", str(tmp_path)] + flags) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.json").exists()

    def test_exit_2_on_resume_config_with_unknown_key(self, work, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"gan_variant": "sagan1d", "bogus_key": 1,
                                        "epochs": -5}))
        capsys.readouterr()
        assert main(["train", "--resume", str(work["ckpt"]), "--data", str(work["data"]),
                     "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_resume_accepts_the_checkpoints_own_config(self, work, tmp_path):
        flat = json.loads(work["ckpt"].read_text())["config"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(flat, data=str(work["data"]))))
        out = tmp_path / "out"
        assert main(["train", "--resume", str(work["ckpt"]), "--config", str(cfg_path),
                     "--epochs", "2", "--out", str(out)]) == 0
        assert json.loads((out / "checkpoint.json").read_text())["epoch"] == 2


class TestGenerateCommand:
    def test_writes_requested_count(self, work, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(work["ckpt"]),
                     "--n", "10", "--seed", "3", "--out", str(out)]) == 0
        series = load_return_series(out / "generated.csv")
        assert len(series) == 10     # not a multiple of seq_len 8

    def test_same_seed_is_byte_identical(self, work, tmp_path):
        args = ["generate", "--checkpoint", str(work["ckpt"]), "--n", "16",
                "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "generated.csv").read_bytes() == \
               (tmp_path / "b" / "generated.csv").read_bytes()

    def test_different_seed_differs(self, work, tmp_path):
        base = ["generate", "--checkpoint", str(work["ckpt"]), "--n", "16"]
        assert main(base + ["--seed", "3", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--seed", "4", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "generated.csv").read_bytes() != \
               (tmp_path / "b" / "generated.csv").read_bytes()

    def test_price_path_output(self, work, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(work["ckpt"]),
                     "--n", "6", "--seed", "1", "--prices", "--p0", "100",
                     "--out", str(out)]) == 0
        lines = (out / "generated_prices.csv").read_text().splitlines()
        assert lines[0] == "index,price"
        assert len(lines) == 1 + 7          # p0 plus one price per return
        assert lines[1] == "0,100.0"

    def test_returns_scale_is_applied(self, work, tmp_path):
        out = tmp_path / "gen"
        assert main(["generate", "--checkpoint", str(work["ckpt"]),
                     "--n", "64", "--seed", "2", "--out", str(out)]) == 0
        values = load_return_series(out / "generated.csv").values
        ckpt = json.loads(work["ckpt"].read_text())
        assert np.all(np.abs(values) <= ckpt["data_scale"])

    def test_exit_2_on_bad_flags(self, work, tmp_path):
        base = ["generate", "--checkpoint", str(work["ckpt"]),
                "--out", str(tmp_path)]
        assert main(base + ["--n", "0"]) == 2
        assert main(base + ["--n", "4", "--prices"]) == 2
        assert main(base + ["--n", "4", "--prices", "--p0", "-5"]) == 2
        assert main(base + ["--n", "4", "--seed", "-1"]) == 2

    @pytest.mark.parametrize("n", [10 ** 12, 10 ** 19])
    def test_exit_2_when_n_cannot_be_allocated(self, work, tmp_path, capsys, n):
        # 10**12 returns need 7.3 TiB; 10**19 more than numpy can index. The
        # address-space cap refuses the first at once also where the kernel
        # would overcommit it, so neither case allocates anything.
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 2 ** 40 if soft == resource.RLIM_INFINITY else min(soft, 2 ** 40)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
        try:
            code = main(["generate", "--checkpoint", str(work["ckpt"]), "--n", str(n),
                         "--out", str(tmp_path)])
        finally:
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --n {n} is too large")
        assert not (tmp_path / "generated.csv").exists()

    def test_exit_3_on_missing_checkpoint(self, tmp_path):
        assert main(["generate", "--checkpoint", str(tmp_path / "gone.json"),
                     "--n", "4", "--out", str(tmp_path)]) == 3
        not_utf8 = tmp_path / "not_utf8.json"
        not_utf8.write_bytes(NOT_UTF8)
        assert main(["generate", "--checkpoint", str(not_utf8),
                     "--n", "4", "--out", str(tmp_path)]) == 3


def _set_weights(doc, values):
    doc["generator"]["params"]["0.weight"] = base64.b64encode(
        np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _nan_weights(doc):
    size = len(base64.b64decode(doc["generator"]["params"]["0.weight"])) // 8
    _set_weights(doc, np.full(size, np.nan))


def _truncate_parameter(doc):
    params = doc["generator"]["params"]
    params["0.weight"] = params["0.weight"][:-5]


def _v1_spec(net, layer):
    """A version-1 spec field holding one (edited) layer: version 2 stores
    no spec, so the load refuses it whatever it says."""
    return lambda doc: doc[net].update(spec={"layers": [layer]})


def _extra_running_statistic(doc):
    stats = next(iter(doc["generator"]["running"].values()))
    stats["count"] = stats["mean"]


MALFORMED_CHECKPOINTS = {
    "missing_rng_gp": lambda doc: doc["rng"].pop("gp"),
    "truncated_base64": _truncate_parameter,
    "null_n_windows": lambda doc: doc.update(n_windows=None),
    "string_config": lambda doc: doc.update(config="x"),
    "string_step": lambda doc: doc.update(step="abc"),
    "fractional_epoch": lambda doc: doc.update(epoch=doc["epoch"] + 0.5),
    "fractional_adam_step": lambda doc: doc["d_optimizer"].update(
        t=doc["d_optimizer"]["t"] + 0.5),
    "parameter_shape": lambda doc: _set_weights(doc, [0.5]),
    "nan_weights": _nan_weights,
    "empty_adam_moments": lambda doc: doc["g_optimizer"].update(m={}),
    "config_seq_len_off_by_one": lambda doc: doc["config"].update(
        seq_len=doc["config"]["seq_len"] + 1),
    # version-1 fields the config decides: a version-2 section holds only
    # what training changes, so each is refused rather than ignored
    "spec_extra_tanh": _v1_spec("generator", {"kind": "activation", "fn": "tanh"}),
    "spec_unknown_kind": _v1_spec("generator", {"kind": "dropout"}),
    "spec_foreign_field": _v1_spec("generator", {"kind": "dense", "kernel_size": 3}),
    "spec_relu_with_alpha": _v1_spec("generator", {"kind": "activation", "fn": "relu",
                                                   "alpha": 0.1}),
    "spec_default_alpha_on_tanh": _v1_spec("discriminator", {"kind": "activation",
                                                             "fn": "tanh", "alpha": 0.2}),
    "optimizer_kind_not_config": lambda doc: doc.update(
        d_optimizer={"kind": "sgd", "lr": 5.0}),
    "learning_rate_not_config": lambda doc: doc["g_optimizer"].update(lr=0.5),
    "nan_learning_rate": lambda doc: doc["d_optimizer"].update(lr=float("nan")),
    "init_seed_not_config": lambda doc: doc["generator"].update(init_seed=0),
    "extra_parameter": lambda doc: doc["generator"]["params"].update(
        {"9.weight": doc["generator"]["params"]["0.weight"]}),
    "adam_moment_shape": lambda doc: doc["g_optimizer"]["m"].update(
        {"0.weight": doc["g_optimizer"]["m"]["0.bias"]}),
    # these two read the batch-norm checkpoint, work["bn_ckpt"]
    "running_stats_extra_key": _extra_running_statistic,
    "running_stats_missing": lambda doc: doc["discriminator"]["running"].popitem(),
    "version_1": lambda doc: doc.update(version=1),
}
NEEDS_BATCH_NORM = {"running_stats_extra_key", "running_stats_missing"}


@pytest.mark.parametrize("command", ["generate", "resume"])
@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_exit_3_on_malformed_checkpoint(work, tmp_path, capsys, case, command):
    ckpt = work["bn_ckpt"] if case in NEEDS_BATCH_NORM else work["ckpt"]
    doc = json.loads(ckpt.read_text(encoding="utf-8"))
    MALFORMED_CHECKPOINTS[case](doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    if command == "generate":
        argv = ["generate", "--checkpoint", str(bad), "--n", "4"]
    else:
        argv = ["train", "--resume", str(bad), "--data", str(work["data"]),
                "--epochs", "2"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "bad checkpoint" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["generate", "--n", "4", "--seed", "-1"],
    ["evaluate", "--bins", "1"],
    ["evaluate", "--max-lag", "0"],
], ids=["generate_seed", "evaluate_bins", "evaluate_max_lag"])
def test_bad_flag_exits_2_before_any_side_effect(work, tmp_path, flags):
    if flags[0] == "generate":
        inputs = ["--checkpoint", str(work["ckpt"])]
    else:
        inputs = ["--candidate", str(work["big_a"]), "--reference", str(work["big_b"])]
    out = tmp_path / "new"
    assert main(flags + inputs + ["--out", str(out)]) == 2
    assert not out.exists()


class TestEvaluateCommand:
    def test_reference_against_itself(self, work, tmp_path):
        out = tmp_path / "ev"
        assert main(["evaluate", "--candidate", str(work["big_a"]),
                     "--reference", str(work["big_a"]), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert list(doc.keys()) == REPORT_KEY_ORDER
        assert doc["ks_statistic"] == 0.0
        assert doc["wasserstein1"] == 0.0
        for name in ("acf.csv", "pdf.csv", "returns.csv", "prices.csv",
                     "manifest.json"):
            assert (out / name).exists()

    def test_plot_csv_shapes(self, work, tmp_path):
        out = tmp_path / "ev"
        assert main(["evaluate", "--candidate", str(work["big_a"]),
                     "--reference", str(work["big_b"]), "--out", str(out)]) == 0
        acf_lines = (out / "acf.csv").read_text().splitlines()
        assert acf_lines[0] == "lag,candidate,reference,band"
        assert len(acf_lines) == 1 + 20
        pdf_lines = (out / "pdf.csv").read_text().splitlines()
        assert pdf_lines[0] == "bin_center,candidate_density,reference_density"
        assert len(pdf_lines) == 1 + 50
        ret_lines = (out / "returns.csv").read_text().splitlines()
        assert ret_lines[0] == "index,candidate,reference"
        assert len(ret_lines) == 1 + 2000
        price_lines = (out / "prices.csv").read_text().splitlines()
        assert len(price_lines) == 1 + 2001
        assert price_lines[1] == "0,1.0,1.0"

    def test_repeat_run_is_byte_identical(self, work, tmp_path):
        args = ["evaluate", "--candidate", str(work["big_a"]),
                "--reference", str(work["big_b"])]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("report.json", "acf.csv", "pdf.csv", "returns.csv",
                     "prices.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_max_lag_override(self, work, tmp_path):
        out = tmp_path / "ev"
        assert main(["evaluate", "--candidate", str(work["big_a"]),
                     "--reference", str(work["big_b"]), "--max-lag", "5",
                     "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["thresholds"]["linear_max_lag"] == 5
        assert doc["thresholds"]["volatility_summary_lags"] == 5
        assert len(doc["linear_unpredictability"]["acf"]) == 5
        acf_lines = (out / "acf.csv").read_text().splitlines()
        assert len(acf_lines) == 1 + 5

    @pytest.mark.parametrize("max_lag", [20, 5])
    def test_acf_csv_rows_are_the_public_acf(self, work, tmp_path, max_lag):
        out = tmp_path / "ev"
        assert main(["evaluate", "--candidate", str(work["big_a"]),
                     "--reference", str(work["big_b"]), "--max-lag", str(max_lag),
                     "--out", str(out)]) == 0
        cand = load_return_series(work["big_a"]).values
        ref = load_return_series(work["big_b"]).values
        band = repr(sf.confidence_band(len(cand)))
        rows = [f"{lag},{float(c)!r},{float(r)!r},{band}\n" for lag, c, r in
                zip(range(1, max_lag + 1), sf.acf(cand, max_lag), sf.acf(ref, max_lag))]
        assert (out / "acf.csv").read_text() == "lag,candidate,reference,band\n" + "".join(rows)

    def test_exit_2_on_bad_flags(self, work, tmp_path):
        base = ["evaluate", "--candidate", str(work["big_a"]),
                "--reference", str(work["big_b"]), "--out", str(tmp_path)]
        assert main(base + ["--max-lag", "0"]) == 2
        assert main(base + ["--bins", "1"]) == 2

    def test_exit_3_on_missing_series(self, work, tmp_path):
        assert main(["evaluate", "--candidate", str(tmp_path / "gone.csv"),
                     "--reference", str(work["big_a"]),
                     "--out", str(tmp_path)]) == 3
        not_utf8 = tmp_path / "not_utf8.csv"
        not_utf8.write_bytes(NOT_UTF8)
        assert main(["evaluate", "--candidate", str(not_utf8),
                     "--reference", str(work["big_a"]),
                     "--out", str(tmp_path)]) == 3
        assert main(["evaluate", "--candidate", str(work["big_a"]),
                     "--reference", str(not_utf8),
                     "--out", str(tmp_path)]) == 3

    def test_exit_3_on_short_series(self, work, tmp_path):
        short = tmp_path / "short.csv"
        write_returns_csv(short, np.random.default_rng(0).normal(size=50))
        assert main(["evaluate", "--candidate", str(short),
                     "--reference", str(work["big_a"]),
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("role,statistic", [
        ("candidate", "statistic moments.std"),
        ("reference", "reference autocorrelation"),
    ])
    def test_exit_4_on_statistic_that_overflows(self, work, tmp_path, capsys, role,
                                                statistic):
        series = {"candidate": work["big_a"], "reference": work["big_a"],
                  role: overflowing_series(tmp_path / "huge.csv")}
        out = tmp_path / "ev"
        capsys.readouterr()
        assert main(["evaluate", "--candidate", str(series["candidate"]),
                     "--reference", str(series["reference"]), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert statistic in err and "not finite" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("role", ["candidate", "reference"])
    def test_one_huge_cell_at_any_decade_exits_0_or_4(self, work, tmp_path, role):
        # a cell between about 1e78 and 1e154 once made a power of the
        # second moment raise OverflowError out of main
        codes = {}
        for k in range(10, 301):
            series = {"candidate": work["big_b"], "reference": work["big_b"],
                      role: overflowing_series(tmp_path / "huge.csv", 10.0 ** k, 0)}
            code = main(["evaluate", "--candidate", str(series["candidate"]),
                         "--reference", str(series["reference"]),
                         "--out", str(tmp_path / "ev")])
            codes.setdefault(code, []).append(k)
        assert set(codes) <= {0, 4}, codes

    def test_prices_that_overflow_leave_stderr_empty(self, work, tmp_path):
        # exp of a 1e60 cumulative return is inf in prices.csv; numpy's
        # overflow warning used to reach stderr although evaluate exits 0
        huge = overflowing_series(tmp_path / "huge.csv", 1e60, 0)
        src = os.path.dirname(os.path.dirname(marketgan.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "marketgan.cli", "evaluate", "--candidate", str(huge),
             "--reference", str(work["big_b"]), "--out", str(tmp_path / "ev")],
            capture_output=True, text=True, env=env, timeout=300)
        assert (done.returncode, done.stderr) == (0, "")
        assert "inf" in (tmp_path / "ev" / "prices.csv").read_text()

    def test_exit_4_on_degenerate_series(self, work, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        write_returns_csv(flat, np.zeros(2000))
        assert main(["evaluate", "--candidate", str(flat),
                     "--reference", str(work["big_a"]),
                     "--out", str(tmp_path)]) == 4
        assert "degenerate" in capsys.readouterr().err


class TestReportCommand:
    @pytest.fixture()
    def evaluated(self, work, tmp_path):
        out = tmp_path / "ev"
        assert main(["evaluate", "--candidate", str(work["big_a"]),
                     "--reference", str(work["big_b"]), "--out", str(out)]) == 0
        return out

    def test_renders_four_svgs(self, evaluated):
        assert main(["report", "--out", str(evaluated)]) == 0
        for name in ("acf.svg", "pdf.svg", "returns.svg", "prices.svg"):
            svg = evaluated / name
            assert svg.exists()
            root = ET.fromstring(svg.read_bytes())
            assert root.tag.endswith("svg")

    def test_rerun_is_byte_identical(self, evaluated):
        assert main(["report", "--out", str(evaluated)]) == 0
        first = {n: (evaluated / n).read_bytes()
                 for n in ("acf.svg", "pdf.svg", "returns.svg", "prices.svg")}
        assert main(["report", "--out", str(evaluated)]) == 0
        for name, blob in first.items():
            assert (evaluated / name).read_bytes() == blob

    def test_exit_3_when_plot_data_missing(self, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 3

    def test_exit_3_on_corrupt_plot_data(self, evaluated):
        (evaluated / "acf.csv").write_text("bad,header\n1,2\n")
        assert main(["report", "--out", str(evaluated)]) == 3

    @staticmethod
    def replace_row(path, n, edit):
        """Rewrite data row ``n`` (1 = the first after the header)."""
        lines = path.read_text().splitlines()
        fields = lines[n].split(",")
        lines[n] = ",".join(edit(fields))
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("name,row,edit,message", [
        ("returns.csv", 3, lambda f: f[:2], "row 3 has 2 fields, expected 3"),
        ("acf.csv", 2, lambda f: f[:2], "row 2 has 2 fields, expected 4"),
        ("returns.csv", 4, lambda f: ["inf"] + f[1:], "row 4 field 1 is 'inf'"),
        ("returns.csv", 5, lambda f: [f[0], "nan", f[2]], "row 5 field 2 is 'nan'"),
        ("pdf.csv", 6, lambda f: [f[0], f[1], "inf"], "row 6 field 3 is 'inf'"),
        ("prices.csv", 2, lambda f: [f[0], "nan", f[2]], "row 2 field 2 is 'nan'"),
        ("acf.csv", 1, lambda f: f[:3] + ["-inf"], "row 1 field 4 is '-inf'"),
        ("prices.csv", 7, lambda f: ["x"] + f[1:], "row 7 field 1 is 'x'"),
    ], ids=["returns-ragged", "acf-ragged", "returns-inf-index", "returns-nan", "pdf-inf",
            "prices-nan", "acf-band-inf", "prices-text-index"])
    def test_exit_3_on_malformed_plot_data(self, evaluated, capsys, name, row, edit,
                                           message):
        # a ragged row, or a cell that is not a finite number, exits 3 with a
        # message naming the file and row instead of a traceback or nan coordinates
        self.replace_row(evaluated / name, row, edit)
        capsys.readouterr()
        assert main(["report", "--out", str(evaluated)]) == 3
        err = capsys.readouterr().err
        assert name in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("name,edits,message", [
        # a ragged row anywhere beats a bad cell on an earlier row
        ("returns.csv", [(3, lambda f: [f[0], "nan", f[2]]), (6, lambda f: f[:2])],
         "row 6 has 2 fields, expected 3"),
        ("acf.csv", [(1, lambda f: [f[0], "inf"] + f[2:]), (4, lambda f: f + ["1"])],
         "row 4 has 5 fields, expected 4"),
        # then the first column with a bad cell, at its first bad row
        ("returns.csv", [(2, lambda f: [f[0], f[1], "inf"]),
                         (5, lambda f: [f[0], "nan", f[2]])],
         "row 5 field 2 is 'nan'"),
        ("pdf.csv", [(2, lambda f: [f[0], f[1], "x"]), (7, lambda f: [f[0], "-inf", f[2]]),
                     (9, lambda f: ["", f[1], f[2]])],
         "row 9 field 1 is ''"),
        ("prices.csv", [(3, lambda f: [f[0], f[1], "1e999"]),
                        (8, lambda f: [f[0], f[1], "nan"])],
         "row 3 field 3 is '1e999'"),
    ], ids=["ragged-beats-earlier-nan", "acf-ragged-beats-earlier-inf",
            "column-2-beats-earlier-column-3", "column-1-beats-earlier-columns",
            "first-bad-row-of-a-column"])
    def test_error_order_of_malformed_plot_data(self, evaluated, capsys, name, edits,
                                                message):
        for row, edit in edits:
            self.replace_row(evaluated / name, row, edit)
        capsys.readouterr()
        assert main(["report", "--out", str(evaluated)]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("text,message", [
        ("", "is empty"),
        ("index,candidate,reference\n", "has a header but no rows"),
        ("index,candidate,reference\r\n", "has a header but no rows"),
        ("index,candidate\n0,1.0\n", "has header ('index', 'candidate'), expected "
                                     "('index', 'candidate', 'reference')"),
        ("index,candidate,reference\n0,,\n1,,\n", "has no numeric values"),
    ], ids=["empty", "header-only", "header-only-crlf", "wrong-header", "all-skipped"])
    def test_messages_of_plot_data_without_rows(self, evaluated, capsys, text, message):
        path = evaluated / "returns.csv"
        path.write_bytes(text.encode())
        capsys.readouterr()
        assert main(["report", "--out", str(evaluated)]) == 3
        err = capsys.readouterr().err
        assert f"plot data {path} {message}" in err and "Traceback" not in err

    def test_exit_3_on_field_past_the_csv_limit(self, evaluated, capsys):
        self.replace_row(evaluated / "returns.csv", 2, lambda f: [f[0], "1" * 200_000, f[2]])
        capsys.readouterr()
        assert main(["report", "--out", str(evaluated)]) == 3
        err = capsys.readouterr().err
        assert "field larger than field limit" in err and "Traceback" not in err

    @pytest.mark.parametrize("earlier_report", [False, True], ids=["fresh", "rerun"])
    def test_exit_3_when_the_disk_fills_while_writing(self, evaluated, monkeypatch, capsys,
                                                      earlier_report):
        svgs = ("acf.svg", "pdf.svg", "returns.svg", "prices.svg")
        if earlier_report:
            assert main(["report", "--out", str(evaluated)]) == 0
        before = {n: (evaluated / n).read_bytes() for n in svgs if (evaluated / n).exists()}
        fdopen = os.fdopen

        class FullDisk:
            """A text file with room for 1000 characters; the next write
            fails as a full disk does."""

            def __init__(self, *args, **kwargs):
                self.file = fdopen(*args, **kwargs)
                self.room = 1000

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, text):
                if len(text) > self.room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(text)
                self.file.write(text)

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

        monkeypatch.setattr(os, "fdopen", FullDisk)
        capsys.readouterr()
        assert main(["report", "--out", str(evaluated)]) == 3
        assert "No space left on device" in capsys.readouterr().err
        # no partial SVG: an earlier report's files are untouched, no temp file is left
        after = {n: (evaluated / n).read_bytes() for n in svgs if (evaluated / n).exists()}
        assert after == before
        assert not [n for n in os.listdir(evaluated) if n.startswith(".tmp-")]

    def test_overflowed_prices_are_not_drawn(self, evaluated):
        # evaluate writes a price past the float64 range as inf
        self.replace_row(evaluated / "prices.csv", 9, lambda f: [f[0], "inf", f[2]])
        assert main(["report", "--out", str(evaluated)]) == 0
        assert "nan" not in (evaluated / "prices.svg").read_text()

    @pytest.mark.parametrize("name,edit", [
        ("returns.csv", lambda f: [f[0], "1e308", "-1e308"]),   # hi - lo overflows
        ("prices.csv", lambda f: [f[0], "1.7e308", f[2]]),      # the padded top overflows
        ("acf.csv", lambda f: [f[0], "1.7e308"] + f[2:]),       # so does the padded peak
    ], ids=["returns-span", "prices-top", "acf-peak"])
    def test_values_near_the_float_range_keep_coordinates_finite(self, evaluated, name, edit):
        self.replace_row(evaluated / name, 3, edit)
        assert main(["report", "--out", str(evaluated)]) == 0
        root = ET.fromstring((evaluated / name.replace(".csv", ".svg")).read_bytes())
        coords = [float(v) for el in root.iter() for key, text in el.attrib.items()
                  if key in ("x", "y", "x1", "y1", "x2", "y2", "width", "height", "points")
                  for v in text.replace(",", " ").split()]
        assert coords and all(math.isfinite(c) for c in coords)


class TestTopLevel:
    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_version_exits_0(self):
        assert main(["--version"]) == 0

    def test_help_exits_0(self):
        assert main(["--help"]) == 0
        assert main(["train", "--help"]) == 0

    @pytest.mark.parametrize("command,flag", [
        ("evaluate", "--seed"), ("report", "--seed"),
        ("generate", "--config"), ("evaluate", "--config"), ("report", "--config"),
    ])
    def test_flags_a_command_would_ignore_exit_2(self, work, tmp_path, command, flag):
        # --config is read by train only, --seed by train and generate
        args = {"generate": ["--checkpoint", str(work["ckpt"]), "--n", "4"],
                "evaluate": ["--candidate", str(work["big_a"]),
                             "--reference", str(work["big_b"])],
                "report": []}[command]
        value = "3" if flag == "--seed" else str(tmp_path / "cfg.json")
        assert main([command, "--out", str(tmp_path)] + args + [flag, value]) == 2
