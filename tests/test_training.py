"""Tests for the adversarial training loop and its checkpointing.

All runs here use deliberately tiny networks and datasets; the point is
the mechanics (batching, update grouping, RNG bookkeeping, resume
semantics), not sample quality.
"""

import json

import numpy as np
import pytest

from marketgan import training
from marketgan.market_data import WindowedDataset, normalize_and_window
from marketgan.training import (
    CheckpointError,
    LossRecord,
    TrainConfig,
    TrainingDivergedError,
    checkpoint_document,
    default_n_critic,
    diversity_diagnostic,
    generate,
    load_checkpoint,
    resume,
    save_checkpoint,
    state_from_document,
    train,
)


def small_dataset(seq_len=8, n_values=100, stride=4, seed=0):
    values = np.random.default_rng(seed).normal(0.0, 0.02, size=n_values)
    return normalize_and_window(values, seq_len, stride)


def small_config(**kw):
    base = dict(gan_variant="mlp_gan", epochs=2, batch_size=8, seq_len=8,
                latent_dim=4, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def wgan_config(**kw):
    base = dict(gan_variant="wgan_gp", epochs=1, batch_size=4, seq_len=32,
                latent_dim=8, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def params_blob(net):
    return json.dumps(net.state_dict(), sort_keys=True)


class TestTrainConfig:
    def test_n_critic_defaults(self):
        assert default_n_critic("wgan_gp") == 5
        assert default_n_critic("dcgan1d") == 1
        assert TrainConfig(gan_variant="wgan_gp").resolved_n_critic() == 5
        assert TrainConfig(gan_variant="mlp_gan").resolved_n_critic() == 1
        assert TrainConfig(gan_variant="wgan_gp", n_critic=3).resolved_n_critic() == 3

    def test_validate_rejects_bad_values(self):
        cases = [
            dict(gan_variant="stylegan"),
            dict(epochs=0),
            dict(batch_size=1),
            dict(gan_variant="dcgan1d", n_critic=3),
            dict(n_critic=0, gan_variant="wgan_gp"),
            dict(latent_dim=0),
            dict(seq_len=0),
            dict(checkpoint_interval=-1),
            dict(gp_lambda=-1.0),
            dict(g_loss_variant="bce"),
            dict(noise_distribution="cauchy"),
            dict(seed=-1),
            dict(g_optimizer={"kind": "adam", "lr": -1.0}),
            dict(d_optimizer={"kind": "sgd", "lr": float("nan")}),
            dict(g_optimizer={"kind": "rmsprop"}),
        ]
        for overrides in cases:
            cfg = small_config(**overrides)
            with pytest.raises(ValueError):
                cfg.validate()

    def test_default_config_validates(self):
        TrainConfig().validate()

    def test_flat_roundtrip_is_stable(self):
        cfg = small_config(gan_variant="wgan_gp", seq_len=32, gp_lambda=5.0,
                           g_optimizer={"kind": "adam", "lr": 1e-3})
        flat = cfg.to_flat()
        assert TrainConfig.from_flat(flat).to_flat() == flat

    def test_from_flat_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            TrainConfig.from_flat({"lerning_rate": 0.1})

    def test_from_flat_tolerates_cli_only_keys(self):
        cfg = TrainConfig.from_flat({"window_stride": 4, "data": "x.csv",
                                     "epochs": 7})
        assert cfg.epochs == 7

    def test_from_flat_reads_optimizer_settings(self):
        cfg = TrainConfig.from_flat({"g_lr": 0.01, "d_beta1": 0.0,
                                     "d_optimizer": "sgd"})
        assert cfg.g_optimizer["lr"] == 0.01
        assert cfg.d_optimizer["beta1"] == 0.0
        assert cfg.d_optimizer["kind"] == "sgd"

    @pytest.mark.parametrize("flat", [{"epochs": 2.7}, {"batch_size": True},
                                      {"seed": float("inf")}, {"n_critic": 1.5},
                                      {"latent_dim": "x"}, {"g_lr": True},
                                      {"gp_lambda": "ten"}])
    def test_from_flat_rejects_inexact_numbers(self, flat):
        (key,) = flat
        with pytest.raises(ValueError, match=key):
            TrainConfig.from_flat(flat)

    def test_from_flat_accepts_whole_floats(self):
        cfg = TrainConfig.from_flat({"epochs": 3.0, "batch_size": 16, "g_lr": 1})
        assert (cfg.epochs, cfg.batch_size) == (3, 16)
        assert type(cfg.epochs) is int and cfg.g_optimizer["lr"] == 1.0


class TestTrainMechanics:
    def test_record_counts_and_phases(self):
        ds = small_dataset()          # 24 windows -> 3 batches of 8
        state = train(small_config(), ds)
        assert state.epoch == 2
        assert state.step == 6
        assert len(state.history) == 12
        phases = [r.phase for r in state.history]
        assert phases == ["d", "g"] * 6
        for rec in state.history:
            if rec.phase == "d":
                assert rec.d_loss is not None and rec.g_loss is None
            else:
                assert rec.g_loss is not None and rec.d_loss is None
            assert rec.gp_term is None   # not a Wasserstein run

    def test_diversity_history_per_epoch(self):
        state = train(small_config(epochs=3), small_dataset())
        assert [e for e, _ in state.diversity_history] == [1, 2, 3]
        for _, value in state.diversity_history:
            assert np.isfinite(value)

    def test_singleton_batches_are_dropped(self):
        # 9 windows with batch 4 -> sizes [4, 4, 1]; the singleton breaks
        # batch statistics and must be skipped.
        ds = small_dataset(n_values=40)
        assert len(ds) == 9
        state = train(small_config(epochs=1, batch_size=4), ds)
        assert state.step == 2
        assert len(state.history) == 4

    def test_wasserstein_grouping(self):
        # 12 windows with batch 4 -> 3 batches; n_critic 5 groups them
        # into a single step: 3 critic updates then 1 generator update.
        ds = small_dataset(seq_len=32, n_values=120, stride=8)
        assert len(ds) == 12
        state = train(wgan_config(), ds)
        assert state.step == 1
        assert [r.phase for r in state.history] == ["d", "d", "d", "g"]
        for rec in state.history:
            if rec.phase == "d":
                assert rec.gp_term is not None and rec.gp_term >= 0.0
        assert len(state.grad_norm_history) == 3
        for _, norm in state.grad_norm_history:
            assert norm > 0.0

    def test_wasserstein_grouping_with_remainder(self):
        # 28 windows, batch 4 -> 7 batches -> groups of 5 and 2.
        ds = small_dataset(seq_len=32, n_values=248, stride=8)
        assert len(ds) == 28
        state = train(wgan_config(), ds)
        assert state.step == 2
        phases = [r.phase for r in state.history]
        assert phases == ["d"] * 5 + ["g"] + ["d"] * 2 + ["g"]

    def test_record_hook_sees_every_record(self):
        seen = []
        state = train(small_config(), small_dataset(), record_hook=seen.append)
        assert seen == state.history
        assert all(isinstance(r, LossRecord) for r in seen)

    def test_training_is_deterministic(self):
        ds = small_dataset()
        a = train(small_config(), ds)
        b = train(small_config(), ds)
        assert params_blob(a.g_net) == params_blob(b.g_net)
        assert params_blob(a.d_net) == params_blob(b.d_net)
        assert [(r.d_loss, r.g_loss) for r in a.history] == \
               [(r.d_loss, r.g_loss) for r in b.history]

    def test_seed_changes_the_run(self):
        ds = small_dataset()
        a = train(small_config(seed=1), ds)
        b = train(small_config(seed=2), ds)
        assert params_blob(a.g_net) != params_blob(b.g_net)

    def test_normal_noise_distribution_trains(self):
        state = train(small_config(noise_distribution="standard_normal",
                                   epochs=1), small_dataset())
        assert state.epoch == 1

    def test_rejects_mismatched_dataset(self):
        ds = small_dataset(seq_len=8)
        with pytest.raises(ValueError, match="seq_len"):
            train(small_config(seq_len=16), ds)

    def test_rejects_empty_dataset(self):
        empty = WindowedDataset(np.zeros((0, 8)), 8, 1, 1.0)
        with pytest.raises(ValueError, match="no windows"):
            train(small_config(), empty)

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError, match="epochs"):
            train(small_config(epochs=0), small_dataset())


class TestCheckpointing:
    def test_document_roundtrip_is_bit_exact(self):
        state = train(small_config(), small_dataset())
        doc = checkpoint_document(state)
        redoc = checkpoint_document(state_from_document(doc))
        assert json.dumps(doc, sort_keys=True) == json.dumps(redoc, sort_keys=True)

    def test_save_load_roundtrip(self, tmp_path):
        state = train(small_config(), small_dataset())
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == state.epoch
        assert loaded.step == state.step
        assert loaded.data_scale == state.data_scale
        assert loaded.n_windows == state.n_windows
        assert params_blob(loaded.g_net) == params_blob(state.g_net)
        assert params_blob(loaded.d_net) == params_blob(state.d_net)

    def test_saved_file_is_stable_json(self, tmp_path):
        state = train(small_config(epochs=1), small_dataset())
        save_checkpoint(state, tmp_path / "a.json")
        save_checkpoint(state, tmp_path / "b.json")
        a = (tmp_path / "a.json").read_bytes()
        assert a == (tmp_path / "b.json").read_bytes()
        assert a.endswith(b"\n")
        json.loads(a)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        ds = small_dataset()
        straight = train(small_config(epochs=4), ds)

        half = train(small_config(epochs=2), ds)
        save_checkpoint(half, tmp_path / "half.json")
        resumed = load_checkpoint(tmp_path / "half.json")
        resumed.config.epochs = 4
        resumed = resume(resumed, ds)

        assert resumed.step == straight.step
        assert params_blob(resumed.g_net) == params_blob(straight.g_net)
        assert params_blob(resumed.d_net) == params_blob(straight.d_net)
        tail = straight.diversity_history[2:]
        assert resumed.diversity_history == tail

    def test_resume_matches_uninterrupted_wasserstein_run(self, tmp_path):
        ds = small_dataset(seq_len=32, n_values=120, stride=8)
        straight = train(wgan_config(epochs=2), ds)

        half = train(wgan_config(epochs=1), ds)
        save_checkpoint(half, tmp_path / "half.json")
        resumed = load_checkpoint(tmp_path / "half.json")
        resumed.config.epochs = 2
        resumed = resume(resumed, ds)

        assert params_blob(resumed.g_net) == params_blob(straight.g_net)
        assert params_blob(resumed.d_net) == params_blob(straight.d_net)
        assert [g for _, g in resumed.grad_norm_history] == \
               [g for _, g in straight.grad_norm_history[3:]]

    def test_resume_rejects_different_dataset(self):
        ds = small_dataset()
        state = train(small_config(epochs=1), ds)
        state.config.epochs = 2
        with pytest.raises(CheckpointError, match="does not match"):
            resume(state, small_dataset(n_values=60))

    def test_resume_rejects_different_scale(self):
        ds = small_dataset()
        state = train(small_config(epochs=1), ds)
        state.config.epochs = 2
        other = WindowedDataset(ds.windows, ds.window_length, ds.stride,
                                ds.scale * 2.0)
        with pytest.raises(CheckpointError, match="does not match"):
            resume(state, other)

    def test_load_errors(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "gone.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(bad)

    def test_rejects_wrong_format_and_version(self):
        state = train(small_config(epochs=1), small_dataset())
        doc = checkpoint_document(state)
        with pytest.raises(CheckpointError, match="format"):
            state_from_document({**doc, "format": "other"})
        with pytest.raises(CheckpointError, match="version"):
            state_from_document({**doc, "version": 99})

    @pytest.mark.parametrize("field, mutate", [
        pytest.param(field, mutate, id=field) for field, mutate in (
            ("rng.diag", lambda doc: doc["rng"].pop("diag")),
            ("epoch", lambda doc: doc.update(epoch=-1)),
            ("data_scale", lambda doc: doc.update(data_scale=float("nan"))),
            ("discriminator", lambda doc: doc["discriminator"]["params"].pop("0.bias")),
            ("d_optimizer", lambda doc: doc["d_optimizer"]["v"].pop("0.bias")),
            ("rng", lambda doc: doc.update(rng="x")),
        )])
    def test_malformed_field_is_named(self, field, mutate):
        doc = checkpoint_document(train(small_config(epochs=1), small_dataset()))
        mutate(doc)
        with pytest.raises(CheckpointError, match=f"'{field}'"):
            state_from_document(doc)

    @pytest.mark.parametrize("bad", [np.inf, -1.0])
    def test_rejects_bad_running_variance(self, bad):
        ds = small_dataset(seq_len=32, n_values=120, stride=8)
        state = train(TrainConfig(gan_variant="dcgan1d", epochs=1, batch_size=4,
                                  seq_len=32, latent_dim=8, seed=1), ds)
        idx = next(iter(state.d_net.running))
        state.d_net.running[idx]["var"][0] = bad
        with pytest.raises(CheckpointError, match=f"running var of layer {idx}"):
            state_from_document(checkpoint_document(state))

    def test_rejects_negative_adam_second_moment(self):
        state = train(small_config(epochs=1), small_dataset())
        name = next(iter(state.g_opt.v))
        state.g_opt.v[name].flat[0] = -1.0
        with pytest.raises(CheckpointError, match=r"Adam v\[.*negative entries"):
            state_from_document(checkpoint_document(state))

    def test_fresh_adam_needs_no_moments(self):
        state = train(small_config(epochs=1), small_dataset())
        doc = checkpoint_document(state)
        doc["g_optimizer"].update(t=0, m={}, v={})
        assert state_from_document(doc).g_opt.t == 0

    def test_checkpoint_hook_schedule(self):
        epochs_seen = []
        train(small_config(epochs=3, checkpoint_interval=1), small_dataset(),
              checkpoint_hook=lambda s: epochs_seen.append(s.epoch))
        assert epochs_seen == [1, 2, 3]

        epochs_seen = []
        train(small_config(epochs=4, checkpoint_interval=2), small_dataset(),
              checkpoint_hook=lambda s: epochs_seen.append(s.epoch))
        assert epochs_seen == [2, 4]

        epochs_seen = []
        train(small_config(epochs=3, checkpoint_interval=0), small_dataset(),
              checkpoint_hook=lambda s: epochs_seen.append(s.epoch))
        assert epochs_seen == [3]


class TestDivergenceDetection:
    def test_discriminator_phase_divergence(self):
        ds = small_dataset()
        state = train(small_config(epochs=1), ds)
        state.config.epochs = 2
        state.g_net.parameters()[0][1].data[:] = np.nan
        with pytest.raises(TrainingDivergedError,
                           match=r"discriminator phase at step \d+, epoch 1"):
            resume(state, ds)

    def test_generator_phase_divergence(self):
        ds = small_dataset()
        state = train(small_config(epochs=1), ds)
        state.config.epochs = 2

        def poison(rec):
            state.g_net.parameters()[0][1].data[:] = np.nan

        with pytest.raises(TrainingDivergedError,
                           match=r"generator phase at step \d+, epoch 1"):
            resume(state, ds, record_hook=poison)


class TestGeneratorPhase:
    """D is frozen while G updates: no D gradient is formed or left behind."""

    @staticmethod
    def assert_d_untouched(state):
        for _, p in state.d_net.parameters():
            assert p.grad is None
            assert p.requires_grad

    @pytest.mark.parametrize("config", [small_config(epochs=1), wgan_config()],
                             ids=["mlp_gan", "wgan_gp"])
    def test_d_parameters_after_g_update(self, config):
        ds = small_dataset(seq_len=config.seq_len, n_values=200)
        state = train(config, ds)
        wasserstein = config.gan_variant == "wgan_gp"
        training._d_update(state, ds.windows[: config.batch_size], wasserstein, 1, None)
        assert all(p.grad is not None for _, p in state.d_net.parameters())
        g_before = params_blob(state.g_net)
        training._g_update(state, wasserstein, 1, None)
        self.assert_d_untouched(state)
        assert params_blob(state.g_net) != g_before

    def test_d_parameters_restored_after_divergence(self):
        state = train(small_config(epochs=1), small_dataset())
        state.g_net.parameters()[0][1].data[:] = np.nan
        with pytest.raises(TrainingDivergedError, match="generator phase"):
            training._g_update(state, False, 1, None)
        self.assert_d_untouched(state)


@pytest.fixture(scope="module")
def trained():
    return train(small_config(epochs=1), small_dataset())


class TestGenerate:
    def test_shape_and_range(self, trained):
        out = generate(trained, 5, seed=0)
        assert out.shape == (5, 8)
        assert np.all(np.abs(out) <= 1.0)

    def test_deterministic_per_seed(self, trained):
        a = generate(trained, 5, seed=42)
        b = generate(trained, 5, seed=42)
        c = generate(trained, 5, seed=43)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_does_not_disturb_training_streams(self, trained):
        before = trained.noise.rng.bit_generator.state
        shuffle_before = trained.shuffle_rng.bit_generator.state
        generate(trained, 3, seed=7)
        assert trained.noise.rng.bit_generator.state == before
        assert trained.shuffle_rng.bit_generator.state == shuffle_before

    def test_chunking_matches_small_request(self, trained):
        big = generate(trained, 300, seed=9)
        small = generate(trained, 256, seed=9)
        assert big.shape == (300, 8)
        np.testing.assert_array_equal(big[:256], small)

    def test_rejects_bad_count(self, trained):
        with pytest.raises(ValueError, match="n_series"):
            generate(trained, 0, seed=0)


class TestDiversityDiagnostic:
    def test_identical_batches_score_one(self, rng):
        batch = rng.normal(size=(6, 8))
        assert diversity_diagnostic(batch, batch.copy()) == 1.0

    def test_collapsed_batch_scores_zero(self, rng):
        real = rng.normal(size=(6, 8))
        collapsed = np.tile(real[0], (6, 1))
        assert diversity_diagnostic(collapsed, real) == 0.0

    def test_scales_linearly(self, rng):
        real = rng.normal(size=(8, 5))
        assert diversity_diagnostic(2.0 * real, real) == pytest.approx(2.0, rel=1e-12)

    def test_validation(self, rng):
        good = rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="2-D"):
            diversity_diagnostic(good[0], good)
        with pytest.raises(ValueError, match="at least 2"):
            diversity_diagnostic(good[:1], good)
        with pytest.raises(ValueError, match="zero pairwise"):
            diversity_diagnostic(good, np.ones((4, 3)))
