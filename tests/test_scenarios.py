"""Tests for presets, config validation, pipeline orchestration and the CLI."""

import json

import numpy as np
import pytest
import yaml

from snakesim.cli import main as cli_main
from snakesim.scenarios import ConfigError, RunConfig, preset, run_pipeline


def _base_config(**overrides):
    cfg = preset("s1_epi", scale=0.2).raw
    cfg = json.loads(json.dumps(cfg))  # deep copy
    cfg.update(overrides)
    return cfg


class TestRunConfig:
    def test_round_trips_through_yaml(self, tmp_path):
        config = preset("s1_epi", scale=0.2)
        path = tmp_path / "cfg.yaml"
        path.write_text(config.to_yaml())
        again = RunConfig.from_yaml(path)
        assert again.raw == config.raw
        assert again.hash() == config.hash()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict(_base_config(extra_knob=1))

    def test_missing_key_rejected(self):
        cfg = _base_config()
        del cfg["noise"]
        with pytest.raises(ConfigError, match="missing"):
            RunConfig.from_dict(cfg)

    def test_unknown_subkey_rejected(self):
        cfg = _base_config()
        cfg["recon"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="recon"):
            RunConfig.from_dict(cfg)

    def test_te_above_tr_rejected(self):
        cfg = _base_config()
        cfg["sequence"]["te_ms"] = 60.0
        with pytest.raises(ConfigError, match="TE"):
            RunConfig.from_dict(cfg)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            RunConfig.from_dict(_base_config(model="fancy"))

    @pytest.mark.parametrize("key, value", [
        ("method", "sense"), ("wavelet", "db4"), ("strategy", "lukewarm"),
        ("mu_mode", "guess"), ("levels", 0), ("max_iters", 0)])
    def test_bad_cs_recon_value_rejected(self, key, value):
        cfg = _base_config()
        cfg["recon"].update({"method": "cs", key: value})
        with pytest.raises(ConfigError):
            RunConfig.from_dict(cfg)

    def test_bad_density_comp_rejected_for_adjoint(self):
        cfg = _base_config()
        cfg["recon"]["density_comp"] = "voronoi"
        with pytest.raises(ConfigError, match="density_comp"):
            RunConfig.from_dict(cfg)

    def test_external_without_path_rejected(self):
        cfg = _base_config()
        cfg["trajectory"]["kind"] = "external"
        cfg["trajectory"]["path"] = ""
        with pytest.raises(ConfigError, match="path"):
            RunConfig.from_dict(cfg)

    def test_hash_changes_with_content(self):
        a = RunConfig.from_dict(_base_config(seed=1))
        b = RunConfig.from_dict(_base_config(seed=2))
        assert a.hash() != b.hash()


class TestPresets:
    def test_s1_full_scale_parameters(self):
        cfg = preset("s1_epi").raw
        assert cfg["dims"] == [60, 71, 60]
        assert cfg["n_coils"] == 1
        assert cfg["trajectory"]["n_shots_per_frame"] == 44
        assert cfg["noise"]["snr_i"] == 1000.0
        assert cfg["sequence"]["t_obs_ms"] == 25.0
        assert cfg["recon"]["method"] == "adjoint"
        # 44 shots x 50 ms = 2.2 s volume TR over a 300 s run -> 136 frames
        assert cfg["n_frames"] == 136

    @pytest.mark.parametrize("name", ["s2_sos_static", "s2_sos_dynamic"])
    def test_s2_parameters(self, name):
        cfg = preset(name).raw
        assert cfg["n_coils"] == 8
        assert cfg["trajectory"]["n_shots_per_frame"] == 14
        assert cfg["sequence"]["t_obs_ms"] == 30.0
        assert cfg["recon"]["method"] == "cs"
        assert cfg["trajectory"]["dynamic"] == (name == "s2_sos_dynamic")

    def test_s3_parameters(self, tmp_path):
        path = tmp_path / "traj.snkt"
        path.write_bytes(b"")
        cfg = preset("s3_external", trajectory_path=str(path)).raw
        assert cfg["dims"] == [181, 217, 181]
        assert cfg["n_coils"] == 32
        assert cfg["trajectory"]["n_shots_per_frame"] == 48
        assert cfg["noise"]["snr_i"] == 30.0

    def test_s3_requires_trajectory_path(self):
        with pytest.raises(ConfigError, match="trajectory"):
            preset("s3_external")

    def test_scale_shrinks_proportionally_even(self):
        cfg = preset("s1_epi", scale=0.25).raw
        assert cfg["dims"] == [2 * round(60 * 0.25 / 2),
                               2 * round(71 * 0.25 / 2),
                               2 * round(60 * 0.25 / 2)]
        assert all(d % 2 == 0 for d in cfg["dims"])
        assert cfg["trajectory"]["n_shots_per_frame"] == round(44 * 0.25)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("s9")

    def test_bad_scale(self):
        with pytest.raises(ConfigError, match="scale"):
            preset("s1_epi", scale=0.0)


def _tiny_config(seed=1234, **overrides):
    """A fast end-to-end configuration: 8^3 grid, short run, few frames."""
    cfg = preset("s1_epi", scale=0.2).raw
    cfg = json.loads(json.dumps(cfg))
    cfg["seed"] = seed
    cfg["dims"] = [8, 8, 8]
    cfg["trajectory"]["n_shots_per_frame"] = 8
    cfg["paradigm"].update(block_on_s=2.0, block_off_s=2.0, run_length_s=80.0)
    cfg["n_frames"] = 25
    cfg.update(overrides)
    return RunConfig.from_dict(cfg)


class TestRunPipeline:
    def test_artifacts_and_manifest(self, tmp_path):
        config = _tiny_config()
        manifest = run_pipeline(config, tmp_path / "run")
        assert manifest.failed_stage is None, manifest.error
        out = tmp_path / "run"
        for name in ("config.yaml", "kspace.snkd", "reference.snkv", "roi.snkv",
                     "series_index.json", "objective_traces.csv", "metrics.json",
                     "zmap.snkv", "pr_curve.csv", "manifest.json",
                     "frame_0000.snkv", "frame_0024.snkv"):
            assert (out / name).is_file(), name
        disk = json.loads((out / "manifest.json").read_text())
        assert disk["config_hash"] == config.hash()
        assert set(disk["stage_seconds"]) == {"acquisition", "reconstruction",
                                              "analysis"}
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"auc_pr", "bacc", "psnr_first", "ssim_last",
                                "tsnr_roi_mean"}
        # the adjoint recon runs no solver, so it reports no solver telemetry
        index = json.loads((out / "series_index.json").read_text())
        assert config.raw["recon"]["method"] == "adjoint"
        assert "n_iters" not in index and "converged" not in index

    def test_deterministic_artifacts(self, tmp_path):
        a = run_pipeline(_tiny_config(), tmp_path / "a")
        b = run_pipeline(_tiny_config(), tmp_path / "b")
        assert a.failed_stage is None and b.failed_stage is None
        assert a.checksums == b.checksums

    def test_seed_changes_artifacts(self, tmp_path):
        a = run_pipeline(_tiny_config(seed=1), tmp_path / "a")
        b = run_pipeline(_tiny_config(seed=2), tmp_path / "b")
        assert a.checksums["kspace.snkd"] != b.checksums["kspace.snkd"]

    def test_stage_failure_recorded(self, tmp_path):
        cfg = _tiny_config().raw
        cfg = json.loads(json.dumps(cfg))
        cfg["trajectory"]["kind"] = "external"
        cfg["trajectory"]["path"] = str(tmp_path / "missing.snkt")
        config = RunConfig.from_dict(cfg)
        manifest = run_pipeline(config, tmp_path / "run")
        assert manifest.failed_stage == "acquisition"
        assert manifest.error
        assert "reconstruction" not in manifest.stage_seconds
        disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert disk["failed_stage"] == "acquisition"

    def test_cs_method_runs(self, tmp_path):
        config = _tiny_config()
        cfg = json.loads(json.dumps(config.raw))
        cfg["recon"]["method"] = "cs"
        cfg["recon"]["max_iters"] = 3
        manifest = run_pipeline(RunConfig.from_dict(cfg), tmp_path / "run")
        assert manifest.failed_stage is None, manifest.error
        index = json.loads((tmp_path / "run" / "series_index.json").read_text())
        assert index["n_frames"] == 25
        assert len(index["mu"]) == 25
        assert index["n_iters"] == [3] * 25
        assert index["converged"] == [False] * 25


class TestCli:
    def test_preset_prints_yaml(self, capsys):
        assert cli_main(["preset", "s1_epi"]) == 0
        cfg = yaml.safe_load(capsys.readouterr().out)
        assert cfg["dims"] == [60, 71, 60]

    def test_preset_unknown_exit_2(self, capsys):
        assert cli_main(["preset", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_traj_gen_and_inspect(self, tmp_path, capsys):
        path = str(tmp_path / "epi.snkt")
        assert cli_main(["traj", "gen", path, "--kind", "epi3d",
                         "--dims", "8", "8", "8"]) == 0
        capsys.readouterr()
        assert cli_main(["traj", "inspect", path]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["ndims"] == 3
        assert info["n_shots"] >= 1
        assert info["dwell_time_us"] == 10.0

    def test_traj_inspect_missing_exit_2(self, tmp_path, capsys):
        assert cli_main(["traj", "inspect", str(tmp_path / "none.snkt")]) == 2

    def test_run_config_file_and_metrics(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(_tiny_config().to_yaml())
        out = str(tmp_path / "run")
        assert cli_main(["run", str(cfg_path), "--out", out]) == 0
        capsys.readouterr()
        assert cli_main(["metrics", out]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert "bacc" in metrics

    def test_run_stage_failure_exit_3(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(_tiny_config().raw))
        cfg["trajectory"]["kind"] = "external"
        cfg["trajectory"]["path"] = str(tmp_path / "missing.snkt")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        assert cli_main(["run", str(cfg_path),
                         "--out", str(tmp_path / "run")]) == 3

    def test_run_bad_recon_value_exit_2_before_acquisition(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(_tiny_config().raw))
        cfg["recon"].update(method="cs", wavelet="db4")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "run"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 2
        assert "wavelet" in capsys.readouterr().err
        assert not (out / "kspace.snkd").exists()

    def test_run_scale_on_config_file_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(_tiny_config().to_yaml())
        assert cli_main(["run", str(cfg_path), "--scale", "0.5",
                         "--out", str(tmp_path / "run")]) == 2

    def test_metrics_missing_run_exit_2(self, tmp_path, capsys):
        assert cli_main(["metrics", str(tmp_path / "nope")]) == 2
