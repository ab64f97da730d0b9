"""Tests for presets, config validation, pipeline orchestration and the CLI."""

import json

import numpy as np
import pytest
import yaml

from snakesim import cli
from snakesim.cli import main as cli_main
from snakesim.engine import birdcage_coils
from snakesim.io import read_dataset, write_volume
from snakesim.recon import adjoint_series, reconstruct_series
from snakesim.scenarios import (ConfigError, RunConfig, RunManifest, _build_plan, preset,
                                run_pipeline)
from snakesim.trajectories import gen_epi_3d, save_trajectory_file


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

    @pytest.mark.parametrize("name", ["s1_epi", "s2_sos_static", "s2_sos_dynamic",
                                      "s3_external"])
    def test_every_nested_key_of_every_preset_is_required(self, name):
        raw = preset(name, trajectory_path="traj.snkt").raw
        nested = [(section, key) for section, value in raw.items()
                  if isinstance(value, dict) for key in value]
        assert len(nested) >= 25
        for section, key in nested:
            cfg = json.loads(json.dumps(raw))
            del cfg[section][key]
            with pytest.raises(ConfigError, match=f"{section}.*{key}"):
                RunConfig.from_dict(cfg)

    @pytest.mark.parametrize("section, key, value", [
        ("trajectory", "af", 4.0), ("sequence", "dwell_time_us", 10.0),
        ("paradigm", "amplitude", 1.0)])
    def test_keys_no_code_reads_are_rejected(self, section, key, value):
        cfg = _base_config()
        cfg[section][key] = value
        with pytest.raises(ConfigError, match=f"unknown {section} keys: \\['{key}'\\]"):
            RunConfig.from_dict(cfg)

    def test_typed_objects_built_from_the_mapping(self):
        cfg = _base_config()
        cfg["recon"].update(method="cs", levels=3, strategy="warm")
        cfg["noise"]["snr_i"] = 0
        config = RunConfig.from_dict(cfg)
        seq = cfg["sequence"]
        assert (config.sequence.tr_shot, config.sequence.te, config.sequence.t_obs) == (
            seq["tr_shot_ms"], seq["te_ms"], seq["t_obs_ms"])
        assert config.paradigm.run_length == cfg["paradigm"]["run_length_s"]
        assert np.isinf(config.noise.snr_i) and config.noise.seed == cfg["seed"]
        basis, recon = config.cs
        # dims 12 x 14 x 12 take one level only
        assert (basis.levels, recon.strategy) == (1, "warm")
        # the config keeps its own copy of the mapping it was built from
        cfg["seed"] += 1
        assert config.raw["seed"] == cfg["seed"] - 1


_DELETE = object()


def _edit(section, key, value):
    def apply(cfg):
        target = cfg if section is None else cfg[section]
        if value is _DELETE:
            del target[key]
        else:
            target[key] = value
    return apply


# Configs that used to fail with a traceback, or in a stage after the run
# had started; each must now fail in from_dict, naming its section or key.
_PROBES = {
    "missing te_ms": (_edit("sequence", "te_ms", _DELETE), "sequence"),
    "missing trajectory kind": (_edit("trajectory", "kind", _DELETE), "trajectory"),
    "te_ms as a string": (_edit("sequence", "te_ms", "25"), "sequence.te_ms"),
    "unknown phantom kind": (_edit("phantom", "kind", "blob"), "phantom.kind"),
    "unknown trajectory kind": (_edit("trajectory", "kind", "rosette"), "trajectory.kind"),
    "t_obs above tr_shot": (_edit("sequence", "t_obs_ms", 60.0), "sequence"),
    "negative snr": (_edit("noise", "snr_i", -1), "noise"),
    "unknown hrf": (_edit("bold", "hrf", "bogus"), "bold.hrf"),
    "no coils": (_edit(None, "n_coils", 0), "n_coils"),
    "two dims": (_edit(None, "dims", [8, 8]), "dims"),
    "p_threshold above 1": (_edit("analysis", "p_threshold", 2), "analysis"),
    "drift order above frames": (_edit("analysis", "drift_order", 30), "analysis"),
    "zero on block": (_edit("paradigm", "block_on_s", 0), "paradigm"),
    "zero run length": (_edit("paradigm", "run_length_s", 0), "paradigm"),
    "no shots per frame": (_edit("trajectory", "n_shots_per_frame", 0), "trajectory"),
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_invalid_config_rejected_before_acquisition(probe, tmp_path, capsys):
    edit, section = _PROBES[probe]
    cfg = json.loads(json.dumps(_tiny_config().raw))
    edit(cfg)
    with pytest.raises(ConfigError, match=section):
        RunConfig.from_dict(cfg)
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "run"
    assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert section.split(".")[0] in capsys.readouterr().err
    assert not (out / "kspace.snkd").exists()


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
        assert set(disk["peak_rss_mb"]) == set(disk["stage_seconds"])
        peaks = [disk["peak_rss_mb"][stage]
                 for stage in ("acquisition", "reconstruction", "analysis")]
        assert 0 < peaks[0] <= peaks[1] <= peaks[2]
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

    def test_external_plan_frame_count_must_match(self, tmp_path):
        config = _tiny_config()
        seq = config.sequence
        path = tmp_path / "two_frames.snkt"
        save_trajectory_file(path, gen_epi_3d((8, 8, 8), seq, n_frames=2), dwell_time_us=10.0)
        cfg = json.loads(json.dumps(config.raw))
        cfg["trajectory"].update(kind="external", path=str(path))
        cfg["n_frames"] = 3
        manifest = run_pipeline(RunConfig.from_dict(cfg), tmp_path / "run")
        assert manifest.failed_stage == "acquisition"
        assert "2 frames" in manifest.error and "n_frames is 3" in manifest.error
        assert not (tmp_path / "run" / "kspace.snkd").exists()

    @pytest.mark.parametrize("method", ["adjoint", "cs"])
    def test_frames_reproduced_from_the_dataset(self, method, tmp_path):
        """The series functions on kspace.snkd write the pipeline's frames
        byte for byte: the pipeline reconstructs from the file it wrote."""
        cfg = json.loads(json.dumps(_tiny_config().raw))
        cfg["recon"].update(method=method, strategy="warm", max_iters=3)
        config = RunConfig.from_dict(cfg)
        out = tmp_path / "run"
        assert run_pipeline(config, out).failed_stage is None
        plan = _build_plan(cfg, config.sequence)
        coils = birdcage_coils(tuple(cfg["dims"]), cfg["n_coils"])
        _, kdata = read_dataset(out / "kspace.snkd")
        if method == "adjoint":
            series = adjoint_series(kdata, plan, coils)
        else:
            series = reconstruct_series(kdata, plan, coils, *config.cs)
        for t, mag in enumerate(series.magnitude()):
            write_volume(tmp_path / "again.snkv", mag, voxel_size=cfg["voxel_size_mm"])
            name = f"frame_{t:04d}.snkv"
            assert (tmp_path / "again.snkv").read_bytes() == (out / name).read_bytes(), name

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
        assert set(metrics["peak_rss_mb"]) == {"acquisition", "reconstruction", "analysis"}

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

    @pytest.mark.parametrize("change, message", [
        ({"phantom": {"kind": "files", "files": ["wm.snkv", "xx.snkv"],
                      "tissues": ["WM", "XX"]}}, "XX"),
        ({"phantom": {"kind": "files", "files": ["wm.snkv", "csf.snkv"],
                      "tissues": ["WM", "CSF"]}}, "does not list GM"),
        ({"phantom": {"kind": "files", "files": ["gm.snkv"],
                      "tissues": ["WM", "GM"]}}, "1 files for 2 tissues"),
        ({"phantom": {"kind": "synthetic", "gm_sphere_radius_frac": 0.8}}, "does not fit"),
        ({"trajectory": {"n_shots_per_frame": 9}}, "9 EPI planes > Nz = 8")])
    def test_run_unbuildable_phantom_or_plan_exit_2_before_acquisition(
            self, change, message, tmp_path, capsys):
        """Configs the phantom and plan builders would refuse exit 2 before
        the dataset exists (the files are never opened)."""
        cfg = json.loads(json.dumps(_tiny_config().raw))
        for section, values in change.items():
            cfg[section] = {**cfg[section], **values} if section != "phantom" else values
        with pytest.raises(ConfigError, match=message):
            RunConfig.from_dict(cfg)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        out = tmp_path / "run"
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "kspace.snkd").exists()

    def test_run_scale_on_config_file_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(_tiny_config().to_yaml())
        assert cli_main(["run", str(cfg_path), "--scale", "0.5",
                         "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("source", ["preset", "file"])
    def test_run_builds_its_config_once(self, source, tmp_path, monkeypatch):
        built, ran = [], []
        from_dict = RunConfig.from_dict.__func__
        monkeypatch.setattr(RunConfig, "from_dict", classmethod(
            lambda cls, data: built.append(data) or from_dict(cls, data)))
        monkeypatch.setattr(cli, "run_pipeline", lambda config, out, n_jobs: ran.append(
            config) or RunManifest(config_hash="", version="", checksums={}, stage_seconds={}))
        config = "s1_epi"
        if source == "file":
            config = str(tmp_path / "cfg.yaml")
            (tmp_path / "cfg.yaml").write_text(preset("s1_epi", scale=0.2).to_yaml())
            built.clear()
        args = [config, "--seed", "7", "--trajectory", "plan.snkt", "--out", str(tmp_path)]
        assert cli_main(["run", *args]) == 0
        assert len(built) == 1
        assert (ran[0].raw["seed"], ran[0].raw["trajectory"]["path"]) == (7, "plan.snkt")

    def test_metrics_missing_run_exit_2(self, tmp_path, capsys):
        assert cli_main(["metrics", str(tmp_path / "nope")]) == 2
