"""Tests for presets, config validation, pipeline orchestration and the CLI."""

import inspect
import json
import operator
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

from snakesim import cli, engine, recon, scenarios
from snakesim.analysis import SeriesSums, build_design
from snakesim.cli import main as cli_main
from snakesim.engine import NDFT, birdcage_coils
from snakesim.io import read_dataset, read_volume, write_volume
from snakesim.phantom import VOXEL_SIZE_RTOL, Paradigm
from snakesim.recon import COMPLEX64_TOL_FLOOR, adjoint_series, reconstruct_series
from snakesim.scenarios import (ConfigError, RunConfig, RunManifest, preset,
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
        again = RunConfig.from_dict(yaml.safe_load(path.read_text()))
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

    def test_te_above_tr_rejected(self, tmp_path):
        cfg = _base_config()
        cfg["sequence"]["te_ms"] = 60.0
        with pytest.raises(ConfigError, match="TE"):
            run_pipeline(RunConfig.from_dict(cfg), tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            RunConfig.from_dict(_base_config(model="fancy"))

    @pytest.mark.parametrize("key, value", [
        ("method", "sense"), ("wavelet", "db4"), ("strategy", "lukewarm"),
        ("mu_mode", "guess"), ("levels", 0), ("max_iters", 0)])
    def test_bad_cs_recon_value_rejected(self, key, value, tmp_path):
        cfg = _base_config()
        cfg["recon"].update({"method": "cs", key: value})
        with pytest.raises(ConfigError, match="recon"):
            run_pipeline(RunConfig.from_dict(cfg), tmp_path / "run")
        assert not (tmp_path / "run").exists()

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

    def test_negative_seed_rejected(self):
        """The seed keys the noise draws, which take non-negative integers
        only: a negative one is refused before any compute."""
        with pytest.raises(ConfigError, match="noise: seed must be a non-negative integer, got -1"):
            scenarios._run_inputs(RunConfig.from_dict(_base_config(seed=-1)))
        _, noise, *_ = scenarios._run_inputs(RunConfig.from_dict(_base_config(seed=0)))
        assert noise.seed == 0

    @pytest.mark.parametrize("section, key, value, message", [
        ("sequence", "te_ms", 50.0, "sequence: need 0 < TE < TR_shot, got TE=50.0, TR=50.0"),
        ("recon", "strategy", "lukewarm", "recon: unknown strategy 'lukewarm'"),
        (None, "seed", -1, "noise: seed must be a non-negative integer, got -1"),
        ("recon", "levels", 0, "recon: need at least one decomposition level")])
    def test_a_builders_rule_refuses_in_run_pipeline(self, section, key, value, message,
                                                     tmp_path, capsys):
        """A rule that a builder of the run's inputs holds is not checked
        again by from_dict: the config is returned, and run_pipeline
        refuses it with the builder's message before the run directory."""
        cfg = json.loads(json.dumps(_tiny_config().raw))
        cfg["recon"]["method"] = "cs"
        (cfg if section is None else cfg[section])[key] = value
        assert RunConfig.from_dict(cfg).raw == cfg
        _assert_refused_before_the_run_dir(cfg, message, tmp_path, capsys)

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
        sequence, noise, (basis, recon), plan, _, _, design, *_ = scenarios._run_inputs(config)
        seq = cfg["sequence"]
        assert (sequence.tr_shot, sequence.te, sequence.t_obs) == (
            seq["tr_shot_ms"], seq["te_ms"], seq["t_obs_ms"])
        assert design.n_frames == plan.n_frames == cfg["n_frames"]
        assert np.isinf(noise.snr_i) and noise.seed == cfg["seed"]
        # dims 12 x 14 x 12 take one level only
        assert (basis.levels, recon.strategy) == (1, "warm")
        # the config keeps its own copy of the mapping it was built from
        cfg["seed"] += 1
        assert config.raw["seed"] == cfg["seed"] - 1

    def test_cs_tol_below_the_complex64_floor_rejected(self):
        cfg = _base_config()
        cfg["recon"].update(method="cs", tol=COMPLEX64_TOL_FLOOR / 10)
        with pytest.raises(ConfigError, match=f"recon.tol: .* below {COMPLEX64_TOL_FLOOR:g}"):
            RunConfig.from_dict(cfg)
        cfg["recon"]["tol"] = COMPLEX64_TOL_FLOOR
        assert scenarios._run_inputs(RunConfig.from_dict(cfg))[2][1].tol == COMPLEX64_TOL_FLOOR
        # the adjoint route does not read tol
        cfg["recon"].update(method="adjoint", tol=COMPLEX64_TOL_FLOOR / 10)
        assert scenarios._run_inputs(RunConfig.from_dict(cfg))[2] is None


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
# had started; each must now fail in from_dict or, for a rule a builder of
# the run's inputs holds, in run_pipeline before the run directory is made,
# naming its section or key.
_PROBES = {
    "missing te_ms": (_edit("sequence", "te_ms", _DELETE), "sequence"),
    "missing trajectory kind": (_edit("trajectory", "kind", _DELETE), "trajectory"),
    "te_ms as a string": (_edit("sequence", "te_ms", "25"), "sequence.te_ms"),
    "unknown phantom kind": (_edit("phantom", "kind", "blob"), "phantom.kind"),
    "unknown trajectory kind": (_edit("trajectory", "kind", "rosette"), "trajectory.kind"),
    "t_obs above tr_shot": (_edit("sequence", "t_obs_ms", 60.0), "sequence"),
    "zero flip angle": (_edit("sequence", "flip_angle_deg", 0), "sequence"),
    "negative snr": (_edit("noise", "snr_i", -1), "noise"),
    "unknown hrf": (_edit("bold", "hrf", "bogus"), "bold.hrf"),
    "no coils": (_edit(None, "n_coils", 0), "n_coils: need at least one coil, got 0"),
    "two dims": (_edit(None, "dims", [8, 8]), "dims"),
    "a bool dims entry": (_edit(None, "dims", [True, 8, 8]),
                          "dims: need 3 positive values, got"),
    "a bool voxel size": (_edit(None, "voxel_size_mm", [3.0, True, 3.0]),
                          "voxel_size_mm: need 3 positive values, got"),
    "p_threshold above 1": (_edit("analysis", "p_threshold", 2), "analysis"),
    "drift order above frames": (_edit("analysis", "drift_order", 30),
                                 "analysis: 25 frames too few for drift order 30"),
    "zero on block": (_edit("paradigm", "block_on_s", 0), "paradigm"),
    "zero run length": (_edit("paradigm", "run_length_s", 0), "paradigm"),
    "no shots per frame": (_edit("trajectory", "n_shots_per_frame", 0), "trajectory"),
}


@pytest.mark.parametrize("probe", sorted(_PROBES))
def test_invalid_config_rejected_before_acquisition(probe, tmp_path, capsys):
    edit, section = _PROBES[probe]
    cfg = json.loads(json.dumps(_tiny_config().raw))
    edit(cfg)
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=section):
        run_pipeline(RunConfig.from_dict(cfg), out)
    assert not out.exists()
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert section.split(".")[0] in capsys.readouterr().err
    assert not out.exists()


def _assert_refused_before_the_run_dir(cfg, message, tmp_path, capsys):
    """Running ``cfg`` raises ``ConfigError`` with ``message`` before the
    run directory exists, and snake run on it exits 2, prints the message
    and makes no run directory."""
    out = tmp_path / "run"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run_pipeline(RunConfig.from_dict(cfg), out)
    assert not out.exists()
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _assert_design_accepted(config):
    cfg, par = config.raw, config.raw["paradigm"]
    tr_vol = cfg["trajectory"]["n_shots_per_frame"] * cfg["sequence"]["tr_shot_ms"] * 1e-3
    paradigm = Paradigm.blocks(par["block_on_s"], par["block_off_s"], par["run_length_s"])
    design = build_design(paradigm, cfg["bold"]["hrf"], cfg["n_frames"], tr_vol,
                          drift_order=cfg["analysis"]["drift_order"])
    assert np.isfinite(design.xtx_inv).all()


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

    @pytest.mark.parametrize("name", sorted(scenarios._PRESETS))
    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.25, 0.15, 0.1])
    def test_preset_design_accepted(self, name, scale):
        """Every preset's design passes the Gram matrix check (cond(X^T X)
        measured 10-15, the limit 4.5e12)."""
        _assert_design_accepted(preset(name, scale, trajectory_path="plan.snkt"))

    @pytest.mark.parametrize("workload", ["epi_acq", "sos_static_cs", "sos_dynamic_t2s_warm",
                                          "tiny_epi", "tiny_cs_refined"])
    def test_benchmark_design_accepted(self, workload):
        sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
        _assert_design_accepted(RunConfig.from_dict(workloads.make_config(workload, 1234)))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset("s9")

    def test_bad_scale(self):
        with pytest.raises(ConfigError, match="scale"):
            preset("s1_epi", scale=0.0)


@pytest.fixture
def started_threads(monkeypatch):
    """The threads started while the test runs, in order."""
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    return started


def _failing_acquisition(*args, **kwargs):
    """A runtime failure of the acquisition stage, in place of run_acquisition."""
    raise RuntimeError("acquisition failed")


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
    def test_one_bold_convolution_per_run_and_none_held(self, monkeypatch, tmp_path):
        """The design and the BOLD modulation sample one response, and the
        run does not keep it."""
        from snakesim import phantom
        kernels = []
        monkeypatch.setattr(phantom, "hrf_kernel",
                            lambda *a, _k=phantom.hrf_kernel, **kw: kernels.append(1) or _k(*a, **kw))
        phantom.bold_response.cache_clear()
        assert run_pipeline(_tiny_config(), tmp_path / "run").failed_stage is None
        assert len(kernels) == 1
        assert phantom.bold_response.cache_info().currsize == 0

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
        assert not {"n_iters", "stop", "restarts", "final_rel_change"} & set(index)

    def test_deterministic_artifacts(self, tmp_path):
        a = run_pipeline(_tiny_config(), tmp_path / "a")
        b = run_pipeline(_tiny_config(), tmp_path / "b")
        assert a.failed_stage is None and b.failed_stage is None
        assert a.checksums == b.checksums

    def test_seed_changes_artifacts(self, tmp_path):
        a = run_pipeline(_tiny_config(seed=1), tmp_path / "a")
        b = run_pipeline(_tiny_config(seed=2), tmp_path / "b")
        assert a.checksums["kspace.snkd"] != b.checksums["kspace.snkd"]

    def test_stage_failure_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenarios, "run_acquisition", _failing_acquisition)
        manifest = run_pipeline(_tiny_config(), tmp_path / "run")
        assert manifest.failed_stage == "acquisition"
        assert manifest.error == "RuntimeError: acquisition failed"
        assert "reconstruction" not in manifest.stage_seconds
        disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert disk["failed_stage"] == "acquisition"

    def test_failed_acquisition_leaves_no_dataset(self, tmp_path, monkeypatch):
        """An acquisition that raises after the sink opened, here at shot 3
        of a rerun into a finished run's directory, leaves only
        ``kspace.snkd.partial``: neither the new run's incomplete dataset
        nor the finished run's stays under the name a later stage reads,
        and no other output of the finished run stays either. A file that
        no run writes is kept."""
        config = _tiny_config()
        out = tmp_path / "run"
        assert run_pipeline(config, out).failed_stage is None
        # the finished run wrote every output but the partial dataset
        assert all(any(out.glob(pattern)) for pattern in scenarios._RUN_FILES
                   if pattern != "kspace.snkd.partial")
        (out / "notes.txt").write_text("kept")
        add_noise = engine.add_noise

        def failing(samples, noise, energy, shot_index=0):
            if shot_index == 3:
                raise RuntimeError("shot 3")
            return add_noise(samples, noise, energy, shot_index=shot_index)

        monkeypatch.setattr(engine, "add_noise", failing)
        manifest = run_pipeline(config, tmp_path / "run")
        assert manifest.failed_stage == "acquisition" and "shot 3" in manifest.error
        assert not (out / "kspace.snkd").exists()
        assert sorted(f.name for f in out.iterdir()) == [
            "config.yaml", "kspace.snkd.partial", "manifest.json", "notes.txt"]

    def test_external_plan_frame_count_must_match(self, tmp_path, capsys):
        """An external file of another shot count than n_frames x
        n_shots_per_frame, whether or not it divides into whole frames, is
        refused naming the file and the count needed: snake run exits 2
        before its run directory exists."""
        config = _tiny_config()
        path = tmp_path / "two_frames.snkt"
        sequence = scenarios._run_inputs(config)[0]
        save_trajectory_file(path, gen_epi_3d((8, 8, 8), sequence, n_frames=2),
                             dwell_time_us=10.0)
        cfg = json.loads(json.dumps(config.raw))
        cfg["n_frames"] = 3
        for n in (8, 5):
            cfg["trajectory"].update(kind="external", path=str(path), n_shots_per_frame=n)
            _assert_refused_before_the_run_dir(
                cfg, f"trajectory: {path}: 16 shots, need n_frames x n_shots_per_frame "
                     f"= 3 x {n} = {3 * n}", tmp_path, capsys)

    def test_external_plan_file_missing(self, tmp_path, capsys):
        path = tmp_path / "missing.snkt"
        cfg = json.loads(json.dumps(_tiny_config().raw))
        cfg["trajectory"].update(kind="external", path=str(path))
        _assert_refused_before_the_run_dir(
            cfg, f"trajectory: [Errno 2] No such file or directory: '{path}'", tmp_path, capsys)

    def test_acquisition_takes_the_configs_plan(self, tmp_path, monkeypatch):
        """The plan run_acquisition samples is built once per run_pipeline
        call, by _build_plan: a second run of the config builds its own."""
        config, built, plans = _tiny_config(), [], []
        build, acquire = scenarios._build_plan, scenarios.run_acquisition
        monkeypatch.setattr(scenarios, "_build_plan",
                            lambda *a: built.append(build(*a)) or built[-1])
        monkeypatch.setattr(scenarios, "run_acquisition",
                            lambda phantom, plan, *a, **kw: plans.append(plan)
                            or acquire(phantom, plan, *a, **kw))
        for run in ("a", "b"):
            assert run_pipeline(config, tmp_path / run).failed_stage is None
        assert len(built) == 2 and all(map(operator.is_, plans, built))

    @pytest.mark.parametrize("frac", [-0.2, 0.0, 0.1])
    def test_empty_roi_fails_before_the_sink(self, frac, tmp_path, capsys):
        """A GM sphere too small for any ROI voxel to reach weight 0.5, or
        of no positive radius, which synthetic_phantom refuses, fails before
        the run directory is made, not in analysis."""
        cfg = json.loads(json.dumps(_tiny_config().raw))
        cfg["phantom"]["gm_sphere_radius_frac"] = frac
        message = (f"phantom: sphere at (4.0, 4.0, 4.0) r={frac * 8} does not fit" if frac <= 0
                   else "phantom: empty ROI: no GM voxel of weight >= 0.5")
        _assert_refused_before_the_run_dir(cfg, message, tmp_path, capsys)

    def test_cs_on_the_scale_1_grid_runs_every_stage(self, tmp_path, monkeypatch):
        """s2_sos_static at scale 1 solves CS on its 60 x 71 x 60 grid, at
        the one wavelet level from_dict keeps for 71, through every stage:
        cut to 4 frames as the benchmark's workloads are (blocks of one
        frame's TR) and 2 iterations. s2_sos_dynamic's inputs at scale 1
        build as well."""
        sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads
        cfg = preset("s2_sos_static").raw
        tr_vol_s = cfg["trajectory"]["n_shots_per_frame"] * cfg["sequence"]["tr_shot_ms"] * 1e-3
        cfg = workloads._trim(cfg, 4, tr_vol_s)
        cfg["recon"]["max_iters"] = 2
        bases, series = [], scenarios.reconstruct_series
        monkeypatch.setattr(scenarios, "reconstruct_series",
                            lambda kdata, plan, coils, basis, *a, **kw: bases.append(basis)
                            or series(kdata, plan, coils, basis, *a, **kw))
        manifest = run_pipeline(RunConfig.from_dict(cfg), tmp_path / "run")
        assert manifest.failed_stage is None, manifest.error
        assert [basis.levels for basis in bases] == [1]
        index = json.loads((tmp_path / "run" / "series_index.json").read_text())
        assert len(index["stop"]) == 4
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert all(np.isfinite(v) for v in metrics.values())
        assert scenarios._run_inputs(preset("s2_sos_dynamic"))[3].n_frames == 428

    def test_files_phantom_runs_end_to_end(self, tmp_path):
        """A ``files`` phantom, WM and GM volumes of the synthetic 8^3
        phantom written as SNKV1, runs every stage."""
        cfg = json.loads(json.dumps(_tiny_config().raw))
        weights = scenarios._build_phantom(cfg)[0].weights
        files = []
        for name, volume in zip(("wm", "gm"), weights):
            files.append(str(tmp_path / f"{name}.snkv"))
            write_volume(files[-1], volume, voxel_size=cfg["voxel_size_mm"])
        cfg["phantom"] = {"kind": "files", "files": files, "tissues": ["WM", "GM"]}
        manifest = run_pipeline(RunConfig.from_dict(cfg), tmp_path / "run")
        assert manifest.failed_stage is None, manifest.error
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert all(np.isfinite(v) for v in metrics.values())

    def test_files_phantom_voxel_size_must_be_the_configs(self, tmp_path, capsys):
        """A ``files`` phantom of 1 mm volumes under a 3 mm config is
        refused, naming both sizes, before the run directory: its zmap.snkv
        used to say 1 mm. A size within load_phantom's rtol is the same."""
        cfg = json.loads(json.dumps(_tiny_config().raw))
        weights = scenarios._build_phantom(cfg)[0].weights
        files = []
        for name, volume in zip(("wm", "gm"), weights):
            files.append(str(tmp_path / f"{name}.snkv"))
            write_volume(files[-1], volume, voxel_size=(1.0, 1.0, 1.0))
        cfg["phantom"] = {"kind": "files", "files": files, "tissues": ["WM", "GM"]}
        _assert_refused_before_the_run_dir(
            cfg, "phantom: the volumes' voxel size (1.0, 1.0, 1.0) is not voxel_size_mm "
                 "(3.0, 3.0, 3.0)", tmp_path, capsys)
        cfg["voxel_size_mm"] = [1.0, 1.0, 1.0 + 0.5 * VOXEL_SIZE_RTOL]
        assert scenarios._build_phantom(cfg)[0].voxel_size == (1.0, 1.0, 1.0)

    def test_external_plan_runs_end_to_end(self, tmp_path):
        """An external plan, the SNKT1 file of the 8^3 config's own EPI
        plan, runs every stage."""
        config = _tiny_config()
        cfg = json.loads(json.dumps(config.raw))
        path = tmp_path / "epi.snkt"
        plan = gen_epi_3d((8, 8, 8), scenarios._run_inputs(config)[0], n_planes_per_volume=8,
                          n_frames=cfg["n_frames"])
        save_trajectory_file(path, plan, dwell_time_us=10.0)
        cfg["trajectory"].update(kind="external", path=str(path))
        manifest = run_pipeline(RunConfig.from_dict(cfg), tmp_path / "run")
        assert manifest.failed_stage is None, manifest.error
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert all(np.isfinite(v) for v in metrics.values())

    def test_degenerate_paradigm_fails_before_the_sink(self, tmp_path, capsys):
        """Blocks longer than the run leave the task regressor zero: the
        design is built with the plan, before the run directory is made,
        so the run fails there, not in analysis."""
        cfg = json.loads(json.dumps(preset("s1_epi", scale=0.15).raw))
        cfg["paradigm"].update(block_on_s=1000.0, block_off_s=1000.0)
        _assert_refused_before_the_run_dir(cfg, "analysis: task regressor is identically zero",
                                           tmp_path, capsys)

    def test_pipeline_holds_no_run_sized_array(self, tmp_path, monkeypatch):
        """Reconstruction and analysis hold no (n_frames, *dims) array: from
        the start of reconstruction on, tracemalloc's peak stays below a
        quarter of the float64 magnitude series, and the dataset that
        acquisition returns reads its frames without a memory map."""
        cfg = json.loads(json.dumps(_tiny_config().raw))
        cfg["dims"] = [16, 16, 16]
        cfg["n_frames"] = 400  # frames of 8 shots at 50 ms fill the 160 s run
        cfg["paradigm"]["run_length_s"] = 160.0
        datasets = []

        def series(kdata, *args, **kwargs):
            datasets.append(kdata)
            tracemalloc.reset_peak()
            return adjoint_series(kdata, *args, **kwargs)

        monkeypatch.setattr(scenarios, "adjoint_series", series)
        tracemalloc.start()
        try:
            manifest = run_pipeline(RunConfig.from_dict(cfg), tmp_path / "run")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert manifest.failed_stage is None, manifest.error
        assert peak < 400 * 16 ** 3 * 8 / 4
        kdata, = datasets
        assert not isinstance(kdata, np.memmap)
        kdata[len(kdata) - 1]
        maps = Path("/proc/self/maps")
        if maps.exists():
            assert "kspace.snkd" not in maps.read_text()

    @pytest.mark.parametrize("method", ["adjoint", "cs"])
    def test_reconstruction_holds_only_complex64_maps(self, method, tmp_path, monkeypatch):
        """Once acquisition ends, the pipeline rounds the coil maps to the
        dataset's complex64 and releases acquisition's complex128 maps:
        the series gets complex64 maps, and a weak reference to the
        complex128 ones is dead when reconstruction starts."""
        acquired, seen = [], []

        def coils(*args):
            profile = birdcage_coils(*args)
            acquired.append(weakref.ref(profile.maps))
            return profile

        name = "adjoint_series" if method == "adjoint" else "reconstruct_series"
        series = getattr(scenarios, name)

        def spy(kdata, plan, coils, *args, **kwargs):
            seen.append((coils.maps.dtype, acquired[0]()))
            return series(kdata, plan, coils, *args, **kwargs)

        monkeypatch.setattr(scenarios, "birdcage_coils", coils)
        monkeypatch.setattr(scenarios, name, spy)
        config = _tiny_config() if method == "adjoint" else self._sos_dynamic_config("cold")
        manifest = run_pipeline(config, tmp_path / "run")
        assert manifest.failed_stage is None, manifest.error
        assert seen == [(np.complex64, None)]

    @staticmethod
    def _sos_dynamic_config(strategy, name="s2_sos_dynamic"):
        """A small stack-of-spirals CS config, by default the dynamic one:
        one operator per frame."""
        cfg = json.loads(json.dumps(preset(name, scale=0.15).raw))
        cfg["n_frames"] = 6
        cfg["paradigm"].update(block_on_s=0.2, block_off_s=0.2, run_length_s=6 * 0.35)
        cfg["recon"].update(strategy=strategy, max_iters=4)
        return RunConfig.from_dict(cfg)

    @staticmethod
    def _ndft_paths(name, model, tmp_path, monkeypatch):
        """Run a six-frame ``name`` preset at scale 0.15 under ``model`` and
        return the paths of the NDFTs that acquisition and reconstruction
        built, the plan's once-only patterns and its runs of equal
        consecutive frames, of which the series builds one operator each."""
        built = {"engine": [], "recon": []}

        def spy(paths):
            class Spy(NDFT):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    paths.append(self.path)
            return Spy

        monkeypatch.setattr(engine, "NDFT", spy(built["engine"]))
        monkeypatch.setattr(recon, "NDFT", spy(built["recon"]))
        cfg = json.loads(json.dumps(preset(name, scale=0.15).raw))
        cfg["n_frames"], cfg["model"] = 6, model
        cfg["paradigm"].update(block_on_s=0.2, block_off_s=0.2, run_length_s=6 * 0.35)
        cfg["recon"].update(max_iters=2)
        config = RunConfig.from_dict(cfg)
        assert run_pipeline(config, tmp_path / "run").failed_stage is None
        plan = scenarios._run_inputs(config)[3]
        once = sum(n == 1 for n in Counter(plan.shots).values())
        runs = 1 + sum(plan.frame(t) != plan.frame(t - 1) for t in range(1, 6))
        return built, once, runs

    @pytest.mark.parametrize("model", ["basic", "t2s"])
    @pytest.mark.parametrize("name", ["s2_sos_static", "s2_sos_dynamic"])
    def test_every_sos_operator_takes_the_stack_path(self, name, model, tmp_path,
                                                     monkeypatch):
        """Every NDFT a stack-of-spirals run builds is one Kronecker
        product: acquisition's joined repeated planes, each of its
        once-only plane shots and every frame operator of the CS series."""
        built, once, runs = self._ndft_paths(name, model, tmp_path, monkeypatch)
        assert (once > 0, runs > 1) == (name == "s2_sos_dynamic",) * 2
        assert built["engine"] == ["stack"] * (1 + once)
        assert built["recon"] == ["stack"] * runs

    @pytest.mark.parametrize("model", ["basic", "t2s"])
    def test_every_epi_operator_takes_the_fft_path(self, model, tmp_path, monkeypatch):
        """An EPI run repeats every pattern, all on the grid, so acquisition
        builds one FFT-path NDFT on their joined points and the adjoint
        series one per run of equal frames. With the stack-of-spirals
        runs above, every shipped preset that plans its own trajectory
        repeats patterns of one path only, which is what lets the engine
        transform all of them in one NDFT."""
        built, once, runs = self._ndft_paths("s1_epi", model, tmp_path, monkeypatch)
        assert (once, runs) == (0, 1)
        assert built["engine"] == ["fft"] and built["recon"] == ["fft"]

    @staticmethod
    def _over_budget(config, monkeypatch):
        """Set recon.BATCH_BYTES one byte short of one frame's complex64
        coil images under ``config``, so its series runs on the pool."""
        dims, n_coils = config.raw["dims"], config.raw["n_coils"]
        monkeypatch.setattr(recon, "BATCH_BYTES", n_coils * int(np.prod(dims)) * 8 - 1)

    @pytest.mark.parametrize("method", ["adjoint", "cold", "refined", "static_cold"])
    def test_artifacts_identical_at_any_worker_count(self, method, tmp_path, monkeypatch,
                                                     started_threads):
        """Every artifact but the manifest is byte-identical at n_jobs 1, 2
        and 4, with a short switch interval so threads interleave often.
        The adjoint, cold and refined runs have frames forced over the
        batch budget, so they run on the pool at 2 and 4 workers. The
        static cold run solves its six frames in three batches of two (a
        budget of two frames' coil images), on the calling thread."""
        if method == "adjoint":
            config = _tiny_config()
        elif method == "static_cold":
            config = self._sos_dynamic_config("cold", name="s2_sos_static")
            dims, n_coils = config.raw["dims"], config.raw["n_coils"]
            monkeypatch.setattr(recon, "BATCH_BYTES", 2 * n_coils * int(np.prod(dims)) * 8)
            solve, batches = recon.cs_solve, []
            monkeypatch.setattr(recon, "cs_solve",
                                lambda y, *args, **kwargs: batches.append(len(y))
                                or solve(y, *args, **kwargs))
        else:
            config = self._sos_dynamic_config(method)
        if method != "static_cold":
            self._over_budget(config, monkeypatch)
        started = {}  # threads started by the run at each worker count
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n_jobs in (1, 2, 4):
                before = len(started_threads)
                manifest = run_pipeline(config, tmp_path / str(n_jobs), n_jobs=n_jobs)
                assert manifest.failed_stage is None, manifest.error
                started[n_jobs] = len(started_threads) - before
        finally:
            sys.setswitchinterval(interval)
        names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.name != "manifest.json")
        assert "frame_0005.snkv" in names
        if method == "static_cold":
            assert batches == [2] * 9
            assert started_threads == []
        else:
            assert started[1] == 0 and started[2] > 0 and started[4] > 0
        for n_jobs in (2, 4):
            for name in names:
                assert ((tmp_path / str(n_jobs) / name).read_bytes()
                        == (tmp_path / "1" / name).read_bytes()), (n_jobs, name)

    @pytest.mark.parametrize("name, scale, method", [
        ("s1_epi", 0.5, "adjoint"), ("s2_sos_static", 0.25, "cs"), ("s2_sos_dynamic", 0.25, "cs")])
    def test_desk_scale_series_start_no_thread(self, name, scale, method, tmp_path,
                                               started_threads):
        """At the benchmark's frame sizes at least two frames fit the batch
        budget, so an adjoint series and a cold CS series at two workers
        run on the calling thread: the run starts no thread."""
        cfg = json.loads(json.dumps(preset(name, scale=scale).raw))
        tr_vol_s = cfg["trajectory"]["n_shots_per_frame"] * cfg["sequence"]["tr_shot_ms"] * 1e-3
        cfg["n_frames"] = 6
        cfg["paradigm"].update(block_on_s=2 * tr_vol_s, block_off_s=2 * tr_vol_s,
                               run_length_s=6 * tr_vol_s)
        cfg["recon"].update(method=method, strategy="cold", max_iters=2)
        manifest = run_pipeline(RunConfig.from_dict(cfg), tmp_path / "run", n_jobs=2)
        assert manifest.failed_stage is None, manifest.error
        assert started_threads == []

    def test_failed_consumer_closes_the_series(self, tmp_path, monkeypatch, started_threads):
        """A reconstruction-stage failure after the series started closes
        the series generator, so none of its pool threads outlive the run:
        its frames are forced over the batch budget, so the pool runs."""
        series = []

        def keep(*args, **kwargs):
            series.append(reconstruct_series(*args, **kwargs))
            return series[-1]

        def failing_write(path, *args, **kwargs):
            if Path(path).name == "frame_0002.snkv":
                raise OSError("disk full")
            return write_volume(path, *args, **kwargs)

        monkeypatch.setattr(scenarios, "reconstruct_series", keep)
        monkeypatch.setattr(scenarios, "write_volume", failing_write)
        config = self._sos_dynamic_config("cold")
        self._over_budget(config, monkeypatch)
        before = {th for th in threading.enumerate()
                  if th.name.startswith("ThreadPoolExecutor")}
        manifest = run_pipeline(config, tmp_path / "run", n_jobs=2)
        assert started_threads
        assert manifest.failed_stage == "reconstruction"
        assert manifest.error == "OSError: disk full"
        assert inspect.getgeneratorstate(series[0]) == inspect.GEN_CLOSED
        assert {th for th in threading.enumerate()
                if th.name.startswith("ThreadPoolExecutor")} <= before

    @pytest.mark.parametrize("method", ["adjoint", "cs"])
    def test_frames_reproduced_from_the_dataset(self, method, tmp_path):
        """The series functions on kspace.snkd write the pipeline's frames
        byte for byte: the pipeline reconstructs from the file it wrote."""
        cfg = json.loads(json.dumps(_tiny_config().raw))
        cfg["recon"].update(method=method, strategy="warm", max_iters=3)
        config = RunConfig.from_dict(cfg)
        out = tmp_path / "run"
        assert run_pipeline(config, out).failed_stage is None
        _, _, cs, plan, *_ = scenarios._run_inputs(config)
        coils = birdcage_coils(tuple(cfg["dims"]), cfg["n_coils"])
        _, kdata = read_dataset(out / "kspace.snkd")
        if method == "adjoint":
            series = adjoint_series(kdata, plan, coils)
        else:
            series = reconstruct_series(kdata, plan, coils, *cs)
        for t, est in enumerate(series):
            write_volume(tmp_path / "again.snkv", np.abs(est.volume),
                         voxel_size=cfg["voxel_size_mm"])
            name = f"frame_{t:04d}.snkv"
            assert (tmp_path / "again.snkv").read_bytes() == (out / name).read_bytes(), name

    @pytest.mark.parametrize("method", ["adjoint", "cs"])
    def test_analysis_reruns_from_the_frame_files(self, method, tmp_path, monkeypatch):
        """The frame_*.snkv files of a run, fed to a fresh SeriesSums under
        the run's design, reproduce zmap.snkv and metrics.json byte for
        byte on both routes: the GLM sums the frames as written."""
        inputs = []
        analyse = scenarios._analyse
        monkeypatch.setattr(scenarios, "_analyse", lambda out, sums, *rest: (
            inputs.append((sums.design, *rest)), analyse(out, sums, *rest)))
        cfg = json.loads(json.dumps(_tiny_config().raw))
        cfg["recon"].update(method=method, max_iters=3)
        out = tmp_path / "run"
        assert run_pipeline(RunConfig.from_dict(cfg), out).failed_stage is None
        (design, *rest), = inputs
        sums = SeriesSums(design)
        for path in sorted(out.glob("frame_*.snkv")):
            sums.add(read_volume(path)[0])
        assert sums.n == 25
        (tmp_path / "again").mkdir()
        analyse(tmp_path / "again", sums, *rest)
        for name in ("zmap.snkv", "metrics.json", "pr_curve.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes(), name

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
        assert index["stop"] == ["max_iters"] * 25
        assert "converged" not in index
        # a restart is an objective rise, and the last change the last step
        with open(tmp_path / "run" / "objective_traces.csv") as f:
            traces = [[float(v) for v in line.split(",")[1:]] for line in f]
        assert index["restarts"] == [sum(b > a for a, b in zip(t, t[1:])) for t in traces]
        assert index["final_rel_change"] == [abs(t[-1] - t[-2]) / abs(t[-2]) for t in traces]


class TestCli:
    def test_preset_prints_yaml(self, capsys):
        assert cli_main(["preset", "s1_epi"]) == 0
        cfg = yaml.safe_load(capsys.readouterr().out)
        assert cfg["dims"] == [60, 71, 60]

    def test_preset_external_does_not_read_its_file(self, tmp_path, capsys):
        """Only building the plan reads an external file, so snake preset
        prints the config for a path that does not exist yet."""
        path = str(tmp_path / "later.snkt")
        assert cli_main(["preset", "s3_external", "--scale", "0.1", "--trajectory", path]) == 0
        assert yaml.safe_load(capsys.readouterr().out)["trajectory"]["path"] == path

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

    def test_traj_gen_stack_of_spirals_and_inspect(self, tmp_path, capsys):
        """A stack-of-spirals file, 16 planes at af 4 of a 16^3 grid, is
        written and inspected; its points stay inside the grid's band."""
        path = str(tmp_path / "sos.snkt")
        assert cli_main(["traj", "gen", path, "--kind", "stack_of_spirals",
                         "--dims", "16", "16", "16"]) == 0
        capsys.readouterr()
        assert cli_main(["traj", "inspect", path]) == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["n_shots"], info["samples_per_shot"], info["ndims"]) == (4, 256, 3)
        assert all(-8 <= lo and hi < 8 for lo, hi in zip(info["kmin"], info["kmax"]))

    def test_traj_inspect_ranges_over_every_shot(self, tmp_path, capsys):
        """kmin/kmax span the whole trajectory: an 8^3 EPI file's planes
        cover kz -4 to 3, not the first plane's kz alone."""
        path = str(tmp_path / "epi.snkt")
        assert cli_main(["traj", "gen", path, "--kind", "epi3d",
                         "--dims", "8", "8", "8"]) == 0
        capsys.readouterr()
        assert cli_main(["traj", "inspect", path]) == 0
        info = json.loads(capsys.readouterr().out)
        assert (info["kmin"][2], info["kmax"][2]) == (-4.0, 3.0)

    def test_traj_gen_non_positive_dwell_exit_2(self, tmp_path, capsys):
        path = tmp_path / "epi.snkt"
        assert cli_main(["traj", "gen", str(path), "--kind", "epi3d",
                         "--dims", "8", "8", "8", "--dwell-us", "0"]) == 2
        assert "dwell time" in capsys.readouterr().err
        assert not path.exists()

    def test_traj_inspect_missing_exit_2(self, tmp_path, capsys):
        assert cli_main(["traj", "inspect", str(tmp_path / "none.snkt")]) == 2

    def test_traj_inspect_truncated_header_exit_2(self, tmp_path, capsys):
        """A 7-byte SNKT1 file, magic and two bytes of its n_shots field,
        is a bad file: exit 2 with one error line, no traceback."""
        path = tmp_path / "short.snkt"
        path.write_bytes(b"SNKT1\x01\x00")
        assert cli_main(["traj", "inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truncated header" in err
        assert "Traceback" not in err

    def test_run_out_is_a_regular_file_exit_2(self, tmp_path, capsys):
        """``--out`` naming an existing regular file exits 2 with an error
        line (the directory cannot be made), before any stage runs."""
        out = tmp_path / "taken"
        out.write_text("not a directory")
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(_tiny_config().to_yaml())
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert out.read_text() == "not a directory"

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

    def test_stage_peaks_belong_to_the_run_process(self, tmp_path):
        """A run started from a process that has touched a large buffer
        records its own peaks: on Linux ru_maxrss would read the spawning
        process's high-water, which the buffer puts above 128 MB."""
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(_tiny_config().to_yaml())
        buffer = np.ones(128 << 20, np.uint8)
        src = str(Path(scenarios.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from snakesim.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "run", str(cfg_path), "--out", str(tmp_path / "run")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        del buffer
        assert proc.returncode == 0, proc.stderr
        peaks = json.loads((tmp_path / "run" / "manifest.json").read_text())["peak_rss_mb"]
        assert set(peaks) == {"acquisition", "reconstruction", "analysis"}
        assert all(0 < peak < 128 for peak in peaks.values()), peaks

    def test_metrics_reports_the_solver_stops_of_a_cs_run(self, tmp_path, capsys):
        """A CS run's metrics count its frames per solver stop and its
        restarts, from series_index.json; an adjoint run reports none."""
        cfg = json.loads(json.dumps(_tiny_config().raw))
        runs = {}
        for method in ("adjoint", "cs"):
            cfg["recon"].update(method=method, max_iters=3)
            runs[method] = str(tmp_path / method)
            assert run_pipeline(RunConfig.from_dict(cfg), runs[method]).failed_stage is None
        assert cli_main(["metrics", runs["cs"]]) == 0
        solver = json.loads(capsys.readouterr().out)["solver"]
        index = json.loads((tmp_path / "cs" / "series_index.json").read_text())
        assert solver == {"frames_by_stop": {"max_iters": 25},
                          "restarts": sum(index["restarts"])}
        assert cli_main(["metrics", runs["adjoint"]]) == 0
        assert "solver" not in json.loads(capsys.readouterr().out)

    def test_run_negative_seed_exit_2_before_acquisition(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli_main(["run", "s1_epi", "--scale", "0.15", "--seed", "-1",
                         "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_run_jobs_below_one_exit_2_before_the_run_dir(self, jobs, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli_main(["run", "s1_epi", "--scale", "0.15", "--jobs", jobs,
                         "--out", str(out)]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_run_stage_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenarios, "run_acquisition", _failing_acquisition)
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(_tiny_config().to_yaml())
        assert cli_main(["run", str(cfg_path),
                         "--out", str(tmp_path / "run")]) == 3
        assert json.loads(capsys.readouterr().out)["failed_stage"] == "acquisition"

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
                      "tissues": ["WM", "XX"]}},
         "phantom: unknown tissues ['XX'], known: ['CSF', 'GM', 'WM']"),
        ({"phantom": {"kind": "files", "files": ["wm.snkv", "csf.snkv"],
                      "tissues": ["WM", "CSF"]}},
         "phantom: tissues ['WM', 'CSF'] do not list GM"),
        ({"phantom": {"kind": "files", "files": ["gm.snkv"],
                      "tissues": ["WM", "GM"]}}, "phantom: 1 volumes for 2 tissues"),
        ({"phantom": {"kind": "synthetic", "gm_sphere_radius_frac": 0.8}}, "does not fit"),
        ({"trajectory": {"n_shots_per_frame": 9}}, "trajectory: 9 EPI planes > Nz = 8"),
        ({"phantom": {"kind": "files", "files": ["wm6.snkv", "gm6.snkv"],
                      "tissues": ["WM", "GM"]}},
         "phantom: the volumes' dims (8, 8, 6) are not dims (8, 8, 8)"),
        ({"analysis": {"drift_order": -1}}, "analysis: drift order must be non-negative, got -1"),
        ({"paradigm": {"run_length_s": 5.0}},
         "paradigm: shot times must lie within [0, run_length]"),
        ({"phantom": {"kind": "files", "files": [0, 1], "tissues": ["WM", "GM"]}},
         "phantom: [Errno 2] No such file or directory: '0'")])
    def test_run_unbuildable_phantom_or_plan_exit_2_before_acquisition(
            self, change, message, tmp_path, capsys, monkeypatch):
        """Configs the builders of the run's inputs refuse (the phantom, the
        plan, the design and the BOLD time course) exit 2 before the run
        directory exists, with the builder's message naming its section. A
        ``files`` phantom's rules that need no file run before any file is
        opened (``wm.snkv`` and the like do not exist); ``wm6``/``gm6``
        are 8x8x6 volumes for the 8^3 config, and a file entry that is not
        a string is taken as a path. The empty ROI, the degenerate
        paradigm, the seed and the coil count have tests of their own."""
        monkeypatch.chdir(tmp_path)
        for name in ("wm6.snkv", "gm6.snkv"):
            write_volume(name, np.full((8, 8, 6), 0.5), voxel_size=(3.0, 3.0, 3.0))
        cfg = json.loads(json.dumps(_tiny_config().raw))
        for section, values in change.items():
            cfg[section] = {**cfg[section], **values} if section != "phantom" else values
        _assert_refused_before_the_run_dir(cfg, message, tmp_path, capsys)

    @pytest.mark.parametrize("key, value, message", [
        ("center_fraction", 1.5, "trajectory: need 0 < center_fraction < 1, got 1.5"),
        ("spiral_samples", 1, "trajectory: a spiral needs at least 2 samples, got 1"),
        ("center_fraction", 0.5, "trajectory: 2 planes a frame, need at least the 4 "
                                 "center planes"),
        ("n_shots_per_frame", 9, "trajectory: 9 planes a frame, need at least the 1 "
                                 "center planes and at most Nz = 8")])
    def test_run_unbuildable_stack_exit_2_before_the_run_dir(self, key, value, message,
                                                             tmp_path, capsys):
        """Stack-of-spirals values the plan builders refuse, on s2_sos_static
        at scale 0.15 (dims 8x10x8, 2 planes a frame), fail when the plan is
        built, with the builder's message: snake run exits 2 and makes no
        run directory."""
        cfg = json.loads(json.dumps(preset("s2_sos_static", scale=0.15).raw))
        cfg["trajectory"][key] = value
        _assert_refused_before_the_run_dir(cfg, message, tmp_path, capsys)

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

    @pytest.mark.parametrize("jobs, njobs_env, blas_env, warns", [
        (["--jobs", "2"], None, None, True),
        ([], "2", None, False),
        (["--jobs", "2"], None, "OMP_NUM_THREADS", False),
        (["--jobs", "1"], "2", None, False),
        ([], None, None, False)])
    def test_run_warns_about_unpinned_blas(self, jobs, njobs_env, blas_env, warns,
                                           tmp_path, monkeypatch, capsys):
        """More than one worker with no BLAS thread count set: one line
        to stderr that points to the README's advice. SNAKE_NJOBS asks
        for no worker."""
        for name in cli._BLAS_THREADS:
            monkeypatch.delenv(name, raising=False)
        if blas_env:
            monkeypatch.setenv(blas_env, "1")
        if njobs_env:
            monkeypatch.setenv("SNAKE_NJOBS", njobs_env)
        else:
            monkeypatch.delenv("SNAKE_NJOBS", raising=False)
        monkeypatch.setattr(cli, "run_pipeline", lambda config, out, n_jobs: RunManifest(
            config_hash="", version="", checksums={}, stage_seconds={}))
        assert cli_main(["run", "s1_epi", *jobs, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        if warns:
            assert err.count("\n") == 1
            assert "OPENBLAS_NUM_THREADS=1" in err and "README" in err
        else:
            assert err == ""

    def test_pipeline_is_silent_about_blas(self, tmp_path, monkeypatch, capsys):
        """Only the CLI warns: run_pipeline with two workers and no BLAS
        thread count set prints nothing."""
        for name in cli._BLAS_THREADS:
            monkeypatch.delenv(name, raising=False)
        assert run_pipeline(_tiny_config(), tmp_path / "run", n_jobs=2).failed_stage is None
        assert capsys.readouterr() == ("", "")

    def test_metrics_missing_run_exit_2(self, tmp_path, capsys):
        assert cli_main(["metrics", str(tmp_path / "nope")]) == 2
