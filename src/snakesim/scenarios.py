"""Declarative run configuration, presets and end-to-end orchestration.

A run is described by a strict YAML-compatible mapping (unknown keys are
rejected before any compute). All randomness flows from one root seed,
split per stage. Every stage output is persisted so stages can be
re-run or inspected independently; the manifest records checksums so a
repeated run can be verified bit-identical.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import (bacc, build_design, glm_fit, precision_recall, psnr,
                       ssim, threshold_detect, tsnr, MetricsReport)
from .engine import NoiseConfig, birdcage_coils, run_acquisition
from .io import canonical_json, write_volume
from .phantom import (BoldSpec, Paradigm, Phantom, SequenceParams,
                      build_bold_timecourse, contrast_volume, default_tissues,
                      ellipsoid_roi, gre_contrast, load_phantom,
                      synthetic_phantom)
from .recon import (ReconConfig, ReconError, WaveletBasis, adjoint_series,
                    reconstruct_series)
from .trajectories import (gen_epi_3d, gen_spiral, gen_stack_of_spirals,
                           load_trajectory_file)
from .wavelets import WaveletError


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "name": str,
    "seed": int,
    "dims": list,
    "voxel_size_mm": list,
    "phantom": dict,          # {kind: synthetic|files, ...}
    "sequence": dict,         # tr_shot_ms, te_ms, flip_angle_deg, t_obs_ms, dwell_time_us
    "trajectory": dict,       # kind, n_shots_per_frame, af, center_fraction, dynamic, path
    "paradigm": dict,         # block_on_s, block_off_s, run_length_s
    "bold": dict,             # delta_r2s_hz, hrf
    "model": str,             # basic | t2s
    "noise": dict,            # snr_i
    "recon": dict,            # method, strategy, max_iters, tol, mu_mode, mu_value, wavelet, levels
    "analysis": dict,         # p_threshold, drift_order
    "n_frames": int,
    "n_coils": int,
}

_SUBKEYS = {
    "phantom": {"kind", "gm_sphere_radius_frac", "files", "tissues"},
    "sequence": {"tr_shot_ms", "te_ms", "flip_angle_deg", "t_obs_ms", "dwell_time_us"},
    "trajectory": {"kind", "n_shots_per_frame", "af", "center_fraction",
                   "dynamic", "path", "spiral_samples", "spiral_turns"},
    "paradigm": {"block_on_s", "block_off_s", "run_length_s", "amplitude"},
    "bold": {"delta_r2s_hz", "hrf"},
    "noise": {"snr_i"},
    "recon": {"method", "strategy", "max_iters", "tol", "mu_mode", "mu_value",
              "wavelet", "levels", "density_comp"},
    "analysis": {"p_threshold", "drift_order"},
}


@dataclass
class RunConfig:
    raw: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = set(_SCHEMA) - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        for key, typ in _SCHEMA.items():
            if not isinstance(data[key], typ):
                raise ConfigError(f"{key}: expected {typ.__name__}, "
                                  f"got {type(data[key]).__name__}")
        for key, allowed in _SUBKEYS.items():
            extra = set(data[key]) - allowed
            if extra:
                raise ConfigError(f"{key}: unknown keys {sorted(extra)}")
        seq = data["sequence"]
        if seq["te_ms"] >= seq["tr_shot_ms"]:
            raise ConfigError("sequence: TE must be below TR_shot")
        if data["model"] not in ("basic", "t2s"):
            raise ConfigError(f"unknown model {data['model']!r}")
        if data["trajectory"]["kind"] == "external" and not data["trajectory"].get("path"):
            raise ConfigError("external trajectory requires a path")
        rcfg = data["recon"]
        if rcfg.get("method") not in ("adjoint", "cs"):
            raise ConfigError(f"unknown recon method {rcfg.get('method')!r}")
        if rcfg.get("density_comp") not in ("none", "radial"):
            raise ConfigError(
                f"unknown recon density_comp {rcfg.get('density_comp')!r}")
        if rcfg["method"] == "cs":
            try:
                _cs_recon(rcfg, data["dims"])
            except KeyError as e:
                raise ConfigError(f"recon: missing key {e}") from e
            except (ReconError, WaveletError) as e:
                raise ConfigError(f"recon: {e}") from e
        return cls(raw=data)

    @classmethod
    def from_yaml(cls, path) -> "RunConfig":
        with open(path) as f:
            return cls.from_dict(yaml.safe_load(f))

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True)

    def hash(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


def _cs_recon(rcfg, dims):
    """(WaveletBasis, ReconConfig) of a CS recon section on a ``dims`` grid."""
    # drop to the deepest level the grid supports (wavelets reject dims
    # not divisible by 2^levels)
    levels = rcfg["levels"]
    while levels > 1 and any(d % (2 ** levels) for d in dims):
        levels -= 1
    basis = WaveletBasis(family=rcfg["wavelet"], levels=levels)
    config = ReconConfig(strategy=rcfg["strategy"], max_iters=rcfg["max_iters"],
                         tol=rcfg["tol"], mu_mode=rcfg["mu_mode"],
                         mu_value=rcfg["mu_value"])
    return basis, config


# ---------------------------------------------------------------------------
# Presets (scenario parameter tables at scale 1, scaled for desk runs)

_PRESETS = {
    "s1_epi": dict(
        dims=[60, 71, 60], n_coils=1, n_shots=44, snr_i=1000.0, t_obs_ms=25.0,
        kind="epi3d", recon_method="adjoint",
    ),
    "s2_sos_static": dict(
        dims=[60, 71, 60], n_coils=8, n_shots=14, snr_i=1000.0, t_obs_ms=30.0,
        kind="stack_of_spirals", dynamic=False, recon_method="cs",
    ),
    "s2_sos_dynamic": dict(
        dims=[60, 71, 60], n_coils=8, n_shots=14, snr_i=1000.0, t_obs_ms=30.0,
        kind="stack_of_spirals", dynamic=True, recon_method="cs",
    ),
    "s3_external": dict(
        dims=[181, 217, 181], n_coils=32, n_shots=48, snr_i=30.0, t_obs_ms=25.0,
        kind="external", recon_method="cs",
    ),
}

RUN_LENGTH_S = 300.0  # five-minute run, 6000-shot budget at TR_shot = 50 ms


def preset(name, scale=1.0, trajectory_path=None, seed=1234) -> RunConfig:
    """Built-in scenario configuration, optionally shrunk by ``scale``."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r} "
                          f"(available: {sorted(_PRESETS)})")
    if not (0 < scale <= 1):
        raise ConfigError("scale must be in (0, 1]")
    p = _PRESETS[name]
    if p["kind"] == "external" and not trajectory_path:
        raise ConfigError("the external-trajectory preset requires a trajectory path")
    if scale == 1.0:
        dims = list(p["dims"])
    else:
        # proportional shrink, rounded to even sizes for the FFT/wavelet paths
        dims = [max(8, 2 * round(d * scale / 2)) for d in p["dims"]]
    tr_shot_ms = 50.0
    n_shots = p["n_shots"] if scale == 1.0 else max(2, min(dims[2], int(round(p["n_shots"] * scale))))
    run_length = RUN_LENGTH_S if scale == 1.0 else max(80.0, RUN_LENGTH_S * scale)
    tr_vol_s = n_shots * tr_shot_ms * 1e-3
    n_frames = int(run_length // tr_vol_s)
    data = {
        "name": name,
        "seed": seed,
        "dims": dims,
        "voxel_size_mm": [3.0, 3.0, 3.0] if name != "s3_external" else [1.0, 1.0, 1.0],
        "phantom": {"kind": "synthetic", "gm_sphere_radius_frac": 0.3},
        "sequence": {"tr_shot_ms": tr_shot_ms, "te_ms": 25.0,
                     "flip_angle_deg": 12.0, "t_obs_ms": p["t_obs_ms"],
                     "dwell_time_us": 10.0},
        "trajectory": {"kind": p["kind"], "n_shots_per_frame": n_shots,
                       "af": 4.0, "center_fraction": 0.1,
                       "dynamic": bool(p.get("dynamic", False)),
                       "path": trajectory_path or "",
                       "spiral_samples": max(64, dims[0] * dims[1] // 8),
                       "spiral_turns": 4.0},
        "paradigm": {"block_on_s": 20.0, "block_off_s": 20.0,
                     "run_length_s": run_length, "amplitude": 1.0},
        "bold": {"delta_r2s_hz": -1.0, "hrf": "double_gamma"},
        "model": "basic",
        "noise": {"snr_i": p["snr_i"]},
        "recon": {"method": p["recon_method"], "strategy": "cold",
                  "max_iters": 50, "tol": 1e-6, "mu_mode": "sure",
                  "mu_value": 0.0, "wavelet": "haar", "levels": 2,
                  "density_comp": "none"},
        "analysis": {"p_threshold": 0.001, "drift_order": 1},
        "n_frames": n_frames,
        "n_coils": p["n_coils"],
    }
    return RunConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Pipeline


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _build_phantom(cfg):
    dims = tuple(cfg["dims"])
    spec = cfg["phantom"]
    if spec["kind"] == "synthetic":
        r = spec.get("gm_sphere_radius_frac", 0.3) * min(dims)
        center = tuple(d / 2 for d in dims)
        tissues = default_tissues(("WM", "GM"))
        voxel = tuple(cfg["voxel_size_mm"])
        # concentric construction: GM sphere inside a WM ball
        gm = synthetic_phantom(dims, [(center, r, 1)], tissues=tissues,
                               voxel_size=voxel).weights[1]
        wm = synthetic_phantom(dims, [(center, 0.45 * min(dims), 0)],
                               tissues=tissues, voxel_size=voxel).weights[0]
        wm = np.clip(wm - gm, 0, 1)
        phantom = Phantom(dims=tuple(dims), voxel_size=voxel, tissues=tuple(tissues),
                          weights=np.stack([wm, gm]))
        gm_index = 1
    elif spec["kind"] == "files":
        tissues = default_tissues(tuple(t.upper() for t in spec["tissues"]))
        phantom = load_phantom(spec["files"], tissues)
        gm_index = [t.name for t in tissues].index("GM")
    else:
        raise ConfigError(f"unknown phantom kind {spec['kind']!r}")
    return phantom, gm_index


def _build_plan(cfg, seq):
    dims = tuple(cfg["dims"])
    traj = cfg["trajectory"]
    n_frames = cfg["n_frames"]
    if traj["kind"] == "epi3d":
        return gen_epi_3d(dims, seq, n_planes_per_volume=traj["n_shots_per_frame"],
                          n_frames=n_frames)
    if traj["kind"] == "stack_of_spirals":
        spiral = gen_spiral(dims[:2], traj["spiral_samples"],
                            n_turns=traj["spiral_turns"], in_out=True)
        return gen_stack_of_spirals(
            spiral, dims[2], af=traj["af"],
            center_fraction=traj["center_fraction"], dynamic=traj["dynamic"],
            n_frames=n_frames, seed=cfg["seed"], tr_shot_s=seq.tr_shot_s,
            t_obs_s=seq.t_obs_s, dims=dims,
            shots_per_frame=traj["n_shots_per_frame"])
    if traj["kind"] == "external":
        return load_trajectory_file(traj["path"], dims,
                                    shots_per_frame=traj["n_shots_per_frame"])
    raise ConfigError(f"unknown trajectory kind {traj['kind']!r}")


@dataclass
class RunManifest:
    config_hash: str
    version: str
    checksums: dict
    stage_seconds: dict
    failed_stage: str | None = None
    error: str | None = None

    def to_dict(self):
        return asdict(self)


def run_pipeline(config: RunConfig, out_dir, n_jobs=None) -> RunManifest:
    """Acquisition -> reconstruction -> analysis, all artifacts persisted.

    Any stage failure is recorded in the manifest with the stage name and
    downstream stages are skipped.
    """
    cfg = config.raw
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.yaml").write_text(config.to_yaml())
    manifest = RunManifest(config_hash=config.hash(), version=__version__,
                           checksums={}, stage_seconds={})
    stage = "acquisition"
    try:
        t0 = time.monotonic()
        seq = SequenceParams(tr_shot=cfg["sequence"]["tr_shot_ms"],
                             te=cfg["sequence"]["te_ms"],
                             flip_angle=cfg["sequence"]["flip_angle_deg"],
                             t_obs=cfg["sequence"]["t_obs_ms"],
                             dwell_time=cfg["sequence"]["dwell_time_us"])
        phantom, gm_index = _build_phantom(cfg)
        plan = _build_plan(cfg, seq)
        coils = birdcage_coils(phantom.dims, cfg["n_coils"])
        par = cfg["paradigm"]
        paradigm = Paradigm.blocks(par["block_on_s"], par["block_off_s"],
                                   par["run_length_s"],
                                   amplitude=par.get("amplitude", 1.0))
        shot_times = np.array([s.shot_time for s in plan.shots])
        h = build_bold_timecourse(paradigm, shot_times, hrf=cfg["bold"]["hrf"])
        roi = ellipsoid_roi(phantom, gm_index)
        bold = BoldSpec(roi=roi, delta_r2s=cfg["bold"]["delta_r2s_hz"], h_tilde=h)
        snr = cfg["noise"]["snr_i"]
        noise = NoiseConfig(snr_i=np.inf if snr in (None, 0) else float(snr),
                            seed=cfg["seed"])
        dataset_path = out / "kspace.snkd"
        header, kdata = run_acquisition(
            phantom, plan, coils, seq, bold=bold, model=cfg["model"],
            noise=noise, sink_path=dataset_path, gm_index=gm_index,
            n_jobs=n_jobs)
        mu = gre_contrast(phantom, seq)
        reference = contrast_volume(phantom, mu)
        write_volume(out / "reference.snkv", np.abs(reference),
                     voxel_size=phantom.voxel_size)
        write_volume(out / "roi.snkv", roi, voxel_size=phantom.voxel_size)
        manifest.stage_seconds[stage] = time.monotonic() - t0
        manifest.checksums["kspace.snkd"] = _sha256(dataset_path)
        manifest.checksums["reference.snkv"] = _sha256(out / "reference.snkv")

        stage = "reconstruction"
        t0 = time.monotonic()
        rcfg = cfg["recon"]
        if rcfg["method"] == "adjoint":
            series = adjoint_series(kdata, plan, coils,
                                    density_comp=rcfg["density_comp"])
        else:
            basis, rc = _cs_recon(rcfg, phantom.dims)
            series = reconstruct_series(kdata, plan, coils, basis, rc)
        mags = series.magnitude()
        for t in range(mags.shape[0]):
            write_volume(out / f"frame_{t:04d}.snkv", mags[t],
                         voxel_size=phantom.voxel_size)
        index = {"n_frames": int(mags.shape[0]), "dims": list(phantom.dims),
                 "tr_vol_s": plan.tr_vol, "strategy": series.strategy,
                 "mu": [float(m) for m in series.mu_values],
                 "objective_traces": "objective_traces.csv"}
        if series.n_iters is not None:
            index.update(n_iters=series.n_iters, converged=series.converged)
        (out / "series_index.json").write_text(canonical_json(index))
        with open(out / "objective_traces.csv", "w", newline="") as f:
            writer = csv.writer(f)
            for t, trace in enumerate(series.objective_traces):
                writer.writerow([t, *trace])
        manifest.stage_seconds[stage] = time.monotonic() - t0
        manifest.checksums["series_index.json"] = _sha256(out / "series_index.json")
        manifest.checksums["frame_0000.snkv"] = _sha256(out / "frame_0000.snkv")
        manifest.checksums[f"frame_{mags.shape[0] - 1:04d}.snkv"] = \
            _sha256(out / f"frame_{mags.shape[0] - 1:04d}.snkv")

        stage = "analysis"
        t0 = time.monotonic()
        design = build_design(paradigm, cfg["bold"]["hrf"], mags.shape[0],
                              plan.tr_vol,
                              drift_order=cfg["analysis"]["drift_order"])
        tissue_mask = phantom.weights.sum(axis=0) > 0.1
        stat = glm_fit(mags, design, mask=tissue_mask)
        det = threshold_detect(stat, cfg["analysis"]["p_threshold"], roi,
                               mask=tissue_mask)
        pr = precision_recall(stat, roi, mask=tissue_mask,
                              marker_p=cfg["analysis"]["p_threshold"])
        ref_mag = np.abs(reference)
        tmap, tsnr_mean = tsnr(mags, roi=roi)
        report = MetricsReport(
            auc_pr=pr["auc"], bacc=bacc(det),
            psnr_first=psnr(mags[0], ref_mag), psnr_last=psnr(mags[-1], ref_mag),
            ssim_first=ssim(mags[0], ref_mag), ssim_last=ssim(mags[-1], ref_mag),
            tsnr_roi_mean=tsnr_mean)
        (out / "metrics.json").write_text(canonical_json(report.to_dict()))
        write_volume(out / "zmap.snkv", stat.z, voxel_size=phantom.voxel_size)
        with open(out / "pr_curve.csv", "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["recall", "precision"])
            for r, p in zip(pr["recall"], pr["precision"]):
                writer.writerow([f"{r:.10g}", f"{p:.10g}"])
        manifest.stage_seconds[stage] = time.monotonic() - t0
        manifest.checksums["metrics.json"] = _sha256(out / "metrics.json")
        manifest.checksums["zmap.snkv"] = _sha256(out / "zmap.snkv")
    except Exception as e:  # noqa: BLE001 - stage failure is a recorded outcome
        manifest.failed_stage = stage
        manifest.error = f"{type(e).__name__}: {e}"
    (out / "manifest.json").write_text(canonical_json(manifest.to_dict()))
    return manifest
