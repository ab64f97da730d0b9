"""Declarative run configuration, presets and end-to-end orchestration.

A run is described by a strict YAML-compatible mapping, checked and
built into typed objects before any compute. All randomness flows from
one root seed, split per stage. Every stage writes its outputs to the
run directory and the manifest the SHA-256 of the main ones, but no
stage re-runs alone and no command verifies a run (ROADMAP item 10).
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import resource
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analysis import (AnalysisError, bacc, build_design, glm_fit, precision_recall, psnr,
                       ssim, threshold_detect, tsnr, MetricsReport, SeriesSums)
from .engine import CoilProfile, EngineError, NoiseConfig, birdcage_coils, run_acquisition
from .io import FormatError, canonical_json, write_volume
from .phantom import (VOXEL_SIZE_RTOL, BoldSpec, Paradigm, Phantom, PhantomError,
                      SequenceParams, bold_response, build_bold_timecourse, contrast_volume,
                      default_tissues, ellipsoid_roi, gre_contrast, load_phantom,
                      synthetic_phantom)
from .recon import (COMPLEX64_TOL_FLOOR, ReconConfig, ReconError, WaveletBasis,
                    adjoint_series, reconstruct_series)
from .trajectories import (TrajectoryError, gen_epi_3d, gen_spiral, gen_stack_of_spirals,
                           load_trajectory_file)
from .wavelets import WaveletError


class ConfigError(ValueError):
    pass


_NUMBER = (int, float)

#: Every key of a run config and the type of its value: a set lists the
#: allowed strings, a dict is a section. The phantom's keys depend on its kind.
_KEYS = {
    "name": str, "seed": int, "dims": list, "voxel_size_mm": list, "phantom": dict,
    "sequence": {"tr_shot_ms": _NUMBER, "te_ms": _NUMBER, "flip_angle_deg": _NUMBER,
                 "t_obs_ms": _NUMBER},
    "trajectory": {"kind": {"epi3d", "stack_of_spirals", "external"},
                   "n_shots_per_frame": int, "center_fraction": _NUMBER,
                   "dynamic": bool, "path": str, "spiral_samples": int,
                   "spiral_turns": _NUMBER},
    "paradigm": {"block_on_s": _NUMBER, "block_off_s": _NUMBER, "run_length_s": _NUMBER},
    "bold": {"delta_r2s_hz": _NUMBER, "hrf": {"double_gamma", "single_gamma"}},
    "model": {"basic", "t2s"},
    "noise": {"snr_i": _NUMBER},
    "recon": {"method": {"adjoint", "cs"}, "strategy": str, "max_iters": int,
              "tol": _NUMBER, "mu_mode": str, "mu_value": _NUMBER, "wavelet": str,
              "levels": int, "density_comp": {"none", "radial"}},
    "analysis": {"p_threshold": _NUMBER, "drift_order": int},
    "n_frames": int, "n_coils": int,
}
_PHANTOM_KEYS = {"synthetic": {"kind": str, "gm_sphere_radius_frac": _NUMBER},
                 "files": {"kind": str, "files": list, "tissues": list}}


def _check(section, data, keys):
    """Check ``data`` against the key table ``keys``: no unknown or missing
    key, and every value of its type or one of its allowed strings."""
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(data).__name__}")
    for problem, names in (("unknown", set(data) - set(keys)),
                           ("missing", set(keys) - set(data))):
        if names:
            raise ConfigError(f"{problem} {section} keys: {sorted(names)}")
    for key, want in keys.items():
        where, value = key if section == "config" else f"{section}.{key}", data[key]
        if isinstance(want, dict):
            _check(key, value, want)
        elif isinstance(want, set):
            if not (isinstance(value, str) and value in want):
                raise ConfigError(f"{where}: {value!r} is not one of {sorted(want)}")
        elif not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
            raise ConfigError(f"{where}: expected {getattr(want, '__name__', 'number')}, "
                              f"got {type(value).__name__}")


@dataclass(frozen=True)
class RunConfig:
    """A checked run config: ``raw``, the mapping saved and hashed.
    ``run_pipeline`` builds the run's typed inputs from it
    (:func:`_run_inputs`), and their builders hold their own rules."""

    raw: dict

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        raw = copy.deepcopy(data)
        _check("config", raw, _KEYS)
        kind = raw["phantom"].get("kind")
        if kind not in _PHANTOM_KEYS:
            raise ConfigError(f"phantom.kind: {kind!r} is not one of {sorted(_PHANTOM_KEYS)}")
        _check("phantom", raw["phantom"], _PHANTOM_KEYS[kind])
        traj, recon, p_threshold = raw["trajectory"], raw["recon"], raw["analysis"]["p_threshold"]
        for key, typ in (("dims", int), ("voxel_size_mm", _NUMBER)):
            if len(raw[key]) != 3 or not all(isinstance(v, typ) and not isinstance(v, bool)
                                             and v > 0 for v in raw[key]):
                raise ConfigError(f"{key}: need 3 positive values, got {raw[key]}")
        if raw["n_frames"] < 1:
            raise ConfigError(f"n_frames: need at least 1, got {raw['n_frames']}")
        if traj["kind"] == "external" and not traj["path"]:
            raise ConfigError("trajectory: the external kind requires a path")
        # no builder of the threshold runs before the analysis stage
        if not 0 < p_threshold < 1:
            raise ConfigError(f"analysis: need 0 < p_threshold < 1, got {p_threshold}")
        if recon["method"] == "cs" and recon["tol"] < COMPLEX64_TOL_FLOOR:
            raise ConfigError(
                f"recon.tol: {recon['tol']:g} is below {COMPLEX64_TOL_FLOOR:g}, the "
                f"smallest relative objective change a complex64 solve resolves (CS "
                f"solves the dataset's complex64 frames)")
        return cls(raw)

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True)

    def hash(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode()).hexdigest()


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
    if scale == 1.0:
        dims = list(p["dims"])
    else:
        # proportional shrink, rounded to even sizes: the basis takes any dims,
        # and this keeps the grids, and so the bytes, of the existing scaled runs
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
                     "flip_angle_deg": 12.0, "t_obs_ms": p["t_obs_ms"]},
        "trajectory": {"kind": p["kind"], "n_shots_per_frame": n_shots,
                       "center_fraction": 0.1,
                       "dynamic": bool(p.get("dynamic", False)),
                       "path": trajectory_path or "",
                       "spiral_samples": max(64, dims[0] * dims[1] // 8),
                       "spiral_turns": 4.0},
        "paradigm": {"block_on_s": 20.0, "block_off_s": 20.0,
                     "run_length_s": run_length},
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
    """SHA-256 of a file, read in 256 kB blocks into one buffer: the
    dataset is run-sized."""
    h = hashlib.sha256()
    block = memoryview(bytearray(1 << 18))
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(block):
            h.update(block[:n])
    return h.hexdigest()


def _peak_rss_mb():
    """This process's peak resident set in MB: ``VmHWM`` from
    /proc/self/status, else ``ru_maxrss`` (kB on Linux). On Linux
    ``ru_maxrss`` keeps the high-water of the process that spawned this
    one across exec, so it can read the parent's peak."""
    try:
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _build_phantom(cfg):
    """(phantom, GM index) of the config; a ``files`` phantom's rules that
    need no file run before its first file is opened."""
    dims = tuple(cfg["dims"])
    spec = cfg["phantom"]
    if spec["kind"] == "synthetic":
        center, r = tuple(d / 2 for d in dims), spec["gm_sphere_radius_frac"] * min(dims)
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
        return phantom, 1
    names = [str(t).upper() for t in spec["tissues"]]
    tissues = default_tissues(names)
    if "GM" not in names:
        raise PhantomError(f"tissues {spec['tissues']} do not list GM, the tissue the "
                           f"BOLD response modulates")
    phantom = load_phantom([str(f) for f in spec["files"]], tissues)
    if phantom.dims != dims:
        raise PhantomError(f"the volumes' dims {phantom.dims} are not dims {dims}")
    if not np.allclose(phantom.voxel_size, cfg["voxel_size_mm"], rtol=VOXEL_SIZE_RTOL):
        raise PhantomError(f"the volumes' voxel size {phantom.voxel_size} is not "
                           f"voxel_size_mm {tuple(cfg['voxel_size_mm'])}")
    return phantom, names.index("GM")


def _build_plan(cfg, seq):
    dims = tuple(cfg["dims"])
    traj = cfg["trajectory"]
    n_frames = cfg["n_frames"]
    if traj["kind"] == "epi3d":
        return gen_epi_3d(dims, seq, n_planes_per_volume=traj["n_shots_per_frame"],
                          n_frames=n_frames)
    if traj["kind"] == "stack_of_spirals":
        spiral = gen_spiral(dims[:2], traj["spiral_samples"], n_turns=traj["spiral_turns"])
        return gen_stack_of_spirals(
            spiral, dims, center_fraction=traj["center_fraction"], dynamic=traj["dynamic"],
            n_frames=n_frames, seed=cfg["seed"], tr_shot_s=seq.tr_shot_s,
            t_obs_s=seq.t_obs_s, shots_per_frame=traj["n_shots_per_frame"])
    return load_trajectory_file(traj["path"], dims, traj["n_shots_per_frame"], n_frames)


@dataclass
class RunManifest:
    config_hash: str
    version: str
    checksums: dict
    stage_seconds: dict
    failed_stage: str | None = None
    error: str | None = None
    # the process's peak RSS at the end of each finished stage
    peak_rss_mb: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)


def _analyse(out, sums, phantom, roi, reference, p_threshold):
    """The analysis stage: the GLM of the frames fed to ``sums`` under
    their design, detection at ``p_threshold`` against ``roi`` and the image
    metrics against ``reference``, written to ``metrics.json``,
    ``zmap.snkv`` and ``pr_curve.csv`` under ``out``. The image metrics
    and the tSNR come first, so neither working set is held beside the
    GLM's statistic maps."""
    ref_mag = np.abs(reference)
    image = dict(psnr_first=psnr(sums.first, ref_mag), psnr_last=psnr(sums.last, ref_mag),
                 ssim_first=ssim(sums.first, ref_mag), ssim_last=ssim(sums.last, ref_mag))
    del ref_mag
    _, tsnr_mean = tsnr(sums, roi=roi)
    tissue_mask = phantom.weights.sum(axis=0) > 0.1
    stat = glm_fit(sums, mask=tissue_mask)
    det = threshold_detect(stat, p_threshold, roi, mask=tissue_mask)
    pr = precision_recall(stat, roi, mask=tissue_mask)
    report = MetricsReport(auc_pr=pr["auc"], bacc=bacc(det), tsnr_roi_mean=tsnr_mean, **image)
    (out / "metrics.json").write_text(canonical_json(report.to_dict()))
    write_volume(out / "zmap.snkv", stat.z, voxel_size=phantom.voxel_size)
    with open(out / "pr_curve.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["recall", "precision"])
        for r, p in zip(pr["recall"], pr["precision"]):
            writer.writerow([f"{r:.10g}", f"{p:.10g}"])


# glob patterns of every file run_pipeline writes in its output directory;
# a run removes these first, so no earlier run's output stays beside its own
_RUN_FILES = ("config.yaml", "manifest.json", "kspace.snkd", "kspace.snkd.partial",
              "reference.snkv", "roi.snkv", "frame_*.snkv", "series_index.json",
              "objective_traces.csv", "metrics.json", "zmap.snkv", "pr_curve.csv")


def _run_inputs(config):
    """(sequence, noise, CS pair, plan, phantom, GM index, design, BOLD
    spec, coil maps) of a run, each built once from ``config.raw``, the
    cheap checks first and the coil maps last. The CS pair is the
    (WaveletBasis, ReconConfig) of a CS recon, else None. A builder's
    refusal raises ``ConfigError("<section>: ...")``."""
    cfg, section = config.raw, "sequence"
    seq, par, recon = cfg["sequence"], cfg["paradigm"], cfg["recon"]
    try:
        sequence = SequenceParams(tr_shot=seq["tr_shot_ms"], te=seq["te_ms"],
                                  flip_angle=seq["flip_angle_deg"], t_obs=seq["t_obs_ms"])
        section = "paradigm"
        paradigm = Paradigm.blocks(par["block_on_s"], par["block_off_s"], par["run_length_s"])
        section = "noise"  # snr_i 0 means no noise
        noise = NoiseConfig(snr_i=float(cfg["noise"]["snr_i"] or np.inf), seed=cfg["seed"])
        section, cs = "recon", None
        if recon["method"] == "cs":
            # the deepest level up to ``levels`` at which 2^levels divides
            # every axis: the basis takes any dims, and this keeps the
            # depth, and so the CS results, of the existing grids
            levels = recon["levels"]
            while levels > 1 and any(d % (2 ** levels) for d in cfg["dims"]):
                levels -= 1
            cs = (WaveletBasis(family=recon["wavelet"], levels=levels),
                  ReconConfig(strategy=recon["strategy"], max_iters=recon["max_iters"],
                              tol=recon["tol"], mu_mode=recon["mu_mode"],
                              mu_value=recon["mu_value"]))
        section = "trajectory"
        plan = _build_plan(cfg, sequence)
        section = "phantom"
        phantom, gm_index = _build_phantom(cfg)
        roi = ellipsoid_roi(phantom, gm_index)
        if not (roi >= 0.5).any():
            raise ConfigError("phantom: empty ROI: no GM voxel of weight >= 0.5 lies in the "
                              "activation ellipsoid")
        section = "analysis"
        design = build_design(paradigm, cfg["bold"]["hrf"], plan.n_frames,
                              plan.tr_vol, drift_order=cfg["analysis"]["drift_order"])
        section = "paradigm"
        h = build_bold_timecourse(paradigm, plan.shot_times, hrf=cfg["bold"]["hrf"])
        # both sampled the one response, which the run does not hold
        bold_response.cache_clear()
        bold = BoldSpec(roi=roi, delta_r2s=cfg["bold"]["delta_r2s_hz"], h_tilde=h)
        section = "n_coils"
        coils = birdcage_coils(phantom.dims, cfg["n_coils"])
    except (PhantomError, EngineError, ReconError, WaveletError, TrajectoryError,
            AnalysisError, FormatError, OSError) as e:
        raise ConfigError(f"{section}: {e}") from e
    return sequence, noise, cs, plan, phantom, gm_index, design, bold, coils


def run_pipeline(config: RunConfig, out_dir, n_jobs=None) -> RunManifest:
    """Acquisition -> reconstruction -> analysis, all artifacts persisted.

    Every input of the run is built first (:func:`_run_inputs`): a config
    one of their builders refuses raises ``ConfigError`` naming its
    section before ``out_dir`` is made, and the acquisition stage's
    seconds count these builds. The k-space goes to ``kspace.snkd`` frame
    by frame; each frame is read back from the file, reconstructed,
    and its float32 magnitude written and fed to the :class:`SeriesSums`
    that the GLM and tSNR are taken from, so no run-sized array is held.
    On both routes the sums hold exactly the values of the
    ``frame_*.snkv`` files, and the analysis fed from the files
    reproduces ``zmap.snkv`` and ``metrics.json``. Once acquisition ends
    the coil maps are rounded to the dataset's complex64 and the
    complex128 maps released, so reconstruction holds one copy of them.
    ``n_jobs`` sizes the reconstruction's pool for frames too large to
    batch; smaller frames and acquisition run on the calling thread.
    The manifest records each finished stage's seconds and the process's
    peak RSS at its end.
    A stage's runtime failure is recorded in the manifest with the stage
    name and downstream stages are skipped. Before the first stage the
    files of ``_RUN_FILES`` are removed from ``out_dir``, and no others,
    so the directory holds no output of an earlier run beside this one's.
    """
    cfg, t0 = config.raw, time.monotonic()
    sequence, noise, cs, plan, phantom, gm_index, design, bold, coils = _run_inputs(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pattern in _RUN_FILES:
        for stale in out.glob(pattern):
            stale.unlink()
    (out / "config.yaml").write_text(config.to_yaml())
    manifest = RunManifest(config_hash=config.hash(), version=__version__,
                           checksums={}, stage_seconds={})

    def finish(stage, t0):
        manifest.stage_seconds[stage] = time.monotonic() - t0
        manifest.peak_rss_mb[stage] = _peak_rss_mb()

    stage = "acquisition"
    try:
        dataset_path = out / "kspace.snkd"
        header, kdata = run_acquisition(
            phantom, plan, coils, sequence, bold=bold, model=cfg["model"],
            noise=noise, sink_path=dataset_path, gm_index=gm_index)
        # the series computes in the dataset's precision: its coil maps
        # replace acquisition's, which are dropped here (at s3@1 the
        # complex64 maps take 1.8 GB of the 5.5 GB that both would)
        coils = CoilProfile(maps=coils.maps.astype(kdata.dtype))
        mu = gre_contrast(phantom, sequence)
        reference = contrast_volume(phantom, mu)
        write_volume(out / "reference.snkv", np.abs(reference),
                     voxel_size=phantom.voxel_size)
        write_volume(out / "roi.snkv", bold.roi, voxel_size=phantom.voxel_size)
        finish(stage, t0)
        manifest.checksums["kspace.snkd"] = _sha256(dataset_path)
        manifest.checksums["reference.snkv"] = _sha256(out / "reference.snkv")

        stage = "reconstruction"
        t0 = time.monotonic()
        # kdata reads each frame from kspace.snkd as it is solved, and the
        # frame's magnitude goes to the file and to the series sums
        if cs is None:
            frames = adjoint_series(kdata, plan, coils, cfg["recon"]["density_comp"],
                                    n_jobs=n_jobs)
        else:
            frames = reconstruct_series(kdata, plan, coils, *cs, n_jobs=n_jobs)
        sums = SeriesSums(design)
        estimates = []
        # closing the series on a failure here stops its worker threads
        with contextlib.closing(frames):
            for t, est in enumerate(frames):
                # float32 on both routes: the analysis sees what the file holds
                mag = np.abs(est.volume).astype(np.float32, copy=False)
                write_volume(out / f"frame_{t:04d}.snkv", mag, voxel_size=phantom.voxel_size)
                sums.add(mag)
                # the record without its volume: the run holds one frame at a time
                estimates.append(replace(est, volume=None))
        index = {"n_frames": sums.n, "dims": list(phantom.dims),
                 "tr_vol_s": plan.tr_vol,
                 "strategy": "adjoint" if cs is None else cs[1].strategy,
                 "mu": [float(est.mu_used) for est in estimates],
                 "objective_traces": "objective_traces.csv"}
        if cs is not None:
            # how each frame's solve ended (see recon.FrameEstimate)
            index.update({key: [getattr(est, key) for est in estimates] for key in
                          ("n_iters", "stop", "restarts", "final_rel_change")})
        (out / "series_index.json").write_text(canonical_json(index))
        with open(out / "objective_traces.csv", "w", newline="") as f:
            writer = csv.writer(f)
            for t, est in enumerate(estimates):
                writer.writerow([t, *est.objective_trace])
        finish(stage, t0)
        manifest.checksums["series_index.json"] = _sha256(out / "series_index.json")
        manifest.checksums["frame_0000.snkv"] = _sha256(out / "frame_0000.snkv")
        manifest.checksums[f"frame_{sums.n - 1:04d}.snkv"] = \
            _sha256(out / f"frame_{sums.n - 1:04d}.snkv")

        stage = "analysis"
        t0 = time.monotonic()
        _analyse(out, sums, phantom, bold.roi, reference, cfg["analysis"]["p_threshold"])
        finish(stage, t0)
        manifest.checksums["metrics.json"] = _sha256(out / "metrics.json")
        manifest.checksums["zmap.snkv"] = _sha256(out / "zmap.snkv")
    except Exception as e:  # noqa: BLE001 - stage failure is a recorded outcome
        manifest.failed_stage = stage
        manifest.error = f"{type(e).__name__}: {e}"
    (out / "manifest.json").write_text(canonical_json(manifest.to_dict()))
    return manifest
