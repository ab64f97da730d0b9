"""Acceptance gate: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``
or on failure) and asserts the criterion at its stated tolerance.
"""

import hashlib
import json

import numpy as np
import pytest

from snakesim.analysis import (SeriesSums, bacc, build_design, glm_fit, precision_recall,
                               threshold_detect)
from snakesim.engine import (NoiseConfig, acquire_shot_basic, acquire_shot_t2s,
                             add_noise, birdcage_coils, centered_ifft,
                             run_acquisition)
from snakesim.phantom import (BoldSpec, Paradigm, Phantom, SequenceParams,
                              bold_modulate, build_bold_timecourse,
                              contrast_volume, default_tissues, gre_contrast,
                              modulated_state, synthetic_phantom)
from snakesim.recon import (FrameOperator, ReconConfig, adjoint_recon,
                            cs_solve, reconstruct_series,
                            sure_threshold_coeffs)
from snakesim.scenarios import RunConfig, preset, run_pipeline
from snakesim.trajectories import (Shot, gen_epi_3d, gen_spiral,
                                   gen_stack_of_spirals)
from snakesim.wavelets import WaveletBasis, soft_threshold


def _criterion(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def _seq(t_obs=25.0, te=25.0):
    return SequenceParams(tr_shot=50.0, te=te, flip_angle=12.0, t_obs=t_obs)


def _gm_phantom(dims):
    """WM ball with an embedded hard GM sphere; returns (phantom, gm_index)."""
    center = tuple(d / 2 for d in dims)
    tissues = default_tissues(("WM", "GM"))
    gm = synthetic_phantom(dims, [(center, 0.2 * min(dims), 1)],
                           tissues=tissues).weights[1]
    wm = synthetic_phantom(dims, [(center, 0.45 * min(dims), 0)],
                           tissues=tissues).weights[0]
    wm = np.clip(wm - gm, 0, 1)
    return Phantom(dims=tuple(dims), voxel_size=(3.0, 3.0, 3.0),
                   tissues=tuple(tissues), weights=np.stack([wm, gm])), 1


def _gather_full_frame(frame_data, shots, dims):
    """Scatter a fully sampled Cartesian (L, P) frame back onto the k-space grid."""
    grid = np.zeros(dims, dtype=np.complex128)
    points = np.concatenate([shot.points for shot in shots])
    grid[tuple((points + np.array(dims) // 2).astype(int).T)] = frame_data[0]
    return grid


def _frame(shot_samples):
    """One frame's (L, P) data from each shot's (L, n_s) samples."""
    return np.concatenate(list(shot_samples), axis=1)


def test_criterion_01_bold_amplitude():
    """TE = 25 ms and delta R2* = -1 Hz give a modulation factor of 1.025."""
    bold = BoldSpec(roi=np.ones((2, 2, 2)), delta_r2s=-1.0,
                    h_tilde=np.array([1.0]))
    base = np.ones((2, 2, 2))
    factor = bold_modulate(base, bold, te_ms=25.0, shot_index=0)[0, 0, 0]
    _criterion(1, "BOLD modulation factor is exactly 1.025",
               abs(factor - 1.025) <= 1e-12)


def test_criterion_02_forward_model_oracle():
    """T2*-decay engine matches a brute-force triple-loop model evaluation."""
    rng = np.random.default_rng(42)
    dims = (4, 4, 4)
    vols = rng.random((2, *dims)) + 1j * rng.random((2, *dims))
    t2s_s = [0.020, 0.045]
    coils = birdcage_coils(dims, 2)
    points = rng.uniform(-2.0, 1.9, (8, 3))
    times = np.linspace(-0.010, 0.012, 8)
    shot = Shot(points=points, times=times)
    got = acquire_shot_t2s(vols, t2s_s, coils, shot)

    coords = [(np.arange(n) - n // 2) / n for n in dims]
    expected = np.zeros_like(got)
    for l in range(2):
        for n in range(8):
            acc = 0.0 + 0.0j
            for i, t2s in enumerate(t2s_s):
                decay = np.exp(-times[n] / t2s)
                for ix in range(dims[0]):
                    for iy in range(dims[1]):
                        for iz in range(dims[2]):
                            r = np.array([coords[0][ix], coords[1][iy],
                                          coords[2][iz]])
                            phase = np.exp(-2j * np.pi * points[n] @ r)
                            acc += (decay * coils.maps[l][ix, iy, iz]
                                    * vols[i][ix, iy, iz] * phase)
            expected[l, n] = acc
    err = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
    _criterion(2, f"shot-wise forward model matches brute force (rel {err:.2e})",
               err <= 1e-9)


def test_criterion_03_nyquist_round_trip():
    """Fully sampled Cartesian frames invert to the modulated phantom."""
    dims = (16, 16, 16)
    phantom, gm_index = _gm_phantom(dims)
    seq = _seq()
    n_frames = 8
    plan = gen_epi_3d(dims, seq, n_frames=n_frames)
    coils = birdcage_coils(dims, 1)
    # piecewise-constant BOLD state: one activity level per frame
    levels = np.array([0.0, 1.0, 0.5, 0.25, 0.75, 1.0, 0.0, 0.6])
    h = np.repeat(levels, plan.shots_per_frame)
    mu = gre_contrast(phantom, seq)
    bold = BoldSpec(roi=phantom.weights[gm_index], delta_r2s=-1.0, h_tilde=h)
    _, frames = run_acquisition(phantom, plan, coils, seq, bold=bold,
                                model="basic", noise=NoiseConfig(),
                                gm_index=gm_index)
    worst = 0.0
    for t in range(n_frames):
        recon = centered_ifft(_gather_full_frame(frames[t], plan.frame(t), dims))
        truth = modulated_state(phantom, mu, bold, seq.te,
                                t * plan.shots_per_frame,
                                gm_index=gm_index).sum(axis=0)
        worst = max(worst, np.max(np.abs(recon - truth)) / np.max(np.abs(truth)))
    _criterion(3, f"Nyquist round trip over 8 frames (rel {worst:.2e})",
               worst <= 1e-6)


def test_criterion_04_decay_free_equivalence():
    """Infinite T2* collapses the decay engine onto the basic engine."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        dims = tuple(rng.integers(3, 6, size=3))
        n_tissues = int(rng.integers(1, 4))
        n_coils = int(rng.integers(1, 4))
        n_samples = int(rng.integers(2, 12))
        vols = rng.standard_normal((n_tissues, *dims)) \
            + 1j * rng.standard_normal((n_tissues, *dims))
        coils = birdcage_coils(dims, n_coils)
        lo = -np.array(dims) / 2
        hi = np.array(dims) / 2 - 1e-6
        points = rng.uniform(lo, hi, (n_samples, 3))
        times = np.sort(rng.uniform(-0.01, 0.01, n_samples))
        times += np.arange(n_samples) * 1e-9  # enforce strict increase
        shot = Shot(points=points, times=times)
        y_t2s = acquire_shot_t2s(vols, [np.inf] * n_tissues, coils, shot)
        y_basic = acquire_shot_basic(vols.sum(axis=0), coils, shot)
        worst = max(worst, np.max(np.abs(y_t2s - y_basic))
                    / np.max(np.abs(y_basic)))
    _criterion(4, f"infinite T2* equals basic over 100 instances "
                  f"(rel {worst:.2e})", worst <= 1e-12)


def test_criterion_05_noise_calibration():
    """Per-sample complex noise variance equals E / SNR_i."""
    energy = 2.345
    n = 100_000
    samples = np.zeros((1, n), dtype=np.complex128)
    noisy = add_noise(samples, NoiseConfig(snr_i=1000.0, seed=3), energy)
    var = float(np.mean(np.abs(noisy) ** 2))
    target = energy / 1000.0
    rel = abs(var - target) / target
    _criterion(5, f"noise variance E/1000 within 5% (off by {rel:.2%})",
               rel <= 0.05)


def _sure_scan_oracle(alpha):
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    n = alpha.size
    universal = np.sqrt(2.0 * np.log2(n))
    sigma = 0.675 * np.median(np.abs(alpha - np.median(alpha)))
    if sigma == 0:
        return universal
    a = np.abs(alpha) / sigma
    if np.sum(a * a) / n < np.log2(n) ** 1.5 / np.sqrt(n):
        return universal
    risks = [float(np.sum(np.minimum(a * a, w * w) - 2.0 * (a * a < w * w)))
             for w in a]
    return min(a[int(np.argmin(risks))], universal)


def test_criterion_06_sure_threshold():
    """Threshold equals the exhaustive scan and respects the universal cap."""
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(200):
        n = int(rng.integers(4, 257))
        scale = rng.uniform(0.1, 5.0)
        alpha = rng.standard_normal(n) * scale
        if rng.random() < 0.3:  # sparsify a third of the cases
            alpha[rng.random(n) < 0.8] *= 0.01
        mu, _ = sure_threshold_coeffs(alpha)
        ref = _sure_scan_oracle(alpha)
        ok &= abs(mu - ref) <= 1e-12 * max(1.0, abs(ref))
        ok &= mu <= np.sqrt(2 * np.log2(n)) + 1e-12
    _criterion(6, "SURE threshold matches exhaustive scan on 200 vectors", ok)


def test_criterion_07_cs_closed_form():
    """Fully sampled CS solution equals the single-prox closed form."""
    rng = np.random.default_rng(5)
    dims = (16, 16, 16)
    vol = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    plan = gen_epi_3d(dims, _seq())
    coils = birdcage_coils(dims, 1)
    frame = _frame(acquire_shot_basic(vol, coils, s) for s in plan.frame(0))
    basis = WaveletBasis("haar", 2)
    mu = 0.05
    cfg = ReconConfig(max_iters=200, tol=1e-14, mu_mode="fixed", mu_value=mu)
    est = cs_solve(frame, FrameOperator(plan.frame(0), dims, coils), basis, cfg)
    backproj = centered_ifft(_gather_full_frame(frame, plan.frame(0), dims))
    oracle = basis.inverse(soft_threshold(basis.forward(backproj), mu))
    err = np.max(np.abs(est.volume - oracle)) / np.max(np.abs(oracle))
    _criterion(7, f"POGM equals closed-form prox at 16^3 (rel {err:.2e})",
               err <= 1e-6)


def test_criterion_08_wavelet_contracts():
    """Perfect reconstruction and Parseval for Haar and symlet-8."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for family in ("haar", "symlet8"):
        for n in (16, 32):
            vol = rng.standard_normal((n, n, n)) \
                + 1j * rng.standard_normal((n, n, n))
            basis = WaveletBasis(family, 2)
            coeffs = basis.forward(vol)
            back = basis.inverse(coeffs)
            pr = np.max(np.abs(back - vol)) / np.max(np.abs(vol))
            energy = np.linalg.norm(coeffs.ravel()) / np.linalg.norm(vol)
            worst = max(worst, pr, abs(energy - 1.0))
    _criterion(8, f"wavelet PR and Parseval (worst {worst:.2e})",
               worst <= 1e-10)


def test_criterion_09_glm_null_calibration():
    """One-sided exceedance at z = 3.0902 on pure noise matches p = 0.001."""
    rng = np.random.default_rng(2026)
    n_frames, n_vox = 60, 10_000
    paradigm = Paradigm.blocks(on=20.0, off=20.0, run_length=150.0)
    design = build_design(paradigm, "double_gamma", n_frames, tr_vol=2.5)
    sums = SeriesSums(design)
    for frame in rng.standard_normal((n_frames, n_vox, 1, 1)):
        sums.add(frame)
    stat = glm_fit(sums)
    exceed = int(np.sum(stat.z > 3.0902))
    p = 0.001
    sigma = np.sqrt(n_vox * p * (1 - p))
    _criterion(9, f"null exceedance {exceed}/{n_vox} vs expected "
                  f"{n_vox * p:.0f} +/- {3 * sigma:.1f}",
               abs(exceed - n_vox * p) <= 3 * sigma)


def _desk_s1(snr_i, dims=(16, 16, 16), n_frames=120):
    phantom, gm_index = _gm_phantom(dims)
    seq = _seq()
    plan = gen_epi_3d(dims, seq, n_frames=n_frames)
    coils = birdcage_coils(dims, 1)
    paradigm = Paradigm.blocks(on=20.0, off=20.0,
                               run_length=n_frames * plan.tr_vol + 1.0)
    # frame-snapshot BOLD: the activity level is frozen within each frame
    # (sampled at the frame midpoint, matching the GLM regressor)
    mid = (np.arange(n_frames) + 0.5) * plan.tr_vol
    h = np.repeat(build_bold_timecourse(paradigm, mid, hrf="double_gamma"),
                  plan.shots_per_frame)
    roi = (phantom.weights[gm_index] >= 0.5).astype(np.float64)
    bold = BoldSpec(roi=roi, delta_r2s=-1.0, h_tilde=h)
    noise = NoiseConfig(snr_i=snr_i, seed=77)
    _, frames = run_acquisition(phantom, plan, coils, seq, bold=bold,
                                model="basic", noise=noise, gm_index=gm_index)
    sums = SeriesSums(build_design(paradigm, "double_gamma", n_frames, plan.tr_vol))
    for t in range(n_frames):
        sums.add(np.abs(adjoint_recon(frames[t], FrameOperator(plan.frame(t), dims, coils))))
    mask = phantom.weights.sum(axis=0) > 0.1
    stat = glm_fit(sums, mask=mask)
    det = threshold_detect(stat, 0.001, roi, mask=mask)
    pr = precision_recall(stat, roi, mask=mask)
    return bacc(det), pr["auc"]


def test_criterion_10_desk_scale_s1():
    """Noise-free desk-scale run detects perfectly; SNR 1000 stays >= 0.95."""
    bacc_clean, auc_clean = _desk_s1(np.inf)
    bacc_noisy, _ = _desk_s1(1000.0)
    ok = (bacc_clean == 1.0 and auc_clean == pytest.approx(1.0, abs=1e-12)
          and bacc_noisy >= 0.95)
    _criterion(10, f"desk S1: clean BACC={bacc_clean:.3f} AUC={auc_clean:.3f}, "
                   f"SNR 1000 BACC={bacc_noisy:.3f}", ok)


def test_criterion_11_strategy_ordering():
    """Refined reconstruction scores at least as well as cold start."""
    dims = (16, 16, 16)
    phantom, gm_index = _gm_phantom(dims)
    seq = _seq(t_obs=30.0)
    spiral = gen_spiral(dims[:2], 128)
    n_frames = 200
    plan = gen_stack_of_spirals(spiral, af=2.0, center_fraction=0.125,
                                dynamic=True, n_frames=n_frames, seed=21,
                                tr_shot_s=seq.tr_shot_s, t_obs_s=seq.t_obs_s,
                                dims=dims)
    coils = birdcage_coils(dims, 2)
    paradigm = Paradigm.blocks(on=20.0, off=20.0,
                               run_length=n_frames * plan.tr_vol + 1.0)
    h = build_bold_timecourse(paradigm, plan.shot_times, hrf="double_gamma")
    roi = (phantom.weights[gm_index] >= 0.5).astype(np.float64)
    bold = BoldSpec(roi=roi, delta_r2s=-1.0, h_tilde=h)
    _, frames = run_acquisition(phantom, plan, coils, seq, bold=bold,
                                model="basic",
                                noise=NoiseConfig(snr_i=1000.0, seed=4),
                                gm_index=gm_index)
    basis = WaveletBasis("haar", 2)
    design = build_design(paradigm, "double_gamma", n_frames, plan.tr_vol)
    mask = phantom.weights.sum(axis=0) > 0.1
    aucs = {}
    for strategy in ("cold", "refined"):
        cfg = ReconConfig(strategy=strategy, max_iters=30, tol=1e-7,
                          mu_mode="sure")
        # the frames are independent under both strategies (refined after
        # its warm pass), so two workers give the same volumes
        sums = SeriesSums(design)
        for e in reconstruct_series(frames, plan, coils, basis, cfg, n_jobs=2):
            sums.add(np.abs(e.volume))
        stat = glm_fit(sums, mask=mask)
        aucs[strategy] = precision_recall(stat, roi, mask=mask)["auc"]
    _criterion(11, f"refined PR-AUC {aucs['refined']:.3f} >= "
                   f"cold {aucs['cold']:.3f}",
               aucs["refined"] >= aucs["cold"] - 1e-12)


def test_criterion_12_t2s_trend():
    """Model mismatch grows monotonically with the readout duration."""
    dims = (16, 16, 16)
    phantom, gm_index = _gm_phantom(dims)
    coils = birdcage_coils(dims, 1)
    errors = []
    for t_obs in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        seq = _seq(t_obs=t_obs)
        spiral = gen_spiral(dims[:2], 256)
        plan = gen_stack_of_spirals(spiral, af=1.0,
                                    tr_shot_s=seq.tr_shot_s,
                                    t_obs_s=seq.t_obs_s, dims=dims)
        mu = gre_contrast(phantom, seq)
        vols = mu[:, None, None, None] * phantom.weights
        t2s_s = [t.t2_star * 1e-3 for t in phantom.tissues]
        frame_basic = _frame(acquire_shot_basic(vols.sum(axis=0), coils, s)
                             for s in plan.frame(0))
        frame_t2s = _frame(acquire_shot_t2s(vols, t2s_s, coils, s)
                           for s in plan.frame(0))
        operator = FrameOperator(plan.frame(0), dims, coils)
        x_basic = adjoint_recon(frame_basic, operator, density_comp="radial")
        x_t2s = adjoint_recon(frame_t2s, operator, density_comp="radial")
        errors.append(np.linalg.norm(x_t2s - x_basic)
                      / np.linalg.norm(x_basic))
    increasing = all(b > a for a, b in zip(errors, errors[1:]))
    _criterion(12, "model error monotone in T_obs "
                   + "->".join(f"{e:.3f}" for e in errors), increasing)


def _determinism_config():
    cfg = json.loads(json.dumps(preset("s1_epi", scale=0.25).raw))
    cfg["dims"] = [16, 16, 16]
    cfg["trajectory"]["n_shots_per_frame"] = 16
    cfg["paradigm"].update(block_on_s=4.0, block_off_s=4.0, run_length_s=80.0)
    cfg["n_frames"] = 24
    return RunConfig.from_dict(cfg)


def test_criterion_13_determinism(tmp_path):
    """Same seed, different worker counts: bit-identical artifacts."""
    digests = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        manifest = run_pipeline(_determinism_config(), out, n_jobs=workers)
        assert manifest.failed_stage is None, manifest.error
        files = sorted(p.name for p in out.iterdir()
                       if p.suffix in (".snkd", ".snkv", ".json", ".csv")
                       and p.name != "manifest.json")
        digests[workers] = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in files}
    _criterion(13, f"bit-identical artifacts across worker counts "
                   f"({len(digests[1])} files)", digests[1] == digests[4])
