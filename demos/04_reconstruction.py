"""
Frame-wise reconstruction: adjoint vs compressed sensing
========================================================

Reconstructs an undersampled stack-of-spirals acquisition with the
plain adjoint and with wavelet-regularized compressed sensing (POGM,
SURE-selected threshold), comparing the three initialization
strategies: cold, warm and refined.
"""

import numpy as np

from snakesim import (
    BoldSpec,
    NoiseConfig,
    Paradigm,
    ReconConfig,
    SequenceParams,
    WaveletBasis,
    adjoint_series,
    birdcage_coils,
    build_bold_timecourse,
    contrast_volume,
    gen_spiral,
    gen_stack_of_spirals,
    gre_contrast,
    psnr,
    reconstruct_series,
    run_acquisition,
    synthetic_phantom,
    default_tissues,
)

dims = (16, 16, 16)
phantom = synthetic_phantom(dims, [((8.0, 8.0, 8.0), 6.5, 0),
                                   ((8.0, 5.0, 8.0), 3.0, 1)],
                            tissues=default_tissues(("WM", "GM")))
seq = SequenceParams(tr_shot=50.0, te=25.0, flip_angle=12.0, t_obs=30.0)
spiral = gen_spiral(dims[:2], 128)
plan = gen_stack_of_spirals(spiral, af=2.0, center_fraction=0.125,
                            dynamic=True, n_frames=6, seed=3,
                            tr_shot_s=seq.tr_shot_s, t_obs_s=seq.t_obs_s,
                            dims=dims)
coils = birdcage_coils(dims, 4)
paradigm = Paradigm.blocks(on=20.0, off=20.0, run_length=300.0)
h = build_bold_timecourse(paradigm, plan.shot_times)
bold = BoldSpec(roi=(phantom.weights[1] >= 0.5).astype(float),
                delta_r2s=-1.0, h_tilde=h)
_, kdata = run_acquisition(phantom, plan, coils, seq, bold=bold,
                           noise=NoiseConfig(snr_i=1000.0, seed=5), gm_index=1)

reference = np.abs(contrast_volume(phantom, gre_contrast(phantom, seq)))

# Adjoint baseline: density-compensated conjugate-transpose reconstruction.
# The series functions are generators that solve a frame when it is asked
# for, so next() reconstructs frame 0 alone.
adj = next(adjoint_series(kdata, plan, coils, density_comp="radial"))
print(f"adjoint     PSNR {psnr(np.abs(adj.volume), reference):6.2f} dB")

# CS with the three strategies. Cold solves every frame from the adjoint
# image; warm chains the previous frame's estimate; refined adds a second
# pass re-initialized at the warm pass result.
basis = WaveletBasis("haar", 2)
for strategy in ("cold", "warm", "refined"):
    cfg = ReconConfig(strategy=strategy, max_iters=40, tol=1e-7,
                      mu_mode="sure")
    first = next(reconstruct_series(kdata, plan, coils, basis, cfg))
    quality = psnr(np.abs(first.volume), reference)
    print(f"cs/{strategy:<8} PSNR {quality:6.2f} dB | "
          f"mu_0 = {first.mu_used:.4f} | {first.n_iters} iterations (frame 0)")
