"""
Shot-wise k-space acquisition
=============================

Simulates a short multi-coil acquisition with BOLD dynamics and
calibrated thermal noise, streams it to the binary dataset container,
and verifies the Nyquist sanity check: fully sampled Cartesian frames
invert back to the modulated phantom by inverse FFT.
"""

import tempfile
from pathlib import Path

import numpy as np

from snakesim import (
    BoldSpec,
    NoiseConfig,
    Paradigm,
    SequenceParams,
    birdcage_coils,
    build_bold_timecourse,
    centered_ifft,
    default_tissues,
    gen_epi_3d,
    gre_contrast,
    modulated_state,
    read_dataset,
    run_acquisition,
    synthetic_phantom,
)

dims = (16, 16, 16)
phantom = synthetic_phantom(dims, [((8.0, 8.0, 8.0), 6.5, 0),
                                   ((8.0, 5.0, 8.0), 3.0, 1)],
                            tissues=default_tissues(("WM", "GM")))
seq = SequenceParams(tr_shot=50.0, te=25.0, flip_angle=12.0, t_obs=25.0)
plan = gen_epi_3d(dims, seq, n_frames=4)
coils = birdcage_coils(dims, 4)

paradigm = Paradigm.blocks(on=20.0, off=20.0, run_length=300.0)
h = build_bold_timecourse(paradigm, plan.shot_times)
roi = (phantom.weights[1] >= 0.5).astype(float)
bold = BoldSpec(roi=roi, delta_r2s=-1.0, h_tilde=h)

# SNR_i calibrates complex noise variance to E/SNR where E is the mean
# squared magnitude of the ideal contrast volume.
noise = NoiseConfig(snr_i=1000.0, seed=42)

with tempfile.TemporaryDirectory() as tmp:
    sink = Path(tmp) / "run.snkd"
    header, kdata = run_acquisition(phantom, plan, coils, seq, bold=bold,
                                    model="basic", noise=noise,
                                    sink_path=sink, gm_index=1)
    print("dataset header:", {k: header[k] for k in
                              ("dims", "n_coils", "n_frames", "snr_i")})
    # Frames go to the sink as they complete, and the run returns a
    # read-only reader of the container: kdata[t] reads frame t from the
    # file as a complex64 (coils, samples) array.
    print("k-space (frames, coils, samples):", kdata.shape, kdata.dtype)
    print("file size:", sink.stat().st_size, "bytes")

    # Without a sink the run returns complex128; the container holds that
    # array quantized to complex64.
    header2, kdata2 = read_dataset(sink)
    _, full = run_acquisition(phantom, plan, coils, seq, bold=bold,
                              model="basic", noise=noise, gm_index=1)
    print("frames on disk:", header2["n_frames"],
          "| shots/frame:", header2["n_shots_per_frame"],
          "| equal to the c64 run data:",
          np.array_equal(kdata2, full.astype(np.complex64)))

# Nyquist check without noise: gather each frame's samples onto the
# Cartesian grid, inverse FFT, compare against the modulated phantom.
_, clean = run_acquisition(phantom, plan, coils, seq, bold=bold,
                           model="basic", noise=NoiseConfig(), gm_index=1)
mu = gre_contrast(phantom, seq)
for t in range(plan.n_frames):
    points = np.concatenate([shot.points for shot in plan.frame(t)])
    grid = np.zeros(dims, dtype=np.complex128)
    grid[tuple((points + np.array(dims) // 2).astype(int).T)] = clean[t, 0]
    image = centered_ifft(grid) / coils.maps[0]
    truth = modulated_state(phantom, mu, bold, seq.te,
                            t * plan.shots_per_frame, gm_index=1).sum(axis=0)
    err = np.max(np.abs(image - truth)) / np.max(np.abs(truth))
    print(f"frame {t}: relative round-trip error {err:.2e}")
