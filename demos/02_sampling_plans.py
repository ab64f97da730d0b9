"""
Timed k-space sampling plans
============================

Generates the two built-in trajectory families — a 3D EPI Cartesian
raster and an accelerated stack of variable-density spirals — and
round-trips a plan through the binary trajectory file format.
"""

import tempfile
from pathlib import Path

import numpy as np

from snakesim import (
    SequenceParams,
    gen_epi_3d,
    gen_spiral,
    gen_stack_of_spirals,
    load_trajectory_file,
    save_trajectory_file,
)

dims = (16, 16, 16)
seq = SequenceParams(tr_shot=50.0, te=25.0, flip_angle=12.0, t_obs=25.0)

# Fully sampled 3D EPI: one kx-ky plane per 50 ms shot, snake raster in
# plane, so a 16-plane volume takes TR_vol = 0.8 s.
epi = gen_epi_3d(dims, seq, n_frames=2)
print(f"EPI: {epi.shots_per_frame} shots/frame, "
      f"{epi.shots[0].n_samples} samples/shot, TR_vol = {epi.tr_vol:.2f} s")
print("sample times span", epi.shots[0].times[0], "to",
      epi.shots[0].times[-1], "s around the echo")

# Stack of spirals: an in-out spiral repeated across kz planes. With
# acceleration 2 and a 12.5% fully sampled center, each frame carries
# 2 center planes plus 6 outer planes.
spiral = gen_spiral(dims[:2], 128, n_turns=4.0)
sos = gen_stack_of_spirals(spiral, af=2.0, center_fraction=0.125,
                           dynamic=True, n_frames=3, seed=7,
                           tr_shot_s=seq.tr_shot_s, t_obs_s=seq.t_obs_s,
                           dims=dims)
print(f"SoS: {sos.shots_per_frame} shots/frame over {sos.n_frames} frames")
for t in range(sos.n_frames):
    planes = sorted({float(s.points[0, 2]) for s in sos.frame(t)})
    print(f"  frame {t} kz planes: {planes}")

# Plans serialize to a self-describing binary file (magic SNKT1; f32
# coordinates) and load back exactly at that precision, which is how
# externally designed trajectories (e.g. SPARKLING-style shots) enter
# the pipeline.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "sos.snkt"
    save_trajectory_file(path, sos, dwell_time_us=10.0)
    again = load_trajectory_file(path, dims, shots_per_frame=sos.shots_per_frame,
                                 n_frames=sos.n_frames)
    same = all(np.array_equal(a.points.astype(np.float32), b.points)
               for a, b in zip(sos.shots, again.shots))
    print("file round trip exact at f32:", same)
