"""Benchmark workloads: one snakesim run configuration per name and seed.

The benchmark's seed is written into the config's ``seed``, which keys the
noise draws and the dynamic plane selection. Nothing else varies with it,
so repeated calls with one seed do identical work and produce identical
files.

This module imports snakesim only inside :func:`make_config`, so the
parent process can list workloads without importing the program.
"""

REFERENCE_SEED = 1234   # the presets' default seed; reference.json holds its metrics
WORKERS = 2             # n_jobs for every workload
SOS_FRAMES = 10         # SoS frame count, trimmed so a call fits the run length
SOS_BLOCK_S = 0.6       # SoS paradigm blocks, shrunk with the frame count


def _trim(cfg, n_frames, block_s):
    """Cut a preset to ``n_frames`` and shrink its paradigm to match.

    The run length follows the frame count so the design matrix keeps a
    task regressor that is not collinear with the drift terms.
    """
    tr_vol_s = cfg["trajectory"]["n_shots_per_frame"] * cfg["sequence"]["tr_shot_ms"] * 1e-3
    cfg["n_frames"] = n_frames
    cfg["paradigm"].update(block_on_s=block_s, block_off_s=block_s,
                           run_length_s=n_frames * tr_vol_s)
    return cfg


def _epi_acq(seed):
    from snakesim.scenarios import preset
    return preset("s1_epi", scale=0.5, seed=seed).raw


def _sos_static_cs(seed):
    from snakesim.scenarios import preset
    return _trim(preset("s2_sos_static", scale=0.25, seed=seed).raw,
                 SOS_FRAMES, SOS_BLOCK_S)


def _sos_dynamic_t2s_warm(seed):
    from snakesim.scenarios import preset
    cfg = _trim(preset("s2_sos_dynamic", scale=0.25, seed=seed).raw,
                SOS_FRAMES, SOS_BLOCK_S)
    cfg["model"] = "t2s"
    cfg["recon"]["strategy"] = "warm"
    return cfg


def _tiny_epi(seed):
    from snakesim.scenarios import preset
    return _trim(preset("s1_epi", scale=0.15, seed=seed).raw, 4, 0.35)


def _tiny_cs_refined(seed):
    from snakesim.scenarios import preset
    cfg = _trim(preset("s2_sos_dynamic", scale=0.15, seed=seed).raw, 4, 0.1)
    cfg["model"] = "t2s"
    cfg["recon"].update(strategy="refined", max_iters=5)
    return cfg


# Timed workloads, listed in BENCHMARK.json.
WORKLOADS = {
    "epi_acq": _epi_acq,
    "sos_static_cs": _sos_static_cs,
    "sos_dynamic_t2s_warm": _sos_dynamic_t2s_warm,
}

# Seconds-long configs for selftest.py only.
TINY_WORKLOADS = {
    "tiny_epi": _tiny_epi,
    "tiny_cs_refined": _tiny_cs_refined,
}


def make_config(name, seed):
    """The raw config dict of workload ``name`` at ``seed``."""
    return {**WORKLOADS, **TINY_WORKLOADS}[name](seed)
