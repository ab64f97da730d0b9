"""snakesim: an fMRI k-space acquisition simulator and evaluation pipeline."""

__version__ = "0.1.0"

from .phantom import (TissueParams, Phantom, SequenceParams, Paradigm,
                      BoldSpec, default_tissues, load_phantom,
                      synthetic_phantom, gre_contrast, contrast_volume,
                      hrf_kernel, build_bold_timecourse, bold_modulate,
                      modulated_state, ellipsoid_roi, PhantomError)
from .trajectories import (Shot, SamplingPlan, gen_epi_3d, gen_spiral,
                           gen_stack_of_spirals, save_trajectory_file,
                           load_trajectory_file, TrajectoryError)
from .engine import (NDFT, CoilProfile, NoiseConfig, birdcage_coils,
                     centered_fft, centered_ifft, phantom_energy, add_noise,
                     acquire_shot_basic, acquire_shot_t2s, run_acquisition,
                     EngineError)
from .wavelets import WaveletBasis, finest_detail, soft_threshold, WaveletError
from .recon import (ReconConfig, FrameEstimate, FrameOperator,
                    adjoint_recon, radial_density_weights, sure_threshold,
                    sure_threshold_coeffs, cs_solve, reconstruct_series,
                    adjoint_series, ReconError)
from .analysis import (DesignMatrix, StatMap, DetectionResult, MetricsReport,
                       SeriesSums, build_design, glm_fit, threshold_detect,
                       precision_recall, bacc, psnr, ssim, tsnr,
                       AnalysisError)
from .io import (write_volume, read_volume, read_nifti, load_volume_file,
                 write_trajectory, read_trajectory, DatasetWriter,
                 read_dataset, canonical_json, FormatError)
from .scenarios import RunConfig, RunManifest, preset, run_pipeline, ConfigError
