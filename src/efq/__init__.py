"""Error-feedback quantizer design, analysis, fitting, and simulation.

The package answers four questions about a quantizer wrapped in an
error-feedback loop driving a known reconstruction filter:

* ``design``   — what is the best noise-shaping filter and the distortion it
  buys? ``solve_min_mse(p, gamma)`` is the one design entry point;
  ``balanced_mse`` is the variance balance that prices any shaper.
* ``rd_row``   — how does that distortion trade off against word length and
  oversampling, next to the unshaped baseline and an analytic upper bound?
* ``fitting``  — what realizable FIR/IIR filter comes closest to the ideal shape?
* ``simulate`` — does a bit-exact time-domain loop reproduce the predictions?
"""

from .config import (
    ExperimentConfig,
    FitConfig,
    PlantConfig,
    SimConfig,
    config_hash,
    default_config,
    load_config,
    validate_config,
)
from .design import (
    OptimalDesign,
    RDRow,
    balanced_mse,
    collapse_residual,
    db,
    design_at,
    gamma_from_bits,
    optimal_shaper,
    rd_row,
    solve_min_mse,
    upper_bound,
)
from .errors import ConfigError, NumericalError, VerificationFailure
from .fitting import (
    FitReport,
    evaluate_fit,
    fir_kkt_residuals,
    fit_cell,
    norm_constrained_fir,
    normalize_head,
    yule_walker_fit,
)
from .simulate import (
    MidRiseQuantizer,
    SignalModel,
    SimulationResult,
    gen_input,
    granular_mse,
    loop_identity_residual,
    loop_quantizer,
    quantize_midrise,
    run_feedback_loop,
    summarize_run,
)
from .spectral import (
    AmplitudeResponse,
    FrequencyGrid,
    amplitude_of_tf,
    band_integral,
    band_mean,
    ct_frequency_map,
    l2_norm_sq,
    log_geometric_mean,
    oversample_response,
)
from .transfer import ContinuousTF, RationalDiscreteTF, frequency_response

__version__ = "0.1.0"

__all__ = [
    "AmplitudeResponse",
    "ConfigError",
    "ContinuousTF",
    "ExperimentConfig",
    "FitConfig",
    "FitReport",
    "FrequencyGrid",
    "MidRiseQuantizer",
    "NumericalError",
    "OptimalDesign",
    "PlantConfig",
    "RDRow",
    "RationalDiscreteTF",
    "SignalModel",
    "SimConfig",
    "SimulationResult",
    "VerificationFailure",
    "amplitude_of_tf",
    "balanced_mse",
    "band_integral",
    "band_mean",
    "collapse_residual",
    "config_hash",
    "ct_frequency_map",
    "db",
    "default_config",
    "design_at",
    "evaluate_fit",
    "fir_kkt_residuals",
    "fit_cell",
    "frequency_response",
    "gamma_from_bits",
    "gen_input",
    "granular_mse",
    "l2_norm_sq",
    "load_config",
    "log_geometric_mean",
    "loop_identity_residual",
    "loop_quantizer",
    "norm_constrained_fir",
    "normalize_head",
    "optimal_shaper",
    "oversample_response",
    "quantize_midrise",
    "rd_row",
    "run_feedback_loop",
    "solve_min_mse",
    "summarize_run",
    "upper_bound",
    "validate_config",
    "yule_walker_fit",
]
