"""Error-feedback quantizer design, analysis, fitting, and simulation.

The package answers four questions about a quantizer wrapped in an
error-feedback loop driving a known reconstruction filter:

* ``design``   — what is the best noise-shaping filter and the distortion it
  buys, and how does that distortion trade off against word length and
  oversampling, next to the unshaped baseline and an analytic upper bound?
  Its solve is the one design entry point; its variance balance prices any
  shaper.
* ``fitting``  — what realizable FIR/IIR filter comes closest to the ideal shape?
* ``simulate`` — does a bit-exact time-domain loop reproduce the predictions?

``_EXPORTS`` lists each public name once, under the module that defines it.
``import efq`` loads no module; reading a name imports its module and binds
the name here, so later reads are plain attribute hits.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "config": "ExperimentConfig FitConfig PlantConfig SimConfig config_hash default_config load_config validate_config",
    "design": "OptimalDesign RDRow balanced_mse collapse_residual db design_at gamma_from_bits optimal_shaper rd_row "
    "solve_min_mse upper_bound",
    "errors": "ConfigError NumericalError VerificationFailure",
    "fitting": "FitReport evaluate_fit fir_kkt_residuals fit_cell norm_constrained_fir normalize_head yule_walker_fit",
    "simulate": "MidRiseQuantizer SignalModel SimulationResult gen_input granular_mse loop_identity_residual "
    "loop_quantizer quantize_midrise run_feedback_loop summarize_run",
    "spectral": "AmplitudeResponse FrequencyGrid amplitude_of_tf band_integral band_mean ct_frequency_map l2_norm_sq "
    "log_geometric_mean oversample_response",
    "transfer": "ContinuousTF RationalDiscreteTF frequency_response",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
