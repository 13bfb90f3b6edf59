"""The paper's contribution: the tunable dedispersion kernel and auto-tuner."""

from repro.core.config import KernelConfiguration
from repro.core.constraints import is_meaningful
from repro.core.space import TuningSpace
from repro.core.tuner import AutoTuner, TuningResult, ConfigurationSample
from repro.core.plan import DedispersionPlan
from repro.core.dedisperse import dedisperse, dedisperse_reference
from repro.core.ai import (
    ai_no_reuse_bound,
    ai_perfect_reuse_bound,
    achieved_arithmetic_intensity,
    ReuseReport,
    analyze_reuse,
)
from repro.core.stats import (
    optimum_snr,
    chebyshev_probability_bound,
    performance_histogram,
    OptimumStatistics,
)
from repro.core.fixed import best_fixed_configuration, FixedConfigResult
from repro.core.subband import SubbandPlan
from repro.core.persistence import load_sweep, model_fingerprint, save_sweep

__all__ = [
    "KernelConfiguration",
    "is_meaningful",
    "TuningSpace",
    "AutoTuner",
    "TuningResult",
    "ConfigurationSample",
    "DedispersionPlan",
    "dedisperse",
    "dedisperse_reference",
    "ai_no_reuse_bound",
    "ai_perfect_reuse_bound",
    "achieved_arithmetic_intensity",
    "ReuseReport",
    "analyze_reuse",
    "optimum_snr",
    "chebyshev_probability_bound",
    "performance_histogram",
    "OptimumStatistics",
    "best_fixed_configuration",
    "FixedConfigResult",
    "SubbandPlan",
    "load_sweep",
    "model_fingerprint",
    "save_sweep",
]
