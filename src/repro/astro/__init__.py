"""Radio-astronomy substrate: observations, dispersion physics, signals.

This subpackage implements everything the dedispersion kernel consumes or
produces: observational setups (Apertif, LOFAR), the cold-plasma dispersion
delay model (paper Eq. 1), DM-trial grids, synthetic pulsar signal
generation, and signal-to-noise measurement for detection.
"""

from repro.astro.observation import ObservationSetup, apertif, lofar
from repro.astro.dispersion import (
    dispersion_delay_seconds,
    delay_samples,
    delay_table,
    dispersion_smearing_seconds,
    reuse_span_samples,
)
from repro.astro.dm_trials import DMTrialGrid
from repro.astro.pulse import (
    PulseProfile,
    gaussian_profile,
    scattered_profile,
)
from repro.astro.signal_gen import SyntheticPulsar
from repro.astro.source import (
    BroadbandRFISource,
    BurstSource,
    BurstTrainSource,
    CompositeSource,
    NarrowbandRFISource,
    NoiseSource,
    PulsarSource,
    SignalComponent,
    SignalSource,
    SignalTruth,
    StreamChunk,
    stream_chunks,
)
from repro.astro.snr import boxcar_snr, best_boxcar_snr
from repro.astro.ddplan import (
    DDPlan,
    DDPlanStage,
    build_ddplan,
    optimal_dm_step,
)
from repro.astro.candidates import (
    Candidate,
    SiftedCandidate,
    sift,
)
from repro.astro.filterbank import (
    FilterbankHeader,
    read_filterbank,
    write_filterbank,
)
from repro.astro.quantization import (
    QuantizedData,
    ai_bound_with_input_bytes,
    quantize,
    snr_efficiency,
)
from repro.astro.sensitivity import (
    dm_error_attenuation,
    half_power_dm_error,
    sensitivity_curve,
)
from repro.astro.rfi import (
    ChannelMask,
    mask_noisy_channels,
    zero_dm_filter,
)

__all__ = [
    "ObservationSetup",
    "apertif",
    "lofar",
    "dispersion_delay_seconds",
    "delay_samples",
    "delay_table",
    "dispersion_smearing_seconds",
    "reuse_span_samples",
    "DMTrialGrid",
    "PulseProfile",
    "gaussian_profile",
    "scattered_profile",
    "SyntheticPulsar",
    "SignalSource",
    "SignalTruth",
    "SignalComponent",
    "NoiseSource",
    "PulsarSource",
    "BurstSource",
    "BurstTrainSource",
    "BroadbandRFISource",
    "NarrowbandRFISource",
    "CompositeSource",
    "StreamChunk",
    "stream_chunks",
    "boxcar_snr",
    "best_boxcar_snr",
    "DDPlan",
    "DDPlanStage",
    "build_ddplan",
    "optimal_dm_step",
    "ChannelMask",
    "mask_noisy_channels",
    "zero_dm_filter",
    "Candidate",
    "SiftedCandidate",
    "sift",
    "FilterbankHeader",
    "read_filterbank",
    "write_filterbank",
    "QuantizedData",
    "ai_bound_with_input_bytes",
    "quantize",
    "snr_efficiency",
    "dm_error_attenuation",
    "half_power_dm_error",
    "sensitivity_curve",
]
