"""Search sensitivity: what a DM error or smearing costs in S/N.

Sec. II of the paper explains why the DM space cannot be pruned: "when the
DM is only slightly off, the source signal will be smeared, and the signal
strength will drop below the noise floor".  This module quantifies that
statement with the classical single-pulse response of Cordes & McLaughlin
(2003): a Gaussian pulse of width ``W`` observed with a DM error ``dDM``
across a band is attenuated by

    S(zeta) = sqrt(pi)/2 * erf(zeta)/zeta,
    zeta    = (delay span across the band at dDM) / (2 * W)

— unity at zero error, falling off once the misalignment rivals the pulse
width.  On top of that, matched filtering a smeared pulse of effective
width ``W_eff`` with the original width loses ``sqrt(W / W_eff)``.

These curves justify the DM steps :mod:`repro.astro.ddplan` chooses and
are reproduced as an extended experiment.
"""

from __future__ import annotations

import math

import numpy as np

from repro.astro.dispersion import dispersion_smearing_seconds
from repro.astro.ddplan import band_delay_span_seconds
from repro.astro.observation import ObservationSetup
from repro.errors import ValidationError
from repro.utils.validation import require_positive


def dm_error_attenuation(
    setup: ObservationSetup,
    dm_error: float,
    pulse_width_seconds: float,
) -> float:
    """S/N fraction retained when dedispersing ``dm_error`` off the truth.

    The Cordes & McLaughlin (2003) single-pulse response; symmetric in the
    sign of the error.
    """
    require_positive(pulse_width_seconds, "pulse_width_seconds")
    span = band_delay_span_seconds(setup, abs(dm_error))
    zeta = span / (2.0 * pulse_width_seconds)
    if zeta == 0.0:
        return 1.0
    return float(np.sqrt(np.pi) / 2.0 * math.erf(zeta) / zeta)


def smearing_attenuation(
    intrinsic_width_seconds: float,
    smearing_seconds: float,
) -> float:
    """S/N fraction retained when smearing widens a matched pulse.

    The effective width is the quadrature sum; a boxcar matched to the
    wider pulse collects the same fluence over more noise samples, losing
    ``sqrt(W / W_eff)``.
    """
    require_positive(intrinsic_width_seconds, "intrinsic_width_seconds")
    if smearing_seconds < 0:
        raise ValidationError("smearing_seconds must be non-negative")
    effective = np.hypot(intrinsic_width_seconds, smearing_seconds)
    return float(np.sqrt(intrinsic_width_seconds / effective))


def sensitivity_curve(
    setup: ObservationSetup,
    dm_errors: np.ndarray,
    pulse_width_seconds: float,
    trial_dm: float = 0.0,
) -> np.ndarray:
    """Attenuation at each DM error, including intra-channel smearing.

    The total retained S/N combines the misalignment response with the
    channel-smearing loss at the trial DM — the curve that defines a
    survey's "sensitivity cone" in the DM-time plane.
    """
    dm_errors = np.asarray(dm_errors, dtype=np.float64)
    smear = dispersion_smearing_seconds(
        float(np.median(setup.channel_frequencies)),
        setup.channel_bandwidth,
        max(trial_dm, 0.0),
    )
    base = smearing_attenuation(pulse_width_seconds, smear)
    return np.asarray(
        [
            base * dm_error_attenuation(setup, float(e), pulse_width_seconds)
            for e in dm_errors
        ]
    )


def half_power_dm_error(
    setup: ObservationSetup,
    pulse_width_seconds: float,
) -> float:
    """The DM error at which the response drops to 50%.

    Solved from the Cordes-McLaughlin response: ``S(zeta) = 0.5`` at
    ``zeta ~= 1.75``; inverted through the band delay span.  This is
    the natural unit for DM-grid design — steps beyond twice this value
    leave blind spots between trials.
    """
    require_positive(pulse_width_seconds, "pulse_width_seconds")
    zeta_half = 1.7487  # solves sqrt(pi)/2 * erf(z)/z = 1/2
    span_per_dm = band_delay_span_seconds(setup, 1.0)
    if span_per_dm <= 0:
        raise ValidationError("setup has no dispersion span")
    return zeta_half * 2.0 * pulse_width_seconds / span_per_dm
