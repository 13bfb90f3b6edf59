"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing configuration problems from runtime failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An argument or dataclass field failed validation."""


class ConfigurationError(ReproError):
    """A kernel configuration is not meaningful for a device/setup/instance.

    "Meaningful" follows the paper's Sec. IV-A definition: a configuration is
    meaningful if it fulfils all constraints posed by a specific platform,
    observational setup, and input instance.
    """


class DeviceError(ReproError):
    """A device specification is inconsistent or a device limit is violated."""


class TuningError(ReproError):
    """The auto-tuner could not produce a result (e.g. empty search space)."""


class PipelineError(ReproError):
    """A streaming/real-time pipeline was driven with inconsistent state."""


class ExperimentError(ReproError):
    """An experiment driver was asked for an unknown or failed experiment."""


class SchedulerError(ReproError):
    """The sharded execution engine could not run a survey to completion."""


class ShardError(SchedulerError):
    """A work unit is invalid or fits on no device."""


class LedgerError(SchedulerError):
    """A ledger record is malformed, or breaks exactly-once completion."""


class SchemaVersionError(ValidationError, LedgerError):
    """A persisted document carries a schema version we cannot read.

    Raised when a sweep store or survey ledger file declares a *newer*
    schema than this build supports — typically a file written by a
    newer version of the library.  Derives from both
    :class:`ValidationError` and :class:`LedgerError` so existing
    handlers of either hierarchy keep working; the CLI surfaces it as a
    clean one-line error instead of a traceback, and caches must not
    treat it as corruption (the file is fine, we are just old).
    """
