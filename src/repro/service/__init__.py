"""The tuning service.

The paper's auto-tuner is an offline exhaustive sweep per (device, setup,
DM-count) instance; production surveys tune once and reuse the result for
months (Sclocco et al., arXiv:1601.01165).  This package is the serving
layer that makes reuse automatic: :class:`TuningService` is a
thread-safe, in-process front to :class:`~repro.core.tuner.AutoTuner`
with an in-memory LRU over the on-disk JSON store, in-flight request
deduplication, warm-start tuning seeded from neighbouring instances,
and graceful degradation to budgeted heuristics under load.

It is driven through one request vocabulary — build a
:class:`TuneRequest`, hand it to :meth:`TuningService.resolve`, read the
:class:`TuneResponse`.
"""

from repro.service.cache import DiskSweepStore, SweepLRUCache
from repro.service.keys import InstanceKey
from repro.service.request import TuneRequest, TuneResponse
from repro.service.service import TuningService
from repro.service.stats import ServiceStats, StatsSnapshot
from repro.service.warmstart import (
    WarmStartReport,
    pruned_candidates,
    warm_start_tune,
)

__all__ = [
    "DiskSweepStore",
    "InstanceKey",
    "ServiceStats",
    "StatsSnapshot",
    "SweepLRUCache",
    "TuneRequest",
    "TuneResponse",
    "TuningService",
    "WarmStartReport",
    "pruned_candidates",
    "warm_start_tune",
]
