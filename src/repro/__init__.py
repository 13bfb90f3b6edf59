"""repro: auto-tuning dedispersion for many-core accelerators.

A full reproduction of Sclocco et al., "Auto-Tuning Dedispersion for
Many-Core Accelerators" (IPDPS 2014): the tunable dedispersion kernel, the
auto-tuner, the observational setups, a performance simulator for the five
accelerators of Table I, and drivers regenerating every table and figure
of the paper's evaluation.

Quickstart::

    from repro import (apertif, CompositeSource, DMTrialGrid, NoiseSource,
                       PulsarSource, RandomStreams, SyntheticPulsar,
                       dedisperse)

    setup = apertif(samples_per_batch=2000)
    grid = DMTrialGrid(n_dms=64)
    source = CompositeSource((
        NoiseSource(),
        PulsarSource(SyntheticPulsar(0.02, dm=8.0)),
    ))
    data, truth = source.generate(setup, 2000, RandomStreams(42))
    output, plan = dedisperse(data, setup, grid)

``__all__`` below is the curated public surface (the blessed entry
points, covered by ``tests/test_public_api.py``).  Everything else is
imported from its home package (``repro.core``, ``repro.hardware``, …).
"""

from repro.constants import (
    DISPERSION_CONSTANT,
    INPUT_INSTANCES,
    DEFAULT_DM_FIRST,
    DEFAULT_DM_STEP,
)
from repro.errors import (
    ReproError,
    ValidationError,
    ConfigurationError,
    DeviceError,
    TuningError,
    PipelineError,
    ExperimentError,
    SchedulerError,
    ShardError,
    LedgerError,
    SchemaVersionError,
)
from repro.astro import (
    ObservationSetup,
    apertif,
    lofar,
    DMTrialGrid,
    SyntheticPulsar,
    detect_dm,
    build_ddplan,
    zero_dm_filter,
    SignalSource,
    SignalTruth,
    NoiseSource,
    PulsarSource,
    BurstSource,
    BurstTrainSource,
    BroadbandRFISource,
    NarrowbandRFISource,
    CompositeSource,
)
from repro.hardware import (
    DeviceSpec,
    hd7970,
    xeon_phi_5110p,
    gtx680,
    k20,
    gtx_titan,
    xeon_e5_2620,
    paper_accelerators,
    all_devices,
    device_by_name,
    PerformanceModel,
    KernelMetrics,
)
from repro.core import (
    KernelConfiguration,
    AutoTuner,
    TuningResult,
    DedispersionPlan,
    dedisperse,
    OptimumStatistics,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    Span,
    get_registry,
    set_registry,
    use_registry,
    percentile,
    span,
)
from repro.tune import (
    SearchStrategy,
    SearchOutcome,
    ExhaustiveSearch,
    SuccessiveHalving,
    ModelGuidedSearch,
    build_strategy,
    StudyConfig,
    StudyResult,
    run_study,
    save_study,
    load_study,
    run_ablation,
    AblationReport,
)
from repro.service import (
    TuningService,
    ServiceClient,
    TuneRequest,
    TuneResponse,
    TenantAdmission,
    ServiceStats,
    StatsSnapshot,
)
from repro.sched import (
    ExecutionEngine,
    FaultProfile,
    RunLedger,
    RunReport,
    Shard,
    shard_survey,
)
from repro.run import (
    EXECUTION_MODES,
    ExecutionRequest,
    ExecutionResult,
    execute,
)
from repro.search import (
    MatchedFilterDetector,
    SearchConfig,
    SearchReport,
    SiftPolicy,
    StreamingSearch,
    search_stream,
    sift_candidates,
)
from repro.scenarios import (
    GroundTruth,
    MatrixReport,
    Scenario,
    run_matrix,
    scenario_by_name,
    scenario_catalog,
)
from repro.survey import (
    CoincidencePolicy,
    SurveyPlan,
    SurveyRun,
    SurveyRunReport,
    coincide,
    run_survey,
)
from repro.utils import RandomStreams, derive_seed

__version__ = "1.1.0"

#: The curated public surface.  Everything here is a blessed entry point:
#: importable from ``repro``, stable across minor versions, and asserted
#: by ``tests/test_public_api.py``.
__all__ = [
    "__version__",
    # constants
    "DISPERSION_CONSTANT",
    "INPUT_INSTANCES",
    "DEFAULT_DM_FIRST",
    "DEFAULT_DM_STEP",
    # errors
    "ReproError",
    "ValidationError",
    "ConfigurationError",
    "DeviceError",
    "TuningError",
    "PipelineError",
    "ExperimentError",
    "SchedulerError",
    "ShardError",
    "LedgerError",
    "SchemaVersionError",
    # astro substrate
    "ObservationSetup",
    "apertif",
    "lofar",
    "DMTrialGrid",
    "SyntheticPulsar",
    "detect_dm",
    "build_ddplan",
    "zero_dm_filter",
    # unified signal-source API
    "SignalSource",
    "SignalTruth",
    "NoiseSource",
    "PulsarSource",
    "BurstSource",
    "BurstTrainSource",
    "BroadbandRFISource",
    "NarrowbandRFISource",
    "CompositeSource",
    # scenario catalogue + golden regression harness
    "Scenario",
    "GroundTruth",
    "scenario_catalog",
    "scenario_by_name",
    "run_matrix",
    "MatrixReport",
    # hardware catalogue + simulator
    "DeviceSpec",
    "hd7970",
    "xeon_phi_5110p",
    "gtx680",
    "k20",
    "gtx_titan",
    "xeon_e5_2620",
    "paper_accelerators",
    "all_devices",
    "device_by_name",
    "PerformanceModel",
    "KernelMetrics",
    # the paper's contribution
    "KernelConfiguration",
    "AutoTuner",
    "TuningResult",
    "DedispersionPlan",
    "dedisperse",
    "OptimumStatistics",
    # observability
    "MetricsRegistry",
    "Tracer",
    "Span",
    "get_registry",
    "set_registry",
    "use_registry",
    "percentile",
    "span",
    # model-guided search & ablation
    "SearchStrategy",
    "SearchOutcome",
    "ExhaustiveSearch",
    "SuccessiveHalving",
    "ModelGuidedSearch",
    "build_strategy",
    "StudyConfig",
    "StudyResult",
    "run_study",
    "save_study",
    "load_study",
    "run_ablation",
    "AblationReport",
    # serving layer
    "TuningService",
    "ServiceClient",
    "TuneRequest",
    "TuneResponse",
    "TenantAdmission",
    "ServiceStats",
    "StatsSnapshot",
    # execution engine
    "ExecutionEngine",
    "FaultProfile",
    "RunLedger",
    "RunReport",
    "Shard",
    "shard_survey",
    # unified execution facade
    "EXECUTION_MODES",
    "ExecutionRequest",
    "ExecutionResult",
    "execute",
    # real-time candidate search
    "MatchedFilterDetector",
    "SearchConfig",
    "SearchReport",
    "SiftPolicy",
    "StreamingSearch",
    "search_stream",
    "sift_candidates",
    # multi-beam survey driver
    "CoincidencePolicy",
    "SurveyPlan",
    "SurveyRun",
    "SurveyRunReport",
    "coincide",
    "run_survey",
    # seeded randomness
    "RandomStreams",
    "derive_seed",
]
