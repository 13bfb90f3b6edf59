"""The curated public surface of the ``repro`` package.

Guards the API contract: everything in ``repro.__all__`` is importable
without a warning, the retired top-level aliases raise
``AttributeError``, and the blessed observability/service entry points
are the same objects as their home-module definitions.
"""

import importlib
import warnings

import pytest

import repro


class TestCuratedAll:
    def test_every_name_in_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_all_is_sorted_sets_of_unique_names(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_blessed_names_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in repro.__all__:
                getattr(repro, name)

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        exported = {k for k in namespace if k != "__builtins__"}
        assert exported == set(repro.__all__)

    def test_observability_names_are_blessed(self):
        for name in ("MetricsRegistry", "Tracer", "Span", "get_registry",
                     "set_registry", "use_registry", "percentile", "span"):
            assert name in repro.__all__

    def test_service_names_are_blessed(self):
        for name in ("TuningService", "ServiceStats", "StatsSnapshot",
                     "TuneRequest", "TuneResponse"):
            assert name in repro.__all__

    def test_blessed_objects_match_home_modules(self):
        from repro.obs.registry import MetricsRegistry, percentile
        from repro.service.service import TuningService

        assert repro.MetricsRegistry is MetricsRegistry
        assert repro.percentile is percentile
        assert repro.TuningService is TuningService

    def test_dir_covers_all(self):
        listing = dir(repro)
        for name in repro.__all__:
            assert name in listing


#: Retired top-level names, as (module, attribute): aliases and helpers
#: that used to resolve through a deprecation shim, and the exports of
#: deleted modules.
RETIRED = (
    ("repro", "AblationReport"),
    ("repro", "CPUModel"),
    ("repro", "StudyConfig"),
    ("repro", "SubbandPlan"),
    ("repro", "best_fixed_configuration"),
    ("repro", "dedisperse_reference"),
    ("repro", "dedisperse_subband"),
    ("repro", "detect_dm"),
    ("repro", "generate_observation"),
    ("repro", "hill_climb"),
    ("repro", "random_search"),
    ("repro", "run_ablation"),
    ("repro", "run_study"),
    ("repro.astro", "Beam"),
    ("repro.astro", "Telescope"),
    ("repro.astro", "detect_dm"),
    ("repro.astro", "find_candidates"),
    ("repro.astro", "folded_profile"),
    ("repro.astro", "search_and_sift"),
    ("repro.obs", "to_jsonl"),
    ("repro.opencl_sim", "CommandQueue"),
    ("repro.opencl_sim", "Context"),
    ("repro.opencl_sim", "SimPlatform"),
    ("repro.service", "WarmStartReport"),
    ("repro.service", "pruned_candidates"),
    ("repro.service", "warm_start_tune"),
    ("repro.service.stats", "_percentile"),
)


class TestDeprecatedTopLevelAliases:
    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_thing

    @pytest.mark.parametrize(
        "module_name,name", RETIRED, ids=[".".join(r) for r in RETIRED]
    )
    def test_retired_alias_raises(self, module_name, name):
        module = importlib.import_module(module_name)
        with pytest.raises(AttributeError):
            getattr(module, name)

    def test_aliases_are_not_in_all(self):
        retired = {name for module, name in RETIRED if module == "repro"}
        assert not retired & set(repro.__all__)


class TestDeprecatedStatsPercentile:
    def test_stats_module_rejects_other_privates(self):
        from repro.service import stats

        with pytest.raises(AttributeError):
            stats._not_a_percentile


class TestVersion:
    def test_version_is_a_pep440_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))
