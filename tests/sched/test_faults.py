"""Unit tests for repro.sched.faults — seeded fault injection."""

import pytest

from repro.errors import SchedulerError, ValidationError
from repro.sched.faults import FaultInjector, FaultProfile
from repro.utils.rng import RandomStreams

WORKERS = ("dev/0", "dev/1", "dev/2", "dev/3")


class TestFaultProfile:
    def test_none_is_benign(self):
        assert FaultProfile.none().is_benign

    def test_default_injection_shape(self):
        profile = FaultProfile.default_injection()
        assert profile.crashes == 1
        assert profile.stragglers == 1
        assert profile.slowdown == 4.0
        assert 0.0 < profile.transient_rate < 1.0
        assert not profile.is_benign

    def test_rejects_slowdown_below_one(self):
        with pytest.raises(SchedulerError, match="slowdown"):
            FaultProfile(slowdown=0.5)

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValidationError):
            FaultProfile(crash_fraction=1.5)
        with pytest.raises(ValidationError):
            FaultProfile(transient_rate=-0.1)
        with pytest.raises(ValidationError):
            FaultProfile(crashes=-1)


class TestFaultInjector:
    def _injector(self, profile, seed=0, horizon=10.0, workers=WORKERS):
        return FaultInjector(profile, RandomStreams(seed), workers, horizon)

    def test_crash_count_and_time(self):
        inj = self._injector(FaultProfile(crashes=2, crash_fraction=0.5))
        victims = [w for w in WORKERS if inj.crash_time(w) is not None]
        assert len(victims) == 2
        for w in victims:
            assert inj.crash_time(w) == pytest.approx(5.0)

    def test_same_seed_same_victims(self):
        profile = FaultProfile(crashes=1, stragglers=1, slowdown=2.0)
        a = self._injector(profile, seed=3)
        b = self._injector(profile, seed=3)
        assert a.crash_times == b.crash_times
        assert a.slowdowns == b.slowdowns

    def test_straggler_prefers_survivors(self):
        profile = FaultProfile(crashes=1, stragglers=3, slowdown=2.0)
        for seed in range(10):
            inj = self._injector(profile, seed=seed)
            assert not (set(inj.crash_times) & set(inj.slowdowns))

    def test_cannot_crash_more_workers_than_exist(self):
        with pytest.raises(SchedulerError, match="cannot crash"):
            self._injector(FaultProfile(crashes=5))

    def test_duplicate_worker_ids_rejected(self):
        with pytest.raises(SchedulerError, match="unique"):
            self._injector(
                FaultProfile.none(), workers=("a", "a", "b", "c")
            )

    def test_slowdown_defaults_to_nominal(self):
        inj = self._injector(FaultProfile.none())
        assert all(inj.slowdown_for(w) == 1.0 for w in WORKERS)

    def test_transient_rate_extremes(self):
        never = self._injector(FaultProfile(transient_rate=0.0))
        always = self._injector(FaultProfile(transient_rate=1.0))
        assert not never.transient_fails("dev/0", "b0000/d00000+4/t0000", 1)
        assert always.transient_fails("dev/0", "b0000/d00000+4/t0000", 1)

    def test_transient_draw_is_order_independent(self):
        profile = FaultProfile(transient_rate=0.5)
        a = self._injector(profile, seed=9)
        b = self._injector(profile, seed=9)
        coords = [("dev/1", f"s{i}", n) for i in range(20) for n in (1, 2)]
        # Query in opposite orders; every coordinate must agree.
        forward = {c: a.transient_fails(*c) for c in coords}
        backward = {c: b.transient_fails(*c) for c in reversed(coords)}
        assert forward == backward
        assert any(forward.values()) and not all(forward.values())

    def test_failure_point_bounds(self):
        inj = self._injector(FaultProfile(transient_rate=1.0))
        for attempt in range(1, 30):
            point = inj.failure_point("dev/2", "sX", attempt)
            assert 0.1 <= point < 0.9
