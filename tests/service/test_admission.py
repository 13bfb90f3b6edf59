"""Token-bucket admission under a fake clock."""

import pytest

from repro.errors import PipelineError
from repro.service import TenantAdmission, TokenBucket


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


#: Bucket shapes that would admit everything or fail only once a
#: tenant's first bucket is created.
BAD_SETTINGS = [
    pytest.param({"capacity": float("nan")}, id="nan-capacity"),
    pytest.param({"capacity": float("inf")}, id="inf-capacity"),
    pytest.param({"refill_per_s": -1.0}, id="negative-refill"),
    pytest.param({"refill_per_s": float("nan")}, id="nan-refill"),
    pytest.param({"refill_per_s": float("inf")}, id="inf-refill"),
]


@pytest.mark.parametrize("cls", [TokenBucket, TenantAdmission])
@pytest.mark.parametrize("overrides", BAD_SETTINGS)
def test_rejects_bad_settings_at_construction(cls, overrides):
    kwargs = {"capacity": 2.0, "refill_per_s": 0.0, **overrides}
    with pytest.raises(PipelineError):
        cls(**kwargs)


class TestTokenBucket:
    def test_burst_up_to_capacity_then_throttles(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=3, refill_per_s=1.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_continuously_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_per_s=2.0, clock=clock)
        assert bucket.try_acquire(2.0)
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 1 token back
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_per_s=10.0, clock=clock)
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(2.0)

    def test_zero_refill_rate_is_a_fixed_budget(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=1, refill_per_s=0.0, clock=clock)
        assert bucket.try_acquire()
        clock.advance(1e6)
        assert not bucket.try_acquire()

    def test_fractional_costs(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=1.0, refill_per_s=0.0, clock=clock)
        assert bucket.try_acquire(0.25)
        assert bucket.available() == pytest.approx(0.75)
        assert not bucket.try_acquire(1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(PipelineError):
            TokenBucket(capacity=0, refill_per_s=1.0)
        with pytest.raises(PipelineError):
            TokenBucket(capacity=1, refill_per_s=-1.0)
        bucket = TokenBucket(capacity=1, refill_per_s=1.0)
        with pytest.raises(PipelineError):
            bucket.try_acquire(-1.0)


class TestTenantAdmission:
    def test_buckets_are_per_tenant(self):
        clock = FakeClock()
        admission = TenantAdmission(
            capacity=1, refill_per_s=0.0, clock=clock
        )
        assert admission.try_acquire("noisy")
        assert not admission.try_acquire("noisy")
        # The other tenant's budget is untouched.
        assert admission.try_acquire("quiet")

    def test_bucket_is_stable_per_tenant(self):
        admission = TenantAdmission()
        assert admission.bucket("a") is admission.bucket("a")
        assert admission.bucket("a") is not admission.bucket("b")

    def test_tenants_lists_charged_tenants(self):
        admission = TenantAdmission()
        admission.try_acquire("b")
        admission.try_acquire("a")
        assert admission.tenants() == ["a", "b"]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(PipelineError):
            TenantAdmission(capacity=0)
