"""Property-based tests for detection, sifting and planning invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.astro.candidates import Candidate, sift
from repro.astro.ddplan import build_ddplan
from repro.astro.observation import ObservationSetup
from repro.astro.snr import boxcar_snr


@st.composite
def candidate_lists(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    out = []
    for i in range(n):
        out.append(
            Candidate(
                dm_index=draw(st.integers(min_value=0, max_value=63)),
                dm=draw(st.floats(min_value=0.0, max_value=50.0)),
                snr=draw(st.floats(min_value=1.0, max_value=100.0)),
                time_sample=draw(st.integers(min_value=0, max_value=5000)),
                width=draw(st.integers(min_value=1, max_value=64)),
            )
        )
    return out


class TestSiftProperties:
    @settings(max_examples=50, deadline=None)
    @given(candidates=candidate_lists(),
           dm_radius=st.floats(min_value=0.0, max_value=10.0),
           slack=st.integers(min_value=0, max_value=64))
    def test_partition(self, candidates, dm_radius, slack):
        clusters = sift(candidates, dm_radius=dm_radius, time_slack=slack)
        members = [m for c in clusters for m in c.members]
        # Every candidate lands in exactly one cluster.
        assert len(members) == len(candidates)
        # Each cluster's best is its strongest member.
        for cluster in clusters:
            assert cluster.best.snr == max(m.snr for m in cluster.members)
        # Clusters come back sorted by best S/N.
        snrs = [c.best.snr for c in clusters]
        assert snrs == sorted(snrs, reverse=True)

    @settings(max_examples=30, deadline=None)
    @given(candidates=candidate_lists())
    def test_zero_radius_zero_slack_is_near_identity(self, candidates):
        clusters = sift(candidates, dm_radius=0.0, time_slack=0)
        # Only candidates at identical DM with touching extents can merge.
        for cluster in clusters:
            dms = {m.dm for m in cluster.members}
            assert len(dms) == 1


class TestBoxcarProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           n=st.integers(min_value=16, max_value=512),
           width=st.integers(min_value=1, max_value=16),
           shift=st.floats(min_value=-5.0, max_value=5.0))
    def test_snr_shift_invariant(self, seed, n, width, shift):
        assume(width <= n)
        series = np.random.default_rng(seed).normal(size=n)
        a = boxcar_snr(series, width)
        b = boxcar_snr(series + shift, width)
        np.testing.assert_allclose(a, b, atol=1e-6)


@st.composite
def plan_setups(draw):
    return ObservationSetup(
        name="prop-plan",
        channels=draw(st.integers(min_value=2, max_value=64)),
        lowest_frequency=draw(st.floats(min_value=50.0, max_value=1500.0)),
        channel_bandwidth=draw(st.floats(min_value=0.01, max_value=2.0)),
        samples_per_second=draw(st.integers(min_value=100, max_value=50_000)),
    )


class TestDDPlanProperties:
    @settings(max_examples=25, deadline=None)
    @given(setup=plan_setups(),
           max_dm=st.floats(min_value=1.0, max_value=500.0),
           tolerance=st.floats(min_value=1.05, max_value=2.0))
    def test_plan_invariants(self, setup, max_dm, tolerance):
        plan = build_ddplan(setup, max_dm=max_dm, tolerance=tolerance)
        assert plan.stages
        assert plan.stages[0].dm_low == 0.0
        assert plan.stages[-1].dm_high >= max_dm
        downs = [s.downsample for s in plan.stages]
        steps = [s.dm_step for s in plan.stages]
        assert downs == sorted(downs)
        assert steps == sorted(steps)
        assert all(s.n_dms >= 1 for s in plan.stages)
        # Stages are contiguous.
        for a, b in zip(plan.stages, plan.stages[1:]):
            assert abs(b.dm_low - a.dm_high) < 1e-9
