"""Unit tests for repro.survey.coincidence — the cross-beam veto."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.astro.candidates import Candidate, SiftedCandidate
from repro.errors import ValidationError
from repro.survey import (
    CoincidenceGroup,
    CoincidencePolicy,
    CoincidenceResult,
    SurveyScore,
    coincide,
    score_survey,
)
from repro.survey.coincidence import _classify
from repro.survey.observation import SurveyTruth


def cluster(beam, dm_index=5, t=100, snr=10.0, width=4, extra=()):
    best = Candidate(
        dm_index=dm_index, dm=float(dm_index), snr=snr,
        time_sample=t, width=width, beam=beam,
    )
    return SiftedCandidate(best=best, members=(best, *extra))


class TestPolicy:
    def test_defaults_are_valid(self):
        CoincidencePolicy()

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValidationError, match="veto_beam_fraction"):
            CoincidencePolicy(veto_beam_fraction=0.0)

    def test_rejects_min_veto_below_two(self):
        with pytest.raises(ValidationError, match="min_veto_beams"):
            CoincidencePolicy(min_veto_beams=1)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValidationError, match="trial_radius"):
            CoincidencePolicy(trial_radius=-1)

    def test_veto_threshold_takes_the_larger_of_floor_and_fraction(self):
        policy = CoincidencePolicy()  # fraction 0.7, floor 3
        assert policy.veto_threshold(8) == 6
        assert policy.veto_threshold(4) == 3  # floor wins at small counts
        assert policy.veto_threshold(2) == 3

    def test_veto_threshold_fraction_one_means_all_beams(self):
        policy = CoincidencePolicy(veto_beam_fraction=1.0)
        assert policy.veto_threshold(10) == 10


class TestClassification:
    def test_all_beam_hit_is_vetoed_as_broadband(self):
        result = coincide([cluster(b) for b in range(8)], n_beams=8)
        assert len(result.groups) == 1
        group = result.groups[0]
        assert group.classification == "broadband"
        assert group.vetoed
        assert result.kept == ()

    def test_adjacent_beam_hit_is_promoted_as_localized(self):
        result = coincide([cluster(b) for b in (3, 4, 5)], n_beams=8)
        (group,) = result.groups
        assert group.classification == "localized"
        assert group.promoted
        assert group.beams == (3, 4, 5)
        assert result.promoted == (group,)

    def test_lone_cluster_is_single_beam(self):
        result = coincide([cluster(2)], n_beams=8)
        assert result.groups[0].classification == "single_beam"
        assert not result.groups[0].vetoed

    def test_non_contiguous_below_threshold_is_scattered(self):
        result = coincide([cluster(b) for b in (0, 2, 5)], n_beams=8)
        (group,) = result.groups
        assert group.classification == "scattered"
        assert not group.vetoed

    def test_contiguous_run_wider_than_signal_limit_is_scattered(self):
        policy = CoincidencePolicy(max_signal_beams=2, min_veto_beams=6)
        result = coincide(
            [cluster(b) for b in (3, 4, 5)], n_beams=8, policy=policy
        )
        assert result.groups[0].classification == "scattered"

    def test_group_best_is_strongest_across_beams(self):
        result = coincide(
            [cluster(3, snr=9.0), cluster(4, snr=14.0)], n_beams=8
        )
        assert result.groups[0].best.snr == 14.0
        assert result.groups[0].best.beam == 4


class TestMatching:
    def test_member_level_matching_joins_offset_bests(self):
        # The bests are far apart in (DM, time); a weak member of the
        # first cluster sits on the second's best.  Best-vs-best would
        # split them, member-level matching must not.
        far = Candidate(
            dm_index=5, dm=5.0, snr=6.5, time_sample=500, width=4, beam=0
        )
        a = cluster(0, dm_index=1, t=100, snr=12.0, extra=(far,))
        b = cluster(1, dm_index=5, t=500, snr=9.0)
        result = coincide([a, b], n_beams=8)
        assert len(result.groups) == 1

    def test_separated_clusters_stay_separate(self):
        a = cluster(0, dm_index=1, t=100)
        b = cluster(1, dm_index=9, t=4000)
        result = coincide([a, b], n_beams=8)
        assert len(result.groups) == 2

    def test_time_slack_bounds_the_match(self):
        policy = CoincidencePolicy(time_slack=8)
        a = cluster(0, t=100, width=4)
        near = cluster(1, t=110, width=4)    # gap 6 <= slack
        far = cluster(2, t=200, width=4)     # gap 96 > slack
        result = coincide([a, near, far], n_beams=8, policy=policy)
        assert sorted(len(g.members) for g in result.groups) == [1, 2]

    def test_same_beam_duplicates_count_one_beam(self):
        result = coincide([cluster(3), cluster(3, snr=8.0)], n_beams=8)
        (group,) = result.groups
        assert group.n_beams == 1
        assert group.classification == "single_beam"

    def test_rejects_non_positive_n_beams(self):
        with pytest.raises(ValidationError, match="n_beams"):
            coincide([], n_beams=0)

    def test_empty_input_yields_no_groups(self):
        result = coincide([], n_beams=8)
        assert result.groups == ()


def pairwise_coincide(clusters, n_beams, policy=None):
    """Oracle: greedy grouping that tests every member pair in turn."""
    policy = policy or CoincidencePolicy()

    def clusters_match(a, b):
        return any(
            abs(ma.dm_index - mb.dm_index) <= policy.trial_radius
            and ma.overlaps_in_time(mb, slack=policy.time_slack)
            for ma in a.members
            for mb in b.members
        )

    grouped = []
    for c in sorted(clusters, key=lambda c: -c.best.snr):
        for group in grouped:
            if any(clusters_match(c, member) for member in group):
                group.append(c)
                break
        else:
            grouped.append([c])
    return CoincidenceResult(
        groups=tuple(
            CoincidenceGroup(
                members=tuple(group),
                classification=_classify(
                    tuple(sorted({m.best.beam for m in group})),
                    n_beams,
                    policy,
                ),
            )
            for group in grouped
        ),
        n_beams=n_beams,
    )


@st.composite
def cluster_sets(draw):
    """Pooled per-beam clusters on a small (DM, time) field.

    S/N comes from a short list so ties are common: the stable sort
    then decides the greedy order, and both sides must agree on it.
    """
    n_beams = draw(st.integers(min_value=1, max_value=8))
    clusters = []
    for _ in range(draw(st.integers(min_value=0, max_value=24))):
        beam = draw(st.integers(min_value=0, max_value=n_beams - 1))
        members = [
            Candidate(
                dm_index=draw(st.integers(min_value=0, max_value=15)),
                dm=0.0,
                snr=draw(st.sampled_from((6.0, 7.5, 9.0, 12.0))),
                time_sample=draw(st.integers(min_value=0, max_value=400)),
                width=draw(st.sampled_from((1, 2, 4, 8, 16))),
                beam=beam,
            )
            for _ in range(draw(st.integers(min_value=1, max_value=6)))
        ]
        best = max(members, key=lambda m: m.snr)
        clusters.append(SiftedCandidate(best=best, members=tuple(members)))
    return clusters, n_beams


class TestIndexedMatchesPairwiseOracle:
    @settings(max_examples=100, deadline=None)
    @given(
        drawn=cluster_sets(),
        trial_radius=st.integers(min_value=0, max_value=3),
        time_slack=st.sampled_from((0, 4, 32)),
    )
    def test_equal_results_on_random_cluster_sets(
        self, drawn, trial_radius, time_slack
    ):
        clusters, n_beams = drawn
        policy = CoincidencePolicy(
            trial_radius=trial_radius, time_slack=time_slack
        )
        assert coincide(clusters, n_beams, policy) == pairwise_coincide(
            clusters, n_beams, policy
        )

    def test_snr_ties_keep_input_order(self):
        # Equal best S/N: the stable sort keeps input order, so whichever
        # of a / b comes first seeds the group the bridge joins.
        def weak(dm_index):
            return Candidate(
                dm_index=dm_index, dm=float(dm_index), snr=6.0,
                time_sample=0, width=4, beam=2,
            )

        a = cluster(0, dm_index=0, t=0, snr=8.0)
        b = cluster(1, dm_index=9, t=0, snr=8.0)
        bridge = cluster(
            2, dm_index=4, t=0, snr=8.0, extra=(weak(1), weak(8))
        )
        for order, beams in (
            ([a, b, bridge], [(0, 2), (1,)]),
            ([b, a, bridge], [(1, 2), (0,)]),
            ([bridge, a, b], [(0, 1, 2)]),
        ):
            result = coincide(order, n_beams=8)
            assert result == pairwise_coincide(order, n_beams=8)
            assert [g.beams for g in result.groups] == beams

    def test_zero_radius_and_slack_need_touching_extents(self):
        policy = CoincidencePolicy(trial_radius=0, time_slack=0)
        a = cluster(0, dm_index=3, t=100, width=4)         # [100, 104]
        touching = cluster(1, dm_index=3, t=104, width=4)  # [104, 108]
        next_trial = cluster(2, dm_index=4, t=100, width=4)
        # Clear of a, but touches `touching`: joins through it.
        chained = cluster(3, dm_index=3, t=105, width=4)
        clusters = [a, touching, next_trial, chained]
        result = coincide(clusters, n_beams=8, policy=policy)
        assert result == pairwise_coincide(clusters, 8, policy)
        assert [g.beams for g in result.groups] == [(0, 1, 3), (2,)]

    def test_member_less_cluster_stays_alone(self):
        empty = SiftedCandidate(best=cluster(1).best, members=())
        clusters = [cluster(0), empty, cluster(2, snr=9.0)]
        result = coincide(clusters, n_beams=8)
        assert result == pairwise_coincide(clusters, 8)
        assert [g.beams for g in result.groups] == [(0, 2), (1,)]


class TestGroupValidation:
    def test_group_needs_members(self):
        with pytest.raises(ValidationError, match="members"):
            CoincidenceGroup(members=(), classification="localized")

    def test_group_rejects_unknown_classification(self):
        with pytest.raises(ValidationError, match="classification"):
            CoincidenceGroup(
                members=(cluster(0),), classification="suspicious"
            )


class TestScoring:
    def test_unattributable_kept_groups_are_post_fps(self):
        truth = SurveyTruth(n_beams=8, expectations=())
        clusters = [cluster(b) for b in (0, 2, 5)]  # scattered, kept
        result = coincide(clusters, n_beams=8)
        score = score_survey(truth, clusters, result)
        assert score.recall == 1.0  # nothing expected
        assert score.pre_false_positives == 3
        assert score.post_false_positives == 1  # one kept group
        assert score.fp_reduced

    def test_vetoed_groups_leave_no_post_fps(self):
        truth = SurveyTruth(n_beams=8, expectations=())
        clusters = [cluster(b) for b in range(8)]
        result = coincide(clusters, n_beams=8)
        score = score_survey(truth, clusters, result)
        assert score.pre_false_positives == 8
        assert score.post_false_positives == 0
        assert score.n_vetoed == 1

    def test_fp_reduced_is_monotone_check(self):
        score = SurveyScore(
            recall=1.0, n_expected=1, n_matched=1, pre_clusters=5,
            pre_false_positives=2, post_groups=4, post_false_positives=3,
            n_vetoed=0, n_promoted=0,
        )
        assert not score.fp_reduced

    def test_as_dict_round_trips_plain_types(self):
        score = SurveyScore(
            recall=0.5, n_expected=2, n_matched=1, pre_clusters=4,
            pre_false_positives=1, post_groups=3, post_false_positives=1,
            n_vetoed=1, n_promoted=1,
        )
        doc = score.as_dict()
        assert doc["recall"] == 0.5
        assert all(
            isinstance(v, (int, float)) for v in doc.values()
        )
