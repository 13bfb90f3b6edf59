"""Cross-beam coincidencing: the survey's strongest RFI veto.

Van Leeuwen's multi-beam argument: an astrophysical pulse enters the
telescope through the primary beam pattern, so it is seen in one beam or
a small *adjacent* neighbourhood; terrestrial interference arrives
through the sidelobes and is seen in *all* beams at once.  Grouping
per-beam sifted candidates that coincide in (DM, time) across beams
therefore separates the two populations without any spectral model:

* a group spanning most of the beams is **broadband** RFI — vetoed;
* a group confined to a small contiguous run of beams is **localized**
  — promoted (the strongest evidence the survey can produce);
* a **single-beam** group is kept but unpromoted (could be either);
* a **scattered** group (several non-adjacent beams, below the veto
  threshold) is kept — sidelobe detections of bright pulses land here.

Matching is member-level: two per-beam clusters coincide when *any*
member of one sits within ``trial_radius`` trials and ``time_slack``
samples of *any* member of the other.  The strongest member of a
cluster is not reliably the same pulse in every beam (noise moves the
peak), so best-vs-best matching would fracture real coincidences.
Each open group keeps its members' ``(dm_index, start, end)`` as int64
columns plus their bounding box: a cluster out of the box's reach skips
the group outright, otherwise one broadcast any-pair test decides.  The
result is exactly that of testing every member pair in turn.

:func:`score_survey` scores the result against the realized
:class:`~repro.survey.observation.SurveyTruth`: recall over the
injected signals (beam-aware — the matching cluster must come from a
beam that actually carried the signal) and the pre- vs post-coincidence
false-positive counts.  Keeping a group attributable when *any* member
cluster is attributable guarantees ``post_fp <= pre_fp`` by
construction: every false-positive group is built entirely from
clusters that were already false positives per beam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.astro.candidates import SiftedCandidate
from repro.errors import ValidationError
from repro.survey.observation import SurveyTruth
from repro.utils.validation import require_non_negative

#: The classifications a coincidence group can carry.
CLASSIFICATIONS = ("localized", "single_beam", "scattered", "broadband")


@dataclass(frozen=True)
class CoincidencePolicy:
    """How per-beam clusters group and which groups are vetoed.

    ``trial_radius`` / ``time_slack`` parameterise the member-level
    (DM, time) matching.  A group is vetoed as broadband when it spans
    at least ``max(min_veto_beams, ceil(veto_beam_fraction * n_beams))``
    distinct beams; it is promoted as localized when its beams form one
    contiguous run of 2..``max_signal_beams`` (a real source covers
    adjacent beams only).
    """

    trial_radius: int = 2
    time_slack: int = 32
    veto_beam_fraction: float = 0.7
    min_veto_beams: int = 3
    max_signal_beams: int = 4

    def __post_init__(self) -> None:
        require_non_negative(self.trial_radius, "trial_radius")
        require_non_negative(self.time_slack, "time_slack")
        if not 0.0 < self.veto_beam_fraction <= 1.0:
            raise ValidationError(
                "veto_beam_fraction must be in (0, 1]"
            )
        if self.min_veto_beams < 2:
            raise ValidationError("min_veto_beams must be >= 2")
        if self.max_signal_beams < 1:
            raise ValidationError("max_signal_beams must be >= 1")

    def veto_threshold(self, n_beams: int) -> int:
        """Distinct beams at which a group is broadband for ``n_beams``."""
        by_fraction = math.ceil(self.veto_beam_fraction * n_beams - 1e-9)
        return max(self.min_veto_beams, by_fraction)


@dataclass(frozen=True)
class CoincidenceGroup:
    """Per-beam clusters judged to be one physical (or RFI) event."""

    members: tuple[SiftedCandidate, ...]
    classification: str

    def __post_init__(self) -> None:
        if not self.members:
            raise ValidationError("a coincidence group needs members")
        if self.classification not in CLASSIFICATIONS:
            raise ValidationError(
                f"unknown classification {self.classification!r}; "
                f"expected one of {', '.join(CLASSIFICATIONS)}"
            )

    @property
    def beams(self) -> tuple[int, ...]:
        """Distinct beams contributing, ascending."""
        return tuple(sorted({m.best.beam for m in self.members}))

    @property
    def n_beams(self) -> int:
        return len(self.beams)

    @property
    def best(self):
        """The strongest candidate across every contributing beam."""
        return max((m.best for m in self.members), key=lambda c: c.snr)

    @property
    def vetoed(self) -> bool:
        return self.classification == "broadband"

    @property
    def promoted(self) -> bool:
        return self.classification == "localized"


@dataclass(frozen=True)
class CoincidenceResult:
    """Every group of one cross-beam coincidence pass."""

    groups: tuple[CoincidenceGroup, ...]
    n_beams: int

    @property
    def kept(self) -> tuple[CoincidenceGroup, ...]:
        return tuple(g for g in self.groups if not g.vetoed)

    @property
    def vetoed(self) -> tuple[CoincidenceGroup, ...]:
        return tuple(g for g in self.groups if g.vetoed)

    @property
    def promoted(self) -> tuple[CoincidenceGroup, ...]:
        return tuple(g for g in self.groups if g.promoted)


def _contiguous(beams: tuple[int, ...]) -> bool:
    return beams[-1] - beams[0] == len(beams) - 1


class _Extents:
    """Members' int64 ``(dm_index, start, end)`` columns and their box.

    ``low`` / ``high`` bound the three columns, so two member sets that
    no pair can bridge are told apart without touching the arrays.
    """

    def __init__(self, columns: np.ndarray):
        self.columns = columns
        if columns.shape[1]:
            self.low = columns.min(axis=1).tolist()
            self.high = columns.max(axis=1).tolist()
        else:  # no members: nothing is within reach
            self.low, self.high = [math.inf] * 3, [-math.inf] * 3

    @classmethod
    def of(cls, cluster: SiftedCandidate) -> "_Extents":
        rows = [
            (m.dm_index, m.time_sample, m.time_sample + m.width)
            for m in cluster.members
        ]
        return cls(np.array(rows, dtype=np.int64).reshape(-1, 3).T)

    def meets(self, other: "_Extents", policy: CoincidencePolicy) -> bool:
        """Whether any member pair coincides under ``policy``.

        Exactly the pairwise member-level test: two members coincide
        when their trials differ by at most ``trial_radius`` and their
        boxcar extents intersect within ``time_slack`` samples.
        """
        radius, slack = policy.trial_radius, policy.time_slack
        if (
            self.low[0] - other.high[0] > radius
            or other.low[0] - self.high[0] > radius
            or self.low[1] > other.high[2] + slack
            or other.low[1] > self.high[2] + slack
        ):
            return False
        dm, start, end = self.columns[:, :, None]
        o_dm, o_start, o_end = other.columns
        near = np.abs(dm - o_dm) <= radius
        near &= start <= o_end + slack
        near &= o_start <= end + slack
        return bool(near.any())

    def union(self, other: "_Extents") -> "_Extents":
        """Both member sets together."""
        return _Extents(np.concatenate((self.columns, other.columns), axis=1))


def _classify(
    beams: tuple[int, ...], n_beams: int, policy: CoincidencePolicy
) -> str:
    if len(beams) >= policy.veto_threshold(n_beams) and len(beams) >= 2:
        return "broadband"
    if len(beams) == 1:
        return "single_beam"
    if _contiguous(beams) and len(beams) <= policy.max_signal_beams:
        return "localized"
    return "scattered"


def coincide(
    clusters,
    n_beams: int,
    policy: CoincidencePolicy | None = None,
) -> CoincidenceResult:
    """Group per-beam sifted clusters across beams and classify each group.

    ``clusters`` is every beam's accepted
    :class:`~repro.astro.candidates.SiftedCandidate` pooled together
    (each carries its beam on its candidates).  Grouping is greedy in
    descending best-S/N order: a cluster joins the first existing group
    it coincides with (member-level), else seeds a new group.
    """
    if n_beams < 1:
        raise ValidationError("n_beams must be >= 1")
    policy = policy or CoincidencePolicy()
    ordered = sorted(clusters, key=lambda c: -c.best.snr)
    grouped: list[list[SiftedCandidate]] = []
    reaches: list[_Extents] = []
    for cluster in ordered:
        extents = _Extents.of(cluster)
        for index, reach in enumerate(reaches):
            if extents.meets(reach, policy):
                grouped[index].append(cluster)
                reaches[index] = reach.union(extents)
                break
        else:
            grouped.append([cluster])
            reaches.append(extents)
    groups = tuple(
        CoincidenceGroup(
            members=tuple(group),
            classification=_classify(
                tuple(sorted({m.best.beam for m in group})),
                n_beams,
                policy,
            ),
        )
        for group in grouped
    )
    return CoincidenceResult(groups=groups, n_beams=n_beams)


# ----------------------------------------------------------------------
# Truth scoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SurveyScore:
    """Recall and pre-/post-coincidence false positives of one survey."""

    recall: float
    n_expected: int
    n_matched: int
    pre_clusters: int
    pre_false_positives: int
    post_groups: int
    post_false_positives: int
    n_vetoed: int
    n_promoted: int

    @property
    def fp_reduced(self) -> bool:
        """Whether coincidencing did not add false positives."""
        return self.post_false_positives <= self.pre_false_positives

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "recall": float(self.recall),
            "n_expected": int(self.n_expected),
            "n_matched": int(self.n_matched),
            "pre_clusters": int(self.pre_clusters),
            "pre_false_positives": int(self.pre_false_positives),
            "post_groups": int(self.post_groups),
            "post_false_positives": int(self.post_false_positives),
            "n_vetoed": int(self.n_vetoed),
            "n_promoted": int(self.n_promoted),
        }


def _attributable(cluster: SiftedCandidate, truth: SurveyTruth) -> bool:
    """Whether one per-beam cluster is explained by any injected signal."""
    return any(
        e.expected.matches_cluster(cluster) or e.expected.attributable(cluster)
        for e in truth.expectations
    )


def score_survey(
    truth: SurveyTruth,
    per_beam_clusters,
    result: CoincidenceResult,
) -> SurveyScore:
    """Score a coincidence pass against the realized survey truth.

    ``per_beam_clusters`` is the same pooled cluster list the
    coincidence pass consumed — the *pre*-coincidence population whose
    false positives the veto must not exceed.
    """
    clusters = list(per_beam_clusters)
    matched = sum(
        1
        for e in truth.expectations
        if any(
            e.expected.matches_cluster(m) and m.best.beam in e.beams
            for g in result.kept
            for m in g.members
        )
    )
    pre_fp = sum(1 for c in clusters if not _attributable(c, truth))
    post_fp = sum(
        1
        for g in result.kept
        if not any(_attributable(m, truth) for m in g.members)
    )
    n = len(truth.expectations)
    return SurveyScore(
        recall=matched / n if n else 1.0,
        n_expected=n,
        n_matched=matched,
        pre_clusters=len(clusters),
        pre_false_positives=pre_fp,
        post_groups=len(result.kept),
        post_false_positives=post_fp,
        n_vetoed=len(result.vetoed),
        n_promoted=len(result.promoted),
    )
