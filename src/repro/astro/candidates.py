"""Candidates and sifting.

:class:`repro.search.detect.MatchedFilterDetector` reports each trial's
best super-threshold match as a :class:`Candidate`.  A bright pulse is
detected not only at its true DM but — weaker and wider — in a cone of
neighbouring trials and offsets (the "bow tie" of the DM-time plane).
Reporting every one would swamp any follow-up, so pipelines *sift*:
cluster detections that belong to the same physical event and keep each
cluster's strongest member.

The implementation is the standard greedy non-maximum suppression used by
single-pulse sifters (e.g. PRESTO's ``single_pulse_search`` grouping):
process detections in decreasing S/N; each one either joins an existing
cluster (close in DM *and* overlapping in time) or seeds a new cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_non_negative


@dataclass(frozen=True)
class Candidate:
    """One super-threshold detection in the DM-time plane.

    ``beam`` records which telescope beam the detection came from
    (default 0, the single-beam case), so multi-beam consumers — the
    cross-beam coincidence stage of :mod:`repro.survey`, notably — never
    re-derive provenance downstream.
    """

    dm_index: int
    dm: float
    snr: float
    time_sample: int
    width: int
    beam: int = 0

    def overlaps_in_time(self, other: "Candidate", slack: int = 0) -> bool:
        """Whether the two boxcar extents intersect (within ``slack``)."""
        a_lo, a_hi = self.time_sample, self.time_sample + self.width
        b_lo, b_hi = other.time_sample, other.time_sample + other.width
        return a_lo <= b_hi + slack and b_lo <= a_hi + slack


@dataclass(frozen=True)
class SiftedCandidate:
    """A cluster of detections reduced to its strongest member."""

    best: Candidate
    members: tuple[Candidate, ...]

    @property
    def n_members(self) -> int:
        """Cluster size (how many raw detections merged)."""
        return len(self.members)

    @property
    def dm_extent(self) -> float:
        """DM range the cluster spans — wide extents suggest RFI."""
        dms = [member.dm for member in self.members]
        return max(dms) - min(dms)


def sift(
    candidates: list[Candidate],
    dm_radius: float = 2.0,
    time_slack: int = 8,
) -> list[SiftedCandidate]:
    """Cluster raw detections into physical events.

    ``dm_radius`` is the DM distance (pc/cm^3) within which detections are
    considered the same event; ``time_slack`` the allowed gap (samples)
    between their boxcar extents.  Candidates from different beams never
    merge — a per-beam cluster is the unit the cross-beam coincidence
    stage consumes.  Returns clusters sorted by their best member's S/N,
    descending.
    """
    require_non_negative(dm_radius, "dm_radius")
    require_non_negative(time_slack, "time_slack")
    ordered = sorted(candidates, key=lambda c: -c.snr)
    clusters: list[list[Candidate]] = []
    for candidate in ordered:
        for cluster in clusters:
            anchor = cluster[0]  # the strongest member seeds the cluster
            if (
                candidate.beam == anchor.beam
                and abs(candidate.dm - anchor.dm) <= dm_radius
                and candidate.overlaps_in_time(anchor, slack=time_slack)
            ):
                cluster.append(candidate)
                break
        else:
            clusters.append([candidate])
    return [
        SiftedCandidate(best=cluster[0], members=tuple(cluster))
        for cluster in clusters
    ]

