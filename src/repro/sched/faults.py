"""Fault injection: the failure model the scheduler must survive.

Real-time survey backends lose nodes and suffer per-node throughput
variance as routine events (Sclocco et al. 2016, Magro et al. 2011), so
the execution engine is exercised under a seeded, reproducible fault
model with three ingredients:

* **crashes** — a device dies permanently at a drawn time; its queued
  and running work must be re-packed onto survivors;
* **transient errors** — an attempt fails partway with some probability
  and is retried with exponential backoff;
* **stragglers** — a device runs slower by a constant factor, the case
  work stealing exists for.

Every draw comes from :class:`repro.utils.rng.RandomStreams` (never the
bare :mod:`random` module — enforced by a unit test), and per-attempt
draws are *order-independent*: whether attempt 2 of shard X fails is a
pure function of ``(seed, worker, shard, attempt)``, so the ledger is
identical across scheduler implementations with different event orders.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SchedulerError
from repro.utils.rng import RandomStreams
from repro.utils.validation import require_in_range, require_non_negative


@dataclass(frozen=True)
class FaultProfile:
    """What goes wrong during a run, statistically.

    ``crashes`` devices die at ``crash_fraction`` of the fault-free
    makespan estimate; ``stragglers`` devices run ``slowdown`` times
    slower; every attempt fails with probability ``transient_rate``.
    """

    crashes: int = 0
    crash_fraction: float = 0.35
    transient_rate: float = 0.0
    stragglers: int = 0
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        require_non_negative(self.crashes, "crashes")
        require_non_negative(self.stragglers, "stragglers")
        require_in_range(self.crash_fraction, 0.0, 1.0, "crash_fraction")
        require_in_range(self.transient_rate, 0.0, 1.0, "transient_rate")
        if self.slowdown < 1.0:
            raise SchedulerError(
                f"slowdown must be >= 1 (a factor), got {self.slowdown}"
            )

    @property
    def is_benign(self) -> bool:
        """True when the profile injects nothing."""
        return (
            self.crashes == 0
            and self.stragglers == 0
            and self.transient_rate == 0.0
            and self.slowdown == 1.0
        )

    @classmethod
    def none(cls) -> "FaultProfile":
        """The fault-free profile."""
        return cls()

    @classmethod
    def default_injection(cls) -> "FaultProfile":
        """The ``repro survey --inject`` scenario: one crash, one 4x
        straggler, a 5% transient error rate."""
        return cls(
            crashes=1, crash_fraction=0.35,
            transient_rate=0.05, stragglers=1, slowdown=4.0,
        )


class FaultInjector:
    """Concrete, seeded fault assignments for one run.

    Crash victims and stragglers are drawn once from named child streams
    of the run's :class:`RandomStreams`; transient failures are queried
    per attempt through order-independent draws.
    """

    def __init__(
        self,
        profile: FaultProfile,
        streams: RandomStreams,
        worker_ids: tuple[str, ...],
        horizon_s: float,
    ):
        if len(set(worker_ids)) != len(worker_ids):
            raise SchedulerError("worker ids must be unique")
        if profile.crashes > len(worker_ids):
            raise SchedulerError(
                f"cannot crash {profile.crashes} of {len(worker_ids)} workers"
            )
        require_non_negative(horizon_s, "horizon_s")
        self.profile = profile
        self._streams = streams
        ordered = tuple(sorted(worker_ids))

        crash_rng = streams.numpy("faults.crash")
        victims = (
            tuple(
                sorted(
                    crash_rng.choice(
                        len(ordered), size=profile.crashes, replace=False
                    ).tolist()
                )
            )
            if profile.crashes
            else ()
        )
        self.crash_times: dict[str, float] = {
            ordered[i]: horizon_s * profile.crash_fraction for i in victims
        }

        # Stragglers are drawn among the survivors when possible, so a
        # tiny fleet does not waste its slowdown on a machine that dies.
        survivors = [
            i for i in range(len(ordered)) if ordered[i] not in self.crash_times
        ]
        pool = survivors if len(survivors) >= profile.stragglers else list(
            range(len(ordered))
        )
        straggle_rng = streams.numpy("faults.straggle")
        chosen = (
            tuple(
                sorted(
                    straggle_rng.choice(
                        len(pool), size=min(profile.stragglers, len(pool)),
                        replace=False,
                    ).tolist()
                )
            )
            if profile.stragglers
            else ()
        )
        self.slowdowns: dict[str, float] = {
            ordered[pool[i]]: profile.slowdown for i in chosen
        }

    def crash_time(self, worker_id: str) -> float | None:
        """When ``worker_id`` dies, or ``None`` if it survives the run."""
        return self.crash_times.get(worker_id)

    def slowdown_for(self, worker_id: str) -> float:
        """The service-time multiplier of ``worker_id`` (1.0 = nominal)."""
        return self.slowdowns.get(worker_id, 1.0)

    def transient_fails(self, worker_id: str, shard_id: str, attempt: int) -> bool:
        """Whether this attempt suffers a transient error.

        Order-independent: a pure function of (seed, worker, shard,
        attempt), insensitive to how many other faults were queried.
        """
        if self.profile.transient_rate <= 0.0:
            return False
        draw = self._streams.uniform("transient", worker_id, shard_id, attempt)
        return draw < self.profile.transient_rate

    def failure_point(self, worker_id: str, shard_id: str, attempt: int) -> float:
        """Fraction of the service time consumed before a transient error.

        Drawn order-independently in [0.1, 0.9): an attempt never fails
        instantaneously nor exactly at completion.
        """
        return self._streams.uniform_in(
            0.1, 0.9, "failure_point", worker_id, shard_id, attempt
        )
