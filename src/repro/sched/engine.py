"""The fault-tolerant sharded execution engine.

A deterministic, seedable discrete-event simulation that takes a device
inventory (or a :class:`~repro.pipeline.fleet.FleetPlan`) plus a survey
and runs every shard to completion under injected failure:

* **dispatch** is locality-aware (each beam's shards start on one home
  worker, chosen least-loaded by modelled seconds) with **work
  stealing**: an idle worker takes half the backlog of the most loaded
  survivor, which is what bounds stragglers;
* **faults** follow a seeded :class:`~repro.sched.faults.FaultProfile`
  — crashes blacklist the device and re-pack its orphaned shards onto
  survivors (graceful degradation), transient errors retry with
  exponential backoff under a bounded attempt budget;
* every attempt lands in a checkpointable
  :class:`~repro.sched.ledger.RunLedger`, so reruns with the same seed
  are byte-identical and interrupted runs resume;
* the whole run is instrumented through :mod:`repro.obs`
  (``repro_sched_*`` counters/gauges/histograms, spans per shard).

Virtual time: the engine advances a simulated clock driven by the
hardware model's service times, so a fleet-scale run costs milliseconds
of wall clock while producing faithful makespan/throughput numbers.  It
schedules shards but never dedisperses them; numeric work runs through
:func:`repro.run.execute`, one beam per launch.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.astro.dm_trials import DMTrialGrid
from repro.astro.observation import ObservationSetup
from repro.errors import SchedulerError, ShardError
from repro.obs import get_registry, span
from repro.sched.faults import FaultInjector, FaultProfile
from repro.sched.ledger import Attempt, RunLedger
from repro.sched.shard import Shard, shard_survey
from repro.sched.workers import ServiceTimeModel, Worker, WorkerStats
from repro.utils.rng import RandomStreams
from repro.utils.validation import require_positive, require_positive_int


def _slug(name: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in name.lower())


@dataclass(frozen=True)
class RunReport:
    """Everything a run produced, besides the ledger's attempt detail."""

    setup_name: str
    n_dms: int
    n_beams: int
    duration_s: float
    seed: int
    shards_total: int
    shards_done: int
    shards_failed: int
    shards_resumed: int
    attempts: int
    retries: int
    steals: int
    requeues: int
    crashed_workers: tuple[str, ...]
    makespan_s: float
    worker_stats: tuple[WorkerStats, ...]
    ledger: RunLedger = field(repr=False, compare=False)

    @property
    def complete(self) -> bool:
        """Every shard of the run finished successfully."""
        return self.shards_failed == 0 and (
            self.shards_done + self.shards_resumed == self.shards_total
        )

    @property
    def degraded(self) -> bool:
        """The run lost at least one device."""
        return bool(self.crashed_workers)

    @property
    def realtime_sustained(self) -> bool:
        """Whether the fleet kept up with the telescope.

        All beams stream in parallel, so ``duration_s`` seconds of sky
        must be processed within ``duration_s`` seconds of (virtual)
        computation — the Sec. V-D real-time constraint at fleet scale.
        """
        return self.complete and self.makespan_s <= self.duration_s

    @property
    def realtime_margin(self) -> float:
        """duration / makespan; > 1 means real time with headroom."""
        return self.duration_s / self.makespan_s if self.makespan_s else 0.0

    @property
    def data_seconds(self) -> float:
        """Beam-seconds of sky processed."""
        return self.n_beams * self.duration_s

    @property
    def throughput(self) -> float:
        """Beam-seconds of sky processed per second of computation."""
        return self.data_seconds / self.makespan_s if self.makespan_s else 0.0

    def summary(self) -> str:
        """Human-readable run report."""
        lines = [
            f"sched run: {self.setup_name}, {self.n_dms} DMs x "
            f"{self.n_beams} beams x {self.duration_s:g} s (seed {self.seed})",
            f"  shards : {self.shards_done}/{self.shards_total} done"
            + (f" ({self.shards_resumed} resumed)" if self.shards_resumed else "")
            + (f", {self.shards_failed} FAILED" if self.shards_failed else ""),
            f"  faults : {len(self.crashed_workers)} crash(es), "
            f"{self.retries} retries, {self.requeues} requeues, "
            f"{self.steals} steals",
            f"  makespan {self.makespan_s:.3f} s, throughput "
            f"{self.throughput:.2f} beam-seconds/s",
            f"  real time {'SUSTAINED' if self.realtime_sustained else 'NOT sustained'}"
            + (" after degradation" if self.degraded else ""),
        ]
        for stats in self.worker_stats:
            lines.append(f"    {stats.describe()}")
        return "\n".join(lines)


class ExecutionEngine:
    """Runs a sharded survey over simulated workers, under faults.

    Parameters
    ----------
    inventory:
        ``(device_spec, units, memory_bytes)`` triples — use
        :meth:`from_inventory` / :meth:`from_plan` to build them from
        the fleet-planner types.
    setup / grid / n_beams / duration_s:
        The survey: every beam contributes ``duration_s`` seconds of
        data on ``grid``.
    seed:
        Root seed of every stochastic choice (fault draws); two runs
        with equal seeds produce byte-identical ledgers.
    faults:
        The :class:`FaultProfile` to inject (default: none).
    service:
        A :class:`~repro.service.TuningService` supplying tuned
        configurations; one is created (and closed) internally if
        omitted.
    steal:
        Enable work stealing (disable to measure its benefit).
    max_attempts:
        Attempt budget per shard before it is marked failed.
    backoff_base_s / backoff_factor:
        Exponential backoff for transient retries (virtual seconds).
    max_dms_per_shard:
        Optional cap on the DM chunk (testing / finer load balancing).
    resume_from:
        A prior :class:`RunLedger`; its completed shards are skipped and
        carried into this run's ledger verbatim.
    """

    def __init__(
        self,
        inventory,
        setup: ObservationSetup,
        grid: DMTrialGrid,
        n_beams: int,
        duration_s: float = 1.0,
        *,
        seed: int = 0,
        faults: FaultProfile | None = None,
        service=None,
        steal: bool = True,
        max_attempts: int = 5,
        backoff_base_s: float = 0.02,
        backoff_factor: float = 2.0,
        max_dms_per_shard: int | None = None,
        resume_from: RunLedger | None = None,
    ):
        require_positive_int(n_beams, "n_beams")
        require_positive(duration_s, "duration_s")
        require_positive_int(max_attempts, "max_attempts")
        require_positive(backoff_base_s, "backoff_base_s")
        if backoff_factor < 1.0:
            raise SchedulerError(
                f"backoff_factor must be >= 1, got {backoff_factor}"
            )
        if not inventory:
            raise SchedulerError("engine inventory is empty")
        self.setup = setup
        self.grid = grid
        self.n_beams = n_beams
        self.duration_s = duration_s
        self.seed = seed
        self.faults = faults or FaultProfile.none()
        self.steal = steal
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.streams = RandomStreams(seed)
        self.model = ServiceTimeModel(setup, grid, service=service)
        self._owns_service = service is None
        self._resume_from = resume_from

        self.workers: dict[str, Worker] = {}
        min_memory = None
        for device, units, memory_bytes in inventory:
            require_positive_int(units, "units")
            require_positive_int(memory_bytes, "memory_bytes")
            min_memory = (
                memory_bytes if min_memory is None
                else min(min_memory, memory_bytes)
            )
            for index in range(units):
                worker_id = f"{_slug(device.name)}/{index}"
                if worker_id in self.workers:
                    raise SchedulerError(
                        f"duplicate device type {device.name!r} in inventory"
                    )
                self.workers[worker_id] = Worker(
                    worker_id=worker_id, device=device
                )
        self.shards = shard_survey(
            setup,
            grid,
            n_beams,
            duration_s,
            memory_bytes=min_memory,
            max_dms_per_shard=max_dms_per_shard,
        )

    # ------------------------------------------------------------------
    # Constructors from the fleet-planner types
    # ------------------------------------------------------------------
    @classmethod
    def from_inventory(
        cls, fleet_devices, setup, grid, n_beams, duration_s=1.0, **kwargs
    ) -> "ExecutionEngine":
        """Engine over every unit of a ``list[FleetDevice]`` inventory."""
        inventory = [
            (entry.device, entry.available, entry.memory_bytes)
            for entry in fleet_devices
        ]
        return cls(inventory, setup, grid, n_beams, duration_s, **kwargs)

    @classmethod
    def from_plan(
        cls, plan, fleet_devices, setup, grid, duration_s=1.0, **kwargs
    ) -> "ExecutionEngine":
        """Engine over exactly the units a :class:`FleetPlan` selected.

        ``fleet_devices`` is the inventory the plan was computed from
        (it supplies the :class:`~repro.hardware.device.DeviceSpec` and
        memory size per device name).
        """
        by_name = {entry.device.name: entry for entry in fleet_devices}
        inventory = []
        for assignment in plan.assignments:
            entry = by_name.get(assignment.device_name)
            if entry is None:
                raise SchedulerError(
                    f"plan uses {assignment.device_name!r} which is not in "
                    f"the provided inventory"
                )
            inventory.append(
                (entry.device, assignment.units, entry.memory_bytes)
            )
        return cls(
            inventory, setup, grid, plan.n_beams, duration_s, **kwargs
        )

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def run(self, strict: bool = False) -> RunReport:
        """Execute every shard; returns the :class:`RunReport`.

        ``strict=True`` raises :class:`ShardError` if any shard exhausts
        its attempt budget instead of reporting it failed.
        """
        with span(
            "sched.run",
            setup=self.setup.name,
            n_dms=self.grid.n_dms,
            n_beams=self.n_beams,
            workers=len(self.workers),
        ) as run_span:
            report = self._run()
            run_span.attributes["makespan_s"] = round(report.makespan_s, 6)
            run_span.attributes["degraded"] = report.degraded
        self._record_metrics(report)
        if strict and report.shards_failed:
            raise ShardError(
                f"{report.shards_failed} shard(s) exhausted their "
                f"{self.max_attempts}-attempt budget"
            )
        return report

    def _run(self) -> RunReport:
        workers = self.workers
        worker_ids = tuple(sorted(workers))
        ledger = RunLedger(
            seed=self.seed,
            setup_name=self.setup.name,
            n_dms=self.grid.n_dms,
            n_beams=self.n_beams,
            duration_s=self.duration_s,
            profile=self.faults.as_dict(),
            workers=worker_ids,
        )

        # Resume: completed shards are carried over and never re-run.
        resumed_ids: set[str] = set()
        if self._resume_from is not None:
            resumed_ids = self._resume_from.completed_ids()
            for sid in sorted(resumed_ids):
                prior = self._resume_from.records[sid]
                record = ledger.register(prior.shard)
                record.state = prior.state
                record.attempts = list(prior.attempts)
        pending = [s for s in self.shards if s.shard_id not in resumed_ids]
        for shard in pending:
            ledger.register(shard)

        try:
            horizon = self._estimate_makespan(pending)
            injector = FaultInjector(
                self.faults, self.streams, worker_ids, horizon
            )
            for worker in workers.values():
                worker.slowdown = injector.slowdown_for(worker.worker_id)
                worker.crash_at = injector.crash_time(worker.worker_id)
            self._distribute(pending)

            counters = {"retries": 0, "steals": 0, "requeues": 0}
            done = failed = 0
            makespan = 0.0
            sequence = itertools.count()
            events: list[tuple[float, int, str, tuple]] = []

            def push(at: float, kind: str, payload: tuple) -> None:
                heapq.heappush(events, (at, next(sequence), kind, payload))

            def start_next(worker: Worker, now: float) -> None:
                """Dispatch the worker's next shard, stealing if empty."""
                if not worker.idle:
                    return
                shard = self._take_local(worker)
                if shard is None and self.steal:
                    shard = self._steal_for(worker, counters)
                if shard is None:
                    return
                sid = shard.shard_id
                attempt_no = len(ledger.records[sid].attempts) + 1
                nominal = self.model.seconds(worker.device, shard)
                service_s = nominal * worker.slowdown
                if injector.transient_fails(worker.worker_id, sid, attempt_no):
                    outcome = "transient"
                    service_s *= injector.failure_point(
                        worker.worker_id, sid, attempt_no
                    )
                else:
                    outcome = "ok"
                worker.running = shard
                worker.run_token += 1
                push(
                    now + service_s,
                    "finish",
                    (worker.worker_id, worker.run_token, shard, outcome, now),
                )

            def requeue(shard: Shard, at: float, backoff: bool) -> None:
                """Return a failed/orphaned shard to circulation."""
                counters["requeues"] += 1
                attempt_no = len(ledger.records[shard.shard_id].attempts)
                delay = (
                    self.backoff_base_s
                    * self.backoff_factor ** max(0, attempt_no - 1)
                    if backoff
                    else 0.0
                )
                push(at + delay, "ready", (shard,))

            for worker in workers.values():
                if worker.crash_at is not None:
                    push(worker.crash_at, "crash", (worker.worker_id,))
                start_next(worker, 0.0)

            while events and (done + failed) < len(pending):
                now, _, kind, payload = heapq.heappop(events)

                if kind == "finish":
                    worker_id, token, shard, outcome, started = payload
                    worker = workers[worker_id]
                    if not worker.alive or worker.run_token != token:
                        continue  # interrupted by a crash: stale event
                    with span(
                        "sched.shard",
                        shard=shard.shard_id,
                        worker=worker_id,
                        outcome=outcome,
                    ):
                        ledger.note_attempt(
                            shard,
                            Attempt(
                                worker=worker_id,
                                started_s=started,
                                finished_s=now,
                                outcome=outcome,
                            ),
                        )
                    worker.running = None
                    worker.busy_seconds += now - started
                    if outcome == "ok":
                        worker.shards_done += 1
                        done += 1
                        makespan = max(makespan, now)
                    else:
                        counters["retries"] += 1
                        record = ledger.records[shard.shard_id]
                        if len(record.attempts) >= self.max_attempts:
                            ledger.mark_failed(shard)
                            failed += 1
                        else:
                            requeue(shard, now, backoff=True)
                    start_next(worker, now)

                elif kind == "crash":
                    (worker_id,) = payload
                    worker = workers[worker_id]
                    if not worker.alive:
                        continue
                    worker.alive = False
                    worker.run_token += 1  # invalidate any in-flight finish
                    if worker.running is not None:
                        shard = worker.running
                        started = self._running_start(events, worker_id)
                        ledger.note_attempt(
                            shard,
                            Attempt(
                                worker=worker_id,
                                started_s=min(started, now),
                                finished_s=now,
                                outcome="crash",
                            ),
                        )
                        worker.busy_seconds += now - min(started, now)
                        worker.running = None
                        record = ledger.records[shard.shard_id]
                        if len(record.attempts) >= self.max_attempts:
                            ledger.mark_failed(shard)
                            failed += 1
                        else:
                            requeue(shard, now, backoff=False)
                    self._repack(worker, now)
                    if not any(w.alive for w in workers.values()):
                        raise SchedulerError(
                            "every worker crashed; "
                            f"{len(pending) - done} shard(s) stranded"
                        )
                    for survivor_id in sorted(workers):
                        start_next(workers[survivor_id], now)

                elif kind == "ready":
                    (shard,) = payload
                    target = self._least_loaded(now)
                    if target is None:
                        raise SchedulerError(
                            "no surviving worker to requeue "
                            f"shard {shard.shard_id}"
                        )
                    self._enqueue(target, shard)
                    start_next(target, now)

            if (done + failed) < len(pending):
                raise SchedulerError(
                    f"run stalled with {len(pending) - done - failed} "
                    "shard(s) unscheduled"
                )
        finally:
            if self._owns_service:
                self.model.close()

        crashed = tuple(
            wid for wid in worker_ids if not workers[wid].alive
        )
        stats = tuple(
            WorkerStats(
                worker_id=wid,
                device_name=workers[wid].device.name,
                shards_done=workers[wid].shards_done,
                busy_seconds=workers[wid].busy_seconds,
                slowdown=workers[wid].slowdown,
                crashed=not workers[wid].alive,
            )
            for wid in worker_ids
        )
        return RunReport(
            setup_name=self.setup.name,
            n_dms=self.grid.n_dms,
            n_beams=self.n_beams,
            duration_s=self.duration_s,
            seed=self.seed,
            shards_total=len(self.shards),
            shards_done=done,
            shards_failed=failed,
            shards_resumed=len(resumed_ids),
            attempts=ledger.attempts_total,
            retries=counters["retries"],
            steals=counters["steals"],
            requeues=counters["requeues"],
            crashed_workers=crashed,
            makespan_s=makespan,
            worker_stats=stats,
            ledger=ledger,
        )

    # ------------------------------------------------------------------
    # Dispatch helpers
    # ------------------------------------------------------------------
    def _estimate_makespan(self, pending: list[Shard]) -> float:
        """Fault-free makespan estimate (sizes the crash times)."""
        if not pending:
            return 0.0
        rate = sum(
            1.0 / self.model.seconds(w.device, pending[0])
            for w in self.workers.values()
        )
        return len(pending) / rate if rate else 0.0

    def _distribute(self, pending: list[Shard]) -> None:
        """Locality-aware initial placement: whole beams, least-loaded.

        Beams are assigned greedily to the worker whose modelled backlog
        grows least — heterogeneous fleets get proportionally more beams
        on faster devices, and a beam's shards stay together so the
        input stays resident on one device unless stealing intervenes.
        """
        by_beam: dict[int, list[Shard]] = {}
        for shard in pending:
            by_beam.setdefault(shard.beam, []).append(shard)
        workers = [self.workers[wid] for wid in sorted(self.workers)]
        loads = {w.worker_id: 0.0 for w in workers}
        for beam in sorted(by_beam):
            shards = by_beam[beam]
            best, best_finish = None, None
            for worker in workers:
                cost = sum(
                    self.model.seconds(worker.device, s) for s in shards
                )
                finish = loads[worker.worker_id] + cost
                if best_finish is None or finish < best_finish:
                    best, best_finish = worker, finish
            for shard in shards:
                self._enqueue(best, shard)
            loads[best.worker_id] = best_finish

    def _enqueue(self, worker: Worker, shard: Shard) -> None:
        worker.queue.append(shard)
        worker.queued_seconds += self.model.seconds(worker.device, shard)

    def _take_local(self, worker: Worker) -> Shard | None:
        if not worker.queue:
            return None
        shard = worker.queue.popleft()
        worker.queued_seconds -= self.model.seconds(worker.device, shard)
        return shard

    def _steal_for(self, thief: Worker, counters: dict) -> Shard | None:
        """Take half the backlog of the most loaded survivor."""
        victim = None
        victim_backlog = 0.0
        for worker in self.workers.values():
            if worker is thief or not worker.alive or not worker.queue:
                continue
            backlog = worker.expected_backlog_s()
            if backlog > victim_backlog:
                victim, victim_backlog = worker, backlog
        if victim is None:
            return None
        count = max(1, len(victim.queue) // 2)
        stolen = [victim.queue.pop() for _ in range(count)]  # tail first
        victim.shards_stolen_from += count
        counters["steals"] += count
        for shard in stolen:
            victim.queued_seconds -= self.model.seconds(
                victim.device, shard
            )
        for shard in reversed(stolen):  # preserve original order
            self._enqueue(thief, shard)
        return self._take_local(thief)

    def _least_loaded(self, now: float) -> Worker | None:
        """The alive worker with the smallest expected backlog."""
        best, best_load = None, None
        for wid in sorted(self.workers):
            worker = self.workers[wid]
            if not worker.alive:
                continue
            load = worker.expected_backlog_s() + (
                0.0 if worker.running is None else 1e-9
            )
            if best_load is None or load < best_load:
                best, best_load = worker, load
        return best

    def _repack(self, dead: Worker, now: float) -> None:
        """Graceful degradation: orphaned queue onto survivors."""
        orphans = list(dead.queue)
        dead.queue.clear()
        dead.queued_seconds = 0.0
        for shard in orphans:
            target = self._least_loaded(now)
            if target is None:
                raise SchedulerError(
                    "every worker crashed; cannot re-pack orphaned shards"
                )
            self._enqueue(target, shard)

    @staticmethod
    def _running_start(events, worker_id: str) -> float:
        """Recover the start time of a crashed worker's in-flight attempt."""
        for _, _, kind, payload in events:
            if kind == "finish" and payload[0] == worker_id:
                return payload[4]
        return 0.0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _record_metrics(self, report: RunReport) -> None:
        registry = get_registry()
        setup = self.setup.name
        registry.counter("repro_sched_runs_total", setup=setup).inc()
        registry.counter(
            "repro_sched_shards_total", setup=setup, outcome="done"
        ).inc(report.shards_done)
        if report.shards_failed:
            registry.counter(
                "repro_sched_shards_total", setup=setup, outcome="failed"
            ).inc(report.shards_failed)
        registry.counter(
            "repro_sched_retries_total", setup=setup
        ).inc(report.retries)
        registry.counter(
            "repro_sched_steals_total", setup=setup
        ).inc(report.steals)
        registry.counter(
            "repro_sched_requeues_total", setup=setup
        ).inc(report.requeues)
        for stats in report.worker_stats:
            if stats.crashed:
                registry.counter(
                    "repro_sched_crashes_total", device=stats.device_name
                ).inc()
            registry.histogram(
                "repro_sched_worker_busy_seconds", device=stats.device_name
            ).observe(stats.busy_seconds)
        registry.gauge("repro_sched_makespan_seconds", setup=setup).set(
            report.makespan_s
        )
        registry.gauge("repro_sched_realtime_margin", setup=setup).set(
            report.realtime_margin
        )
        registry.gauge("repro_sched_workers_alive", setup=setup).set(
            sum(1 for s in report.worker_stats if not s.crashed)
        )
        registry.gauge("repro_sched_workers_blacklisted", setup=setup).set(
            len(report.crashed_workers)
        )
