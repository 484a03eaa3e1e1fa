"""The multi-tenant discovery service: admission, fairness, lifecycle.

:class:`DiscoveryService` is the transport-agnostic core of
discovery-as-a-service — everything the HTTP layer does that is not
sockets lives here, so tests drive the full serving semantics without a
port.  It fronts one :class:`~repro.api.engine.DiscoveryEngine` per
catalog (sessions naming the same catalog share the engine — that is
the "engine-per-catalog reuse" of the session lifecycle) and adds what
the engine deliberately does not have:

* **Admission control.**  Every submission passes three gates before it
  touches an engine: the service must not be draining, the tenant's
  token bucket (:mod:`repro.server.quota`) must admit it, and the
  catalog's queue of undispatched runs must be under budget.  A refusal
  is a typed :class:`~repro.api.errors.Overloaded` carrying
  ``retry_after`` — the HTTP layer turns it into 429 + ``Retry-After``.
  Quota refusals never consume queue capacity, so a noisy tenant cannot
  starve the queue for the others.
* **Fair scheduling with priorities.**  The service is the one
  scheduler: it keeps per-tenant queues, and each catalog gets
  ``engine.max_workers`` long-lived worker threads that take runs
  round-robin across tenants (highest ``priority`` first within a
  tenant, FIFO within a priority) and serve each with a synchronous
  ``engine.discover``.  Two tenants at full blast each get half the
  workers.
* **Run lifecycle and event fan-in.**  Each accepted submission becomes
  a service-scoped run handle (``run-000001``-style ids) whose state
  moves ``queued → running → completed|cancelled|failed``.  The
  engine's typed event stream is buffered per run and re-served to any
  number of subscribers (:meth:`DiscoveryService.events` — the SSE
  source) — a subscriber that disconnects affects nothing, and a run
  cancelled before the engine ever saw it gets a synthesized terminal
  ``run-completed(status="cancelled")`` event so streams always end
  with a terminal event.  Each run carries its own
  :class:`~repro.api.events.CancellationToken`; cancelling an executing
  run fires it, and the run stops at its next utility query.
* **Graceful drain.**  :meth:`shutdown` stops admitting (new
  submissions get ``Overloaded``), cancels still-queued runs, waits for
  executing runs to finish, and stops the workers.

All service metrics are stamped with a ``tenant`` label on the shared
registry; tenant names pass through a validity gate at session creation
and the registry's per-family cardinality guardrail bounds the series
count under tenant churn (overflow collapses into ``_other_``).
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from repro.api.errors import Internal, InvalidRequest, NotFound, Overloaded
from repro.api.events import CancellationToken, RunCompleted
from repro.api.wire import request_from_wire, run_to_wire
from repro.obs.logcfg import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.server.quota import TenantQuotas

_log = get_logger("server")

#: Characters allowed in tenant names (they become metric label values
#: and appear in URLs; keep them boring).
_TENANT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_."
)


@dataclass(frozen=True)
class ServiceConfig:
    """Admission and scheduling knobs of one :class:`DiscoveryService`.

    Attributes
    ----------
    max_queue_depth:
        Maximum *undispatched* runs per catalog; submissions beyond it
        are refused with :class:`~repro.api.errors.Overloaded`.
    tenant_rate / tenant_burst:
        Token-bucket refill rate (requests/second) and capacity shared
        by every tenant's bucket.  ``rate <= 0`` disables refill.
    overload_retry_after:
        ``Retry-After`` seconds suggested when the refusal has no
        natural deadline (queue full, draining).
    max_sessions:
        Cap on concurrently open sessions across all tenants.
    drain_timeout:
        Default seconds :meth:`DiscoveryService.shutdown` waits for
        executing runs before giving up on a clean drain.
    """

    max_queue_depth: int = 32
    tenant_rate: float = 50.0
    tenant_burst: float = 100.0
    overload_retry_after: float = 1.0
    max_sessions: int = 1024
    drain_timeout: float = 30.0


@dataclass
class _Session:
    session_id: str
    tenant: str
    catalog: str
    created_at: float

    def describe(self) -> dict:
        return {
            "session_id": self.session_id,
            "tenant": self.tenant,
            "catalog": self.catalog,
        }


@dataclass
class _ServiceRun:
    """Service-side record of one submitted run (all mutable state is
    guarded by the service lock; the event buffer by its own condition)."""

    run_id: str
    session_id: str
    tenant: str
    catalog: str
    priority: int
    request: object
    state: str = "queued"  # queued | running | completed | cancelled | failed
    token: CancellationToken = field(default_factory=CancellationToken)
    record: Optional[dict] = None
    error: Optional[BaseException] = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    # Event fan-in buffer: the engine's progress callback appends, any
    # number of SSE subscribers read.  `_events_done` marks the stream
    # terminal (no further events will ever arrive).
    events: list = field(default_factory=list)
    events_cond: threading.Condition = field(default_factory=threading.Condition)
    events_done: bool = False

    TERMINAL = frozenset({"completed", "cancelled", "failed"})

    @property
    def terminal(self) -> bool:
        return self.state in self.TERMINAL

    def push_event(self, event) -> None:
        with self.events_cond:
            if self.events_done:
                return
            self.events.append(event)
            self.events_cond.notify_all()

    def close_events(self) -> None:
        with self.events_cond:
            self.events_done = True
            self.events_cond.notify_all()

    def describe(self) -> dict:
        out = {
            "run_id": self.run_id,
            "session_id": self.session_id,
            "tenant": self.tenant,
            "catalog": self.catalog,
            "priority": self.priority,
            "state": self.state,
            "events_seen": len(self.events),
        }
        if self.record is not None:
            out["record"] = self.record
        if self.error is not None:
            from repro.api.wire import error_to_wire

            out["error"] = error_to_wire(self.error)["error"]
        return out


class _CatalogEntry:
    """One served catalog: its (lazily built) engine, its workers, and
    the fair scheduler state for runs against it."""

    def __init__(
        self,
        name: str,
        factory: Callable[[], object],
        bases: dict,
        lock: threading.RLock,
    ):
        self.name = name
        self.factory = factory
        # Extra request-base tables by name (scenario bases are not part
        # of the served corpus; candidates never join against them).
        self.bases = dict(bases or {})
        self.engine = None
        # tenant -> deque of queued _ServiceRun (not yet dispatched).
        self.queues: Dict[str, deque] = {}
        # Round-robin pointer: tenants already served this cycle.
        self.rr: deque = deque()
        self.active = 0  # dispatched, not yet resolved
        # Worker threads (started with the engine); they wait on `ready`
        # (over the service lock) for queued runs or the drain.
        self.workers: list = []
        self.ready = threading.Condition(lock)

    def queued_count(self) -> int:
        return sum(len(q) for q in self.queues.values())


def _accepts_metrics(factory) -> bool:
    """True when ``factory`` can be called with ``metrics=``."""
    try:
        parameters = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):  # no introspectable signature
        return False
    return any(
        p.name == "metrics" or p.kind is p.VAR_KEYWORD for p in parameters
    )


class DiscoveryService:
    """Session, run, and admission manager over one or more engines.

    Parameters
    ----------
    catalogs:
        ``name -> factory`` of the catalogs this service may serve; the
        factory is called at most once (on the first session naming the
        catalog) and must return a ready
        :class:`~repro.api.engine.DiscoveryEngine` with a corpus
        attached.  Factories receive the service's shared
        ``MetricsRegistry`` via the ``metrics`` keyword when they accept
        one, so ``/metrics`` exposes engine and service families
        together.
    bases:
        Optional ``catalog name -> {table name -> Table}`` of extra
        tables requests may name as their base without the table being
        part of the served corpus (a scenario's input dataset is not a
        join candidate).  The served corpus always resolves first.
    config:
        :class:`ServiceConfig` admission/scheduling knobs.
    metrics:
        Shared registry (``None`` creates a private one).  Pass the
        registry engines were built on to merge expositions.
    clock:
        Injectable monotonic clock for quota buckets (tests).
    """

    def __init__(
        self,
        catalogs: Dict[str, Callable[..., object]],
        *,
        bases: Dict[str, dict] = None,
        config: ServiceConfig = None,
        metrics: MetricsRegistry = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not catalogs:
            raise ValueError("a service needs at least one catalog factory")
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        bases = bases or {}
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._entries = {
            name: _CatalogEntry(name, factory, bases.get(name), self._lock)
            for name, factory in catalogs.items()
        }
        self._quotas = TenantQuotas(
            self.config.tenant_rate, self.config.tenant_burst, clock
        )
        self._sessions: Dict[str, _Session] = {}
        self._runs: Dict[str, _ServiceRun] = {}
        self._session_seq = itertools.count(1)
        self._run_seq = itertools.count(1)
        self._draining = False
        self._init_metrics()

    def _init_metrics(self) -> None:
        registry = self.metrics
        self._m_requests = registry.counter(
            "repro_server_requests_total",
            "Run submissions by admission outcome",
            labels=("tenant", "outcome"),
        )
        self._m_runs = registry.counter(
            "repro_server_runs_total",
            "Service runs resolved, by terminal state",
            labels=("tenant", "status"),
        )
        self._m_queue_depth = registry.gauge(
            "repro_server_queue_depth",
            "Undispatched runs held by the fair scheduler",
            labels=("catalog",),
        )
        self._m_active = registry.gauge(
            "repro_server_active_runs",
            "Runs dispatched to an engine and not yet resolved",
            labels=("catalog",),
        )
        self._m_sessions = registry.gauge(
            "repro_server_sessions", "Open sessions"
        )
        self._m_queue_wait = registry.histogram(
            "repro_server_queue_wait_seconds",
            "Time from admission to dispatch",
            labels=("tenant",),
            buckets=(0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0),
        )

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def create_session(self, tenant: str, catalog: str = None) -> dict:
        """Open a session for ``tenant`` against ``catalog`` (default:
        the sole catalog when only one is served).

        Sessions naming the same catalog share one engine.  Raises
        :class:`InvalidRequest` on a bad tenant/catalog name and
        :class:`Overloaded` at the session cap or while draining.
        """
        tenant = self._validate_tenant(tenant)
        if catalog is None:
            if len(self._entries) == 1:
                catalog = next(iter(self._entries))
            else:
                raise InvalidRequest(
                    "this service hosts several catalogs; the session "
                    "must name one (field 'catalog')",
                    details={"catalogs": sorted(self._entries)},
                )
        if catalog not in self._entries:
            raise NotFound(
                f"unknown catalog {catalog!r}",
                details={"catalogs": sorted(self._entries)},
            )
        with self._lock:
            if self._draining:
                raise Overloaded(
                    "service is draining; no new sessions",
                    retry_after=self.config.overload_retry_after,
                )
            if len(self._sessions) >= self.config.max_sessions:
                raise Overloaded(
                    f"session cap reached ({self.config.max_sessions})",
                    retry_after=self.config.overload_retry_after,
                )
            session = _Session(
                session_id=f"s-{next(self._session_seq):06d}",
                tenant=tenant,
                catalog=catalog,
                created_at=time.monotonic(),
            )
            self._sessions[session.session_id] = session
            self._m_sessions.set(float(len(self._sessions)))
        # Build the engine outside the lock: catalog factories may do
        # real I/O (opening a persistent store) and must not serialize
        # the whole service behind it.
        self._engine_for(catalog)
        return session.describe()

    def close_session(self, session_id: str) -> dict:
        """Close one session (its already-submitted runs keep running)."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise NotFound(f"unknown session {session_id!r}")
            self._m_sessions.set(float(len(self._sessions)))
        return session.describe()

    def get_session(self, session_id: str) -> dict:
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise NotFound(f"unknown session {session_id!r}")
            return session.describe()

    def _validate_tenant(self, tenant) -> str:
        if not isinstance(tenant, str) or not tenant:
            raise InvalidRequest(
                "session must name its tenant (field 'tenant')",
                details={"field": "tenant"},
            )
        if len(tenant) > 64 or not set(tenant) <= _TENANT_CHARS:
            raise InvalidRequest(
                f"invalid tenant name {tenant!r} (<= 64 chars from "
                "[A-Za-z0-9._-])",
                details={"field": "tenant"},
            )
        return tenant

    def _engine_for(self, catalog: str):
        entry = self._entries[catalog]
        with self._lock:
            engine = entry.engine
        if engine is not None:
            return engine
        # Factory call outside the service lock (it may open stores,
        # generate corpora, ...); first-build races are settled under
        # the lock below and the loser's engine is dropped.  Whether
        # the factory takes the shared registry is read off its
        # signature: a TypeError raised *inside* it is a failure like
        # any other, never a cue to call it a second time.
        try:
            if _accepts_metrics(entry.factory):
                built = entry.factory(metrics=self.metrics)
            else:
                built = entry.factory()
        except Exception as error:
            raise Internal(
                f"catalog {catalog!r} failed to open: {error}"
            ) from error
        with self._lock:
            if entry.engine is None:
                entry.engine = built
                for index in range(built.max_workers):
                    worker = threading.Thread(
                        target=self._work,
                        args=(entry,),
                        name=f"repro-serve-{catalog}-{index}",
                        daemon=True,
                    )
                    entry.workers.append(worker)
                    worker.start()
                return built
            return entry.engine

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def submit(self, session_id: str, payload: dict, priority: int = 0) -> dict:
        """Admit one run and queue it for the catalog's workers.

        Returns the run's description (``state`` is ``queued`` or
        ``running``).  Raises :class:`NotFound` for a bad session,
        :class:`Overloaded` on any admission refusal, and
        :class:`InvalidRequest` when the payload does not parse against
        the session's corpus.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise NotFound(f"unknown session {session_id!r}")
        tenant, catalog = session.tenant, session.catalog
        try:
            priority = int(priority)
        except (TypeError, ValueError):
            raise InvalidRequest(
                f"priority must be an int, got {priority!r}",
                details={"field": "priority"},
            ) from None
        engine = self._engine_for(catalog)
        entry = self._entries[catalog]
        with self._lock:
            self._refuse_if_draining_locked(tenant)
        # Quota gate first: a rate-limited tenant must be refused before
        # it can occupy queue capacity (never queue starvation).
        admitted, retry_after = self._quotas.try_acquire(tenant)
        if not admitted:
            self._m_requests.labels(tenant=tenant, outcome="rejected_quota").inc()
            raise Overloaded(
                f"tenant {tenant!r} is over its request quota",
                retry_after=(
                    retry_after
                    if retry_after != float("inf")
                    else self.config.overload_retry_after
                ),
                details={"tenant": tenant},
            )
        # Parse before taking a queue slot: a malformed request must
        # never count against the backpressure budget.  The base table
        # resolves against the served corpus first, then the catalog's
        # registered extra bases (scenario inputs).
        lookup = dict(engine.corpus)
        for base_name, table in entry.bases.items():
            lookup.setdefault(base_name, table)
        try:
            request = request_from_wire(payload, lookup)
        except InvalidRequest:
            self._m_requests.labels(tenant=tenant, outcome="invalid").inc()
            raise
        with self._lock:
            # Checked again: a drain that began while this request was
            # parsed has already stopped the workers that would take it.
            self._refuse_if_draining_locked(tenant)
            if entry.queued_count() >= self.config.max_queue_depth:
                self._m_requests.labels(
                    tenant=tenant, outcome="rejected_queue"
                ).inc()
                raise Overloaded(
                    f"catalog {catalog!r} queue is full "
                    f"({self.config.max_queue_depth} runs waiting)",
                    retry_after=self.config.overload_retry_after,
                    details={"catalog": catalog},
                )
            run = _ServiceRun(
                run_id=f"run-{next(self._run_seq):06d}",
                session_id=session_id,
                tenant=tenant,
                catalog=catalog,
                priority=priority,
                request=request,
            )
            self._runs[run.run_id] = run
            entry.queues.setdefault(tenant, deque()).append(run)
            if tenant not in entry.rr:
                # A tenant new to the rotation has not had a turn this
                # cycle: it enters at the front, ahead of tenants that
                # were already served.
                entry.rr.appendleft(tenant)
            self._m_requests.labels(tenant=tenant, outcome="accepted").inc()
            self._m_queue_depth.labels(catalog=catalog).set(
                float(entry.queued_count())
            )
            entry.ready.notify()
            described = run.describe()
        _log.info(
            "run admitted", run_id=run.run_id, tenant=tenant, catalog=catalog
        )
        return described

    def _refuse_if_draining_locked(self, tenant: str) -> None:
        if self._draining:
            self._m_requests.labels(
                tenant=tenant, outcome="rejected_draining"
            ).inc()
            raise Overloaded(
                "service is draining; run not admitted",
                retry_after=self.config.overload_retry_after,
            )

    def status(self, run_id: str) -> dict:
        """Current description of one run (terminal states carry the
        full wire run record)."""
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                raise NotFound(f"unknown run {run_id!r}")
            return run.describe()

    def cancel(self, run_id: str) -> dict:
        """Cooperatively cancel one run at whatever stage it is in.

        Still-queued runs never reach an engine (their event stream gets
        a synthesized terminal cancelled event); executing runs stop at
        their next utility query and resolve through the normal path.
        """
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                raise NotFound(f"unknown run {run_id!r}")
            if run.terminal:
                return run.describe()
            if run.state == "queued":
                entry = self._entries[run.catalog]
                entry.queues[run.tenant].remove(run)
                self._finalize_locked(run, "cancelled", synthesize=True)
                self._m_queue_depth.labels(catalog=run.catalog).set(
                    float(entry.queued_count())
                )
                return run.describe()
            run.token.cancel()
            described = run.describe()
        _log.info("run cancel requested", run_id=run_id)
        return described

    # ------------------------------------------------------------------
    # Fair dispatch
    # ------------------------------------------------------------------
    def _work(self, entry: _CatalogEntry) -> None:
        """Body of one catalog worker: take the next run fairly, serve
        it, repeat; return once the service drains and nothing is
        queued."""
        while True:
            with self._lock:
                run = self._pick_locked(entry)
                while run is None:
                    if self._draining:
                        return
                    entry.ready.wait()
                    run = self._pick_locked(entry)
                entry.active += 1
                run.state = "running"
                run.started_at = time.monotonic()
                self._m_queue_depth.labels(catalog=entry.name).set(
                    float(entry.queued_count())
                )
                self._m_active.labels(catalog=entry.name).set(
                    float(entry.active)
                )
                self._m_queue_wait.labels(tenant=run.tenant).observe(
                    run.started_at - run.submitted_at
                )
            self._execute(entry, run)

    def _pick_locked(self, entry: _CatalogEntry):
        """Next run to serve, or ``None`` (lock held by caller).

        Tenants are served round-robin (the ``rr`` deque rotates);
        within a tenant the highest priority wins, FIFO inside a
        priority level.
        """
        for _ in range(len(entry.rr)):
            tenant = entry.rr[0]
            entry.rr.rotate(-1)
            queue = entry.queues.get(tenant)
            if not queue:
                continue
            best = max(queue, key=lambda r: r.priority)
            queue.remove(best)
            return best
        return None

    def _execute(self, entry: _CatalogEntry, run: _ServiceRun) -> None:
        """Serve one run on the calling worker and record its outcome."""
        record = None
        error: Optional[BaseException] = None
        try:
            result = entry.engine.discover(
                run.request, progress=run.push_event, cancel=run.token
            )
            status = "cancelled" if result.cancelled else "completed"
            record = run_to_wire(result)
        except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
            status = "failed"
            error = exc
            _log.error("run failed", run_id=run.run_id, error=repr(exc))
        with self._lock:
            entry.active -= 1
            run.record = record
            run.error = error
            self._finalize_locked(run, status, synthesize=record is None)
            self._m_active.labels(catalog=entry.name).set(float(entry.active))

    def _finalize_locked(
        self, run: _ServiceRun, status: str, synthesize: bool
    ) -> None:
        """Move a run to its terminal state (lock held by caller)."""
        run.state = status
        run.finished_at = time.monotonic()
        self._m_runs.labels(tenant=run.tenant, status=status).inc()
        if synthesize and status != "completed":
            run.push_event(
                RunCompleted(status=status, utility=0.0, queries=0, seconds=0.0)
            )
        run.close_events()
        self._idle.notify_all()

    # ------------------------------------------------------------------
    # Event streaming
    # ------------------------------------------------------------------
    def events(self, run_id: str, timeout: float = None) -> Iterator:
        """Iterate one run's typed events, blocking for new ones until
        the stream is terminal.

        Yields every buffered event from the beginning (late subscribers
        replay the history), then live events as they arrive, and
        returns once the run's stream closes — the last yielded event is
        always terminal (``run-completed``).  ``timeout`` bounds each
        wait; expiry raises ``TimeoutError`` so a serving layer never
        blocks forever on a wedged run.
        """
        with self._lock:
            run = self._runs.get(run_id)
            if run is None:
                raise NotFound(f"unknown run {run_id!r}")
        index = 0
        while True:
            with run.events_cond:
                while len(run.events) <= index and not run.events_done:
                    if not run.events_cond.wait(timeout=timeout):
                        raise TimeoutError(
                            f"no event from {run_id} within {timeout}s"
                        )
                if len(run.events) <= index and run.events_done:
                    return
                batch = list(run.events[index:])
            for event in batch:
                yield event
            index += len(batch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def list_runs(self, session_id: str = None) -> list:
        with self._lock:
            runs = [
                run.describe()
                for run in self._runs.values()
                if session_id is None or run.session_id == session_id
            ]
        return runs

    def metrics_prometheus(self) -> str:
        """Prometheus exposition of the shared registry (service and
        engine families together; engine gauges refreshed first)."""
        with self._lock:
            engines = [
                e.engine for e in self._entries.values() if e.engine is not None
            ]
        for engine in engines:
            if engine.metrics is self.metrics:
                engine.metrics_snapshot()  # refresh derived gauges
        return self.metrics.to_prometheus()

    def stats(self) -> dict:
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "runs": len(self._runs),
                "draining": self._draining,
                "catalogs": {
                    name: {
                        "engine_built": entry.engine is not None,
                        "queued": entry.queued_count(),
                        "active": entry.active,
                        "workers": len(entry.workers),
                    }
                    for name, entry in self._entries.items()
                },
            }

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def shutdown(self, timeout: float = None) -> bool:
        """Graceful drain: refuse new work, cancel queued runs, wait for
        executing runs, stop the workers.

        Returns ``True`` when every run reached a terminal state within
        ``timeout`` (default :attr:`ServiceConfig.drain_timeout`).
        Idempotent.  After an unclean drain the workers still busy exit
        as soon as their run ends.
        """
        timeout = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + max(0.0, timeout)
        with self._lock:
            self._draining = True
            # Queued runs never reached a worker; they end here, cancelled.
            for entry in self._entries.values():
                for queue in entry.queues.values():
                    while queue:
                        self._finalize_locked(
                            queue.popleft(), "cancelled", synthesize=True
                        )
                self._m_queue_depth.labels(catalog=entry.name).set(0.0)
                # Idle workers see the drain and exit.
                entry.ready.notify_all()
            clean = True
            while any(e.active for e in self._entries.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._idle.wait(timeout=remaining):
                    clean = False
                    break
            workers = [w for e in self._entries.values() for w in e.workers]
        if clean:
            for worker in workers:
                worker.join(timeout=max(0.0, deadline - time.monotonic()))
        _log.info("service drained", clean=clean)
        return clean
