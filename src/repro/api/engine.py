"""The :class:`DiscoveryEngine`: a stateful, serving-oriented facade.

One engine owns the expensive shared state of goal-oriented discovery —
an optional persistent :class:`~repro.catalog.Catalog`, the corpus, the
warm discovery index, prepared-candidate caches, and the searcher/task/
scenario registries — and serves many :class:`DiscoveryRequest`s against
it::

    engine = DiscoveryEngine.open("my_catalog").attach_corpus(corpus)
    run = engine.discover(DiscoveryRequest(base=din, task=task,
                                           searcher="metam",
                                           config=MetamConfig(theta=0.8)))
    print(run.result.summary())

``discover`` is thread-safe: candidate preparation is striped — every
``(base content, spec, seed, registry)`` key has its own lock, so the
first request for a key pays, concurrent requests for the same key share
the result, and requests for *disjoint* keys prepare fully in parallel
(see ``benchmarks/bench_engine_parallel.py``; catalog mutations are
serialized internally, and the on-disk store is concurrency-safe in its
own right).  Each run gets its own searcher, query accounting, and RNG —
so N callers can serve requests against one warm engine concurrently
(``benchmarks/bench_engine_concurrency.py``).

The engine serves on the caller's thread and owns no threads of its
own; queueing and worker pools belong to the caller (the
:class:`~repro.server.DiscoveryService` is the one scheduler).  An
optional result cache (``result_cache_bytes``) serves repeated identical
requests from their recorded runs without re-searching.  It is one
content-addressed tier: a request's key digests everything its outcome
depends on (base table, profile registry, request descriptor, whole-
corpus content, catalog config, library version), an in-memory LRU
front serves hot keys, and — when the attached catalog has a store —
the store holds the records, so repeated requests warm-start across
processes and survive restarts.  Changed content simply keys elsewhere;
nothing is ever invalidated.  ``discover`` is single-flight for
cacheable requests: the first of several identical concurrent calls
*reserves* the cache slot and searches, the others wait for it and
replay its record.

A :class:`~repro.catalog.CatalogRefresher` can be attached
(:meth:`attach_refresher`): the engine then swaps the refresher's
published :class:`~repro.catalog.CatalogSnapshot` in atomically between
requests — reads never block on background maintenance — and a
``staleness_budget`` bounds how old a served snapshot may be.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
import weakref
from dataclasses import replace
from typing import NamedTuple

from repro.api.events import (
    AugmentationAccepted,
    CancellationToken,
    CandidatesPrepared,
    QueryIssued,
    RoundCompleted,
    RunCancelled,
    RunCompleted,
    RunStarted,
)
from repro.api.registries import (
    Registry,
    default_scenarios,
    default_searchers,
    default_tasks,
)
from repro.api.request import CandidateSpec, DiscoveryRequest
from repro.api.run import DiscoveryRun
from repro.catalog import Catalog
from repro.catalog.refresh import register_refresher_metrics
from repro.catalog.store import register_store_metrics
from repro.catalog.fingerprint import (
    config_fingerprint,
    corpus_fingerprint,
    registry_fingerprint,
    result_key,
    table_fingerprint,
)
from repro.dataframe.table import Table, normalize_corpus
from repro.discovery.candidates import (
    Candidate,
    generate_candidates,
    materialize_candidates,
    profile_candidates,
)
from repro.discovery.index import DiscoveryIndex
from repro.discovery.unions import find_union_candidates
from repro.obs.logcfg import get_logger, log_context
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracing import Tracer, mark, span
from repro.profiles.registry import default_registry
from repro.tasks.base import Task
from repro.utils.locks import KeyedMutex
from repro.utils.lru import LruDict

_log = get_logger(__name__)


class EngineStateError(RuntimeError):
    """The engine is missing state a call needs (usually a corpus)."""


#: The catalog-config part of a result key when no catalog is attached.
_NO_CATALOG = "no-catalog"


class _ResultKey(NamedTuple):
    """One cacheable request's key in the result tier.

    ``digest`` is the content-addressed key (see
    :meth:`DiscoveryEngine._keyed`) under which the store holds the
    record; the memory front adds the registry mutation counts."""

    base_fp: str
    registry_fp: str
    descriptor: str
    registries: tuple  # (searchers.mutations, tasks.mutations)
    digest: str = None

    @property
    def memory(self) -> tuple:
        return (self.digest,) + self.registries


class DiscoveryEngine:
    """Serves goal-oriented discovery requests over one corpus + catalog.

    Parameters
    ----------
    corpus:
        Repository tables (dict by name, or an iterable of Tables); may
        also be attached later with :meth:`attach_corpus`.
    catalog:
        Optional persistent :class:`~repro.catalog.Catalog` — switches
        candidate preparation to warm-start mode (incremental refresh +
        profile-vector cache); a store-backed one also holds the result
        cache's records (see ``result_cache_bytes``).
    profile_registry:
        Default profile registry for candidate preparation (``None`` =
        :func:`~repro.profiles.registry.default_registry`).
    searchers / tasks / scenarios:
        Registry overrides; defaults carry every built-in.  Mutate them
        (``engine.searchers.register(...)``) to plug in new strategies
        without touching core code.
    max_prepared_sets:
        Bound on cached prepared-candidate sets (LRU-evicted beyond it;
        ``None`` disables eviction).  A long-lived serving engine sees
        many (base, spec, seed) combinations, and each set holds every
        candidate's materialized values — without a bound the cache
        grows with the request history instead of the working set.
    striped_prepare:
        ``True`` (default) gives every prepare key its own lock, so
        disjoint keys prepare in parallel.  ``False`` restores the
        engine-wide prepare lock of earlier releases — the baseline the
        parallel benchmark compares against; results are identical
        either way.
    max_workers:
        How many requests this engine is meant to serve at once.  The
        engine starts no threads itself: a
        :class:`~repro.server.DiscoveryService` runs this many workers
        against it, and ``compare_searchers(parallel=True)`` fans out at
        most this many ``discover`` calls.
    result_cache_bytes:
        Byte budget of the result tier's in-memory front (measured as
        the JSON run-record size, LRU-evicted).  ``0``/``None``
        (default) disables the result cache.  Cached runs are exact
        replays — the recorded result, events, and timings — keyed by a
        content digest of the request (base table content + registry +
        request descriptor + whole-corpus content + catalog config +
        library version): changed content keys elsewhere, and
        reverting it makes the old records reachable again.  While a
        store-backed catalog is attached, completed runs are also
        written to its store under the same key, so identical requests
        replay across processes and restarts (disk use is bounded by
        ``repro catalog gc --result-budget``).
    refresher:
        Optional :class:`~repro.catalog.CatalogRefresher` to adopt
        snapshots from (see :meth:`attach_refresher`).
    staleness_budget:
        Default bound (seconds) on the age of the served snapshot when
        a refresher is attached; ``None`` serves whatever is current.
    metrics:
        Telemetry registry wiring: ``None`` (default) gives the engine
        its own private :class:`~repro.obs.MetricsRegistry`; pass a
        registry to share one across engines; ``False`` installs the
        no-op registry (instrumentation compiled out — the honest
        baseline ``benchmarks/bench_obs_overhead.py`` measures against).
        The attached catalog store and refresher record into the same
        registry.  Serving counters (``runs_started`` & co.) are views
        over the registry either way.
    tracing:
        ``True`` (default) records a per-run trace tree (request →
        prepare → per-round query evaluation) into every
        :class:`DiscoveryRun`; ``False`` skips span bookkeeping
        entirely (``run.trace`` stays ``None``).
    """

    def __init__(
        self,
        corpus=None,
        catalog: Catalog = None,
        profile_registry=None,
        searchers: Registry = None,
        tasks: Registry = None,
        scenarios: Registry = None,
        max_prepared_sets: int = 32,
        striped_prepare: bool = True,
        max_workers: int = 4,
        result_cache_bytes: int = None,
        refresher=None,
        staleness_budget: float = None,
        metrics=None,
        tracing: bool = True,
    ):
        try:
            prepared = LruDict(capacity=max_prepared_sets)
        except ValueError:
            raise ValueError(
                f"max_prepared_sets must be >= 1 or None, got {max_prepared_sets}"
            ) from None
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.catalog = catalog
        self.searchers = searchers if searchers is not None else default_searchers()
        self.tasks = tasks if tasks is not None else default_tasks()
        self.scenarios = scenarios if scenarios is not None else default_scenarios()
        self._profile_registry = profile_registry
        self._corpus = None
        #: Bumped on every corpus swap; guards prepared-candidate
        #: admission (a prepare that raced a swap is not cached).
        self._corpus_epoch = 0
        self._lock = threading.RLock()
        # Catalog mutations (refresh/save, lazy index paging, profile
        # cache construction) stay serialized even under striped
        # preparation: the in-memory index is shared mutable state.
        self._catalog_lock = threading.RLock()
        self.striped_prepare = bool(striped_prepare)
        self._prepare_keys = KeyedMutex()  # per-key locks (striped mode)
        self._prepare_gate = threading.RLock()  # engine-wide (legacy mode)
        self.max_prepared_sets = max_prepared_sets
        self._prepared = prepared  # prepare key -> candidates (LRU-bounded)
        self.max_workers = max_workers
        if result_cache_bytes:
            self._results = LruDict(max_bytes=result_cache_bytes)
        else:
            self._results = None  # disabled
        self.result_cache_bytes = result_cache_bytes
        #: In-flight reservations of result-cache slots: cache-key prefix
        #: -> threading.Event set when the owning discover() call returns
        #: or raises (single-flight; see :meth:`_claim`).
        self._reservations = {}
        self._refresher = None
        self._staleness_budget = (
            float(staleness_budget) if staleness_budget is not None else None
        )
        self._snapshot_epoch = 0  # epoch of the adopted refresher snapshot
        self.last_sync_staleness = None
        #: Single-slot memo of the corpus-content digest, keyed by the
        #: corpus dict's identity (corpora are replaced, never mutated).
        self._corpus_fp_memo = None
        #: Table-content digests memoized by object *identity* (Tables
        #: are immutable by library convention and unhashable, so this
        #: maps ``id(table)`` with a weakref that both guards against id
        #: reuse and evicts dead entries).  The cache key of a request
        #: then hashes its base table once per object — not once per
        #: discover and once per corpus scan.
        #: Registry fingerprints are deliberately NOT memoized:
        #: ProfileRegistry mutates in place (``add``/``remove``), and a
        #: stale digest would replay runs recorded under the old
        #: profile set.
        self._table_fp_memo = {}
        #: Registry mutation counts at construction: the result store
        #: is read and written only while they are unchanged (a factory
        #: re-registered mid-life has no content identity the shared
        #: keys could carry, so the store steps aside; the memory front
        #: keys on the counts instead).
        self._registry_baseline = (self.searchers.mutations, self.tasks.mutations)
        self._next_run_id = 1
        if metrics is False:
            registry = NULL_REGISTRY
        elif metrics is None:
            registry = MetricsRegistry()
        else:
            registry = metrics
        self._init_metrics(registry)
        self.tracer = Tracer(enabled=tracing)
        #: Serialized trace trees of the most recent live runs (replays
        #: carry their original trace) — what ``--trace-out`` dumps.
        self.recent_traces = deque(maxlen=32)
        if self.catalog is not None and self.catalog.store is not None:
            self.catalog.store.attach_metrics(registry)
        if corpus is not None:
            self.attach_corpus(corpus)
        if refresher is not None:
            self.attach_refresher(refresher, staleness_budget=staleness_budget)

    def _init_metrics(self, registry) -> None:
        """Register (get-or-create) every engine family on ``registry``,
        plus the store and refresher families — so a metrics snapshot
        names the full catalog of series even before a catalog or
        refresher is attached.  Labeled children the serving path uses
        are pre-touched for the same reason: zero shows as zero."""
        self.metrics = registry
        self._m_runs_started = registry.counter(
            "repro_engine_runs_started_total",
            "Runs started, live executions and cache replays alike.",
        )
        self._m_runs = registry.counter(
            "repro_engine_runs_total",
            "Runs finished, by terminal status.",
            labels=("status",),
        )
        for status in ("completed", "cancelled", "failed"):
            self._m_runs.labels(status=status)
        self._m_queries = registry.counter(
            "repro_engine_queries_served_total",
            "Utility queries charged across all served runs.",
        )
        self._m_result_cache = registry.counter(
            "repro_engine_result_cache_events_total",
            "Result-cache activity (store_hit rides along with hit; "
            "spill counts records written to the store).",
            labels=("event",),
        )
        for event in ("hit", "miss", "store_hit", "spill"):
            self._m_result_cache.labels(event=event)
        self._m_prepare_cache = registry.counter(
            "repro_engine_prepare_cache_events_total",
            "Prepared-candidate cache activity.",
            labels=("event",),
        )
        for event in ("hit", "miss"):
            self._m_prepare_cache.labels(event=event)
        self._m_prepared_sets = registry.gauge(
            "repro_engine_prepared_sets",
            "Prepared-candidate sets resident in the LRU cache.",
        )
        self._m_cache_entries = registry.gauge(
            "repro_engine_result_cache_entries",
            "Recorded runs resident in the result cache.",
        )
        self._m_cache_bytes = registry.gauge(
            "repro_engine_result_cache_bytes",
            "Result-cache footprint (JSON run-record bytes).",
        )
        self._m_cache_reserved = registry.gauge(
            "repro_engine_result_cache_reserved",
            "In-flight reservations of result-cache slots.",
        )
        self._m_staleness_gauge = registry.gauge(
            "repro_engine_last_sync_staleness_seconds",
            "Refresher staleness observed at the last snapshot sync.",
        )
        self._m_staleness = registry.histogram(
            "repro_engine_staleness_served_seconds",
            "Refresher staleness at each request-boundary sync.",
            buckets=(0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0),
        )
        self._m_run_seconds = registry.histogram(
            "repro_engine_run_seconds",
            "End-to-end wall time of live runs, by terminal status.",
            labels=("status",),
        )
        self._m_prepare_seconds = registry.histogram(
            "repro_engine_prepare_seconds",
            "Candidate-preparation wall time, by provenance.",
            labels=("source",),
        )
        self._m_search_seconds = registry.histogram(
            "repro_engine_search_seconds",
            "Searcher wall time of live runs.",
        )
        self._m_run_rounds = registry.histogram(
            "repro_engine_run_rounds",
            "Search rounds per live run.",
            buckets=(1, 2, 3, 5, 8, 13, 21, 34, 55, 89),
        )
        self._m_round_gain = registry.histogram(
            "repro_engine_round_utility_gain",
            "Utility gained per completed search round.",
            buckets=(0.0, 0.01, 0.02, 0.05, 0.1, 0.15, 0.25, 0.5, 0.75, 1.0),
        )
        # Pre-register the families instrumented layers record into.
        register_store_metrics(registry)
        register_refresher_metrics(registry)

    # Serving counters are read-only views over the metrics registry —
    # one source of truth for stats(), exposition, and tests alike.
    @property
    def runs_started(self) -> int:
        return int(self._m_runs_started.value)

    @property
    def runs_completed(self) -> int:
        return int(self._m_runs.labels(status="completed").value)

    @property
    def runs_cancelled(self) -> int:
        return int(self._m_runs.labels(status="cancelled").value)

    @property
    def runs_failed(self) -> int:
        return int(self._m_runs.labels(status="failed").value)

    @property
    def queries_served(self) -> int:
        return int(self._m_queries.value)

    @property
    def result_cache_hits(self) -> int:
        return int(self._m_result_cache.labels(event="hit").value)

    @property
    def result_store_hits(self) -> int:
        return int(self._m_result_cache.labels(event="store_hit").value)

    # ------------------------------------------------------------------
    # Construction / state
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        catalog_dir,
        corpus=None,
        create: bool = True,
        backend=None,
        object_codec: int = None,
        **config,
    ) -> "DiscoveryEngine":
        """Engine backed by the persistent catalog at ``catalog_dir``.

        ``create=True`` (default) creates the catalog when none exists
        (``config`` applies only then — including ``hash_version=2`` for
        the blake2-free vectorized hash family); ``create=False``
        requires a saved catalog and raises
        :class:`~repro.catalog.CatalogStoreError` otherwise.  ``corpus``
        is attached when given.  ``backend`` selects the store layout
        (``"local"``/``"segments"``) for fresh roots; an existing root
        auto-detects its layout regardless.  ``object_codec`` selects
        the artifact codec new writes use (``3`` = the mmap-friendly
        fixed layout; default keeps the deflated binary format).
        Existing artifacts stay readable under any choice — the store
        reads through every registered codec.
        """
        from repro.catalog.store import CatalogStore

        root = (
            catalog_dir
            if isinstance(catalog_dir, CatalogStore)
            else CatalogStore(
                catalog_dir, backend=backend, object_codec=object_codec
            )
        )
        if create:
            catalog = Catalog.open(root, **config)
        else:
            catalog = Catalog.load(root)
        return cls(corpus=corpus, catalog=catalog)

    def attach_corpus(self, corpus) -> "DiscoveryEngine":
        """Attach (or replace) the repository; returns ``self``.

        Accepts a ``{name: Table}`` dict or an iterable of Tables.
        Replacing the corpus drops the prepared-candidate cache — cached
        candidate sets are only valid for the corpus they were built on.
        Recorded results stay: their keys embed the corpus content, so
        a changed corpus misses them and an identical one replays them.
        """
        normalized = normalize_corpus(corpus)
        with self._lock:
            self._corpus = normalized
            self._corpus_epoch += 1
            self._prepared.clear()
            # Drop the content-digest memo too: it pins the previous
            # corpus dict (and every Table in it) otherwise.
            self._corpus_fp_memo = None
        return self

    def attach_refresher(self, refresher, staleness_budget: float = None) -> "DiscoveryEngine":
        """Adopt snapshots from a :class:`~repro.catalog.CatalogRefresher`.

        From now on every request first swaps in the refresher's latest
        published :class:`~repro.catalog.CatalogSnapshot` (corpus +
        hydrated catalog together, atomically, between requests — an
        in-flight run keeps the snapshot it started with).
        ``staleness_budget`` (default: the refresher's own) bounds how
        old the served snapshot may be; exceeding it forces one
        synchronous refresh before serving.  The engine does not own the
        refresher's lifecycle — start/stop it yourself (or use it as a
        context manager).  Returns ``self``; the initial snapshot is
        adopted immediately (running a first cycle if none exists yet).
        """
        self._refresher = refresher
        refresher.attach_metrics(self.metrics)
        # A different refresher numbers its epochs from 1 again; reset
        # so its first snapshot is always adopted.
        self._snapshot_epoch = 0
        if staleness_budget is not None:
            self._staleness_budget = float(staleness_budget)
        elif refresher.staleness_budget is not None:
            self._staleness_budget = refresher.staleness_budget
        self._sync_snapshot()
        return self

    def _sync_snapshot(self, staleness_budget: float = None) -> None:
        """Swap in the refresher's current snapshot if it is newer than
        the one being served (no-op without a refresher).

        Runs at request boundaries only, so the swap is atomic from any
        run's point of view: corpus, catalog, and the prepared-candidate
        cache change together under the engine locks, and runs already
        executing keep their own corpus/catalog snapshot to the end.
        """
        refresher = self._refresher
        if refresher is None:
            return
        budget = (
            staleness_budget
            if staleness_budget is not None
            else self._staleness_budget
        )
        snapshot = refresher.ensure_fresh(budget)
        staleness = refresher.staleness()
        self.last_sync_staleness = staleness
        if staleness != float("inf"):
            self._m_staleness.observe(staleness)
            self._m_staleness_gauge.set(staleness)
        # <= not ==: a request that raced a background cycle may hold an
        # *older* snapshot than one a concurrent request just adopted —
        # installing it would regress the served corpus.
        if snapshot is None or snapshot.epoch <= self._snapshot_epoch:
            return
        # The catalog lock guards ``self.catalog`` for the prepare path,
        # the engine lock the corpus and caches.  This is the one place
        # that holds both, always catalog outside engine; anything else
        # needing both takes them one after the other (see stats()).
        with self._catalog_lock:
            with self._lock:
                if snapshot.epoch <= self._snapshot_epoch:
                    return
                self._snapshot_epoch = snapshot.epoch
                self.catalog = snapshot.catalog
                self._corpus = dict(snapshot.corpus)
                self._corpus_epoch += 1
                self._prepared.clear()
                # Seed the content-digest memo from the refresher's scan
                # — the swap costs no re-fingerprinting.
                self._corpus_fp_memo = (
                    self._corpus,
                    corpus_fingerprint(snapshot.fingerprints),
                )

    def shutdown(self) -> None:
        """Release the engine.  It owns no threads, so there is nothing
        to drain; the engine stays usable.  Kept so every engine can be
        closed the same way (and used as a context manager)."""

    def __enter__(self) -> "DiscoveryEngine":
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        return False

    @property
    def corpus(self) -> dict:
        """The attached repository (raises until :meth:`attach_corpus`)."""
        if self._corpus is None:
            raise EngineStateError(
                "no corpus attached; call engine.attach_corpus(corpus) first"
            )
        return self._corpus

    def profile_registry(self):
        """The engine's default profile registry (built lazily)."""
        with self._lock:
            if self._profile_registry is None:
                self._profile_registry = default_registry()
            return self._profile_registry

    # ------------------------------------------------------------------
    # Candidate preparation (striped per-key locks, cached)
    # ------------------------------------------------------------------
    def prepare(
        self,
        base: Table,
        spec: CandidateSpec = None,
        registry=None,
        seed: int = 0,
    ) -> list:
        """Discovery + materialization + profiling for one base table.

        Returns profiled :class:`~repro.discovery.candidates.Candidate`
        objects — the common input of METAM and every baseline.  Results
        are cached by (base content, spec, seed, profile registry), and
        preparation is locked per key: concurrent requests for the same
        key share one preparation, while disjoint keys prepare in
        parallel (catalog mutations are serialized internally, and the
        catalog store's own writes are concurrency-safe).
        """
        self._sync_snapshot()
        candidates, _from_cache, _corpus = self._prepare_cached(
            base, spec, registry, seed
        )
        return candidates

    def _prepare_cached(
        self, base, spec, registry, seed,
        base_fingerprint=None, registry_fp=None,
    ):
        """Per-key-locked prepare.

        Returns ``(candidates, from_cache, corpus)`` — the corpus
        snapshot the candidates were prepared from, taken under the
        engine lock, so callers run their searcher against exactly the
        tables the candidates reference even if ``attach_corpus`` races
        (a prepare that overlaps a corpus swap keeps its own snapshot
        and is not admitted into the cache of the new corpus).

        ``base_fingerprint``/``registry_fp`` let callers that already
        fingerprinted those inputs (the result-cache path) skip the
        second hash of each.
        """
        spec = spec or CandidateSpec()
        registry = registry if registry is not None else self.profile_registry()
        key = (
            base_fingerprint or self._fingerprint_table(base),
            spec,
            int(seed),
            registry_fp or registry_fingerprint(registry),
        )
        with self._lock:
            corpus = self.corpus
            cached = self._prepared.get(key)
            if cached is not None:
                self._m_prepare_cache.labels(event="hit").inc()
                return list(cached), True, corpus
        if self.striped_prepare:
            guard = self._prepare_keys(key)
        else:
            guard = self._prepare_gate
        with guard:
            with self._lock:
                # Re-check under the key lock: a concurrent holder may
                # have prepared this exact key while we waited.
                corpus = self.corpus
                epoch = self._corpus_epoch
                cached = self._prepared.get(key)
                if cached is not None:
                    self._m_prepare_cache.labels(event="hit").inc()
                    return list(cached), True, corpus
            self._m_prepare_cache.labels(event="miss").inc()
            candidates = self._prepare_uncached(base, spec, registry, seed, corpus)
            with self._lock:
                if epoch == self._corpus_epoch:
                    self._prepared.put(key, candidates)
            return list(candidates), False, corpus

    def _prepare_uncached(self, base, spec, registry, seed, corpus) -> list:
        """The discovery front-end (exactly the legacy ``prepare_candidates``
        semantics, so warm and cold paths stay byte-identical).

        Runs outside the engine lock.  With a catalog attached, the
        catalog-touching section (refresh/save, index queries with their
        lazy entry paging, profile-cache construction) holds the
        engine's catalog lock; materialization and profiling — the
        dominant cost — run in parallel across keys either way."""
        cache = None
        if self.catalog is not None:
            with self._catalog_lock:
                catalog = self.catalog
                overridden = []
                if catalog.config["min_containment"] != spec.min_containment:
                    overridden.append(
                        f"min_containment={catalog.config['min_containment']} "
                        f"(requested {spec.min_containment})"
                    )
                if catalog.config["seed"] != seed:
                    overridden.append(
                        f"index seed={catalog.config['seed']} (requested {seed}; "
                        f"the requested seed still governs profile sampling)"
                    )
                if overridden:
                    import warnings

                    warnings.warn(
                        "catalog config overrides the requested values for "
                        "discovery in warm-start mode: " + ", ".join(overridden),
                        stacklevel=3,
                    )
                diff = catalog.refresh(corpus)
                if (
                    catalog.store is not None
                    and (diff.added or diff.updated)
                    and not catalog.removed_since_save
                ):
                    # Keep the on-disk manifest/snapshot current, so the
                    # next process warm-starts from the packed snapshot.
                    # Only additive changes are persisted implicitly: a
                    # partial corpus must not silently shrink the saved
                    # catalog.
                    catalog.save()
                cache = catalog.profile_cache(
                    base, registry, sample_size=spec.sample_size, seed=seed
                )
                augmentations = generate_candidates(
                    base,
                    catalog.index,
                    max_hops=spec.max_hops,
                    max_fanout=spec.max_fanout,
                )
        else:
            index = DiscoveryIndex(
                min_containment=spec.min_containment, seed=seed
            )
            index.build(corpus.values())
            augmentations = generate_candidates(
                base, index, max_hops=spec.max_hops, max_fanout=spec.max_fanout
            )
        candidates = materialize_candidates(base, augmentations, corpus)
        if spec.include_unions:
            for union in find_union_candidates(
                base, corpus, min_shared=spec.min_union_shared
            ):
                candidates.append(
                    Candidate(
                        aug=union,
                        values=union.materialize(base, corpus),
                        overlap=union.shared_fraction,
                    )
                )
        return profile_candidates(
            candidates,
            base,
            corpus,
            registry,
            sample_size=spec.sample_size,
            seed=seed,
            cache=cache,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def discover(
        self,
        request: DiscoveryRequest,
        progress=None,
        cancel: CancellationToken = None,
        staleness_budget: float = None,
    ) -> DiscoveryRun:
        """Serve one request; returns the completed :class:`DiscoveryRun`.

        ``progress`` (a callable taking one
        :class:`~repro.api.events.RunEvent`) streams every event as it
        happens; ``cancel`` stops the run cooperatively at its next
        utility query (the run then finishes with status
        ``"cancelled"`` and ``result=None``).  ``staleness_budget``
        overrides the engine's default bound on snapshot age for this
        request (only meaningful with a refresher attached).

        With the result cache enabled, a request identical to a
        previously completed one is served as an exact replay: the
        recorded run comes back under a fresh ``run_id`` with
        ``cached=True``, and its recorded events are re-streamed to
        ``progress`` (they carry the original run's id).  A record an
        earlier process wrote to the catalog store is replayed the same
        way (and admitted to the memory front).

        Cacheable requests are single-flight: while one call searches a
        request, identical calls wait for it and then replay its record
        instead of searching twice.  When the searching call ends
        without admitting a record (it failed or was cancelled), one of
        the waiters searches in its place.
        """
        task = self._resolve_task(request)
        factory = self.searchers.get(request.searcher)  # fail before any work
        self._sync_snapshot(staleness_budget)
        self.corpus  # fail fast when none is attached
        # An already-cancelled token must yield a cancelled run, not a
        # completed replay — skip the cache and serve normally (the run
        # stops at its first utility query, as ever).
        if cancel is not None and cancel.cancelled:
            cache_key = None
        else:
            cache_key = self._result_cache_key(request)
        reservation = None
        if cache_key is not None:
            hit, reservation = self._claim(cache_key, cancel)
            if hit is not None:
                return self._replay(hit, request, progress)
            if reservation is None:
                # Cancelled while waiting on an identical call: serve it
                # live, so it ends cancelled like any cancelled request.
                cache_key = None
        try:
            return self._discover_owned(
                request, task, factory, progress, cancel, cache_key
            )
        finally:
            if reservation is not None:
                self._release(cache_key)

    def _claim(self, cache_key, cancel: CancellationToken = None):
        """Single-flight entry of one cacheable request.

        Returns ``(hit, None)`` when the memory front holds the record,
        ``(None, reservation)`` when this call now owns the key's
        reservation (it searches, then :meth:`_release`s it), and
        ``(None, None)`` when ``cancel`` fired while waiting on another
        call's reservation.
        """
        while True:
            with self._lock:
                hit = self._results.get(cache_key.memory)
                if hit is not None:
                    return hit, None
                pending = self._reservations.get(cache_key.memory)
                if pending is None:
                    reservation = threading.Event()
                    self._reservations[cache_key.memory] = reservation
                    return None, reservation
            # An identical call is searching: wait for it, then look
            # again (it admitted its record, or it ended without one and
            # this call may take the search over).  The timeout only
            # lets a cancelled waiter stop waiting.
            while not pending.wait(timeout=0.05):
                if cancel is not None and cancel.cancelled:
                    return None, None

    def _release(self, cache_key) -> None:
        """Drop the reservation this call took in :meth:`_claim` and
        wake its waiters (on every exit: completed, cancelled, raised)."""
        with self._lock:
            reservation = self._reservations.pop(cache_key.memory)
        reservation.set()

    def _discover_owned(
        self, request, task, factory, progress, cancel, cache_key
    ) -> DiscoveryRun:
        """:meth:`discover` past the memory front: the store, else a
        live run, either one admitted to the result tier (with a
        ``cache_key``, the caller holds its reservation)."""
        if cache_key is not None:
            stored = self._read_store(cache_key, request)
            if stored is not None:
                run, size = stored
                self._admit(cache_key, run, size)
                return self._replay(run, request, progress, tier="store")
            self._m_result_cache.labels(event="miss").inc()
        with self._lock:
            run_id = self._next_run_id
            self._next_run_id += 1
        self._m_runs_started.inc()
        context_box = [] if cache_key is not None else None
        try:
            run = self._serve(
                request,
                task,
                factory,
                run_id,
                progress,
                cancel,
                # The cache key carries the base-table and registry
                # fingerprints; reuse both so a cache-enabled discover
                # hashes each input once, not twice.
                base_fingerprint=cache_key.base_fp if cache_key else None,
                registry_fp=cache_key.registry_fp if cache_key else None,
                context_box=context_box,
            )
        except BaseException:
            # Anything that escapes (bad searcher options, a task that
            # raises, a progress callback bug) still balances the books.
            self._m_runs.labels(status="failed").inc()
            raise
        if cache_key is not None and run.completed and context_box:
            # Re-key by the corpus and catalog the run actually searched:
            # a swap that raced it admits the run under the content it
            # saw, never under the content the request was looked up in.
            # Size by the JSON run record — the serializable footprint
            # the LRU budget is defined over (computed outside the lock).
            corpus, catalog = context_box[0]
            record = run.to_record()
            self._admit(
                self._keyed(cache_key, corpus, catalog),
                run,
                len(json.dumps(record).encode("utf-8")),
                record=record,
                corpus=corpus,
            )
        return run

    def _admit(self, cache_key, run, size, record=None, corpus=None) -> None:
        """The result tier's one admission path: the memory front
        always, and the store for a live run's ``record`` (a store hit
        is already there)."""
        with self._lock:
            self._results.put(cache_key.memory, run, size=size)
        if record is not None and self._write_store(cache_key, record, corpus):
            self._m_result_cache.labels(event="spill").inc()

    def _replay(self, hit: DiscoveryRun, request, progress, tier="memory"):
        """Serve a recorded run as an exact replay (fresh ``run_id``,
        ``cached=True``, recorded events re-streamed to ``progress``)."""
        with self._lock:
            run_id = self._next_run_id
            self._next_run_id += 1
        self._m_runs_started.inc()
        try:
            if progress is not None:
                for event in hit.events:
                    progress(event)
        except BaseException:
            # A progress callback bug during a replay still balances the
            # books, exactly like a live run's.
            self._m_runs.labels(status="failed").inc()
            raise
        self._m_runs.labels(status="completed").inc()
        self._m_result_cache.labels(event="hit").inc()
        if tier == "store":
            self._m_result_cache.labels(event="store_hit").inc()
        # The replayed result's queries count as served: accounting
        # stays comparable whether a run executed or replayed.
        self._m_queries.inc(hit.queries)
        _log.debug(
            "run replayed from result cache",
            run_id=run_id,
            searcher=request.searcher,
            tier=tier,
            original_run_id=hit.run_id,
        )
        return replace(
            hit,
            run_id=run_id,
            request=request,
            events=list(hit.events),
            cached=True,
            cache_info={
                **hit.cache_info,
                "result_cache_hit": True,
                "result_cache_tier": tier,
            },
        )

    def _memo_fingerprint(self, obj, memo: dict, compute) -> str:
        """Identity-memoized content digest of an immutable object.

        Entries are ``id(obj) -> (weakref, digest)``: the weakref check
        guards against id reuse after the original object dies, and its
        callback evicts the entry so the memo never outgrows the set of
        live objects."""
        key = id(obj)
        with self._lock:
            entry = memo.get(key)
            if entry is not None and entry[0]() is obj:
                return entry[1]
        fingerprint = compute(obj)
        try:
            ref = weakref.ref(obj, lambda _r, key=key: memo.pop(key, None))
        except TypeError:  # pragma: no cover - unweakrefable stub
            return fingerprint
        with self._lock:
            memo[key] = (ref, fingerprint)
        return fingerprint

    def _fingerprint_table(self, table) -> str:
        """Content fingerprint of ``table``, memoized by identity
        (Tables are immutable by library convention)."""
        return self._memo_fingerprint(
            table, self._table_fp_memo, table_fingerprint
        )

    def _result_cache_key(self, request: DiscoveryRequest):
        """The result tier's key for ``request`` over the attached
        corpus and catalog, or ``None`` when uncacheable (cache
        disabled, candidates supplied, task given as an object, or
        options without a canonical form)."""
        if self._results is None:
            return None
        descriptor = request.cache_descriptor()
        if descriptor is None:
            return None
        registry = (
            request.registry
            if request.registry is not None
            else self.profile_registry()
        )
        with self._lock:
            corpus, catalog = self._corpus, self.catalog
        key = _ResultKey(
            self._fingerprint_table(request.base),
            registry_fingerprint(registry),
            descriptor,
            # Re-registering a searcher or task under the same name
            # (overwrite=True) must not replay runs of the old factory.
            (self.searchers.mutations, self.tasks.mutations),
        )
        return self._keyed(key, corpus, catalog)

    def _keyed(self, key: "_ResultKey", corpus: dict, catalog) -> "_ResultKey":
        """``key`` with its digest taken over ``corpus`` and ``catalog``
        — the one computation of the key the memory front and the
        store share.  Everything a cacheable run's outcome depends on is
        in it by content, so a replay under a matching digest is exact
        in any process.  Catalog *contents* need no part: candidate
        preparation re-syncs the catalog to the corpus first."""
        from repro import __version__

        return key._replace(
            digest=result_key(
                key.base_fp,
                key.registry_fp,
                key.descriptor,
                self._corpus_content_fingerprint(corpus),
                (
                    config_fingerprint(catalog.config)
                    if catalog is not None
                    else _NO_CATALOG
                ),
                __version__,
            )
        )

    # ------------------------------------------------------------------
    # Result store (the catalog store behind the memory front)
    # ------------------------------------------------------------------
    def _result_store(self, registries: tuple):
        """The catalog store behind the result tier for a request keyed
        under registry mutation counts ``registries``, or ``None``.

        The store needs a store-backed catalog, and registries unchanged
        since construction: a factory (re-)registered later has no
        content identity the shared keys could embed, so neither
        replaying old records under it nor writing its runs for other
        processes is sound.  (Factories registered *before*
        construction are part of the application's cross-process
        contract, like the library version the keys do embed.)"""
        if self._results is None or registries != self._registry_baseline:
            return None
        catalog = self.catalog
        return catalog.store if catalog is not None else None

    def _corpus_content_fingerprint(self, corpus: dict):
        """Content digest of ``corpus`` (a specific corpus dict, not
        "whatever is attached right now" — admission keys by the
        corpus a run actually used, even if a swap raced the search).

        Memoized by dict identity: corpora are replaced wholesale, never
        mutated, so one digest per attached corpus suffices.  Snapshot
        swaps seed the memo from the refresher's scan; a manually
        attached corpus pays one fingerprint pass on first use.
        """
        with self._lock:
            memo = self._corpus_fp_memo
        if memo is not None and memo[0] is corpus:
            return memo[1]
        fingerprints = {
            name: self._fingerprint_table(table)
            for name, table in corpus.items()
        }
        digest = corpus_fingerprint(fingerprints)
        with self._lock:
            if self._corpus is corpus:
                self._corpus_fp_memo = (corpus, digest)
        return digest

    def _read_store(self, cache_key, request):
        """Replayable run from the store, or ``None`` on a miss.

        Returns ``(run, record size)``.  Malformed or foreign payloads
        are treated as misses — stored runs are a cache, damage
        degrades to re-running."""
        store = self._result_store(cache_key.registries)
        if store is None:
            return None
        payload = store.read_result(cache_key.digest)
        if not isinstance(payload, dict) or payload.get("version") != 1:
            return None
        record = payload.get("record")
        try:
            run = DiscoveryRun.from_record(record, request, run_id=0)
        except (KeyError, ValueError, TypeError, AttributeError):
            return None
        if not run.completed:
            return None
        # Budget the memory-front admission by the stored file's size
        # (the wrapper stamp adds a few bytes over the bare record —
        # close enough for the LRU, and it skips re-serializing the
        # payload we just parsed).
        size = store.result_record_size(cache_key.digest) or len(
            json.dumps(record).encode("utf-8")
        )
        return run, size

    def _write_store(self, cache_key, record: dict, corpus: dict) -> bool:
        """Best-effort write of one completed run record to the store;
        returns whether it was written (a failed write degrades to a
        warning — the store is an optimization, never a serving
        failure)."""
        store = self._result_store(cache_key.registries)
        if store is None:
            return False
        try:
            store.write_result(
                cache_key.digest,
                {
                    "version": 1,
                    "stamp": {
                        "corpus": self._corpus_content_fingerprint(corpus),
                        "tables": len(corpus),
                    },
                    "record": record,
                },
            )
        except OSError as error:
            import warnings

            warnings.warn(
                f"could not persist run record: {error}", stacklevel=2
            )
            return False
        return True

    def _serve(
        self, request, task, factory, run_id, progress, cancel,
        base_fingerprint=None, registry_fp=None, context_box=None,
    ):
        with self.tracer.trace(
            "discover",
            run_id=run_id,
            searcher=request.searcher,
            task=request.task_name(),
            base=request.base.name,
        ) as trace_root:
            # Ambient run/searcher fields: every log line emitted below
            # this frame (query engine, tasks, catalog) carries them.
            with log_context(run_id=run_id, searcher=request.searcher):
                run = self._serve_inner(
                    request, task, factory, run_id, progress, cancel,
                    base_fingerprint, registry_fp, context_box,
                )
        _log.debug(
            "run served",
            run_id=run_id,
            searcher=request.searcher,
            status=run.status,
            utility=run.utility,
            queries=run.queries,
            prepare_seconds=round(run.prepare_seconds, 6),
            search_seconds=round(run.search_seconds, 6),
        )
        if trace_root is not None:
            trace = trace_root.to_record()
            run = replace(run, trace=trace)
            with self._lock:
                self.recent_traces.append(trace)
        return run

    def _serve_inner(
        self, request, task, factory, run_id, progress, cancel,
        base_fingerprint, registry_fp, context_box,
    ):
        events = []

        def emit(event):
            events.append(event)
            if progress is not None:
                progress(event)

        emit(
            RunStarted(
                run_id=run_id,
                searcher=request.searcher,
                base_table=request.base.name,
                task=request.task_name(),
            )
        )

        # The corpus snapshot travels with the candidates: prepared runs
        # use the snapshot taken under the prepare lock, so a concurrent
        # attach_corpus() can never pair one corpus's candidates with
        # another corpus's tables.
        start = time.perf_counter()
        with span("prepare"):
            if request.candidates is not None:
                candidates = list(request.candidates)
                source = "request"
                with self._lock:
                    corpus = self.corpus
            else:
                prepare_seed = (
                    request.seed
                    if request.prepare_seed is None
                    else request.prepare_seed
                )
                candidates, from_cache, corpus = self._prepare_cached(
                    request.base,
                    request.spec,
                    request.registry,
                    prepare_seed,
                    base_fingerprint=base_fingerprint,
                    registry_fp=registry_fp,
                )
                source = "cache" if from_cache else "prepared"
        if context_box is not None:
            # The corpus (and catalog) this run searches travel along:
            # the result tier keys the run by them at admission, even if
            # an attach_corpus or snapshot swap races the search.
            with self._lock:
                context_box.append((corpus, self.catalog))
        prepare_seconds = time.perf_counter() - start
        self._m_prepare_seconds.labels(source=source).observe(prepare_seconds)
        emit(
            CandidatesPrepared(
                n_candidates=len(candidates),
                source=source,
                seconds=prepare_seconds,
            )
        )

        searcher = factory(
            candidates,
            request.base,
            corpus,
            task,
            theta=request.theta,
            query_budget=request.query_budget,
            seed=request.seed,
            config=request.config,
            **request.options,
        )
        rounds_box = [0]
        restore_hooks = self._attach_hooks(searcher, emit, cancel, rounds_box)

        start = time.perf_counter()
        status = "completed"
        result = None
        try:
            with span("search", n_candidates=len(candidates)):
                result = searcher.run()
        except RunCancelled:
            status = "cancelled"
        finally:
            restore_hooks()
        search_seconds = time.perf_counter() - start

        query_engine = getattr(searcher, "engine", None)
        queries = query_engine.queries if query_engine is not None else 0
        emit(
            RunCompleted(
                status=status,
                utility=result.utility if result is not None else 0.0,
                queries=result.queries if result is not None else queries,
                seconds=search_seconds,
            )
        )
        self._m_queries.inc(queries)
        self._m_runs.labels(status=status).inc()
        self._m_run_seconds.labels(status=status).observe(
            prepare_seconds + search_seconds
        )
        self._m_search_seconds.observe(search_seconds)
        if rounds_box[0]:
            self._m_run_rounds.observe(rounds_box[0])
        return DiscoveryRun(
            run_id=run_id,
            request=request,
            status=status,
            result=result,
            events=events,
            n_candidates=len(candidates),
            candidate_source=source,
            prepare_seconds=prepare_seconds,
            search_seconds=search_seconds,
            cache_info={
                "prepare_source": source,
                "prepare_cache_hit": source == "cache",
                "result_cache_hit": False,
            },
        )

    def _resolve_task(self, request: DiscoveryRequest) -> Task:
        if isinstance(request.task, str):
            return self.tasks.create(request.task, **request.task_options)
        if request.task_options:
            raise ValueError(
                "task_options only apply when the task is given by name"
            )
        return request.task

    def _attach_hooks(
        self, searcher, emit, cancel: CancellationToken, rounds_box
    ):
        """Wire the run's event stream into the searcher's query engine.

        Every hook *chains* to whatever observer was already installed
        (a searcher wired by its creator keeps its own callbacks), and
        the returned restore callable puts the prior observers back —
        a searcher instance reused across runs must not keep emitting
        into a finished run's event list through a stale closure.
        """
        restores = []
        query_engine = getattr(searcher, "engine", None)
        if query_engine is not None:
            prior_pre = query_engine.pre_query
            prior_query = query_engine.on_query
            prior_accept = query_engine.on_accept
            if cancel is not None:

                def pre_query():
                    if prior_pre is not None:
                        prior_pre()
                    cancel.raise_if_cancelled()

                query_engine.pre_query = pre_query
                restores.append(
                    lambda: setattr(query_engine, "pre_query", prior_pre)
                )

            def on_query(index, value, best):
                if prior_query is not None:
                    prior_query(index, value, best)
                mark("query", index=index, utility=value, best=best)
                emit(
                    QueryIssued(
                        query_index=index, utility=value, best_utility=best
                    )
                )

            query_engine.on_query = on_query
            restores.append(lambda: setattr(query_engine, "on_query", prior_query))

            def on_accept(aug_id, utility, n_selected):
                if prior_accept is not None:
                    prior_accept(aug_id, utility, n_selected)
                emit(
                    AugmentationAccepted(
                        aug_id=aug_id, utility=utility, n_selected=n_selected
                    )
                )

            query_engine.on_accept = on_accept
            restores.append(
                lambda: setattr(query_engine, "on_accept", prior_accept)
            )
        if hasattr(searcher, "on_round"):
            # ``on_round`` is usually a class-level default (None): track
            # whether the *instance* carried one, so restoring removes
            # our shadow instead of pinning the class default in place.
            had_instance = "on_round" in getattr(searcher, "__dict__", {})
            prior_round = searcher.on_round
            prev_utility = [None]

            def on_round(index, utility, queries, committed):
                if prior_round is not None:
                    prior_round(index, utility, queries, committed)
                prev = prev_utility[0]
                if prev is None and query_engine is not None:
                    # The base (unaugmented) utility is the first query
                    # every searcher issues, so it is always cached by
                    # round one — the natural zero of per-round gain.
                    prev = query_engine.cached_utility(frozenset())
                if prev is not None:
                    self._m_round_gain.observe(max(0.0, utility - prev))
                prev_utility[0] = utility
                rounds_box[0] = index
                mark(
                    "round",
                    index=index,
                    utility=utility,
                    queries=queries,
                    committed=committed,
                )
                emit(
                    RoundCompleted(
                        round_index=index,
                        utility=utility,
                        queries=queries,
                        committed=committed,
                    )
                )

            searcher.on_round = on_round

            def restore_round():
                if had_instance:
                    searcher.on_round = prior_round
                else:
                    try:
                        del searcher.on_round
                    except AttributeError:
                        pass

            restores.append(restore_round)

        def restore():
            for undo in reversed(restores):
                undo()

        return restore

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def corpus_stats(self, batch_tables: int = 256, seed: int = 0) -> dict:
        """Table-I corpus characteristics.

        Served from the catalog's disk artifacts when one is attached
        (``batch_tables`` bounds resident entries during the joinable
        pass; the stored config's seed applies); otherwise computed from
        the live corpus with a transient index seeded by ``seed``.
        """
        self._sync_snapshot()
        if self.catalog is not None and self.catalog.store is not None:
            # The catalog-backed pass pages lazy index entries — shared
            # mutable state, serialized against concurrent prepares.
            with self._catalog_lock:
                return self.catalog.corpus_stats(batch_tables=batch_tables)
        from repro.data import corpus_characteristics

        corpus = list(self.corpus.values())
        index = DiscoveryIndex(min_containment=0.3, seed=seed).build(corpus)
        return corpus_characteristics(corpus, index)

    def _refresh_gauges(self) -> None:
        """Bring the derived gauges (cache occupancy) up to date with
        the engine's live state — counters and histograms are written
        at the event sites and never need this."""
        with self._lock:
            self._m_prepared_sets.set(len(self._prepared))
            self._m_cache_entries.set(
                len(self._results) if self._results is not None else 0
            )
            self._m_cache_bytes.set(
                self._results.total_bytes if self._results is not None else 0
            )
            self._m_cache_reserved.set(len(self._reservations))

    def stats(self) -> dict:
        """Engine-level serving statistics (registry-backed)."""
        self._refresh_gauges()
        result_hits = self.result_cache_hits
        result_misses = int(self._m_result_cache.labels(event="miss").value)
        prepare_hits = int(self._m_prepare_cache.labels(event="hit").value)
        prepare_misses = int(self._m_prepare_cache.labels(event="miss").value)
        with self._lock:
            out = {
                "runs_started": self.runs_started,
                "runs_completed": self.runs_completed,
                "runs_cancelled": self.runs_cancelled,
                "runs_failed": self.runs_failed,
                "queries_served": self.queries_served,
                "prepared_candidate_sets": len(self._prepared),
                "active_prepares": len(self._prepare_keys),
                "prepare_cache_hits": prepare_hits,
                "prepare_cache_misses": prepare_misses,
                "prepare_cache_hit_rate": (
                    prepare_hits / (prepare_hits + prepare_misses)
                    if prepare_hits + prepare_misses
                    else 0.0
                ),
                "result_cache_hits": result_hits,
                "result_cache_misses": result_misses,
                "result_cache_hit_rate": (
                    result_hits / (result_hits + result_misses)
                    if result_hits + result_misses
                    else 0.0
                ),
                "result_cache_entries": (
                    len(self._results) if self._results is not None else 0
                ),
                "result_cache_bytes": (
                    self._results.total_bytes if self._results is not None else 0
                ),
                "result_cache_reserved": len(self._reservations),
                "result_store_hits": self.result_store_hits,
                "result_store_active": self._result_store(
                    (self.searchers.mutations, self.tasks.mutations)
                ) is not None,
                "snapshot_epoch": self._snapshot_epoch,
                "refresher_attached": self._refresher is not None,
                "last_sync_staleness": self.last_sync_staleness,
                "corpus_tables": len(self._corpus) if self._corpus else 0,
                "searchers": self.searchers.names(),
            }
        # Catalog state is guarded by the catalog lock, not the engine
        # lock — and deliberately taken *after* releasing it: a snapshot
        # swap holds the catalog lock while it takes the engine lock, so
        # nesting them here in the opposite order would deadlock.  A
        # catalog mid-refresh must still not leak a half-applied view
        # into stats.
        if self.catalog is not None:
            with self._catalog_lock:
                out["catalog"] = self.catalog.stats()
        return out

    def metrics_snapshot(self) -> dict:
        """JSON-safe snapshot of every registered metric family (derived
        gauges refreshed first).  Empty with ``metrics=False``."""
        self._refresh_gauges()
        return self.metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """Prometheus text exposition of the engine's registry (derived
        gauges refreshed first).  Empty with ``metrics=False``."""
        self._refresh_gauges()
        return self.metrics.to_prometheus()
