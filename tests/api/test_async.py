"""Concurrent serving: single-flight ``discover()`` and striped
preparation.  The engine serves on its callers' threads; these tests
are those callers."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.api import (
    CancellationToken,
    DiscoveryEngine,
    DiscoveryRequest,
)
from repro.core.config import MetamConfig
from repro.data import clustering_scenario


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def request_for(scenario, seed=0):
    return DiscoveryRequest(
        base=scenario.base,
        task=scenario.task,
        searcher="metam",
        seed=seed,
        prepare_seed=0,
        config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=seed),
    )


def in_thread(fn, *args, **kwargs):
    """Start ``fn`` on a thread; returns ``(thread, box)`` where ``box``
    receives the return value."""
    box = []
    thread = threading.Thread(
        target=lambda: box.append(fn(*args, **kwargs)), daemon=True
    )
    thread.start()
    return thread, box


class TestSubmit:
    """A run cancelled mid-search, the context manager, and
    ``max_workers`` validation."""

    def test_cancel_mid_run_resolves_to_cancelled_run(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        token = CancellationToken()

        def progress(event):
            if event.kind == "query-issued" and event.query_index >= 2:
                token.cancel()

        thread, box = in_thread(
            engine.discover, request_for(scenario), progress=progress,
            cancel=token,
        )
        thread.join(timeout=120)
        (run,) = box
        assert run.cancelled
        assert run.result is None

    def test_context_manager_shuts_down(self, scenario):
        with DiscoveryEngine(corpus=scenario.corpus) as engine:
            assert engine.discover(request_for(scenario)).completed
        # Shutting down releases nothing the engine still needs.
        assert engine.discover(request_for(scenario, seed=1)).completed
        engine.shutdown()

    def test_max_workers_validated(self, scenario):
        with pytest.raises(ValueError, match="max_workers"):
            DiscoveryEngine(corpus=scenario.corpus, max_workers=0)


CACHE = 8 << 20

TASK_OPTIONS = {
    "score_column": "satiety_score",
    "n_clusters": 3,
    "exclude_columns": ("ingredient_id",),
    "seed": 0,
}


def cacheable_request(scenario, seed=0):
    """A request with a canonical identity (name-based task), so the
    engine's result cache — and discover's in-flight reservations —
    apply."""
    return DiscoveryRequest(
        base=scenario.base,
        task="clustering",
        task_options=dict(TASK_OPTIONS),
        searcher="metam",
        seed=seed,
        prepare_seed=0,
        config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=seed),
    )


def second_lookup(engine):
    """An Event set at the engine's second result-cache lookup: the
    moment a second caller has looked for the first one's record."""
    seen = threading.Event()
    lookups = []
    original = engine._results.get

    def get(key, *args):
        lookups.append(key)
        if len(lookups) >= 2:
            seen.set()
        return original(key, *args)

    engine._results.get = get
    return seen


def parked(until, then=None):
    """A progress callback that parks its run at the first event until
    ``until`` is set, then calls ``then``.  ``progress.started`` is set
    once the run has parked, i.e. holds its reservation."""
    started = threading.Event()

    def progress(_event):
        started.set()
        assert until.wait(timeout=60), "the run was never released"
        if then is not None:
            then()

    progress.started = started
    return progress


class TestReservations:
    """Single-flight: result-cache slot reservations of in-flight
    ``discover()`` calls."""

    def _engine(self, scenario):
        engine = DiscoveryEngine(
            corpus=scenario.corpus, result_cache_bytes=CACHE
        )
        engine.prepare(scenario.base, seed=0)
        return engine

    def test_identical_inflight_submits_run_once(self, scenario):
        """An identical call that arrives while the first is searching
        waits for it and replays its record instead of searching."""
        engine = self._engine(scenario)
        arrived = second_lookup(engine)
        progress = parked(arrived)
        owner_thread, owner = in_thread(
            engine.discover, cacheable_request(scenario), progress=progress
        )
        assert progress.started.wait(timeout=60)
        follower_thread, follower = in_thread(
            engine.discover, cacheable_request(scenario)
        )
        owner_thread.join(timeout=120)
        follower_thread.join(timeout=120)
        (first,), (second,) = owner, follower
        assert first.completed and not first.cached
        assert second.completed and second.cached
        assert second.result.selected == first.result.selected
        assert second.result.trace == first.result.trace
        stats = engine.stats()
        assert stats["result_cache_misses"] == 1
        assert stats["result_cache_hits"] == 1
        assert stats["result_cache_reserved"] == 0

    def test_racing_identical_submits_never_deadlock(self, scenario):
        """Many identical calls racing on one engine all finish, and
        the search runs exactly once."""
        engine = self._engine(scenario)
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(
                pool.map(
                    lambda _: engine.discover(cacheable_request(scenario)),
                    range(4),
                    timeout=300,
                )
            )
        assert all(run.completed for run in runs)
        assert len([run for run in runs if not run.cached]) == 1
        assert engine.stats()["result_cache_reserved"] == 0

    def test_stress_each_request_searched_once(self, scenario):
        """More threads than cores, forced frequent thread switches:
        a lost update to the reservation table would let a second
        identical call search."""
        engine = self._engine(scenario)
        requests = [cacheable_request(scenario, seed=i % 3) for i in range(12)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                runs = list(pool.map(engine.discover, requests, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert all(run.completed for run in runs)
        assert len([run for run in runs if not run.cached]) == 3
        stats = engine.stats()
        assert stats["result_cache_misses"] == 3
        assert stats["result_cache_hits"] == 9
        assert stats["result_cache_reserved"] == 0

    def test_reservation_released_after_normal_completion(self, scenario):
        engine = self._engine(scenario)
        during = []
        run = engine.discover(
            cacheable_request(scenario),
            progress=lambda _e: during.append(
                engine.stats()["result_cache_reserved"]
            ),
        )
        assert run.completed
        assert set(during) == {1}
        assert engine.stats()["result_cache_reserved"] == 0

    def test_failed_owner_releases_reservation(self, scenario):
        engine = self._engine(scenario)
        request = replace(
            cacheable_request(scenario), options={"no_such_option": 1}
        )
        assert engine._result_cache_key(request) is not None
        with pytest.raises(ValueError, match="no_such_option"):
            engine.discover(request)
        assert engine.stats()["result_cache_reserved"] == 0

    def test_follower_not_stranded_by_cancelled_owner(self, scenario):
        """An owner cancelled mid-search admits no record; its waiting
        follower then searches itself instead of waiting forever."""
        engine = self._engine(scenario)
        arrived = second_lookup(engine)
        token = CancellationToken()
        progress = parked(arrived, then=token.cancel)
        owner_thread, owner = in_thread(
            engine.discover, cacheable_request(scenario),
            progress=progress, cancel=token,
        )
        assert progress.started.wait(timeout=60)
        follower_thread, follower = in_thread(
            engine.discover, cacheable_request(scenario)
        )
        owner_thread.join(timeout=120)
        follower_thread.join(timeout=120)
        (cancelled,), (run,) = owner, follower
        assert cancelled.cancelled
        assert run.completed
        assert not run.cached  # the owner never populated the cache
        assert engine.stats()["result_cache_reserved"] == 0

    def test_cancelled_follower_stops_waiting(self, scenario):
        """A waiting follower whose own token fires returns a cancelled
        run without waiting for the owner."""
        engine = self._engine(scenario)
        arrived = second_lookup(engine)
        release = threading.Event()
        progress = parked(release)
        owner_thread, owner = in_thread(
            engine.discover, cacheable_request(scenario), progress=progress
        )
        assert progress.started.wait(timeout=60)
        token = CancellationToken()
        follower_thread, follower = in_thread(
            engine.discover, cacheable_request(scenario), cancel=token
        )
        assert arrived.wait(timeout=60)
        token.cancel()
        follower_thread.join(timeout=60)
        (run,) = follower
        assert run.cancelled
        release.set()
        owner_thread.join(timeout=120)
        assert owner[0].completed and not owner[0].cached

    def test_uncacheable_submits_take_no_reservation(self, scenario):
        engine = self._engine(scenario)
        during = []
        # Task objects have no canonical identity — uncacheable.
        run = engine.discover(
            request_for(scenario, seed=3),
            progress=lambda _e: during.append(
                engine.stats()["result_cache_reserved"]
            ),
        )
        assert run.completed and not run.cached
        assert set(during) == {0}


class TestStripedPrepare:
    @pytest.mark.parametrize("striped", [True, False])
    def test_disjoint_keys_match_sequential(self, scenario, striped):
        reference = {}
        for seed in range(3):
            engine = DiscoveryEngine(corpus=scenario.corpus)
            reference[seed] = engine.prepare(scenario.base, seed=seed)

        shared = DiscoveryEngine(
            corpus=scenario.corpus, striped_prepare=striped
        )
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = {
                seed: pool.submit(shared.prepare, scenario.base, seed=seed)
                for seed in range(3)
            }
            prepared = {seed: f.result() for seed, f in futures.items()}
        for seed, got in prepared.items():
            want = reference[seed]
            assert [c.aug_id for c in got] == [c.aug_id for c in want]
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a.profile_vector, b.profile_vector)
        assert shared.stats()["prepared_candidate_sets"] == 3
        assert shared.stats()["active_prepares"] == 0  # key locks cleaned up

    def test_same_key_still_prepared_once(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(
                    lambda _: engine.prepare(scenario.base, seed=0), range(4)
                )
            )
        assert engine.stats()["prepared_candidate_sets"] == 1
        first = [c.aug_id for c in results[0]]
        assert all([c.aug_id for c in r] == first for r in results)

    def test_warm_catalog_prepare_concurrent(self, scenario, tmp_path):
        """Striped prepare with a catalog attached: catalog mutations are
        internally serialized, results stay byte-identical."""
        root = str(tmp_path / "cat")
        cold = DiscoveryEngine.open(root, corpus=scenario.corpus)
        reference = {
            seed: cold.prepare(scenario.base, seed=seed) for seed in range(3)
        }
        warm = DiscoveryEngine.open(root, corpus=scenario.corpus)
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = {
                seed: pool.submit(warm.prepare, scenario.base, seed=seed)
                for seed in range(3)
            }
            prepared = {seed: f.result() for seed, f in futures.items()}
        for seed, got in prepared.items():
            want = reference[seed]
            assert [c.aug_id for c in got] == [c.aug_id for c in want]
            for a, b in zip(got, want, strict=True):
                assert np.array_equal(a.profile_vector, b.profile_vector)
