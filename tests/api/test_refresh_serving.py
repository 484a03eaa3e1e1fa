"""Engine + refresher integration: atomic snapshot swap between requests.

The engine adopts the refresher's published snapshots at request
boundaries: corpus, catalog, and the caches keyed on them change
together; runs already in flight keep the snapshot they started with;
and a ``staleness_budget`` bounds how old the served snapshot may be.
"""

import time

import pytest

from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.catalog import CatalogRefresher
from repro.core.config import MetamConfig
from repro.data import clustering_scenario
from repro.dataframe.table import Table

CACHE = 8 << 20

TASK_OPTIONS = {
    "score_column": "satiety_score",
    "n_clusters": 3,
    "exclude_columns": ("ingredient_id",),
    "seed": 0,
}


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def request_for(scenario):
    return DiscoveryRequest(
        base=scenario.base,
        task="clustering",
        task_options=dict(TASK_OPTIONS),
        searcher="metam",
        config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=0),
    )


class MutableSource:
    def __init__(self, corpus):
        self.corpus = dict(corpus)

    def __call__(self):
        return self.corpus

    def mutate(self, name):
        table = self.corpus[name]
        columns = {c: list(table.column(c)) for c in table.column_names}
        columns[table.column_names[0]] = [
            f"mut-{v}" for v in columns[table.column_names[0]]
        ]
        corpus = dict(self.corpus)
        corpus[name] = Table(name, columns)
        self.corpus = corpus


class TestSnapshotSwap:
    def test_engine_serves_from_snapshot(self, scenario, tmp_path):
        source = MutableSource(scenario.corpus)
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        engine = DiscoveryEngine(refresher=refresher)
        # No attach_corpus: the snapshot supplies the corpus.
        run = engine.discover(request_for(scenario))
        assert run.completed
        stats = engine.stats()
        assert stats["refresher_attached"]
        assert stats["snapshot_epoch"] == 1
        assert stats["corpus_tables"] == len(scenario.corpus)

    def test_swap_happens_between_requests(self, scenario, tmp_path):
        source = MutableSource(scenario.corpus)
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        engine = DiscoveryEngine(
            refresher=refresher, result_cache_bytes=CACHE
        )
        first = engine.discover(request_for(scenario))
        assert engine.discover(request_for(scenario)).cached
        # Mutate a corpus table; the refresher notices on its next
        # cycle and the engine swaps at the next request boundary.
        mutated = sorted(
            name for name in source.corpus if name != scenario.base.name
        )[0]
        source.mutate(mutated)
        refresher.refresh_now()
        second = engine.discover(request_for(scenario))
        assert not second.cached  # changed content keys elsewhere
        assert engine.stats()["snapshot_epoch"] == 2
        assert first.completed and second.completed

    def test_unchanged_cycle_keeps_result_cache(self, scenario, tmp_path):
        """Golden companion: refresh cycles over an unchanged corpus
        republish the same snapshot, so the engine swaps nothing and
        cached results keep replaying — no spurious invalidation."""
        refresher = CatalogRefresher(
            lambda: scenario.corpus, store=str(tmp_path / "cat")
        )
        engine = DiscoveryEngine(
            refresher=refresher, result_cache_bytes=CACHE
        )
        engine.discover(request_for(scenario))
        for _ in range(3):
            refresher.refresh_now()
            assert engine.discover(request_for(scenario)).cached
        assert engine.stats()["snapshot_epoch"] == 1
        assert engine.stats()["result_cache_hits"] == 3

    def test_matches_refresherless_engine(self, scenario, tmp_path):
        """Serving through a refresher snapshot must reproduce the
        plain engine's results (the catalog seed matches the request's
        prepare seed here, so warm-start discovery is equivalent)."""
        reference = DiscoveryEngine(corpus=scenario.corpus).discover(
            request_for(scenario)
        )
        refresher = CatalogRefresher(
            lambda: scenario.corpus, store=str(tmp_path / "cat"), seed=0
        )
        engine = DiscoveryEngine(refresher=refresher)
        run = engine.discover(request_for(scenario))
        assert run.result.selected == reference.result.selected
        assert run.result.trace == reference.result.trace

    def test_staleness_budget_forces_reverify(self, scenario, tmp_path):
        source = MutableSource(scenario.corpus)
        refresher = CatalogRefresher(source, store=str(tmp_path / "cat"))
        engine = DiscoveryEngine(refresher=refresher, staleness_budget=30.0)
        engine.discover(request_for(scenario))
        cycles = refresher.cycles
        # Within budget: no extra cycle.
        engine.discover(request_for(scenario))
        assert refresher.cycles == cycles
        # Per-request override below the elapsed age: one synchronous
        # re-verification cycle runs before serving.
        time.sleep(0.05)
        engine.discover(request_for(scenario), staleness_budget=0.01)
        assert refresher.cycles == cycles + 1
        assert engine.last_sync_staleness <= 1.0

    def test_refresher_with_background_thread_serves(self, scenario, tmp_path):
        source = MutableSource(scenario.corpus)
        refresher = CatalogRefresher(
            source, store=str(tmp_path / "cat"), interval=0.05
        )
        with refresher:
            engine = DiscoveryEngine(refresher=refresher)
            run = engine.discover(request_for(scenario))
            assert run.completed
            mutated = sorted(
                name for name in source.corpus if name != scenario.base.name
            )[0]
            source.mutate(mutated)
            deadline = time.monotonic() + 10
            while (
                refresher.current().epoch < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert refresher.current().epoch == 2
            follow_up = engine.discover(request_for(scenario))
            assert follow_up.completed
            assert engine.stats()["snapshot_epoch"] == 2
