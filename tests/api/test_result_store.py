"""The result cache's store: run records written to the catalog store.

With a store-backed catalog attached, completed cacheable runs write
their JSON records into the catalog store under content-addressed keys
(base table + registry + request descriptor + whole-corpus content +
catalog config + library version).
Identical requests replay across engine instances and processes; a
changed corpus makes old records unreachable *by key construction*, and
reverting the content makes them valid again — invalidation is exactly
as precise as the content stamps.
"""

import json

import pytest

from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.catalog import Catalog, CatalogStore
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


def request_for(scenario, seed=0):
    return DiscoveryRequest(
        base=scenario.base,
        task="clustering",
        task_options=dict(TASK_OPTIONS),
        searcher="metam",
        seed=seed,
        prepare_seed=0,
        config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=seed),
    )


def engine_for(scenario, root, corpus=None, **overrides):
    options = dict(
        corpus=corpus if corpus is not None else scenario.corpus,
        catalog=Catalog.open(root),
        result_cache_bytes=CACHE,
    )
    options.update(overrides)
    return DiscoveryEngine(**options)


def mutate(corpus, name):
    table = corpus[name]
    columns = {c: list(table.column(c)) for c in table.column_names}
    columns[table.column_names[0]] = [
        f"mut-{v}" for v in columns[table.column_names[0]]
    ]
    out = dict(corpus)
    out[name] = Table(name, columns)
    return out


class TestWarmStartAcrossEngines:
    def test_fresh_engine_replays_spilled_record(self, scenario, tmp_path):
        root = str(tmp_path / "cat")
        first_engine = engine_for(scenario, root)
        reference = first_engine.discover(request_for(scenario))
        assert not reference.cached
        store = CatalogStore(root)
        assert len(store.list_results()) == 1

        # A brand-new engine (fresh process in spirit: no in-memory
        # state shared) over the same store and corpus content.
        second_engine = engine_for(scenario, root)
        seen = []
        replay = second_engine.discover(
            request_for(scenario), progress=seen.append
        )
        assert replay.cached
        assert replay.result.selected == reference.result.selected
        assert replay.result.trace == reference.result.trace
        assert [e.kind for e in seen] == [e.kind for e in reference.events]
        stats = second_engine.stats()
        assert stats["result_store_hits"] == 1
        assert stats["result_cache_hits"] == 1
        assert stats["result_store_active"]
        # The disk hit was re-admitted to memory: a third identical
        # request replays without touching the store again.
        assert second_engine.discover(request_for(scenario)).cached
        assert second_engine.stats()["result_store_hits"] == 1

    def test_record_content(self, scenario, tmp_path):
        root = str(tmp_path / "cat")
        engine = engine_for(scenario, root)
        engine.discover(request_for(scenario))
        store = CatalogStore(root)
        (key,) = store.list_results()
        payload = store.read_result(key)
        assert payload["version"] == 1
        assert payload["record"]["status"] == "completed"
        assert payload["stamp"]["tables"] == len(scenario.corpus)
        assert store.verify()["problems"] == []

    def test_different_requests_get_distinct_records(self, scenario, tmp_path):
        root = str(tmp_path / "cat")
        engine = engine_for(scenario, root)
        engine.discover(request_for(scenario, seed=0))
        engine.discover(request_for(scenario, seed=1))
        assert len(CatalogStore(root).list_results()) == 2

    def test_uncacheable_requests_not_spilled(self, scenario, tmp_path):
        root = str(tmp_path / "cat")
        engine = engine_for(scenario, root)
        candidates = engine.prepare(scenario.base, seed=0)
        engine.discover(request_for(scenario, seed=0))
        request = request_for(scenario)
        request.candidates = candidates  # uncacheable by design
        engine.discover(request)
        assert len(CatalogStore(root).list_results()) == 1


class TestInvalidation:
    def test_changed_table_invalidates_affected_runs_exactly(
        self, scenario, tmp_path
    ):
        """End-to-end: a changed table invalidates the cached runs of
        the corpus that contained it — and *only* by content: reverting
        the corpus to the original content makes the original records
        valid again without re-running anything."""
        root = str(tmp_path / "cat")
        engine = engine_for(scenario, root)
        original = engine.discover(request_for(scenario))
        store = CatalogStore(root)
        assert len(store.list_results()) == 1

        mutated_name = sorted(
            name for name in scenario.corpus if name != scenario.base.name
        )[0]
        changed = mutate(scenario.corpus, mutated_name)
        changed_engine = engine_for(scenario, root, corpus=changed)
        after_change = changed_engine.discover(request_for(scenario))
        assert not after_change.cached  # old record unreachable by key
        assert len(store.list_results()) == 2  # new record, old kept

        # Revert: a fresh engine over the *original* content hits the
        # original record — the invalidation was content-exact, not a
        # destructive wipe.
        reverted = engine_for(scenario, root)
        replay = reverted.discover(request_for(scenario))
        assert replay.cached
        assert replay.result.selected == original.result.selected

    def test_unaffected_request_stays_valid_after_rerun(
        self, scenario, tmp_path
    ):
        """Records written under the changed corpus are keyed by *its*
        content: both corpus states keep their own valid records side
        by side."""
        root = str(tmp_path / "cat")
        mutated_name = sorted(
            name for name in scenario.corpus if name != scenario.base.name
        )[0]
        changed = mutate(scenario.corpus, mutated_name)

        engine_a = engine_for(scenario, root)
        engine_a.discover(request_for(scenario))
        engine_b = engine_for(scenario, root, corpus=changed)
        engine_b.discover(request_for(scenario))

        fresh_a = engine_for(scenario, root)
        fresh_b = engine_for(scenario, root, corpus=changed)
        assert fresh_a.discover(request_for(scenario)).cached
        assert fresh_b.discover(request_for(scenario)).cached

    def test_library_version_stamps_key(self, scenario, tmp_path, monkeypatch):
        root = str(tmp_path / "cat")
        engine = engine_for(scenario, root)
        engine.discover(request_for(scenario))
        import repro

        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        fresh = engine_for(scenario, root)
        assert not fresh.discover(request_for(scenario)).cached


class TestDegradation:
    def test_corrupt_record_degrades_to_live_run(self, scenario, tmp_path):
        root = str(tmp_path / "cat")
        engine = engine_for(scenario, root)
        engine.discover(request_for(scenario))
        store = CatalogStore(root)
        (key,) = store.list_results()
        with open(store._result_path(key), "w", encoding="utf-8") as handle:
            handle.write("{ not json")
        fresh = engine_for(scenario, root)
        run = fresh.discover(request_for(scenario))
        assert run.completed and not run.cached  # re-ran, no crash
        # The re-run overwrote the damage; the next engine replays.
        assert engine_for(scenario, root).discover(request_for(scenario)).cached

    def test_malformed_payload_shapes_degrade(self, scenario, tmp_path):
        root = str(tmp_path / "cat")
        engine = engine_for(scenario, root)
        engine.discover(request_for(scenario))
        store = CatalogStore(root)
        (key,) = store.list_results()
        for payload in ("[]", '{"version": 99}', '{"version": 1}'):
            with open(store._result_path(key), "w", encoding="utf-8") as f:
                f.write(payload)
            fresh = engine_for(scenario, root)
            assert fresh.discover(request_for(scenario)).completed

    def test_reregistration_deactivates_persistent_tier(
        self, scenario, tmp_path
    ):
        """A factory re-registered after construction has no content
        identity the on-disk keys could carry: the tier must neither
        replay records recorded under the old factory nor spill runs of
        the new one for other processes."""
        root = str(tmp_path / "cat")
        engine = engine_for(scenario, root)
        engine.discover(request_for(scenario))
        assert engine.stats()["result_store_active"]
        original = engine.searchers.get("metam")
        engine.searchers.register("metam", original, overwrite=True)
        assert not engine.stats()["result_store_active"]
        rerun = engine.discover(request_for(scenario))
        assert not rerun.cached  # no persistent replay either
        assert len(CatalogStore(root).list_results()) == 1  # no new spill
        # A fresh engine (construction-time registries) replays again.
        assert engine_for(scenario, root).discover(request_for(scenario)).cached

    def test_persist_inactive_without_catalog(self, scenario):
        engine = DiscoveryEngine(
            corpus=scenario.corpus,
            result_cache_bytes=CACHE,
        )
        run = engine.discover(request_for(scenario))
        assert run.completed
        assert not engine.stats()["result_store_active"]


class TestStoreSection:
    def test_eviction_budget(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        for i in range(4):
            store.write_result(f"key{i:02d}", {"version": 1, "i": i})
        total = store.result_bytes()
        assert total > 0
        per_record = total // 4
        evicted, freed = store.evict_results(per_record * 2)
        assert evicted == 2
        assert freed > 0
        assert len(store.list_results()) == 2
        # Oldest evicted first; the newest survive.
        assert store.read_result("key03") is not None

    def test_write_budget_enforced_on_write(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_result("a", {"version": 1, "pad": "x" * 100})
        size = store.result_bytes()
        store.result_budget_bytes = int(size * 1.5)
        store.write_result("b", {"version": 1, "pad": "y" * 100})
        # The just-written record is never evicted; the older one went.
        assert store.list_results() == ["b"]

    def test_read_touches_lru(self, tmp_path, monkeypatch):
        from repro.catalog import store as store_module

        clock = [1000.0]
        monkeypatch.setattr(store_module, "_now", lambda: clock[0])
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_result("old", {"version": 1, "pad": "x" * 50})
        clock[0] += 10
        store.write_result("new", {"version": 1, "pad": "y" * 50})
        clock[0] += 10
        assert store.read_result("old") is not None  # touch refreshes
        clock[0] += 10
        evicted, _freed = store.evict_results(store.result_bytes() // 2)
        assert evicted >= 1
        assert store.read_result("old") is not None  # survived (touched)
        assert store.read_result("new") is None

    def test_stats_count_results(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_result("k", {"version": 1})
        stats = store.stats()
        assert stats["run_records"] == 1
        assert stats["result_bytes"] > 0

    def test_verify_flags_corrupt_record(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        store.write_result("k", {"version": 1})
        with open(store._result_path("k"), "w", encoding="utf-8") as handle:
            handle.write("不{")
        problems = store.verify()["problems"]
        assert any("run record" in p for p in problems)

    def test_record_roundtrip_bytes(self, tmp_path):
        store = CatalogStore(str(tmp_path / "cat"))
        payload = {"version": 1, "record": {"nested": [1, 2.5, "x", None]}}
        store.write_result("k", payload)
        assert store.read_result("k") == json.loads(json.dumps(payload))
