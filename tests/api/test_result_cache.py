"""The engine-level result cache: exact replays of recorded runs."""

import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import CancellationToken, DiscoveryEngine, DiscoveryRequest
from repro.catalog import CatalogRefresher
from repro.core.config import MetamConfig
from repro.data import clustering_scenario
from repro.dataframe.table import Table

CACHE_BYTES = 8 << 20

#: The corpus table whose content the exactness tests change.
CHANGED_TABLE = "nutrition_db"

#: The clustering scenario's task, expressed as a registry name — only
#: name-based tasks have a canonical identity, so only they are
#: cacheable.
TASK_OPTIONS = {
    "score_column": "satiety_score",
    "n_clusters": 3,
    "exclude_columns": ("ingredient_id",),
    "seed": 0,
}


@pytest.fixture(scope="module")
def scenario():
    return clustering_scenario(seed=0)


def request_for(scenario, **overrides):
    fields = dict(
        base=scenario.base,
        task="clustering",
        task_options=dict(TASK_OPTIONS),
        searcher="metam",
        config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=0),
    )
    fields.update(overrides)
    return DiscoveryRequest(**fields)


def seeded(scenario, seed):
    return request_for(
        scenario,
        seed=seed,
        config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=seed),
    )


def cached_engine(scenario, **overrides):
    options = dict(corpus=scenario.corpus, result_cache_bytes=CACHE_BYTES)
    options.update(overrides)
    return DiscoveryEngine(**options)


class TestHits:
    def test_identical_request_replays(self, scenario):
        engine = cached_engine(scenario)
        first = engine.discover(request_for(scenario))
        second = engine.discover(request_for(scenario))
        assert not first.cached
        assert second.cached
        assert second.run_id != first.run_id
        assert second.result.selected == first.result.selected
        assert second.result.trace == first.result.trace
        assert second.result.utility == first.result.utility
        # Replays carry the recorded events and timings.
        assert [e.kind for e in second.events] == [e.kind for e in first.events]
        assert second.search_seconds == first.search_seconds
        stats = engine.stats()
        assert stats["result_cache_hits"] == 1
        assert stats["result_cache_entries"] == 1
        assert stats["result_cache_bytes"] > 0
        assert stats["runs_started"] == 2
        assert stats["runs_completed"] == 2
        assert stats["queries_served"] == 2 * first.result.queries

    def test_replay_streams_recorded_events(self, scenario):
        engine = cached_engine(scenario)
        first = engine.discover(request_for(scenario))
        seen = []
        second = engine.discover(request_for(scenario), progress=seen.append)
        assert second.cached
        assert seen == first.events

    def test_record_marks_cached(self, scenario):
        engine = cached_engine(scenario)
        engine.discover(request_for(scenario))
        record = engine.discover(request_for(scenario)).to_record()
        assert record["cached"] is True

    def test_replay_matches_uncached_engine(self, scenario):
        plain = DiscoveryEngine(corpus=scenario.corpus)
        reference = plain.discover(request_for(scenario))
        engine = cached_engine(scenario)
        engine.discover(request_for(scenario))
        replay = engine.discover(request_for(scenario))
        assert replay.result.selected == reference.result.selected
        assert replay.result.trace == reference.result.trace

    def test_different_requests_miss(self, scenario):
        engine = cached_engine(scenario)
        engine.discover(request_for(scenario))
        other = engine.discover(seeded(scenario, seed=1))
        assert not other.cached
        assert engine.stats()["result_cache_hits"] == 0
        assert engine.stats()["result_cache_entries"] == 2


class TestBypasses:
    def test_disabled_by_default(self, scenario):
        engine = DiscoveryEngine(corpus=scenario.corpus)
        engine.discover(request_for(scenario))
        second = engine.discover(request_for(scenario))
        assert not second.cached
        assert engine.stats()["result_cache_hits"] == 0

    def test_supplied_candidates_bypass(self, scenario):
        engine = cached_engine(scenario)
        candidates = engine.prepare(scenario.base, seed=0)
        request = request_for(scenario, candidates=candidates)
        engine.discover(request)
        assert not engine.discover(request).cached

    def test_task_objects_bypass(self, scenario):
        # A live task object has no canonical identity.
        request = request_for(scenario, task=scenario.task, task_options={})
        assert request.cache_descriptor() is None
        engine = cached_engine(scenario)
        engine.discover(request)
        assert not engine.discover(request).cached

    def test_non_canonical_options_bypass(self, scenario):
        request = request_for(scenario, options={"callback": object()})
        assert request.cache_descriptor() is None

    def test_pre_cancelled_token_bypasses_cache(self, scenario):
        # A cancelled token must yield a cancelled run even when an
        # identical completed run is recorded — never a happy replay.
        engine = cached_engine(scenario)
        engine.discover(request_for(scenario))
        token = CancellationToken()
        token.cancel()
        run = engine.discover(request_for(scenario), cancel=token)
        assert run.cancelled
        assert not run.cached

    def test_cancelled_runs_not_cached(self, scenario):
        engine = cached_engine(scenario)
        token = CancellationToken()
        token.cancel()
        run = engine.discover(request_for(scenario), cancel=token)
        assert run.cancelled
        assert engine.stats()["result_cache_entries"] == 0


def changed_corpus(scenario):
    """The scenario corpus with the join keys of ``nutrition_db`` — the
    table the clustering answer comes from — rewritten, so the same
    request selects differently over it."""
    table = scenario.corpus[CHANGED_TABLE]
    columns = {c: list(table.column(c)) for c in table.column_names}
    key = table.column_names[0]
    columns[key] = [f"mut-{v}" for v in columns[key]]
    corpus = dict(scenario.corpus)
    corpus[CHANGED_TABLE] = Table(CHANGED_TABLE, columns)
    return corpus


def fresh_run(corpus, request):
    """The reference every replay must equal: a fresh engine without a
    result cache (or catalog) serving ``request`` live over ``corpus``."""
    return DiscoveryEngine(corpus=corpus).discover(request)


def assert_same_run(run, reference):
    assert run.result.selected == reference.result.selected
    assert run.result.trace == reference.result.trace
    assert run.result.utility == reference.result.utility


class TestInvalidation:
    """Nothing is invalidated: keys carry content, so changed content
    misses, identical or reverted content hits, and every hit equals a
    fresh uncached run."""

    def test_attach_corpus_keys_by_content(self, scenario):
        engine = cached_engine(scenario)
        original = engine.discover(request_for(scenario))
        # Re-attaching identical content (a new dict) keeps replaying.
        engine.attach_corpus(dict(scenario.corpus))
        same = engine.discover(request_for(scenario))
        assert same.cached
        assert_same_run(same, fresh_run(scenario.corpus, request_for(scenario)))
        changed = changed_corpus(scenario)
        engine.attach_corpus(changed)
        after = engine.discover(request_for(scenario))
        assert not after.cached
        assert after.result.selected != original.result.selected
        assert_same_run(after, fresh_run(changed, request_for(scenario)))
        # Reverting the content makes the original record reachable.
        engine.attach_corpus(scenario.corpus)
        reverted = engine.discover(request_for(scenario))
        assert reverted.cached
        assert_same_run(reverted, original)
        assert engine.stats()["result_cache_entries"] == 2

    def test_mid_run_corpus_swap_cannot_serve_stale_replay(self, scenario):
        """A run in flight across an ``attach_corpus`` of changed content
        is keyed by the corpus it searched — requests against the new
        corpus can never replay it."""
        engine = cached_engine(scenario)
        changed = changed_corpus(scenario)

        def swap_mid_run(event):
            if event.kind == "query-issued" and event.query_index == 1:
                engine.attach_corpus(changed)

        run = engine.discover(request_for(scenario), progress=swap_mid_run)
        assert run.completed
        assert_same_run(run, fresh_run(scenario.corpus, request_for(scenario)))
        follow_up = engine.discover(request_for(scenario))
        assert not follow_up.cached
        assert_same_run(follow_up, fresh_run(changed, request_for(scenario)))
        replay = engine.discover(request_for(scenario))
        assert replay.cached
        assert_same_run(replay, follow_up)
        # The mid-run record sits under the content it searched.
        engine.attach_corpus(scenario.corpus)
        back = engine.discover(request_for(scenario))
        assert back.cached
        assert_same_run(back, run)

    def test_catalog_content_change_stays_exact(self, scenario, tmp_path):
        """Another writer grows the catalog behind the engine's back;
        the next prepare re-syncs the catalog to the corpus, so the
        recorded run still reproduces and keeps replaying."""
        from repro.catalog import Catalog

        catalog = Catalog.open(str(tmp_path / "cat"))
        engine = DiscoveryEngine(
            corpus=scenario.corpus,
            catalog=catalog,
            result_cache_bytes=CACHE_BYTES,
        )
        engine.discover(request_for(scenario))
        catalog.add(Table("foreign_t", {"k": ["a", "b"], "v": [1, 2]}))
        # A new prepare key, so the prepared-candidate cache does not
        # short-circuit the catalog refresh.
        other = engine.discover(seeded(scenario, seed=1))
        assert not other.cached
        assert engine.stats()["result_cache_entries"] == 2
        replay = engine.discover(request_for(scenario))
        assert replay.cached
        assert_same_run(replay, fresh_run(scenario.corpus, request_for(scenario)))

    def test_out_of_band_catalog_mutation_replays_exactly(
        self, scenario, tmp_path
    ):
        """Mutating the public catalog directly changes no content the
        run depends on: the identical request replays, and the replay
        equals a fresh prepare over the mutated catalog and a run with
        no catalog at all."""
        from repro.catalog import Catalog

        catalog = Catalog.open(str(tmp_path / "cat"))
        engine = DiscoveryEngine(
            corpus=scenario.corpus,
            catalog=catalog,
            result_cache_bytes=CACHE_BYTES,
        )
        engine.discover(request_for(scenario))
        catalog.add(Table("foreign_t", {"k": ["a", "b"], "v": [1, 2]}))
        replay = engine.discover(request_for(scenario))
        assert replay.cached
        over_mutated = DiscoveryEngine(
            corpus=scenario.corpus, catalog=catalog
        ).discover(request_for(scenario))
        assert_same_run(replay, over_mutated)
        assert_same_run(replay, fresh_run(scenario.corpus, request_for(scenario)))

    def test_searcher_reregistration_blocks_replay(self, scenario):
        """Replacing a searcher factory under the same name must not
        replay runs recorded under the old factory."""
        engine = cached_engine(scenario)
        engine.discover(request_for(scenario))
        assert engine.discover(request_for(scenario)).cached
        original = engine.searchers.get("metam")
        engine.searchers.register("metam", original, overwrite=True)
        assert not engine.discover(request_for(scenario)).cached

    def test_replay_progress_failure_counts_as_failed(self, scenario):
        engine = cached_engine(scenario)
        engine.discover(request_for(scenario))

        def explode(event):
            raise RuntimeError("progress bug")

        with pytest.raises(RuntimeError, match="progress bug"):
            engine.discover(request_for(scenario), progress=explode)
        stats = engine.stats()
        assert stats["runs_failed"] == 1
        assert stats["runs_started"] == (
            stats["runs_completed"]
            + stats["runs_cancelled"]
            + stats["runs_failed"]
        )


class TestBudget:
    def test_oversized_run_not_stored(self, scenario):
        engine = cached_engine(scenario, result_cache_bytes=64)
        engine.discover(request_for(scenario))
        assert engine.stats()["result_cache_entries"] == 0
        assert not engine.discover(request_for(scenario)).cached

    def test_budget_evicts_lru(self, scenario):
        engine = cached_engine(scenario)
        first = request_for(scenario)
        engine.discover(first)
        size = engine.stats()["result_cache_bytes"]
        # Shrink the budget to just over one record: the next distinct
        # request evicts the first.
        engine._results.max_bytes = int(size * 1.5)
        engine.discover(seeded(scenario, seed=1))
        assert engine.stats()["result_cache_entries"] == 1
        assert not engine.discover(first).cached  # evicted

    def test_result_cache_bytes_validated(self, scenario):
        with pytest.raises(ValueError, match="max_bytes"):
            DiscoveryEngine(corpus=scenario.corpus, result_cache_bytes=-1)


def spills(engine) -> float:
    return engine.metrics.value(
        "repro_engine_result_cache_events_total", event="spill"
    )


class TestSpillCounter:
    """``spill`` counts records written to the store — nothing else."""

    def test_memory_only_engine_never_spills(self, scenario):
        engine = cached_engine(scenario)
        engine.discover(request_for(scenario))
        assert engine.stats()["result_cache_entries"] == 1
        assert spills(engine) == 0

    def test_refused_record_does_not_spill(self, scenario):
        engine = cached_engine(scenario, result_cache_bytes=64)
        engine.discover(request_for(scenario))
        assert engine.stats()["result_cache_entries"] == 0
        assert spills(engine) == 0

    def test_store_write_spills_once(self, scenario, tmp_path):
        from repro.catalog import Catalog

        catalog = Catalog.open(str(tmp_path / "cat"))
        engine = cached_engine(scenario, catalog=catalog)
        engine.discover(request_for(scenario))
        assert engine.discover(request_for(scenario)).cached  # no write
        assert spills(engine) == 1
        assert len(catalog.store.list_results()) == 1


def model_request(scenario, seed):
    return request_for(
        scenario,
        seed=seed,
        prepare_seed=0,  # the refresher catalog's index seed
        config=MetamConfig(theta=0.6, query_budget=10, epsilon=0.1, seed=seed),
    )


#: One step of the model test: a cacheable discover (by search seed),
#: a corpus swap, an out-of-band catalog write, a refresher cycle over a
#: toggled source, a searcher re-registration, or an engine restart
#: over the same store.
MODEL_DISCOVER = st.tuples(st.just("discover"), st.sampled_from((0, 1)))
MODEL_STEPS = st.one_of(
    MODEL_DISCOVER,
    MODEL_DISCOVER,  # twice: replays need repeated requests
    st.tuples(st.just("attach"), st.sampled_from(("original", "changed"))),
    st.just(("catalog_add",)),
    st.just(("refresher_toggle",)),
    st.just(("reregister",)),
    st.just(("restart",)),
)


@pytest.fixture(scope="module")
def references():
    """Memo of fresh uncached runs by (corpus variant, search seed)."""
    return {}


class TestModelExactness:
    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(MODEL_STEPS, min_size=1, max_size=10))
    @example(
        steps=[
            ("discover", 0),
            ("discover", 0),
            ("attach", "changed"),
            ("discover", 0),
            ("attach", "original"),
            ("discover", 0),
            ("restart",),
            ("discover", 0),
        ]
    )
    def test_every_run_equals_a_fresh_uncached_run(
        self, scenario, references, steps
    ):
        """Whatever happened to the corpus, catalog, refresher, or
        registries, a served run — replayed from the memory front or
        the store, or live — equals a fresh uncached engine's run over
        the corpus the engine now serves."""
        variants = {
            "original": scenario.corpus,
            "changed": changed_corpus(scenario),
        }
        with tempfile.TemporaryDirectory() as root:
            source = ["original"]
            refresher = CatalogRefresher(
                lambda: variants[source[0]],
                store=os.path.join(root, "cat"),
                seed=0,
            )

            def start_engine():
                return DiscoveryEngine(
                    refresher=refresher, result_cache_bytes=CACHE_BYTES
                )

            engine = start_engine()
            serving = "original"
            published = None  # a snapshot the engine has yet to adopt
            foreign = 0
            for step in steps:
                kind = step[0]
                if kind == "discover":
                    if published is not None:
                        # Adopted at this request boundary, over any
                        # corpus attached since it was published.
                        serving, published = published, None
                    request = model_request(scenario, step[1])
                    run = engine.discover(request)
                    key = (serving, step[1])
                    if key not in references:
                        references[key] = fresh_run(variants[serving], request)
                    assert_same_run(run, references[key])
                elif kind == "attach":
                    engine.attach_corpus(variants[step[1]])
                    serving = step[1]
                elif kind == "catalog_add":
                    foreign += 1
                    engine.catalog.add(
                        Table(f"foreign_{foreign}", {"k": ["a", "b"], "v": [1, 2]})
                    )
                elif kind == "refresher_toggle":
                    source[0] = (
                        "changed" if source[0] == "original" else "original"
                    )
                    refresher.refresh_now()
                    published = source[0]
                elif kind == "reregister":
                    factory = engine.searchers.get("metam")
                    engine.searchers.register("metam", factory, overwrite=True)
                else:  # restart: a new engine over the same store
                    engine = start_engine()
                    serving, published = source[0], None
