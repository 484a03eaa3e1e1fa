"""Result replay across interpreters: two processes, one catalog store.

The result tier's key is a content digest, so a record one interpreter
wrote to a store-backed catalog replays in another interpreter that
serves the same request over the same content — no in-process state is
shared, and no option beyond ``result_cache_bytes`` is involved.
"""

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

#: One interpreter's whole life: open the shared catalog, serve one
#: cacheable request, report how it was served.
SERVE_ONCE = """
import json, sys
from repro.api import DiscoveryEngine, DiscoveryRequest
from repro.catalog import Catalog
from repro.core.config import MetamConfig
from repro.data import clustering_scenario

scenario = clustering_scenario(seed=0)
engine = DiscoveryEngine(
    corpus=scenario.corpus,
    catalog=Catalog.open(sys.argv[1]),
    result_cache_bytes=8 << 20,
)
run = engine.discover(DiscoveryRequest(
    base=scenario.base,
    task="clustering",
    task_options={"score_column": "satiety_score", "n_clusters": 3,
                  "exclude_columns": ["ingredient_id"], "seed": 0},
    searcher="metam",
    prepare_seed=0,
    config=MetamConfig(theta=0.6, query_budget=25, epsilon=0.1, seed=0),
))
print(json.dumps({
    "cached": run.cached,
    "tier": run.cache_info.get("result_cache_tier"),
    "selected": run.result.selected,
    "trace": run.result.trace,
    "utility": run.result.utility,
    "store_hits": engine.stats()["result_store_hits"],
}))
"""


def serve_once(root: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", SERVE_ONCE, root],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=300,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_second_interpreter_replays_from_store(tmp_path):
    root = str(tmp_path / "cat")
    first = serve_once(root)
    assert first["cached"] is False
    assert first["tier"] is None
    second = serve_once(root)
    assert second["cached"] is True
    assert second["tier"] == "store"
    assert second["store_hits"] == 1
    assert second["selected"] == first["selected"]
    assert second["trace"] == first["trace"]
    assert second["utility"] == first["utility"]
