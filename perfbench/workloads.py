"""The benchmark's two workloads, each driven through the public API.

A workload makes its inputs from the benchmark seed (untimed), sets
itself up (timed: ``setup_s``), then serves requests from closed-loop
clients.  Request ``i`` of a run is fully determined by the seed and
``i``; the first :attr:`Workload.prefix` requests define the
deterministic figures (``utility.mean``, ``queries.mean``, work
counters) and are the ones whose digests are committed.

The data sets (the scenario repository, the lake corpus and the lake base
table's join keys) come from fixed seeds, and the benchmark seed draws
the requests: search seeds, the lake base table's feature and target
values, and which lake tables change.  With the data seeded too, a
run's cost moved by up to a third between seeds (another scenario or
another set of base keys is another amount of model-fitting or
candidate work), far beyond the bounds a regression check needs.

Every request's output is digested (selected augmentation ids, utility
and query trace; on the lake workload also the candidate ids and
profile vectors) and checked three ways: against the committed digests
when the seed has them, against the digest of an earlier request with
the same parameters in the same run, and against invariants any correct
run satisfies.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import DiscoveryEngine, DiscoveryRequest, MetamConfig
from repro.api.request import CandidateSpec
from repro.api.wire import request_from_wire
from repro.core.serialization import result_to_dict
from repro.data import generate_corpus, sat_howto_scenario
from repro.data.generator import make_keys
from repro.dataframe.table import Table
from repro.server import DiscoveryService, ServiceConfig
from repro.tasks import RegressionTask

#: Scale of the scenario workload: 120 + 48 + 24 generated tables next
#: to the scenario's 4 relevant ones.
SCENARIO_SCALE = {"n_irrelevant": 120, "n_erroneous": 48, "n_traps": 24}
#: Seeds of the data sets (see the module docstring); the lake corpus
#: is the one ``benchmarks/bench_kernels.py`` prepares.
SCENARIO_SEED = 0
LAKE_CORPUS_SEED = 7
LAKE_KEYS_SEED = 3
LAKE_TABLES = 2000
LAKE_SPEC = CandidateSpec(min_containment=0.3, max_hops=1, max_fanout=500)
#: Share of lake tables whose content changes before each refresh request.
CHANGED_SHARE = 0.01


@dataclass
class Outcome:
    """One finished request, as the client saw it."""

    index: int
    seconds: float
    digest: str
    utility: float
    queries: int
    problems: list = field(default_factory=list)


def digest_result(result: dict, candidates=None) -> str:
    """Digest of a search result (``result_to_dict`` form) and, when
    given, of the prepared candidates' ids and profile vectors."""
    payload = {
        "selected": list(result["selected"]),
        "utility": repr(float(result["utility"])),
        "queries": int(result["queries"]),
        "trace": [[int(q), repr(float(u))] for q, u in result["trace"]],
    }
    hasher = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    for candidate in candidates or ():
        hasher.update(candidate.aug_id.encode())
        hasher.update(np.asarray(candidate.profile_vector, dtype=np.float64).tobytes())
    return hasher.hexdigest()[:16]


def check_result(result: dict, budget: int) -> list:
    """Invariants of any correct search result."""
    problems = []
    utility, trace = float(result["utility"]), result["trace"]
    if not 0.0 <= utility <= 1.0:
        problems.append(f"utility {utility} outside [0, 1]")
    if not 0 < int(result["queries"]) <= budget:
        problems.append(f"{result['queries']} queries with budget {budget}")
    if len(trace) != int(result["queries"]):
        problems.append("query trace length differs from the query count")
    bests = [float(u) for _, u in trace]
    if bests != sorted(bests):
        problems.append("best-so-far utility in the trace decreased")
    return problems


def _outcome(index, seconds, result: dict, budget, candidates=None, status="completed"):
    if status != "completed" or result is None:
        return Outcome(index, seconds, "", 0.0, 0, [f"run ended {status}"])
    return Outcome(
        index,
        seconds,
        digest_result(result, candidates),
        float(result["utility"]),
        int(result["queries"]),
        check_result(result, budget),
    )


class Workload:
    """Base: subclasses define inputs, setup and one request.

    ``scale`` shrinks every generated input (1.0 is the benchmark; the
    self-test's smoke mode runs at a few percent)."""

    name = ""
    why = ""
    #: Closed-loop client threads.
    clients = 1
    #: Requests whose figures are deterministic (and digests committed).
    prefix = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setup_reps = 1
    #: Query budget of each request.
    budget = 30

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def scaled(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def inputs(self, seed: int):
        raise NotImplementedError

    def setup(self, inputs):
        """Build a ready state (timed)."""
        raise NotImplementedError

    def warmup(self, state) -> Outcome | None:
        """Optional untimed-loop request run at the end of set-up."""
        return None

    def request(self, state, index: int) -> Outcome:
        raise NotImplementedError

    def variant(self, index: int) -> int:
        """Which of the ``prefix`` distinct requests request ``index`` is;
        requests of one variant must produce identical digests."""
        return index % self.prefix

    def tag_of(self, state, request):
        """Request index of a request seen on an engine worker thread
        (``None``: requests run on the client thread, which is tagged)."""
        return None

    def verify(self, state, outcomes) -> None:
        """Whole-run checks after the loop (untimed); a failed check is
        appended to the outcome's ``problems``."""

    def close(self, state) -> None:
        pass


def _metam_config(budget: int, seed: int) -> MetamConfig:
    return MetamConfig(theta=1.0, query_budget=budget, epsilon=0.1, seed=seed)


# ---------------------------------------------------------------------------
class HowtoServed(Workload):
    name = "howto-served"
    why = ("causal how-to searches served by an in-process DiscoveryService "
           "to 2 tenants; no forest, so scheduling and bookkeeping dominate")
    clients = 2
    prefix = 20
    #: A set-up takes about 1.2 s and the host's speed phases last from
    #: seconds to minutes: the median of nine spans about 11 s.
    setup_reps = 9
    budget = 30
    #: Request seeds are ``seed * SEED_STRIDE + index`` (one per request).
    SEED_STRIDE = 100000

    def inputs(self, seed):
        scale = {k: self.scaled(n) for k, n in SCENARIO_SCALE.items()}
        scenario = sat_howto_scenario(seed=SCENARIO_SEED, **scale)
        task = scenario.task
        task_options = {
            "outcome_column": task.outcome_column,
            "truth_causes": sorted(task.truth_causes),
            "base_columns": list(task.base_columns),
            "exclude_columns": sorted(task.exclude_columns),
        }
        return {"seed": seed, "scenario": scenario, "task_options": task_options}

    def payload(self, state, index) -> dict:
        search_seed = state["seed"] * self.SEED_STRIDE + index
        return {
            "base": state["scenario"].base.name,
            "task": "howto",
            "task_options": state["task_options"],
            "searcher": "metam",
            "seed": search_seed,
            "prepare_seed": 0,
            "config": {"theta": 1.0, "query_budget": self.budget,
                       "epsilon": 0.1, "seed": search_seed},
        }

    def setup(self, inputs):
        scenario = inputs["scenario"]

        def factory(metrics=None):
            engine = DiscoveryEngine(
                corpus=scenario.corpus, metrics=metrics, max_workers=2
            )
            engine.prepare(scenario.base, seed=0)
            return engine

        # Quota and queue far above what two closed-loop clients can
        # reach: admission must never refuse a request here.
        service = DiscoveryService(
            {"howto": factory},
            bases={"howto": {scenario.base.name: scenario.base}},
            config=ServiceConfig(
                tenant_rate=1e6, tenant_burst=1e6, max_queue_depth=64
            ),
        )
        sessions = [
            service.create_session(f"tenant{c}")["session_id"]
            for c in range(self.clients)
        ]
        return {**inputs, "service": service, "sessions": sessions}

    def warmup(self, state):
        # One served request: the engine pool starts lazily on the first.
        return self._serve(state, 0, self.payload(state, 0))

    def _serve(self, state, index, payload):
        service = state["service"]
        session = state["sessions"][index % self.clients]
        start = time.perf_counter()
        run_id = service.submit(session, payload)["run_id"]
        for _event in service.events(run_id, timeout=120):
            pass
        seconds = time.perf_counter() - start
        described = service.status(run_id)
        record = described.get("record") or {}
        return _outcome(
            index, seconds, record.get("result"), self.budget,
            status=described["state"],
        )

    def request(self, state, index):
        return self._serve(state, index, self.payload(state, index))

    def variant(self, index):
        return index  # every request has its own seed

    def tag_of(self, state, request):
        return request.seed - state["seed"] * self.SEED_STRIDE

    def verify(self, state, outcomes):
        # Served results must equal in-process discover() on a fresh
        # engine, request for request (checked on the first `prefix`).
        scenario = state["scenario"]
        engine = DiscoveryEngine(corpus=scenario.corpus)
        lookup = {scenario.base.name: scenario.base, **engine.corpus}
        try:
            for outcome in outcomes:
                if outcome.index >= self.prefix:
                    continue
                request = request_from_wire(self.payload(state, outcome.index), lookup)
                run = engine.discover(request)
                direct = digest_result(result_to_dict(run.result))
                if direct != outcome.digest:
                    outcome.problems.append(
                        f"served {outcome.digest} != direct discover() {direct}"
                    )
        finally:
            engine.shutdown()

    def close(self, state):
        state["service"].shutdown(timeout=60)


# ---------------------------------------------------------------------------
def lake_inputs(seed: int, n_tables: int) -> dict:
    """The lake corpus plus the 300-row, 4-key base of
    ``benchmarks/bench_kernels.py`` (rows drawn from ``seed``), with one
    numeric feature ``x`` that the ``target`` depends on (so utilities
    are informative, not 0)."""
    corpus = generate_corpus(n_tables, seed=LAKE_CORPUS_SEED)
    keys_rng = np.random.default_rng(LAKE_KEYS_SEED)
    n_rows = 300
    columns = {}
    for pool in range(4):
        keys = make_keys(400, prefix=f"k{pool}_", start=0)
        columns[f"key{pool}"] = [
            keys[i] for i in keys_rng.integers(0, len(keys), n_rows)
        ]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n_rows)
    columns["x"] = x.tolist()
    columns["target"] = (x + rng.normal(scale=0.1, size=n_rows)).tolist()
    return {"seed": seed, "corpus": corpus, "base": Table("bench_base", columns)}


def lake_request(state, budget: int) -> DiscoveryRequest:
    # Every lake request is the same request (search seed = run seed):
    # each one must reproduce the first one's digest exactly.
    return DiscoveryRequest(
        base=state["base"],
        task=RegressionTask("target"),
        searcher="metam",
        seed=state["seed"],
        prepare_seed=0,
        spec=LAKE_SPEC,
        config=_metam_config(budget, state["seed"]),
    )


def lake_outcome(index, seconds, engine, run, state, budget):
    """Outcome with the candidate set in the digest (the prepare below
    is a cache hit of the request's own prepare, outside its timing)."""
    result = result_to_dict(run.result) if run.result is not None else None
    with state["untimed"]():
        candidates = engine.prepare(state["base"], spec=LAKE_SPEC, seed=0)
    return _outcome(index, seconds, result, budget, candidates, status=run.status)


class LakeRefresh(Workload):
    name = "lake2000-refresh"
    why = ("reopen a saved 2000-table catalog against a lake with 1% of "
           "tables changed (store reads, re-signing, write-back); its set-up "
           "is the cold 2000-table build")
    prefix = 1
    budget = 10
    #: Each set-up is a cold 2000-table catalog build and save.
    setup_reps = 2

    def __init__(self, workdir: str, scale: float = 1.0):
        super().__init__(scale)
        self.workdir = workdir

    def inputs(self, seed):
        inputs = lake_inputs(seed, self.scaled(LAKE_TABLES))
        corpus = inputs["corpus"]
        rng = np.random.default_rng(seed + 1)
        changed = set(rng.choice(
            len(corpus), max(1, int(len(corpus) * CHANGED_SHARE)), replace=False
        ).tolist())
        inputs["changed_corpus"] = [
            _changed(table) if i in changed else table
            for i, table in enumerate(corpus)
        ]
        inputs["store"] = os.path.join(self.workdir, "saved")
        inputs["work"] = os.path.join(self.workdir, "request")
        return inputs

    def setup(self, inputs):
        shutil.rmtree(inputs["store"], ignore_errors=True)
        engine = DiscoveryEngine.open(
            inputs["store"], corpus=inputs["corpus"],
            min_containment=LAKE_SPEC.min_containment,
        )
        try:
            engine.prepare(inputs["base"], spec=LAKE_SPEC, seed=0)
            engine.catalog.save()
        finally:
            engine.shutdown()
        return {**inputs, "untimed": contextlib.nullcontext}

    def request(self, state, index):
        # Each request starts from the saved store (untimed copy), so
        # every one re-signs and writes back the same 1% of tables.
        shutil.rmtree(state["work"], ignore_errors=True)
        shutil.copytree(state["store"], state["work"])
        os.sync()  # write the copy back now, not during the timed request
        gc.collect()
        start = time.perf_counter()
        engine = DiscoveryEngine.open(
            state["work"], corpus=state["changed_corpus"], create=False
        )
        run = engine.discover(lake_request(state, self.budget))
        seconds = time.perf_counter() - start
        try:
            return lake_outcome(index, seconds, engine, run, state, self.budget)
        finally:
            engine.shutdown()

    def close(self, state):
        shutil.rmtree(state["work"], ignore_errors=True)
        shutil.rmtree(state["store"], ignore_errors=True)


def _changed(table: Table) -> Table:
    """``table`` with every value of its last column shifted by one."""
    columns = {name: list(table.column(name)) for name in table.column_names}
    last = table.column_names[-1]
    columns[last] = [
        v + 1.0 if isinstance(v, float) else v for v in columns[last]
    ]
    return Table(table.name, columns, source=table.source)


def all_workloads(workdir: str, scale: float = 1.0) -> dict:
    return {
        w.name: w
        for w in (HowtoServed(scale), LakeRefresh(workdir, scale))
    }


# ---------------------------------------------------------------------------
class CpuRotation:
    """While active, moves the calling thread to the next CPU of the
    process's set every :attr:`PERIOD` seconds (a no-op unless
    ``enabled`` and the set has more than one CPU).

    On a shared host each virtual CPU's speed drifts on its own, by up
    to 1.5x in phases that last from seconds to minutes.  A single thread stays on the
    CPU it started on, so it measured that CPU's phase; rotating makes
    every set-up, and every multi-second request, sample all of the
    process's CPUs.  The program's work is unchanged.  A thread started
    meanwhile inherits the one CPU of the moment, so on exit every
    thread of the process gets the whole set back."""

    #: Seconds on one CPU before moving to the next.
    PERIOD = 0.5

    def __init__(self, enabled: bool = True):
        cpus = []
        if enabled and hasattr(os, "sched_setaffinity"):
            cpus = sorted(os.sched_getaffinity(0))
        self.cpus = cpus if len(cpus) > 1 else []
        self._stop = threading.Event()
        self._thread = None

    def __enter__(self):
        if self.cpus:
            self._tid = threading.get_native_id()
            self._thread = threading.Thread(
                target=self._rotate, name="cpu-rotation", daemon=True
            )
            self._thread.start()
        return self

    def _rotate(self):
        turn = 0
        while not self._stop.wait(self.PERIOD):
            turn += 1
            os.sched_setaffinity(self._tid, {self.cpus[turn % len(self.cpus)]})

    def __exit__(self, *exc_info):
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            for tid in os.listdir("/proc/self/task"):
                with contextlib.suppress(ProcessLookupError):
                    os.sched_setaffinity(int(tid), self.cpus)
        return False


def closed_loop(workload, state, seconds: float, on_start=None) -> tuple:
    """Run the workload's clients until ``seconds`` have passed and at
    least ``prefix`` requests completed; returns
    ``(outcomes, timed_wall, errors)``.

    Client ``c`` issues requests ``c, c + clients, c + 2 * clients, ...``
    and sends each only after the previous one returned.  The time a
    request call spends outside its own timing (copying the saved store,
    collecting garbage, digesting the output) is the benchmark's, not
    the program's: ``timed_wall`` is the loop's wall time minus the part
    of it every client spent there (all of it with one client)."""
    outcomes = []
    lock = threading.Lock()
    errors = []
    untimed = [0.0] * workload.clients
    per_client = -(-workload.prefix // workload.clients)
    start = time.perf_counter()
    deadline = start + seconds

    def client(c):
        j = 0
        try:
            while j < per_client or time.perf_counter() < deadline:
                index = j * workload.clients + c
                if on_start is not None:
                    on_start(index)
                called = time.perf_counter()
                outcome = workload.request(state, index)
                untimed[c] += time.perf_counter() - called - outcome.seconds
                with lock:
                    outcomes.append(outcome)
                j += 1
        except Exception as error:  # noqa: BLE001 - reported as a failure
            with lock:
                errors.append(f"client {c}: {error!r}")

    if workload.clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}")
            for c in range(workload.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    wall = time.perf_counter() - start
    outcomes.sort(key=lambda o: o.index)
    return outcomes, wall - min(untimed), errors
