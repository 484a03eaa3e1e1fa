"""DiscoveryService semantics: admission, quotas, fairness, lifecycle,
drain — everything the HTTP layer relies on, tested without a socket."""

import threading

import pytest

from repro.api import DiscoveryEngine
from repro.api.errors import Internal, InvalidRequest, NotFound, Overloaded
from repro.data import generate_corpus
from repro.server import DiscoveryService, ServiceConfig, TokenBucket


class TestSessions:
    def test_create_get_close(self, harness):
        created = harness.service.create_session("acme")
        sid = created["session_id"]
        assert created["tenant"] == "acme"
        assert created["catalog"] == "default"
        assert harness.service.get_session(sid) == created
        assert harness.service.close_session(sid)["session_id"] == sid
        with pytest.raises(NotFound):
            harness.service.get_session(sid)

    def test_sessions_share_one_engine_per_catalog(self, harness):
        harness.session("acme")
        harness.session("globex")
        assert harness.factory_calls == 1
        assert harness.service.stats()["catalogs"]["default"]["engine_built"]

    def test_invalid_tenant_rejected(self, harness):
        for bad in ("", None, "a b", "x" * 65, "sneaky\n"):
            with pytest.raises(InvalidRequest):
                harness.service.create_session(bad)

    def test_unknown_catalog_rejected(self, harness):
        with pytest.raises(NotFound):
            harness.service.create_session("acme", "nope")

    def test_multi_catalog_requires_explicit_name(self, make_harness):
        h = make_harness(catalogs=("red", "blue"))
        with pytest.raises(InvalidRequest):
            h.service.create_session("acme")
        assert h.service.create_session("acme", "blue")["catalog"] == "blue"

    def test_session_cap(self, make_harness):
        h = make_harness(
            config=ServiceConfig(
                tenant_rate=0.0, tenant_burst=100.0, max_sessions=2
            )
        )
        h.session("a")
        h.session("b")
        with pytest.raises(Overloaded):
            h.session("c")

    def test_factory_type_error_is_one_call_and_typed(self):
        """A TypeError raised inside a factory that takes ``metrics`` is
        a failure like any other: one call, a typed error back."""
        calls = []

        def factory(metrics=None):
            calls.append(metrics)
            raise TypeError("bad corpus parameters")

        service = DiscoveryService({"broken": factory})
        with pytest.raises(Internal, match="bad corpus parameters"):
            service.create_session("acme")
        assert calls == [service.metrics]
        assert service.shutdown(timeout=1)

    def test_factory_without_metrics_called_bare(self):
        corpus = generate_corpus(3, seed=0)
        calls = []

        def factory():
            calls.append(None)
            return DiscoveryEngine(corpus=corpus, max_workers=2)

        service = DiscoveryService({"bare": factory})
        service.create_session("acme")
        service.create_session("globex")
        assert len(calls) == 1
        assert service.stats()["catalogs"]["bare"]["workers"] == 2
        assert service.shutdown(timeout=5)


class TestAdmission:
    def test_quota_exhausted_gets_overloaded(self, make_harness):
        h = make_harness(
            config=ServiceConfig(tenant_rate=0.0, tenant_burst=2.0)
        )
        sid = h.session("acme")
        h.service.submit(sid, h.payload())
        h.service.submit(sid, h.payload(seed=1))
        with pytest.raises(Overloaded) as exc:
            h.service.submit(sid, h.payload(seed=2))
        assert exc.value.http_status == 429
        assert exc.value.retry_after >= 0.0

    def test_quota_refills_with_clock(self, make_harness):
        clock = [0.0]
        h = make_harness(
            config=ServiceConfig(tenant_rate=1.0, tenant_burst=1.0),
            clock=lambda: clock[0],
        )
        sid = h.session("acme")
        h.service.submit(sid, h.payload())
        with pytest.raises(Overloaded) as exc:
            h.service.submit(sid, h.payload(seed=1))
        assert exc.value.retry_after == pytest.approx(1.0)
        clock[0] = 1.5
        h.service.submit(sid, h.payload(seed=2))

    def test_quotas_are_per_tenant(self, make_harness):
        h = make_harness(
            config=ServiceConfig(tenant_rate=0.0, tenant_burst=1.0)
        )
        acme, globex = h.session("acme"), h.session("globex")
        h.service.submit(acme, h.payload())
        with pytest.raises(Overloaded):
            h.service.submit(acme, h.payload(seed=1))
        h.service.submit(globex, h.payload(seed=2))  # unaffected

    def test_queue_budget_rejects_with_429(self, make_harness):
        h = make_harness(
            config=ServiceConfig(
                tenant_rate=0.0, tenant_burst=100.0, max_queue_depth=2
            )
        )
        sid = h.session("acme")
        h.service.submit(sid, h.payload(hold="g", tag="running"))
        h.wait_started("g")  # occupies the single worker
        h.service.submit(sid, h.payload(seed=1))
        h.service.submit(sid, h.payload(seed=2))
        with pytest.raises(Overloaded) as exc:
            h.service.submit(sid, h.payload(seed=3))
        assert exc.value.http_status == 429

    def test_quota_refusal_never_consumes_queue(self, make_harness):
        """A rate-limited tenant must not eat the queue budget others
        share (quota gate fires before the queue gate)."""
        h = make_harness(
            config=ServiceConfig(
                tenant_rate=0.0, tenant_burst=1.0, max_queue_depth=1
            )
        )
        noisy, quiet = h.session("noisy"), h.session("quiet")
        h.service.submit(noisy, h.payload(hold="g"))
        h.wait_started("g")
        for seed in range(5):
            with pytest.raises(Overloaded):
                h.service.submit(noisy, h.payload(seed=seed + 1))
        # The queue is still empty: the quiet tenant gets the slot.
        run = h.service.submit(quiet, h.payload(seed=99))
        assert run["state"] == "queued"

    def test_invalid_request_never_queued(self, harness):
        sid = harness.session()
        with pytest.raises(InvalidRequest):
            harness.service.submit(sid, {"base": "no-such-table", "task": "t"})
        with pytest.raises(InvalidRequest):
            harness.service.submit(sid, harness.payload(), priority="high")
        assert harness.service.list_runs() == []

    def test_unknown_session_rejected(self, harness):
        with pytest.raises(NotFound):
            harness.service.submit("s-999999", harness.payload())


class TestFairness:
    def test_round_robin_across_tenants(self, make_harness):
        """With one worker and two backlogged tenants, dispatch must
        interleave — a tenant that queued first does not drain first."""
        h = make_harness()
        acme, globex = h.session("acme"), h.session("globex")
        h.service.submit(acme, h.payload(tag="a1", hold="g"))
        h.wait_started("g")
        ids = [
            h.service.submit(acme, h.payload(tag="a2", seed=1))["run_id"],
            h.service.submit(acme, h.payload(tag="a3", seed=2))["run_id"],
            h.service.submit(globex, h.payload(tag="b1", seed=3))["run_id"],
            h.service.submit(globex, h.payload(tag="b2", seed=4))["run_id"],
        ]
        h.release("g")
        for run_id in ids:
            h.wait_terminal(run_id)
        assert h.run_log == ["a1", "b1", "a2", "b2", "a3"]

    def test_priority_within_tenant(self, make_harness):
        h = make_harness()
        sid = h.session("acme")
        h.service.submit(sid, h.payload(tag="first", hold="g"))
        h.wait_started("g")
        low = h.service.submit(sid, h.payload(tag="low", seed=1), priority=0)
        high = h.service.submit(
            sid, h.payload(tag="high", seed=2), priority=5
        )
        h.release("g")
        h.wait_terminal(low["run_id"])
        h.wait_terminal(high["run_id"])
        assert h.run_log == ["first", "high", "low"]


class TestLifecycle:
    def test_run_completes_with_record(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload(queries=3))
        status = harness.wait_terminal(run["run_id"])
        assert status["state"] == "completed"
        record = status["record"]
        assert record["status"] == "completed"
        assert record["result"]["utility"] == pytest.approx(0.9)
        kinds = [e["kind"] for e in record["events"]]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-completed"
        assert kinds.count("query-issued") == 3

    def test_events_stream_in_order_with_terminal(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload(queries=2))
        events = list(harness.service.events(run["run_id"], timeout=60))
        kinds = [e.kind for e in events]
        assert kinds[0] == "run-started"
        assert kinds[-1] == "run-completed"
        indexes = [e.query_index for e in events if e.kind == "query-issued"]
        assert indexes == sorted(indexes)

    def test_cancel_queued_run_synthesizes_terminal_event(self, harness):
        sid = harness.session()
        harness.service.submit(sid, harness.payload(hold="g"))
        harness.wait_started("g")
        queued = harness.service.submit(sid, harness.payload(seed=1))
        cancelled = harness.service.cancel(queued["run_id"])
        assert cancelled["state"] == "cancelled"
        events = list(harness.service.events(queued["run_id"], timeout=10))
        assert [e.kind for e in events] == ["run-completed"]
        assert events[0].status == "cancelled"
        harness.release("g")

    def test_cancel_running_run(self, harness):
        sid = harness.session()
        run = harness.service.submit(
            sid, harness.payload(hold="g", queries=5)
        )
        harness.wait_started("g")
        harness.service.cancel(run["run_id"])
        harness.release("g")  # searcher proceeds into its cancel point
        status = harness.wait_terminal(run["run_id"])
        assert status["state"] == "cancelled"
        # The engine recorded the cancelled run itself — no synthesis.
        assert status["record"]["status"] == "cancelled"
        assert status["record"]["result"] is None

    def test_cancel_is_idempotent(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload())
        harness.wait_terminal(run["run_id"])
        again = harness.service.cancel(run["run_id"])
        assert again["state"] == "completed"  # terminal states stick

    def test_failed_run_reports_typed_error(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload(explode=True))
        status = harness.wait_terminal(run["run_id"])
        assert status["state"] == "failed"
        assert status["error"]["code"] == "internal"
        assert "exploded" in status["error"]["message"]

    def test_unknown_run_ids(self, harness):
        with pytest.raises(NotFound):
            harness.service.status("run-424242")
        with pytest.raises(NotFound):
            harness.service.cancel("run-424242")
        with pytest.raises(NotFound):
            list(harness.service.events("run-424242"))

    def test_subscriber_timeout_raises(self, harness):
        sid = harness.session()
        run = harness.service.submit(sid, harness.payload(hold="g"))
        harness.wait_started("g")
        stream = harness.service.events(run["run_id"], timeout=0.05)
        with pytest.raises(TimeoutError):
            # run-started arrives, then the held run goes quiet.
            for _ in stream:
                pass
        harness.release("g")


class TestDrain:
    def test_drain_cancels_queued_and_waits_for_running(self, make_harness):
        h = make_harness()
        sid = h.session("acme")
        running = h.service.submit(sid, h.payload(hold="g"))
        h.wait_started("g")
        queued = h.service.submit(sid, h.payload(seed=1))
        verdict = []
        drainer = threading.Thread(
            target=lambda: verdict.append(h.service.shutdown(timeout=30))
        )
        drainer.start()
        # The queued run is cancelled immediately, before the wait.
        status = h.wait_terminal(queued["run_id"], timeout=10)
        assert status["state"] == "cancelled"
        h.release("g")
        drainer.join(timeout=30)
        assert verdict == [True]
        assert h.service.status(running["run_id"])["state"] == "completed"

    def test_drain_stops_workers(self, make_harness):
        h = make_harness(max_workers=3)
        sid = h.session("acme")
        h.wait_terminal(h.service.submit(sid, h.payload())["run_id"])
        workers = h.service._entries["default"].workers
        assert len(workers) == 3 and all(w.is_alive() for w in workers)
        assert h.service.shutdown(timeout=10)
        assert not any(w.is_alive() for w in workers)

    def test_drain_refuses_new_work(self, harness):
        sid = harness.session()
        harness.service.shutdown(timeout=5)
        with pytest.raises(Overloaded):
            harness.service.submit(sid, harness.payload())
        with pytest.raises(Overloaded):
            harness.service.create_session("late")

    def test_drain_timeout_reports_unclean(self, make_harness):
        h = make_harness()
        sid = h.session("acme")
        h.service.submit(sid, h.payload(hold="g"))
        h.wait_started("g")
        assert h.service.shutdown(timeout=0.1) is False
        h.release("g")


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: clock[0])
        assert all(bucket.try_acquire()[0] for _ in range(3))
        ok, retry = bucket.try_acquire()
        assert not ok
        assert retry == pytest.approx(0.5)
        clock[0] = 0.5
        assert bucket.try_acquire()[0]

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=lambda: clock[0])
        clock[0] = 100.0
        assert bucket.try_acquire()[0]
        assert bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]

    def test_zero_rate_never_refills(self):
        clock = [0.0]
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=lambda: clock[0])
        assert bucket.try_acquire()[0]
        clock[0] = 1e9
        ok, retry = bucket.try_acquire()
        assert not ok
        assert retry == float("inf")

    def test_oversized_request_is_unservable(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        ok, retry = bucket.try_acquire(5.0)
        assert not ok
        assert retry == float("inf")
