#!/usr/bin/env python3
"""Benchmark of goal-oriented discovery, driven through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lake2000-refresh --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``perfbench/BASELINE.md``):
``howto-served``, ``lake2000-refresh``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` traces the set-ups, then runs the same loop untraced for
half the time, then installs the layer wrappers of
``perfbench/tracer.py`` for the other half and reports the per-layer
metrics (and the tracing overhead as the ratio of the two halves'
median request times).

Every metric is printed as ``<name> <value> <unit>``; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 means the run finished (``correct`` says
whether every output check passed); 2 means the benchmark could not run
(for instance, no ``src/repro`` next to ``perfbench/``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("howto-served", "lake2000-refresh")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "request_s.p50": "s",
    "requests_per_s": "1/s",
    "queries_per_s": "1/s",
    "utility.mean": "score",
    "queries.mean": "count",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Times are seconds
#: per request; counters are per request over the deterministic prefix.
PER_LAYER = {
    "ml.fit_s": "s",
    "ml.predict_s": "s",
    "ml.forest_fits": "count",
    "ml.fit_cells": "count",
    "tasks.utility_self_s": "s",
    "tasks.featurize_s": "s",
    "tasks.ci_s": "s",
    "core.search_self_s": "s",
    "core.utility_calls": "count",
    "core.queries": "count",
    "core.query_cache_hit_ratio": "ratio",
    "discovery.join_apply_s": "s",
    "server.submit_s": "s",
    "server.overhead_s": "s",
    "api.prepare_s": "s",
    "api.search_s": "s",
    "api.prepare_cache_hit_ratio": "ratio",
    "discovery.sign_s": "s",
    "discovery.lsh_s": "s",
    "kernels.hash_s": "s",
    "kernels.values_hashed": "count",
    "discovery.generate_s": "s",
    "discovery.materialize_s": "s",
    "discovery.rows_joined": "count",
    "discovery.candidates": "count",
    "profiles.profile_s": "s",
    "profiles.cache_hit_ratio": "ratio",
    "catalog.refresh_s": "s",
    "catalog.save_s": "s",
    "catalog.store_reads": "count",
    "catalog.store_writes": "count",
    "catalog.bytes_read": "bytes",
    "catalog.bytes_written": "bytes",
    "catalog.tables_resigned": "count",
    **{f"{layer}.self_s": "s" for layer in (
        "server", "api", "core", "tasks", "ml",
        "discovery", "profiles", "kernels", "catalog",
    )},
    "trace.unattributed_s": "s",
    "trace.request_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}

#: Spans of the set-up (a cold catalog build on ``lake2000-refresh``)
#: reported, in seconds per set-up, as ``setup.<metric>``.
SETUP_SPANS = (
    "discovery.index_build_s", "discovery.sign_s", "discovery.lsh_s",
    "kernels.hash_s", "discovery.materialize_s", "profiles.profile_s",
    "catalog.refresh_s", "catalog.save_s",
)
PER_LAYER.update({f"setup.{name}": "s" for name in SETUP_SPANS})

#: Inclusive span time reported as ``<metric>``: metric -> span key.
_INCLUSIVE = {
    "ml.fit_s": "ml.fit",
    "ml.predict_s": "ml.predict",
    "tasks.featurize_s": "tasks.featurize",
    "tasks.ci_s": "tasks.ci",
    "discovery.join_apply_s": "discovery.join_apply",
    "server.submit_s": "server.submit",
    "discovery.index_build_s": "discovery.index_build",
    "discovery.sign_s": "discovery.sign",
    "discovery.lsh_s": "discovery.lsh",
    "kernels.hash_s": "kernels.hash",
    "discovery.generate_s": "discovery.generate",
    "discovery.materialize_s": "discovery.materialize",
    "profiles.profile_s": "profiles.profile",
    "catalog.refresh_s": "catalog.refresh",
    "catalog.save_s": "catalog.save",
}

#: Work counters reported per request over the deterministic prefix.
COUNTERS = (
    "ml.forest_fits", "ml.fit_cells", "core.utility_calls", "core.queries",
    "discovery.rows_joined", "discovery.candidates", "kernels.values_hashed",
    "catalog.store_reads", "catalog.store_writes", "catalog.bytes_read",
    "catalog.bytes_written", "catalog.tables_resigned",
)


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program source to drive)."""


def load_program():
    """Import the program from ``src/`` next to this directory, and the
    benchmark's own modules; raises :class:`SetupError` otherwise."""
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        raise SetupError(f"no program source at {SOURCE}/repro")
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, ROOT)
    try:
        import repro
        from perfbench import tracer, workloads
    except ImportError as error:
        raise SetupError(f"cannot import the program: {error}") from error
    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        raise SetupError(f"imported repro from {repro.__file__}, not {SOURCE}")
    return tracer, workloads


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def check_outcomes(workload, outcomes, committed) -> None:
    """Digest checks: committed digests for this seed (when recorded)
    and equality among requests of the same variant."""
    first = {}
    for outcome in outcomes:
        if not outcome.digest:
            continue
        variant = workload.variant(outcome.index)
        if committed is not None and variant < len(committed):
            if outcome.digest != committed[variant]:
                outcome.problems.append(
                    f"digest {outcome.digest} != committed {committed[variant]}"
                )
        expected = first.setdefault(variant, outcome.digest)
        if outcome.digest != expected:
            outcome.problems.append(
                f"digest {outcome.digest} != earlier {expected} of the same request"
            )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, outcomes, wall, setup_times) -> dict:
    done = [o for o in outcomes if o.digest]
    prefix = [o for o in done if o.index < workload.prefix]
    latencies = [o.seconds for o in done]
    return {
        "setup_s": statistics.median(setup_times),
        "request_s.p50": statistics.median(latencies),
        "requests_per_s": len(done) / wall,
        "queries_per_s": sum(o.queries for o in done) / wall,
        "utility.mean": statistics.fmean(o.utility for o in prefix),
        "queries.mean": statistics.fmean(o.queries for o in prefix),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, layers, layer_of, tracer_stats, traced, untraced) -> dict:
    """Per-layer metrics from the traced phase's spans and counters."""
    done = {o.index: o for o in traced if o.digest}
    stats = {i: tracer_stats[i] for i in done if i in tracer_stats}
    n = max(1, len(stats))
    prefix = [i for i in stats if i < workload.prefix]
    k = max(1, len(prefix))

    def mean_time(key):
        return sum(s.inclusive.get(key, 0.0) for s in stats.values()) / n

    def prefix_count(name):
        return sum(stats[i].counts.get(name, 0) for i in prefix) / k

    metrics = {
        name: mean_time(key) for name, key in _INCLUSIVE.items() if name in PER_LAYER
    }
    metrics.update({name: prefix_count(name) for name in COUNTERS})
    # The task oracle's own time: its span minus the spans it opened
    # (featurize, independence tests, model fit and predict).
    metrics["tasks.utility_self_s"] = sum(
        s.self_time.get("tasks.utility", 0.0) for s in stats.values()
    ) / n
    metrics["core.search_self_s"] = (
        mean_time("core.search") - mean_time("core.utility")
    )
    calls = prefix_count("core.utility_calls")
    metrics["core.query_cache_hit_ratio"] = (
        (calls - prefix_count("core.queries")) / calls if calls else 0.0
    )
    lookups = prefix_count("profiles.cache_lookups")
    metrics["profiles.cache_hit_ratio"] = (
        prefix_count("profiles.cache_hits") / lookups if lookups else 0.0
    )
    runs = [run for s in stats.values() for run in s.runs]
    metrics["api.prepare_s"] = sum(r.prepare_seconds for r in runs) / n
    metrics["api.search_s"] = sum(r.search_seconds for r in runs) / n
    metrics["api.prepare_cache_hit_ratio"] = (
        sum(bool(r.cache_info.get("prepare_cache_hit")) for r in runs) / len(runs)
        if runs else 0.0
    )
    wall = sum(done[i].seconds for i in stats)
    metrics["server.overhead_s"] = (
        wall - sum(s.inclusive.get("api.discover", 0.0) for s in stats.values())
    ) / n if workload.clients > 1 else 0.0
    for layer in layers:
        metrics[f"{layer}.self_s"] = sum(
            seconds
            for s in stats.values()
            for key, seconds in s.self_time.items()
            if layer_of[key] == layer
        ) / n
    unattributed = wall - sum(s.top for s in stats.values())
    metrics["trace.unattributed_s"] = unattributed / n
    metrics["trace.request_s"] = wall / n
    metrics["trace.unattributed_share"] = unattributed / wall if wall else 0.0
    traced_p50 = statistics.median(o.seconds for o in done.values())
    untraced_p50 = statistics.median(o.seconds for o in untraced if o.digest)
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: str, scale: float = 1.0, digests: dict = None,
        log=print) -> tuple:
    """One benchmark run.

    Returns ``(result, seen)``: the result object (the JSON line) and
    the digest of each deterministic request (``variant -> digest``).
    ``scale`` shrinks the inputs (the self-test's smoke mode) and
    ``digests`` replaces the committed ``{seed: [digest, ...]}`` table
    of this workload."""
    tracer_module, workloads = load_program()
    workload = workloads.all_workloads(workdir, scale)[workload_name]
    if digests is None:
        digests = load_digests().get(workload_name, {})
    committed = digests.get(str(seed))

    inputs = workload.inputs(seed)
    setup_times, checked, state = [], [], None
    setup_tracer = (
        tracer_module.LayerTracer() if trace else contextlib.nullcontext()
    )
    # A one-client workload sets up and serves on one thread, which
    # visits every CPU (see workloads.CpuRotation).
    rotate = workload.clients == 1
    with setup_tracer, workloads.CpuRotation(enabled=rotate):
        if trace:
            setup_tracer.set_tag("setup")
        for _ in range(workload.setup_reps):
            if state is not None:
                workload.close(state)
            start = time.perf_counter()
            state = workload.setup(inputs)
            warm = workload.warmup(state)
            setup_times.append(time.perf_counter() - start)
            if warm is not None:
                checked.append(warm)
    if trace:
        spans = setup_tracer.stats.get("setup", tracer_module.RequestStats()).inclusive
        setup_metrics = {
            f"setup.{name}": spans.get(_INCLUSIVE[name], 0.0) / len(setup_times)
            for name in SETUP_SPANS
        }
    gc.collect()
    try:
        with workloads.CpuRotation(enabled=rotate):
            if not trace:
                cpu = time.process_time()
                outcomes, wall, errors = workloads.closed_loop(workload, state, seconds)
                cpu = time.process_time() - cpu
                metrics = end_to_end(workload, outcomes, wall, setup_times)
                measured = outcomes
            else:
                untraced, _, errors = workloads.closed_loop(
                    workload, state, seconds / 2
                )
                tag_of = (
                    (lambda request: workload.tag_of(state, request))
                    if workload.clients > 1 else None
                )
                with tracer_module.LayerTracer(tag_of=tag_of) as layer_tracer:
                    state["untimed"] = layer_tracer.untimed
                    traced, _, traced_errors = workloads.closed_loop(
                        workload, state, seconds / 2, on_start=layer_tracer.set_tag
                    )
                errors += traced_errors
                measured = traced
                outcomes = untraced + traced
        # Checks: invariants (already on each outcome), digests, and the
        # workload's own whole-run checks; untimed.
        check_outcomes(workload, checked + sorted(outcomes, key=lambda o: o.index), committed)
        workload.verify(state, outcomes)
    finally:
        workload.close(state)
    if trace:
        metrics = per_layer(workload, tracer_module.LAYERS, tracer_module.LAYER_OF,
                            layer_tracer.stats, traced, untraced)
        metrics.update(setup_metrics)
    checked += outcomes
    failed = sum(bool(o.problems) for o in checked) + len(errors)
    attempted = len(checked) + len(errors)
    for outcome in checked:
        for problem in outcome.problems:
            log(f"# FAILED request {outcome.index}: {problem}")
    for error in errors:
        log(f"# FAILED {error}")
    done = [o for o in measured if o.digest]
    log(f"# workload {workload_name} seed {seed} trace {int(trace)}: "
        f"{len(done)} requests measured, {attempted} checked, "
        f"digests {'committed+repeat' if committed else 'repeat-only'}")
    log("# request seconds: " + " ".join(f"{o.seconds:.3f}" for o in done))
    if not trace:
        log(f"# timed loop wall {wall:.3f} s, process cpu {cpu:.3f} s")
    seen = {}
    for outcome in checked:
        variant = workload.variant(outcome.index)
        if outcome.digest and variant < workload.prefix:
            seen.setdefault(variant, outcome.digest)
    log("# deterministic-request digests: " + " ".join(seen[v] for v in sorted(seen)))
    units = PER_LAYER if trace else END_TO_END
    if not trace and len(done) >= 100:
        # The 90th percentile only where >= 10 samples lie beyond it.
        latencies = sorted(o.seconds for o in done)
        log(f"request_s.p90 {statistics.quantiles(latencies, n=10)[-1]:.6f} s")
    metrics["failed_ratio"] = failed / attempted
    for name, value in metrics.items():
        log(f"{name} {value:.6g} {units.get(name, 'ratio')}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        parent = os.path.dirname(workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
