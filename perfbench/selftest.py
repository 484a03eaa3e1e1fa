#!/usr/bin/env python3
"""The benchmark's own test, and the tool that records its digests.

Usage (from the repository root)::

    python3 perfbench/selftest.py            # smoke test, under a minute
    python3 perfbench/selftest.py record 0 7 # re-record committed digests

The smoke test runs every workload once at a few percent of its scale
and checks that:

- every declared metric is printed by name with its unit, and the last
  line is the result object, for ``--trace 0`` and ``--trace 1``;
- digests are verified: a second run given the first run's digests
  passes, a run given a wrong digest fails, and a served result that
  differs from in-process ``discover()`` is caught;
- the work counters of the traced run repeat exactly across two runs;
- ``BENCHMARK.json`` names exactly the workloads and metrics declared
  in ``perfbench/run.py``;
- without the program's source next to it, ``run.py`` exits non-zero
  without printing a result.

``record`` runs each workload's deterministic requests at full scale
for the given seeds and writes ``perfbench/digests.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import run as bench  # noqa: E402

SMOKE_SCALE = 0.04
#: Counters that must repeat exactly between two traced runs.
REPEATING = (
    "ml.forest_fits", "ml.fit_cells", "core.queries", "core.utility_calls",
    "discovery.rows_joined", "kernels.values_hashed", "catalog.store_reads",
    "catalog.store_writes", "catalog.tables_resigned",
)


def _workdir(name: str) -> str:
    return os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}", name)


def _run(workload, trace, digests=None):
    lines = []
    result, seen = bench.run(
        workload, 0, 0.1, trace, _workdir(workload),
        scale=SMOKE_SCALE, digests=digests if digests is not None else {},
        log=lines.append,
    )
    return result, seen, lines


def check_printed(result, lines, units) -> None:
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            printed[parts[0]] = parts[2]
    for name, unit in units.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"
        assert result["metrics"][name]["unit"] == unit
    assert set(result["metrics"]) == set(units), "result metrics differ"
    assert result["attempted"] >= 1


def smoke() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in declared["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in declared["per_layer"]] == list(bench.PER_LAYER)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        units = bench.END_TO_END if "bound" in metric else bench.PER_LAYER
        assert metric["unit"] == units[metric["name"]], metric["name"]

    for workload in bench.WORKLOADS:
        result, seen, lines = _run(workload, trace=False)
        check_printed(result, lines, bench.END_TO_END)
        assert result["correct"], f"{workload}: {lines}"
        committed = {"0": [seen[v] for v in sorted(seen)]}
        result, _, lines = _run(workload, trace=False, digests=committed)
        assert result["correct"] and any("committed" in l for l in lines), workload
        wrong = {"0": ["0" * 16] + committed["0"][1:]}
        result, _, _ = _run(workload, trace=False, digests=wrong)
        assert not result["correct"], f"{workload}: a wrong digest passed"

        first, _, lines = _run(workload, trace=True)
        check_printed(first, lines, bench.PER_LAYER)
        second, _, _ = _run(workload, trace=True)
        assert first["correct"] and second["correct"], workload
        for name in REPEATING:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} {a} != {b} across runs"
        print(f"ok {workload}")

    # The served-vs-direct check must catch a served result that differs.
    _, workloads = bench.load_program()
    served = workloads.HowtoServed(SMOKE_SCALE)
    state = served.setup(served.inputs(0))
    try:
        good = served.request(state, 0)
        bad = workloads.Outcome(1, good.seconds, "0" * 16, good.utility, good.queries)
        served.verify(state, [good, bad])
    finally:
        served.close(state)
    assert not good.problems and bad.problems, "served-vs-direct check is inert"
    print("ok served-vs-direct check")

    lone = _workdir("no-source")
    os.makedirs(lone)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
    shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", bench.WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=lone, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and not done.stdout.strip(), done
    print("ok no-source exit")


def record(seeds) -> None:
    table = {}
    for workload in bench.WORKLOADS:
        for seed in seeds:
            result, seen = bench.run(
                workload, seed, 0.0, False, _workdir(workload),
                digests={}, log=lambda line: None,
            )
            assert result["correct"], f"{workload} seed {seed} failed its checks"
            table.setdefault(workload, {})[str(seed)] = [
                seen[v] for v in sorted(seen)
            ]
            print(f"recorded {workload} seed {seed}", flush=True)
    with open(bench.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv) -> int:
    try:
        if argv[:1] == ["record"]:
            record([int(s) for s in argv[1:]] or [0])
        else:
            smoke()
    finally:
        shutil.rmtree(os.path.dirname(_workdir("x")), ignore_errors=True)
        parent = os.path.join(ROOT, ".perfbench_work")
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
