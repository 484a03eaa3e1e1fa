"""Experiment orchestration: multi-seed comparisons with shared accounting.

The benchmark files and the CLI both need the same loop — run METAM and a
set of baselines over one scenario for several seeds, average the
utility-vs-queries curves, and summarize — so it lives here with tests.
Everything runs through one :class:`~repro.api.DiscoveryEngine`, so all
searchers of a seed share the prepared candidate set (and a warm catalog,
when the engine carries one).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import MetamConfig
from repro.core.result import SearchResult

if TYPE_CHECKING:  # runtime import is lazy: api sits above core
    from repro.api.engine import DiscoveryEngine


@dataclass
class ComparisonReport:
    """Averaged outcome of a multi-seed searcher comparison."""

    query_points: tuple[int, ...]
    #: searcher name -> mean best-utility at each query point
    curves: dict[str, list[float]] = field(default_factory=dict)
    #: searcher name -> mean final utility
    final: dict[str, float] = field(default_factory=dict)
    #: one ``{searcher name: SearchResult}`` dict per seed
    runs: list[dict[str, SearchResult]] = field(default_factory=list)

    def winner_at(self, query_index: int) -> str:
        """Searcher with the best mean utility at a query point."""
        if query_index not in self.query_points:
            raise ValueError(
                f"{query_index} not in query points {self.query_points}"
            )
        position = self.query_points.index(query_index)
        return max(self.curves, key=lambda name: self.curves[name][position])

    def table(self) -> str:
        """Formatted utility-vs-queries table."""
        lines = [
            "searcher    "
            + "".join(f"{q:>8}" for q in self.query_points)
        ]
        for name, values in self.curves.items():
            lines.append(
                f"{name:12s}" + "".join(f"{v:8.3f}" for v in values)
            )
        return "\n".join(lines)


def validate_comparison(engine, baselines, iarda_target=None) -> None:
    """Argument validation for :func:`compare_searchers`.

    Raises :class:`ValueError` on unknown baseline names, on ``metam``
    listed as a baseline, or on ``iarda`` without a target.  Exposed
    separately so callers (the CLI) can fail fast before any search
    spends queries, and distinguish bad arguments from runtime errors.
    """
    unknown = [b for b in baselines if b not in engine.searchers]
    if unknown:
        raise ValueError(f"unknown baselines: {unknown}")
    if "metam" in baselines:
        # METAM always runs (with the caller's config); listing it as a
        # baseline would re-run it default-configured and silently
        # overwrite the properly-configured result under the same key.
        raise ValueError("'metam' always runs; don't list it as a baseline")
    if "iarda" in baselines and iarda_target is None:
        raise ValueError("iarda baseline needs iarda_target")


def compare_searchers(
    scenario,
    budget: int = 150,
    theta: float = 1.0,
    epsilon: float = 0.1,
    seeds=(0,),
    baselines=("mw", "overlap", "uniform"),
    query_points=(10, 25, 50, 100, 150),
    iarda_target: str | None = None,
    iarda_mode: str = "classification",
    metam_config: MetamConfig | None = None,
    engine: DiscoveryEngine | None = None,
    parallel: bool = False,
    cancel=None,
) -> ComparisonReport:
    """Run METAM + baselines over ``seeds`` and average the curves.

    ``engine`` reuses an existing :class:`~repro.api.DiscoveryEngine`
    (its corpus must match the scenario's); by default a transient one is
    built over ``scenario.corpus``.

    ``parallel=True`` runs every searcher of a seed as its own
    :meth:`~repro.api.DiscoveryEngine.discover` call on a local thread
    pool of ``engine.max_workers`` threads — the requests (and therefore
    the results) are identical to the sequential path; candidates are
    still prepared once per seed.
    ``cancel`` (a :class:`~repro.api.CancellationToken`) aborts the
    whole comparison cooperatively: the first cancelled run raises
    :class:`~repro.api.RunCancelled` instead of letting a partial
    comparison masquerade as a complete one.
    """
    # Imported here, not at module top: repro.api builds on repro.core
    # (the searcher registry imports the baselines, which import this
    # package), so a top-level import would be circular.
    from repro.api.engine import DiscoveryEngine
    from repro.api.events import CancellationToken, RunCancelled
    from repro.api.request import DiscoveryRequest

    def checked(run) -> SearchResult:
        if run.cancelled:
            raise RunCancelled(
                f"comparison run {run.request.searcher!r} was cancelled"
            )
        return run.result

    if engine is None:
        engine = DiscoveryEngine(corpus=scenario.corpus)
    validate_comparison(engine, baselines, iarda_target=iarda_target)
    runs: list[dict[str, SearchResult]] = []
    for seed in seeds:
        candidates = engine.prepare(scenario.base, seed=seed)
        config = metam_config or MetamConfig(
            theta=theta, query_budget=budget, epsilon=epsilon, seed=seed
        )
        requests = {
            "metam": DiscoveryRequest(
                base=scenario.base,
                task=scenario.task,
                searcher="metam",
                config=config,
                candidates=candidates,
            )
        }
        for name in baselines:
            options: dict = {}
            if name == "iarda":
                options = {"target_column": iarda_target, "mode": iarda_mode}
            requests[name] = DiscoveryRequest(
                base=scenario.base,
                task=scenario.task,
                searcher=name,
                theta=theta,
                query_budget=budget,
                seed=seed,
                options=options,
                candidates=candidates,
            )
        if parallel:
            # One token for the seed's runs: the first failure stops all.
            token = cancel if cancel is not None else CancellationToken()
            with ThreadPoolExecutor(max_workers=engine.max_workers) as pool:
                futures = {
                    name: pool.submit(engine.discover, request, cancel=token)
                    for name, request in requests.items()
                }
                try:
                    per_seed = {
                        name: checked(future.result())
                        for name, future in futures.items()
                    }
                except BaseException:
                    token.cancel()  # don't leave siblings running
                    raise
        else:
            per_seed = {
                name: checked(engine.discover(request, cancel=cancel))
                for name, request in requests.items()
            }
        runs.append(per_seed)

    report = ComparisonReport(query_points=tuple(query_points), runs=runs)
    for name in runs[0]:
        curve = [
            float(np.mean([run[name].utility_at(q) for run in runs]))
            for q in query_points
        ]
        report.curves[name] = curve
        report.final[name] = float(
            np.mean([run[name].utility for run in runs])
        )
    return report
