"""Traced replays of the library's public pipeline.

Each function here calls the same public functions, in the same order, with
the same seeds and the same ``random.Random`` stream, as the library call it
mirrors, and wraps each call in a span of the layer that owns it:

=====================  ==================================================
replay                 mirrors
=====================  ==================================================
:func:`restore`        ``repro.restore_graph`` (simple walk, ideal access)
:func:`generate`       ``restore_from_walk`` / ``gjoka_generate``
:func:`properties`     ``repro.compute_properties``
:func:`cell`           one serial cell of ``run_sweep`` / ``run_experiment``
                       under ideal crawling (``execute_run`` per run seed)
=====================  ==================================================

The workloads check that a replay's output equals the untraced call's
output exactly, so a library change that alters the call sequence shows as
a failed op instead of as silently wrong per-layer figures.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterator
from contextlib import contextmanager

from repro import (
    GraphAccess,
    PropertySet,
    RestorationResult,
    RewiringEngine,
    bfs_crawl,
    build_graph_from_targets,
    build_subgraph,
    build_target_degree_vector,
    build_target_jdm,
    estimate_local_properties,
    forest_fire_crawl,
    l1_distances,
    load_dataset,
    random_walk,
    resolve_backend,
    snowball_crawl,
)
from repro.api import RunRecord, aggregate_records, spawn_seeds
from repro.engine.dispatch import ensure_csr
from repro.experiments.methods import SUBGRAPH_METHODS
from repro.experiments.runner import cell_truth, truth_cache_stats
from repro.metrics import (
    degree_dependent_betweenness,
    degree_dependent_clustering,
    degree_distribution,
    largest_eigenvalue,
    neighbor_connectivity,
    network_clustering,
    shared_partner_distribution,
    shortest_path_stats,
)
from repro.utils.rng import ensure_rng
from repro.utils.timers import Stopwatch

from perfbench.spans import Tracer

# kernels the 12-property suite dispatches on; any of them resolving to the
# CSR engine makes the suite freeze the graph once (cached per graph)
_PROPERTY_KERNELS = (
    "degree", "knn", "clustering", "shared_partners", "paths", "betweenness", "spectral",
)


@contextmanager
def _phase(tracer: Tracer, sw: Stopwatch, span: str, label: str) -> Iterator[None]:
    with tracer.span(span), sw.measure(label):
        yield


def restore(
    tracer: Tracer, access: GraphAccess, target: int, rc: float, rng: int, backend: str
) -> RestorationResult:
    """``restore_graph(access, target, rc=rc, rng=rng, backend=backend)``."""
    r = ensure_rng(rng)
    with tracer.span("sampling.random_walk"):
        walk = random_walk(access, target, seed=None, rng=r)
    tracer.count("sampling.queried_nodes", len(walk.neighbors))
    return generate(tracer, walk, rc, r, backend, proposed=True)


def generate(
    tracer: Tracer, walk, rc: float, rng: random.Random, backend: str, proposed: bool
) -> RestorationResult:
    """``restore_from_walk`` (``proposed``) or ``gjoka_generate``."""
    sw = Stopwatch()
    with _phase(tracer, sw, "sampling.subgraph", "subgraph"):
        subgraph = build_subgraph(walk)
    with _phase(tracer, sw, "estimators.local", "estimation"):
        estimates = estimate_local_properties(walk)
    guide = subgraph if proposed else None
    with _phase(tracer, sw, "restore.degree_vector", "degree_vector"):
        dv = build_target_degree_vector(estimates, subgraph=guide, rng=rng)
    with _phase(tracer, sw, "restore.jdm", "joint_degree_matrix"):
        jdm = build_target_jdm(estimates, dv, subgraph=guide, rng=rng)
    with _phase(tracer, sw, "dk.construction", "construction"):
        if proposed:
            graph = build_graph_from_targets(
                dv.counts, jdm, rng=rng, subgraph=subgraph,
                target_degrees=dv.target_degrees,
            )
        else:
            graph = build_graph_from_targets(dv.counts, jdm, rng=rng)
    with _phase(tracer, sw, "dk.rewiring", "rewiring"):
        engine = RewiringEngine(
            graph,
            estimates.degree_clustering,
            protected_edges=subgraph.edge_set() if proposed else None,
            rng=rng,
            backend=backend,
        )
        report = engine.run(rc=rc, max_attempts=None)
    tracer.count("dk.rewiring_attempts", report.attempts)
    tracer.count("dk.rewiring_accepted", report.accepted)
    tracer.count(f"dk.rewiring_{engine.backend}_runs")
    return RestorationResult(
        graph=graph,
        subgraph=subgraph,
        estimates=estimates,
        degree_targets=dv,
        jdm_targets=jdm,
        rewiring=report,
        stopwatch=sw,
    )


def properties(tracer: Tracer, graph, cfg) -> PropertySet:
    """``compute_properties(graph, cfg)``, with the CSR freeze the suite
    would pay inside its first dispatched call hoisted into its own span."""
    if any(
        resolve_backend(cfg.backend, size=graph.num_edges, kernel=k) == "csr"
        for k in _PROPERTY_KERNELS
    ):
        with tracer.span("engine.freeze"):
            ensure_csr(graph)
    rng = ensure_rng(cfg.seed)
    with tracer.span("metrics.paths"):
        paths = shortest_path_stats(
            graph,
            num_sources=cfg.sources_for(graph),
            rng=random.Random(rng.getrandbits(64)),
            backend=cfg.backend,
        )
    with tracer.span("metrics.betweenness"):
        betweenness = degree_dependent_betweenness(
            graph,
            num_pivots=cfg.pivots_for(graph),
            rng=random.Random(rng.getrandbits(64)),
            backend=cfg.backend,
        )
    num_nodes = float(graph.num_nodes)
    average_degree = graph.average_degree()
    with tracer.span("metrics.degree_distribution"):
        dd = degree_distribution(graph, backend=cfg.backend)
    with tracer.span("metrics.neighbor_connectivity"):
        knn = neighbor_connectivity(graph, backend=cfg.backend)
    with tracer.span("metrics.clustering"):
        clustering = network_clustering(graph, backend=cfg.backend)
    with tracer.span("metrics.degree_clustering"):
        ck = degree_dependent_clustering(graph, backend=cfg.backend)
    with tracer.span("metrics.shared_partners"):
        sp = shared_partner_distribution(graph, backend=cfg.backend)
    with tracer.span("metrics.eigenvalue"):
        lam = largest_eigenvalue(graph, backend=cfg.backend)
    return PropertySet(
        num_nodes=num_nodes,
        average_degree=average_degree,
        degree_distribution=dd,
        neighbor_connectivity=knn,
        clustering=clustering,
        degree_clustering=ck,
        shared_partners=sp,
        average_path_length=paths.average_length,
        path_length_distribution=paths.length_distribution,
        diameter=float(paths.diameter),
        degree_betweenness=betweenness,
        largest_eigenvalue=lam,
        config=cfg,
    )


def _crawl(tracer: Tracer, method: str, graph, target: int, seed, rng):
    crawler = {"bfs": bfs_crawl, "snowball": snowball_crawl, "ff": forest_fire_crawl}
    name = {"bfs": "bfs", "snowball": "snowball", "ff": "forest_fire"}[method]
    with tracer.span(f"sampling.{name}"):
        sample = crawler[method](GraphAccess(graph), target, seed=seed, rng=rng)
    tracer.count("sampling.queried_nodes", sample.num_queried)
    return sample


def run_record(tracer: Tracer, graph, truth: PropertySet, config, run_seed: int) -> RunRecord:
    """One round of a configured cell: ``run_methods_once`` followed by the
    per-method property evaluation of ``_run_once`` (ideal crawling)."""
    r = ensure_rng(run_seed)
    target = max(3, int(round(config.fraction * graph.num_nodes)))
    seed = GraphAccess(graph).random_seed(r)
    walk = None
    if any(m in config.methods for m in ("rw", "gjoka", "proposed")):
        with tracer.span("sampling.random_walk"):
            walk = random_walk(GraphAccess(graph), target, seed=seed, rng=r)
        tracer.count("sampling.queried_nodes", len(walk.neighbors))
    outputs = {}
    for method in config.methods:
        start = time.perf_counter()
        if method in SUBGRAPH_METHODS:
            sample = walk if method == "rw" else _crawl(tracer, method, graph, target, seed, r)
            with tracer.span("sampling.subgraph"):
                out = build_subgraph(sample).graph
            outputs[method] = (out, time.perf_counter() - start, 0.0)
        else:
            result = generate(
                tracer, walk, config.rc, r, config.backend or "auto",
                proposed=method == "proposed",
            )
            outputs[method] = (result.graph, result.total_seconds, result.rewiring_seconds)
    evaluation = config.evaluation_config()
    distances, total, rewiring = {}, {}, {}
    for method, (out, seconds, rewire) in outputs.items():
        distances[method] = l1_distances(truth, properties(tracer, out, evaluation))
        total[method] = seconds
        rewiring[method] = rewire
    return RunRecord(distances, total, rewiring)


def cell(tracer: Tracer, config) -> dict:
    """Aggregates of one configured cell, run serially in process."""
    with tracer.span("graph.load_dataset"):
        graph = load_dataset(config.dataset, scale=config.scale)
    before = truth_cache_stats(merged=False)
    with tracer.span("metrics.truth"):
        truth = cell_truth(config, graph)
    after = truth_cache_stats(merged=False)
    tracer.count("experiments.truth_hits", after["hits"] - before["hits"])
    tracer.count("experiments.truth_misses", after["misses"] - before["misses"])
    records = [
        run_record(tracer, graph, truth, config, run_seed)
        for run_seed in spawn_seeds(config.seed, config.runs)
    ]
    with tracer.span("experiments.aggregate"):
        return aggregate_records(config, records)
