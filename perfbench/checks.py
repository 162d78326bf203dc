"""Output checks, computed apart from the library.

Every count here is made by the benchmark from a graph's node and edge
lists with plain Python; nothing calls ``repro.metrics``.  Each check
returns a list of failure messages (empty when the output is correct), so
the workloads can mark the op failed and carry on.
"""

from __future__ import annotations

import math
from collections import Counter

_REL = 1e-12


def _edge(u, v) -> tuple:
    return (u, v) if u <= v else (v, u)


def edge_counter(graph) -> Counter:
    """Multiset of canonical ``(min, max)`` edges, loops and parallels kept."""
    return Counter(_edge(u, v) for u, v in graph.edges())


def degrees(graph) -> dict:
    """Node -> degree, counted from the edge list (a loop adds 2)."""
    deg = dict.fromkeys(graph.nodes(), 0)
    for u, v in graph.edges():
        deg[u] += 1
        deg[v] += 1
    return deg


def degree_vector(deg: dict) -> dict[int, int]:
    """``k -> number of nodes of degree k`` for ``k >= 1``."""
    return dict(Counter(k for k in deg.values() if k > 0))


def joint_degree_matrix(graph, deg: dict) -> dict[tuple[int, int], int]:
    """Edges between degree classes, both orientations stored, each edge
    counted once (the convention of the restoration targets)."""
    m: Counter = Counter()
    for u, v in graph.edges():
        k, kp = deg[u], deg[v]
        m[(k, kp)] += 1
        if k != kp:
            m[(kp, k)] += 1
    return dict(m)


def _nonzero(mapping: dict) -> dict:
    return {k: v for k, v in mapping.items() if v}


def check_restoration(result, hidden_degrees: dict, target: int) -> list[str]:
    """Properties every restoration of the proposed method must have."""
    errors = []
    out = result.graph
    out_edges = edge_counter(out)
    sub_edges = edge_counter(result.subgraph.graph)
    missing_nodes = [v for v in result.subgraph.graph.nodes() if not out.has_node(v)]
    if missing_nodes:
        errors.append(f"{len(missing_nodes)} subgraph nodes missing from the output")
    missing_edges = sub_edges - out_edges
    if missing_edges:
        errors.append(f"{sum(missing_edges.values())} subgraph edges missing from the output")
    deg = degrees(out)
    if degree_vector(deg) != _nonzero(result.degree_targets.counts):
        errors.append("output degree vector differs from the degree-vector targets")
    if joint_degree_matrix(out, deg) != _nonzero(result.jdm_targets):
        errors.append("output JDM differs from the JDM targets")
    queried = result.subgraph.queried
    wrong = [v for v in queried if deg.get(v) != hidden_degrees[v]]
    if wrong:
        errors.append(f"{len(wrong)} queried nodes lost their hidden-graph degree")
    if len(queried) != target:
        errors.append(f"{len(queried)} queried nodes, target {target}")
    report = result.rewiring
    if report is None or not report.final_distance <= report.initial_distance:
        errors.append("rewiring ended farther from the clustering target than it began")
    return errors


def check_distances(per_method: dict[str, dict[str, float]]) -> list[str]:
    """Every method's per-property L1 is finite and non-negative.

    "The proposed method's num_nodes L1 is below RW subgraph sampling's"
    is deliberately not checked per cell: at fraction 0.10 of the bench-
    scale stand-ins the walk queries 88-192 nodes, the node-count estimate
    is that noisy, and the comparison fails on some seeds (livemocha 3 of
    8 cells, slashdot 2 of 8, gowalla 1 of 8).  The workload reports the
    tally instead (:func:`num_nodes_wins`).
    """
    errors = []
    for method, distances in per_method.items():
        bad = [p for p, v in distances.items() if not (math.isfinite(v) and v >= 0)]
        if bad:
            errors.append(f"{method}: non-finite or negative L1 for {bad}")
    return errors


def num_nodes_wins(per_method: dict[str, dict[str, float]]) -> bool:
    """Whether the proposed method's num_nodes L1 beat RW subgraph sampling's."""
    return per_method["proposed"]["num_nodes"] < per_method["rw"]["num_nodes"]


def check_truth(truth, graph) -> list[str]:
    """A truth PropertySet's local counts against the benchmark's own."""
    errors = []
    deg = degrees(graph)
    n = len(deg)
    m = sum(1 for _ in graph.edges())
    if truth.num_nodes != n:
        errors.append(f"truth num_nodes {truth.num_nodes} != {n}")
    if not math.isclose(truth.average_degree, 2 * m / n, rel_tol=_REL):
        errors.append(f"truth average degree {truth.average_degree} != {2 * m / n}")
    expected = {k: c / n for k, c in degree_vector(deg).items()}
    got = _nonzero(truth.degree_distribution)
    if set(got) != set(expected) or any(
        not math.isclose(got[k], expected[k], rel_tol=_REL) for k in expected
    ):
        errors.append("truth degree distribution differs from the edge-list count")
    return errors


def same_graph(a, b) -> bool:
    """Identical node sets and identical edge multisets."""
    return set(a.nodes()) == set(b.nodes()) and edge_counter(a) == edge_counter(b)


def same_properties(a, b) -> bool:
    """Identical PropertySets (NaN equal to NaN, nothing else tolerated)."""
    def norm(v):
        if isinstance(v, float) and math.isnan(v):
            return "nan"
        if isinstance(v, dict):
            return {k: norm(x) for k, x in v.items()}
        return v

    return norm(vars(a)) == norm(vars(b))


def mean_l1(distances: dict[str, float]) -> float:
    """Mean normalized L1 over the properties with a finite distance, the
    convention of the harness's headline ``average_l1``."""
    finite = [v for v in distances.values() if math.isfinite(v)]
    return sum(finite) / len(finite) if finite else math.inf
