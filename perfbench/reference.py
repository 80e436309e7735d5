"""Independent references the benchmark checks Lobster's outputs against.

None of these shares code with the engine: each recomputes a workload's
answer with a different algorithm (dense max-min matrix closure, Dijkstra,
boolean matrix closure), so a wrong row or probability in Lobster's output
shows as a mismatch instead of being reproduced.  The benchmark's tests
pin each reference to the repo's own CPU stand-ins (Soufflé, Scallop) on
small inputs.
"""

from __future__ import annotations

import heapq

import numpy as np


# ---------------------------------------------------------------------------
# tc-road: the grid is strongly connected, so the closure is every pair.


def all_pairs_ok(columns: list[np.ndarray], n_nodes: int) -> bool:
    """Whether a binary relation holds each of the ``n_nodes``² ordered
    pairs over nodes ``0..n_nodes-1`` exactly once."""
    if len(columns) != 2:
        return False
    x, y = (np.asarray(c) for c in columns)
    if len(x) != n_nodes * n_nodes:
        return False
    if x.min(initial=0) < 0 or y.min(initial=0) < 0:
        return False
    if x.max(initial=0) >= n_nodes or y.max(initial=0) >= n_nodes:
        return False
    return len(np.unique(x.astype(np.int64) * n_nodes + y)) == n_nodes * n_nodes


# ---------------------------------------------------------------------------
# cspa-prob: the CSPA grammar as max-min matrix equations.


def maxmin(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-min matrix product: ``out[i, j] = max_k min(a[i, k], b[k, j])``."""
    return np.minimum(a[:, :, None], b[None, :, :]).max(axis=1)


def cspa_maxmin(
    n: int,
    assign: list[tuple[int, int]],
    assign_probs,
    dereference: list[tuple[int, int]],
    dereference_probs,
) -> dict[str, np.ndarray]:
    """Least fixpoint of the CSPA program (``repro.workloads.analytics``)
    under ⊗ = min, ⊕ = max, as dense ``n × n`` matrices (0 = absent).

    Max-min is a semiring, so every rule body is a matrix product:
    ``value_flow ⊇ A ⊕ A⊗MA ⊕ VF⊗VF`` (plus the diagonal rules),
    ``memory_alias ⊇ Dᵀ⊗VA⊗D``, ``value_alias ⊇ VFᵀ⊗VF ⊕ VFᵀ⊗MA⊗VF ⊕
    VFᵀ⊗VA⊗VF``; iterating from the base facts reaches the fixpoint."""
    A = np.zeros((n, n))
    for (x, y), p in zip(assign, assign_probs):
        A[x, y] = max(A[x, y], p)
    D = np.zeros((n, n))
    for (x, y), p in zip(dereference, dereference_probs):
        D[x, y] = max(D[x, y], p)
    diagonal = np.arange(n)
    # value_flow(x, x) :- assign(x, y).  value_flow(x, x) :- assign(y, x).
    VF = A.copy()
    VF[diagonal, diagonal] = np.maximum.reduce([VF.diagonal(), A.max(axis=1), A.max(axis=0)])
    # memory_alias(x, x) :- assign(y, x).
    MA = np.zeros((n, n))
    MA[diagonal, diagonal] = A.max(axis=0)
    VA = np.zeros((n, n))
    while True:
        VFt = VF.T
        new_vf = np.maximum.reduce([VF, maxmin(A, MA), maxmin(VF, VF)])
        new_ma = np.maximum(MA, maxmin(maxmin(D.T, VA), D))
        new_va = np.maximum.reduce([
            VA,
            maxmin(VFt, VF),
            maxmin(maxmin(VFt, MA), VF),
            maxmin(maxmin(VFt, VA), VF),
        ])
        if (new_vf == VF).all() and (new_ma == MA).all() and (new_va == VA).all():
            return {"value_flow": VF, "memory_alias": MA, "value_alias": VA}
        VF, MA, VA = new_vf, new_ma, new_va


def relation_matrix(columns, probs, n: int) -> np.ndarray | None:
    """A binary relation's (rows, probabilities) as a dense matrix; None
    when a row repeats or falls outside ``0..n-1`` (never valid output)."""
    x, y = (np.asarray(c, dtype=np.int64) for c in columns)
    if len(x) and (min(x.min(), y.min()) < 0 or max(x.max(), y.max()) >= n):
        return None
    if len(np.unique(x * n + y)) != len(x):
        return None
    out = np.zeros((n, n))
    out[x, y] = probs
    return out


# ---------------------------------------------------------------------------
# train-batched: a top-1 proof of `path` is a most probable simple path.


def best_path(
    n_nodes: int, edges: list[tuple[int, int]], probs, source: int, target: int
) -> tuple[float, list[int]]:
    """Most probable ``source → target`` path (product of edge
    probabilities, all in (0, 1]) by Dijkstra on ``-log p``; returns the
    probability and the path's edge indices (0.0 and [] if unreachable)."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for index, (a, b) in enumerate(edges):
        adjacency[a].append((b, index))
    cost = [float("inf")] * n_nodes
    via = [-1] * n_nodes
    cost[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        c, node = heapq.heappop(heap)
        if c > cost[node]:
            continue
        for nxt, index in adjacency[node]:
            p = float(probs[index])
            if p <= 0.0:
                continue
            candidate = c - np.log(p)
            if candidate < cost[nxt]:
                cost[nxt] = candidate
                via[nxt] = index
                heapq.heappush(heap, (candidate, nxt))
    if cost[target] == float("inf"):
        return 0.0, []
    path = []
    node = target
    while node != source:
        path.append(via[node])
        node = edges[via[node]][0]
    path.reverse()
    return float(np.prod([probs[i] for i in path])), path


def pathfinder_reference(
    n_nodes: int, edges, probs, endpoints: tuple[int, int], grad_out: float
) -> tuple[float, np.ndarray]:
    """``endpoints_connected()`` under diff-top-1-proofs and the gradient
    of ``grad_out × output`` w.r.t. each edge probability: the better of
    the two directed best paths, and for each edge on it the product of
    the path's other edge probabilities."""
    a, b = endpoints
    forward = best_path(n_nodes, edges, probs, a, b)
    backward = best_path(n_nodes, edges, probs, b, a)
    prob, path = max(forward, backward, key=lambda found: found[0])
    grad = np.zeros(len(edges))
    for index in path:
        others = [probs[i] for i in path if i != index]
        grad[index] += grad_out * float(np.prod(others))
    return prob, grad


# ---------------------------------------------------------------------------
# stream-churn: transitive closure of the live edges.


def closure_pairs(edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Every (x, y) with a non-empty path from x to y, by repeated
    boolean matrix squaring over the edges' node set."""
    nodes = sorted({v for edge in edges for v in edge})
    index = {v: i for i, v in enumerate(nodes)}
    reach = np.zeros((len(nodes), len(nodes)), dtype=np.float32)
    for a, b in edges:
        reach[index[a], index[b]] = 1.0
    while True:
        grown = np.minimum(reach + (reach @ reach > 0), 1.0).astype(np.float32)
        if (grown == reach).all():
            break
        reach = grown
    xs, ys = np.nonzero(reach)
    return {(nodes[x], nodes[y]) for x, y in zip(xs.tolist(), ys.tolist())}
