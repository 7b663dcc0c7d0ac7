"""Finite undirected graphs with random-walk structure.

A :class:`GraphModel` bundles a vertex set, an edge set (self-loops allowed),
an optional row-stochastic transition matrix and an optional reversible
measure. The operations here produce the simple-random-walk transition,
solve for the stationary measure, check detailed balance and build the
normalized Laplacian ``I - D^{1/2} P D^{-1/2}`` that underpins every
spectral computation downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IsolatedVertex,
    MissingTransition,
    NoPositiveFixedVector,
    NotIrreducible,
    NotReversible,
)

ROW_SUM_TOL = 1e-12
BALANCE_TOL = 1e-10
STATIONARY_TOL = 1e-10


def _normalize_edges(edges) -> frozenset[tuple[int, int]]:
    out = set()
    for a, b in edges:
        a, b = int(a), int(b)
        out.add((a, b) if a <= b else (b, a))
    return frozenset(out)


@dataclass(frozen=True)
class GraphModel:
    """Finite undirected graph, optionally carrying walk data.

    Attributes
    ----------
    vertex_count:
        Number of vertices; vertices are labeled 0..vertex_count-1.
    edges:
        Unordered vertex pairs; a pair (v, v) is a self-loop.
    transition:
        Optional row-stochastic matrix P supported on the edge set.
    measure:
        Optional strictly positive probability vector pi.
    """

    vertex_count: int
    edges: frozenset = field(default_factory=frozenset)
    transition: np.ndarray | None = None
    measure: np.ndarray | None = None

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex_count must be a positive integer")
        object.__setattr__(self, "edges", _normalize_edges(self.edges))
        for a, b in self.edges:
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise ValueError(f"edge ({a},{b}) has an endpoint outside 0..{self.vertex_count - 1}")
        if self.transition is not None:
            P = np.asarray(self.transition, dtype=float)
            if P.shape != (self.vertex_count, self.vertex_count):
                raise DimensionMismatch(
                    f"transition is {P.shape}, expected ({self.vertex_count}, {self.vertex_count})")
            if np.any(P < 0):
                raise ValueError("transition entries must be nonnegative")
            rows = P.sum(axis=1)
            if np.max(np.abs(rows - 1.0)) > ROW_SUM_TOL:
                raise ValueError(f"transition is not row-stochastic: rows must sum to 1 within {ROW_SUM_TOL}")
            for j, k in zip(*np.nonzero(P)):
                if not self.has_edge(int(j), int(k)):
                    raise ValueError(f"P[{j}][{k}] > 0 but ({j},{k}) is not an edge")
            object.__setattr__(self, "transition", P)
        if self.measure is not None:
            pi = np.asarray(self.measure, dtype=float)
            if pi.shape != (self.vertex_count,):
                raise DimensionMismatch(f"measure has length {pi.shape}, expected {self.vertex_count}")
            if np.any(pi <= 0):
                raise ValueError("measure entries must be strictly positive")
            if abs(pi.sum() - 1.0) > ROW_SUM_TOL:
                raise ValueError(f"measure must sum to 1 within {ROW_SUM_TOL}")
            object.__setattr__(self, "measure", pi)

    def has_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a <= b else (b, a)) in self.edges

    def degree(self, v: int) -> int:
        """Number of incident edges; a self-loop counts once."""
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)


@dataclass(frozen=True)
class SymmetricOperator:
    """Real symmetric matrix together with its recorded symmetry defect."""

    matrix: np.ndarray
    symmetry_defect: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("symmetric operator must be square")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class BalanceReport:
    ok: bool
    max_defect: float


def uniform_walk_transition(g: GraphModel) -> GraphModel:
    """Return a copy of ``g`` carrying the simple-random-walk transition.

    P[j][k] = 1/deg(j) for each neighbor k of j (self-loops allowed).
    Raises :class:`IsolatedVertex` when some vertex has no move.
    """
    n = g.vertex_count
    P = np.zeros((n, n))
    for v in range(n):
        nbrs = g.neighbors(v)
        if not nbrs:
            raise IsolatedVertex(v)
        for u in nbrs:
            P[v, u] = 1.0 / len(nbrs)
    return GraphModel(n, g.edges, transition=P, measure=g.measure)


def stationary_measure(g: GraphModel) -> np.ndarray:
    """Solve pi P = pi, pi > 0, sum(pi) = 1 for an irreducible chain."""
    if g.transition is None:
        raise MissingTransition("graph carries no transition matrix")
    P = g.transition
    n = g.vertex_count
    # after s squarings of (P > 0) | I, entry (j, k) says k is within 2**s steps of j
    reach = ((P > 0) | np.eye(n, dtype=bool)).astype(float)
    for _ in range((n - 1).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    if not np.all(reach > 0):
        raise NotIrreducible("support of the transition matrix is not strongly connected")
    # Least squares on the stacked system (P^T - I) pi = 0, sum(pi) = 1.
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    if np.any(pi <= STATIONARY_TOL * 1e-3):
        raise NoPositiveFixedVector(f"solver returned a non-positive component: {pi}")
    pi = pi / pi.sum()
    if np.max(np.abs(pi @ P - pi)) > STATIONARY_TOL:
        raise NoPositiveFixedVector("fixed-point residual exceeds tolerance")
    return pi


def verify_detailed_balance(P: np.ndarray, pi: np.ndarray, tol: float = BALANCE_TOL) -> BalanceReport:
    """Check pi_j P[j][k] == pi_k P[k][j] entrywise within ``tol``."""
    P = np.asarray(P, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or pi.shape != (P.shape[0],):
        raise DimensionMismatch("P must be square and pi must match its dimension")
    flux = pi[:, None] * P
    defect = float(np.max(np.abs(flux - flux.T)))
    return BalanceReport(ok=defect <= tol, max_defect=defect)


def normalized_laplacian(P: np.ndarray, pi: np.ndarray, tol: float = BALANCE_TOL) -> SymmetricOperator:
    """Build I - D^{1/2} P D^{-1/2} with D = diag(pi).

    Requires detailed balance; otherwise the result would not be symmetric
    and :class:`NotReversible` is raised.
    """
    P = np.asarray(P, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if P.shape[0] != pi.shape[0]:
        raise DimensionMismatch("P and pi dimensions differ")
    d = np.sqrt(pi)
    L = np.eye(P.shape[0]) - (d[:, None] * P) / d[None, :]
    defect = float(np.max(np.abs(L - L.T)))
    if defect > tol:
        raise NotReversible(f"normalized Laplacian symmetry defect {defect:.3e} exceeds {tol:.1e}")
    return SymmetricOperator(matrix=(L + L.T) / 2.0, symmetry_defect=defect)


def prepare_walk(g: GraphModel) -> GraphModel:
    """Fill in the uniform walk and stationary measure where missing.

    A user-supplied transition or measure always wins; supplied measures are
    validated against detailed balance by the callers that need it.
    """
    if g.transition is None:
        g = uniform_walk_transition(g)
    if g.measure is None:
        pi = stationary_measure(g)
        g = GraphModel(g.vertex_count, g.edges, transition=g.transition, measure=pi)
    return g


# ---------------------------------------------------------------------------
# Builders for the small graphs used throughout the tests and the CLI.
# ---------------------------------------------------------------------------

def path_graph(n: int) -> GraphModel:
    return GraphModel(n, frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> GraphModel:
    return GraphModel(n, frozenset((i, (i + 1) % n) for i in range(n)))


def star_graph(leaves: int) -> GraphModel:
    return GraphModel(leaves + 1, frozenset((0, i + 1) for i in range(leaves)))


def loop_vertex() -> GraphModel:
    """Single vertex with a self-loop; its walk is the identity."""
    return GraphModel(1, frozenset({(0, 0)}), transition=np.array([[1.0]]), measure=np.array([1.0]))


def complete_graph_with_loops(n: int) -> GraphModel:
    return GraphModel(n, frozenset((j, k) for j in range(n) for k in range(j, n)))


def kbar_graph(q) -> GraphModel:
    """Complete graph with self-loops whose walk jumps to vertex k with probability q_k.

    The reversible measure of this chain is q itself.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    P = np.tile(q, (n, 1))
    return GraphModel(n, complete_graph_with_loops(n).edges, transition=P, measure=q.copy())


# ---------------------------------------------------------------------------
# JSON wire format: {"vertices": n, "edges": [[a,b],...],
#                    "transition": row-major optional, "measure": optional}
# ---------------------------------------------------------------------------

def graph_from_dict(data: dict) -> GraphModel:
    return GraphModel(
        vertex_count=int(data["vertices"]),
        edges=frozenset((int(a), int(b)) for a, b in data.get("edges", [])),
        transition=np.asarray(data["transition"], dtype=float) if data.get("transition") is not None else None,
        measure=np.asarray(data["measure"], dtype=float) if data.get("measure") is not None else None,
    )


def graph_to_dict(g: GraphModel) -> dict:
    out = {"vertices": g.vertex_count, "edges": sorted([a, b] for a, b in g.edges)}
    if g.transition is not None:
        out["transition"] = g.transition.tolist()
    if g.measure is not None:
        out["measure"] = g.measure.tolist()
    return out
