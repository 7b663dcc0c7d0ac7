"""Independent brute-force ground truth for cross-checking the fast paths.

Nothing here imports from :mod:`hierwalk.hierarchy`, :mod:`hierwalk.quantum`
or :mod:`hierwalk.spectral`; the duplication is deliberate so that agreement
between an oracle and a production path actually validates both (a test
parses this module to keep it so). The matrix exponential is a
scaled-and-squared Taylor series (with an eigendecomposition shortcut for
Hermitian input). The walk operators are assembled entry by entry, from
masks over broadcast index pairs, with heat semigroups from that series.
The Hamiltonian and the joint law come from the oracle's own eigensystems
and phase rule: all tuple blocks are solved in one stacked ``eigh``, and
the sums over tuples are contractions with Kronecker products of the local
eigenbases, formed in full.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapExceeded, ExponentOverflow, ShapeMismatch

ENTRY_CAP = 1e3
TAYLOR_TERMS = 18
DENSE_CAP = 4096


@dataclass(frozen=True)
class ComparisonReport:
    max_abs_diff: float
    location: tuple
    tolerance: float
    passed: bool


def compare(A: np.ndarray, B: np.ndarray, tol: float) -> ComparisonReport:
    """Entrywise comparison; reports the worst entry and its multi-index."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ShapeMismatch(f"shapes differ: {A.shape} vs {B.shape}")
    diff = np.abs(A - B)
    if diff.size == 0:
        return ComparisonReport(0.0, (), tol, True)
    loc = np.unravel_index(int(np.argmax(diff)), diff.shape)
    worst = float(diff[loc])
    return ComparisonReport(max_abs_diff=worst, location=tuple(int(i) for i in loc),
                            tolerance=tol, passed=worst <= tol)


def matrix_exp(M: np.ndarray, hermitian_hint: bool = False) -> np.ndarray:
    """exp(M) by scaling and squaring a truncated Taylor series.

    With ``hermitian_hint`` the exponential is taken through the
    eigendecomposition instead; the two routes agree to 1e-9 on Hermitian
    input, which the self-tests pin down. Entries above 1e3 are refused.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeMismatch("matrix_exp expects a square matrix")
    if M.size and float(np.max(np.abs(M))) > ENTRY_CAP:
        raise ExponentOverflow(f"entries exceed {ENTRY_CAP:g}")
    if hermitian_hint:
        w, V = np.linalg.eigh(M)
        return (V * np.exp(w)) @ V.conj().T
    norm1 = float(np.max(np.abs(M).sum(axis=0))) if M.size else 0.0
    nsq = max(0, int(math.ceil(math.log2(norm1 / 0.5)))) if norm1 > 0.5 else 0
    T = M / (2.0 ** nsq)
    out = np.eye(M.shape[0], dtype=complex)
    for k in range(TAYLOR_TERMS, 0, -1):
        out = np.eye(M.shape[0], dtype=complex) + (T @ out) / k
    for _ in range(nsq):
        out = out @ out
    if np.isrealobj(M):
        out = out.real
    return out


# ---------------------------------------------------------------------------
# Direct operator assembly
# ---------------------------------------------------------------------------

def dense_hdtrw(P_H: np.ndarray, local_Ps, convention: str = "destination") -> np.ndarray:
    """Entrywise hierarchical walk matrix, no tensor algebra.

    Entry ((y,k),(y',k')) multiplies the global step probability by the
    selected local graph's step and identity on every other register. The
    selected register is y' under the destination convention, y under the
    source convention. Both flat indices are broadcast against each other,
    with one equality mask per register.
    """
    P_H = np.asarray(P_H, dtype=float)
    local_Ps = [np.asarray(P, dtype=float) for P in local_Ps]
    dims = [P.shape[0] for P in local_Ps]
    index = np.indices((P_H.shape[0], *dims)).reshape(len(dims) + 1, -1)
    rows, cols = index[:, :, None], index[:, None, :]
    same = rows[1:] == cols[1:]
    agree = np.sum(same, axis=0)
    sel = cols[0] if convention == "destination" else rows[0]
    global_step = P_H[rows[0], cols[0]]
    out = np.zeros(global_step.shape)
    for j, P in enumerate(local_Ps):
        mask = (sel == j) & (agree - same[j] == len(dims) - 1)
        out[mask] = (global_step * P[rows[j + 1], cols[j + 1]])[mask]
    return out


def dense_hctrw(P_H: np.ndarray, local_Ps, times) -> np.ndarray:
    """Entrywise deformed walk matrix: :func:`dense_hdtrw` on Taylor heat semigroups.

    Local j steps by exp(-t_j (I - P_j)) from :func:`matrix_exp`, selected by
    the destination of the global move; one time per local graph.
    """
    semigroups = [matrix_exp(-float(t) * (np.eye(len(P)) - np.asarray(P, dtype=float)))
                  for t, P in zip(times, local_Ps, strict=True)]
    return dense_hdtrw(P_H, semigroups, "destination")


def _eigh_canonical(A: np.ndarray):
    """Own eigendecomposition with the largest-entry-positive phase convention.

    Works on ``(..., n, n)`` stacks; each column's first largest-magnitude
    entry is made real positive.
    """
    w, V = np.linalg.eigh(A)
    V = np.array(V, dtype=complex)
    z = np.take_along_axis(V, np.argmax(np.abs(V), axis=-2)[..., None, :], axis=-2)
    a = np.hypot(z.real, z.imag)
    return w, V * np.where(a > 0, np.conj(z) / np.where(a > 0, a, 1.0), 1.0)


def _local_systems(local_hams):
    return [_eigh_canonical(np.asarray(H)) for H in local_hams]


def _tuple_blocks(global_ham: np.ndarray, systems):
    """Clamped local eigenvalues and sandwiched global blocks, one row per tuple.

    Tuples of local eigenlabels run in ``itertools.product`` order (last
    register fastest), the column order of the Kronecker products below.
    """
    dims = [w.shape[0] for w, _ in systems]
    labels = np.indices(dims).reshape(len(dims), -1)
    lam = np.maximum(np.stack([w[l] for (w, _), l in zip(systems, labels)], axis=1), 0.0)
    root = np.sqrt(lam)
    return lam, root[:, :, None] * global_ham * root[:, None, :]


def _checked_dimension(d1: int, systems, cap: int) -> int:
    N = d1 * int(np.prod([w.shape[0] for w, _ in systems]))
    if N > cap:
        raise DimensionCapExceeded(f"dimension {N} exceeds cap {cap}")
    return N


def dense_hamiltonian(global_ham: np.ndarray, local_hams, cap: int = DENSE_CAP) -> np.ndarray:
    """Full hierarchical Hamiltonian from raw ingredient matrices.

    Sum over tuples of block (x) projector, contracted in one ``einsum``
    against the Kronecker product of the local eigenbases.
    """
    global_ham = np.asarray(global_ham)
    systems = _local_systems(local_hams)
    N = _checked_dimension(global_ham.shape[0], systems, cap)
    _, blocks = _tuple_blocks(global_ham, systems)
    basis = functools.reduce(np.kron, [V for _, V in systems])
    out = np.einsum("iab,ri,si->arbs", blocks, basis, basis.conj(), optimize=True)
    return out.reshape(N, N)


def dense_evolve(global_ham: np.ndarray, local_hams, t: float, psi: np.ndarray,
                 cap: int = DENSE_CAP) -> np.ndarray:
    """exp(i t H) psi through the dense Hamiltonian and the series exponential.

    ``psi`` is one state of shape ``(N,)`` or a stack of states, one per
    column, of shape ``(N, k)``; the operator is built once either way.
    """
    H = dense_hamiltonian(global_ham, local_hams, cap)
    U = matrix_exp(1j * t * H)
    return U @ np.asarray(psi, dtype=complex)


# ---------------------------------------------------------------------------
# Joint distribution, two bases
# ---------------------------------------------------------------------------

def dense_joint_distribution(global_ham: np.ndarray, local_hams, t,
                             psi_global: np.ndarray, psi_locals,
                             basis: str = "branch", cap: int = DENSE_CAP) -> np.ndarray:
    """Joint law of the local positions at a time or on a 1-D time grid.

    ``basis="branch"`` evaluates the identity-anchored branch formula with
    independently computed eigensystems: all tuple blocks are solved in one
    stacked ``eigh``, and the phased and unphased branch amplitudes of every
    position are one product each with the (positions x tuples) Kronecker
    matrix of the local factors. ``basis="vertex"`` marginalizes the evolved
    dense state over the global register; the two need not coincide.
    A scalar ``t`` gives an array shaped like the position lattice; a grid
    gives one such array per time, stacked along a leading axis.
    """
    global_ham = np.asarray(global_ham)
    d1 = global_ham.shape[0]
    psi_global = np.asarray(psi_global, dtype=complex)
    psi_locals = [np.asarray(p, dtype=complex) for p in psi_locals]
    systems = _local_systems(local_hams)
    dims = tuple(w.shape[0] for w, _ in systems)
    _checked_dimension(d1, systems, cap)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D grid, got shape {times.shape}")
    grid = times.reshape(-1)

    if basis == "vertex":
        H = dense_hamiltonian(global_ham, local_hams, cap)
        full = functools.reduce(np.kron, psi_locals, psi_global)
        fields = np.array([(matrix_exp(1j * tv * H) @ full).reshape(d1, -1) for tv in grid])
        prob = np.sum(np.abs(fields) ** 2, axis=1).reshape((len(grid), *dims))
    elif basis == "branch":
        prob = _branch_laws(global_ham, systems, grid, psi_global, psi_locals)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return prob[0] if times.ndim == 0 else prob


def _branch_laws(global_ham: np.ndarray, systems, grid: np.ndarray,
                 psi_global: np.ndarray, psi_locals) -> np.ndarray:
    """Identity-anchored branch formula at every time of ``grid``, time-major."""
    d1 = global_ham.shape[0]
    dims = tuple(w.shape[0] for w, _ in systems)
    lam, blocks = _tuple_blocks(global_ham, systems)
    w, V = _eigh_canonical(blocks)
    anchored = np.max(lam, axis=1) <= 1e-9
    w = np.where(anchored[:, None], 0.0, w)
    V = np.where(anchored[:, None, None], _eigh_canonical(global_ham)[1], V)
    # a[T, m] = <V_T[:, m] | psi_global>; K[k, T] = prod_j v_{T_j}[k_j] <v_{T_j} | psi_j>
    a = np.einsum("iam,a->im", V.conj(), psi_global)
    K = functools.reduce(np.kron, [Vj * (Vj.conj().T @ p)
                                   for (_, Vj), p in zip(systems, psi_locals)])
    phases = np.exp(1j * grid[:, None] * w[:, None, :])  # (tuple, time, branch)
    phased = K @ (a[:, None, :] * phases).reshape(len(a), -1)
    plain = K @ a
    ident = np.abs(functools.reduce(np.kron, psi_locals)) ** 2
    prob = (ident[:, None]
            + np.sum(np.abs(phased.reshape(len(K), len(grid), d1)) ** 2, axis=2)
            - np.sum(np.abs(plain) ** 2, axis=1)[:, None])
    return prob.T.reshape((len(grid), *dims))
