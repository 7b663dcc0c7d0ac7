"""Hierarchical continuous-time quantum walks and their joint position laws.

The Hamiltonian on (global register) x (local registers) is assembled
blockwise: for each tuple of local eigenlabels, the global Hamiltonian is
sandwiched between the square roots of the locals' eigenvalues,

    H_block(T) = Lambda_T^{1/2} H_global Lambda_T^{1/2},
    H_total    = sum_T H_block(T) (x) projector onto the tuple's local
                 eigenvector product,

so exp(i t H_total) acts independently on every tuple block. The joint
distribution of the local positions is evaluated in the identity-anchored
form: each block propagator is expanded as I + sum_m (e^{i t w_m} - 1)
|u_m><u_m| before squaring, i.e.

    P[k] = |A_I[k]|^2 + sum_m ( |A_m(t)[k]|^2 - |A_m(0)[k]|^2 ),

where A_I is the initial product amplitude and A_m accumulates branch m
over all tuples; the closed-form complete-graph law is this formula on a
one-branch table. Since A_m adds branch m of different tuples before
squaring, the law depends on the phases of the block eigenvectors and on
the bases chosen inside degenerate eigenspaces (``evolve`` depends on
neither). Blocks that vanish identically are anchored to the global
Hamiltonian's own eigenbasis, the zero-coupling limit of the sandwich.

Note the evaluated law is a quadratic form in the evolved state, not a
projective measurement in a fixed basis; it sums to one exactly but single
entries may dip below zero for some initial states. ``JointDistribution``
records the minimum entry instead of forbidding this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantOverlapViolated,
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidP,
    InvalidProbabilityVector,
    NegativeLocalEigenvalue,
    NegativeWeight,
)
from .graphs import GraphModel
from .hierarchy import DENSE_CAP, walk_spectral_data
from .spectral import (GROUPING_TOL, EigenSystem, _apply_blocks, _contract_lattice, _eigh_stack,
                       _materialize, _outer_product, _tuple_table, eigh)

NORM_TOL = 1e-12
MASS_TOL = 1e-9
LOCAL_EIGENVALUE_TOL = 1e-12


@dataclass(frozen=True)
class QuantumState:
    """Unit-norm complex amplitude vector over a declared register space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]


def vertex_state(n: int, k: int) -> QuantumState:
    amp = np.zeros(n, dtype=complex)
    amp[k] = 1.0
    return QuantumState(amp)


def uniform_state(n: int) -> QuantumState:
    return QuantumState(np.full(n, 1.0 / np.sqrt(n), dtype=complex))


def random_state(n: int, rng: np.random.Generator) -> QuantumState:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return QuantumState(v / np.linalg.norm(v))


@dataclass(frozen=True)
class JointDistribution:
    """Joint law of the local positions, tagged by the producing formula.

    ``probabilities[k_0, ..., k_d]`` sums to 1 within 1e-9; ``min_entry``
    records the smallest entry (the evaluated form is not guaranteed
    pointwise nonnegative for every initial state).
    """

    probabilities: np.ndarray
    time: float
    formula: str

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        mass = float(p.sum())
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"total mass {mass} deviates from 1 by more than {MASS_TOL}")
        object.__setattr__(self, "probabilities", p)

    @property
    def total_mass(self) -> float:
        return float(self.probabilities.sum())

    @property
    def min_entry(self) -> float:
        return float(self.probabilities.min())


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianAssembly:
    """Per-tuple spectral data of the hierarchical Hamiltonian.

    ``block_values[i]`` / ``block_vectors[i]`` hold the eigendata of the
    sandwiched global block for the i-th tuple in lexicographic order
    (last register fastest); ``local_dims`` fixes that order.
    """

    global_ham: np.ndarray
    local_systems: tuple
    block_values: np.ndarray
    block_vectors: np.ndarray
    anchor_system: EigenSystem
    grouping_tol: float

    @property
    def branching(self) -> int:
        return self.global_ham.shape[0]

    @property
    def local_dims(self) -> tuple:
        return tuple(s.dimension for s in self.local_systems)

    @property
    def dimension(self) -> int:
        return self.branching * int(np.prod(self.local_dims))

    def tuples(self):
        return np.ndindex(*self.local_dims)

    def dense_hamiltonian(self, cap: int = DENSE_CAP) -> np.ndarray:
        """Materialize the full Hamiltonian; refuses above the dimension cap."""
        if self.dimension > cap:
            raise DimensionCapExceeded(f"dimension {self.dimension} exceeds cap {cap}")
        return _materialize(lambda x: self._apply(self.block_values, x), self.dimension, complex)

    def _apply(self, diagonals: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Apply sum_T V_T diag(diagonals[T]) V_T^H (x) (tuple T's local projector) to x."""
        V = self.block_vectors
        blocks = (V * diagonals[:, None, :]) @ V.conj().swapaxes(1, 2)
        return _apply_blocks(blocks, [s.vectors for s in self.local_systems],
                             [s.vectors.conj().T for s in self.local_systems], x)


def assemble_hamiltonian(global_ham: np.ndarray, local_systems,
                         tol: float = GROUPING_TOL) -> HamiltonianAssembly:
    """Eigendecompose every tuple block of the hierarchical Hamiltonian.

    ``local_systems`` are the (nonnegative) eigensystems of the local
    Hamiltonians; eigenvalues below -1e-12 are rejected, tiny negatives are
    clamped. Tuples whose eigenvalue diagonal vanishes entirely produce the
    zero block; those are anchored to the global Hamiltonian's eigenbasis.
    """
    global_ham = np.asarray(global_ham)
    anchor = eigh(global_ham, tol)  # also validates hermiticity
    local_systems = tuple(local_systems)
    d1 = global_ham.shape[0]
    if len(local_systems) != d1:
        raise DimensionMismatch(f"{len(local_systems)} local systems for a "
                                f"{d1}-dimensional global Hamiltonian")
    for j, s in enumerate(local_systems):
        if np.any(s.values < -LOCAL_EIGENVALUE_TOL):
            raise NegativeLocalEigenvalue(
                f"local system {j} has eigenvalue {s.values.min():.3e}; shift it first")
    lam = np.maximum(_tuple_table([s.values for s in local_systems]), 0.0)
    root = np.sqrt(lam)
    blocks = root[:, :, None] * global_ham * root[:, None, :]
    values, vectors = _eigh_stack((blocks + blocks.conj().swapaxes(1, 2)) / 2.0)
    vanishing = np.max(lam, axis=1) <= tol
    return HamiltonianAssembly(
        global_ham=global_ham,
        local_systems=local_systems,
        block_values=np.where(vanishing[:, None], 0.0, values),
        block_vectors=np.where(vanishing[:, None, None], anchor.vectors, vectors).astype(complex),
        anchor_system=anchor,
        grouping_tol=tol,
    )


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

def evolve(assembly: HamiltonianAssembly, t: float, psi: QuantumState) -> QuantumState:
    """Apply exp(i t H) blockwise; works without materializing the operator."""
    if psi.dimension != assembly.dimension:
        raise DimensionMismatch(f"state has dimension {psi.dimension}, "
                                f"assembly expects {assembly.dimension}")
    # unitarity keeps the norm; QuantumState's validation would flag drift
    return QuantumState(assembly._apply(np.exp(1j * t * assembly.block_values), psi.amplitudes))


# ---------------------------------------------------------------------------
# Joint distributions
# ---------------------------------------------------------------------------

def _time_grid(t) -> tuple[np.ndarray, bool]:
    """A time or a 1-D grid of times as a 1-D array, and whether ``t`` was a scalar."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D grid, got shape {times.shape}")
    return times.reshape(-1), times.ndim == 0


def _laws(probabilities: np.ndarray, times: np.ndarray, scalar: bool, formula: str):
    """One law per time (leading axis of ``probabilities``); the lone law for a scalar time."""
    laws = tuple(JointDistribution(probabilities=p, time=float(t), formula=formula)
                 for p, t in zip(probabilities, times))
    return laws[0] if scalar else laws


def _branch_laws(local_systems, vectors, rates, times: np.ndarray, psi_global: QuantumState,
                 psi_locals):
    """Identity-anchored laws of a tuple table, one per time.

    Branch m of tuple i is ``vectors[i, :, m]``, phased by exp(i t rates[i, m]).
    The law is the initial product law plus, summed over branches, the phased
    minus the unphased amplitude square. Returns the laws (time axis first),
    the local overlap matrices W_j = V_j diag(V_j^H psi_j), and the phased
    (time, branch, lattice) and unphased (branch, lattice) amplitudes.
    """
    if psi_global.dimension != vectors.shape[1]:
        raise DimensionMismatch("global state dimension does not match the tuple blocks")
    if any(psi.dimension != s.dimension for s, psi in zip(local_systems, psi_locals)):
        raise DimensionMismatch("local state dimension does not match its eigensystem")
    W = [s.vectors * (s.vectors.conj().T @ psi.amplitudes)
         for s, psi in zip(local_systems, psi_locals)]
    initial = _outer_product([np.abs(psi.amplitudes) ** 2 for psi in psi_locals])
    overlaps = np.moveaxis(vectors.conj(), 2, 0) @ psi_global.amplitudes
    phases = np.exp(1j * np.multiply.outer(times, rates.T))
    phased = _contract_lattice((overlaps * phases).reshape(phases.shape[:2] + initial.shape), W)
    plain = _contract_lattice(overlaps.reshape((-1, *initial.shape)), W)
    laws = (np.abs(phased) ** 2).sum(axis=1) + initial - (np.abs(plain) ** 2).sum(axis=0)
    return laws, W, phased, plain


def joint_distribution(assembly: HamiltonianAssembly, t: float | np.ndarray,
                       psi_global: QuantumState, psi_locals
                       ) -> JointDistribution | tuple[JointDistribution, ...]:
    """Joint law of the local positions under the assembled evolution.

    Identity-anchored evaluation: branch m of every tuple block contributes
    its phased minus unphased amplitude square on top of the initial product
    law. Exactly normalized for unit product states. ``t`` is a time or a
    1-D grid; the law at a time has the same bits alone or in any grid.
    """
    times, scalar = _time_grid(t)
    laws, *_ = _branch_laws(assembly.local_systems, assembly.block_vectors,
                            assembly.block_values, times, psi_global, list(psi_locals))
    return _laws(laws, times, scalar, "general")


# ---------------------------------------------------------------------------
# Complete-graph-with-loops specialization
# ---------------------------------------------------------------------------

def _validate_q(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or np.any(q <= 0.0) or np.any(q >= 1.0):
        raise InvalidProbabilityVector("all jump probabilities must lie strictly in (0, 1)")
    if abs(q.sum() - 1.0) > NORM_TOL:
        raise InvalidProbabilityVector(f"jump probabilities sum to {q.sum()}, expected 1")
    return q


def kbar_hamiltonian(q) -> np.ndarray:
    """Rank-1 global Hamiltonian sqrt(q) sqrt(q)^T of the loopy complete graph."""
    q = _validate_q(q)
    root = np.sqrt(q)
    return np.outer(root, root)


def _kbar_table(q, local_values, tol: float):
    """Unit vector, weighted-branch flag and phase rate of every kbar tuple block.

    ``local_values[j]`` holds register j's 1 - lambda values; rows follow the
    tuple order of :func:`~hierwalk.spectral._tuple_table`.
    """
    oml = _tuple_table(local_values)
    weights = oml * q
    if np.any(weights < -tol):
        raise NegativeWeight(f"weight {weights.min():.3e} below -{tol:.1e}")
    # A 1-lambda just below zero clamps to a zero weight, so the branch is
    # decided after clamping; a tuple with no weight left is uniform.
    weighted = np.max(oml, axis=1) > tol
    weights = np.maximum(weights, 0.0)
    total = np.where(weighted, weights.sum(axis=1), 1.0)
    vectors = np.where(weighted[:, None], np.sqrt(weights / total[:, None]), np.sqrt(q))
    return vectors, weighted, oml @ q


def kbar_tuple_vector(one_minus_lambdas, q, tol: float = GROUPING_TOL):
    """Distinguished unit vector of one tuple block on the loopy complete graph.

    Weighted branch sqrt((1-lambda_j) q_j), normalized, when some 1-lambda
    exceeds ``tol``; the uniform sqrt(q) branch otherwise. Returns the vector
    and the branch tag ("weighted" | "uniform").
    """
    vectors, weighted, _ = _kbar_table(np.asarray(q, dtype=float),
                                       np.asarray(one_minus_lambdas, dtype=float)[:, None], tol)
    return vectors[0], "weighted" if weighted[0] else "uniform"


@dataclass(frozen=True)
class KbarSpec:
    """Closed-form spectral data of a loopy-complete-graph global walk.

    One distinguished unit vector and phase rate per tuple of local
    eigenlabels, plus the squared overlap with an optional global state when
    it is tuple-independent (``p`` stays None otherwise).
    """

    q: np.ndarray
    labels: tuple
    vectors: np.ndarray
    branches: tuple
    rates: np.ndarray
    p: float | None
    overlap_spread: float | None


def kbar_spec(q, local_systems, psi_global: QuantumState | None = None,
              tol: float = GROUPING_TOL) -> KbarSpec:
    """Tabulate the per-tuple vectors, branch tags and phase rates."""
    q = _validate_q(q)
    local_systems = tuple(local_systems)
    vectors, weighted, rates = _kbar_table(q, [s.values for s in local_systems], tol)
    p = spread = None
    if psi_global is not None:
        mean, spread = _overlap_spread(vectors, psi_global)
        p = mean if spread <= tol else None
    return KbarSpec(q=q, labels=tuple(np.ndindex(*(s.dimension for s in local_systems))),
                    vectors=vectors,
                    branches=tuple("weighted" if w else "uniform" for w in weighted),
                    rates=rates, p=p, overlap_spread=spread)


def _kbar_branches(q, local_systems, times: np.ndarray, psi_global: QuantumState,
                   psi_locals, tol: float):
    """:func:`_branch_laws` of the kbar table: the rank-1 global Hamiltonian
    leaves each tuple block one branch, of rate sum_j (1-lambda_j) q_j."""
    local_systems = tuple(local_systems)
    vectors, _, rates = _kbar_table(_validate_q(q), [s.values for s in local_systems], tol)
    return _branch_laws(local_systems, vectors[:, :, None], rates[:, None], times,
                        psi_global, psi_locals)


def kbar_joint_distribution(q, local_systems, t: float | np.ndarray, psi_global: QuantumState,
                            psi_locals, tol: float = GROUPING_TOL
                            ) -> JointDistribution | tuple[JointDistribution, ...]:
    """Closed-form three-term law for the loopy-complete-graph global walk.

    phased term + initial product law - unphased term, with per-tuple phase
    exp(i t sum_j (1-lambda_j) q_j). Requires local Hamiltonians equal to
    the normalized Laplacians (their eigensystems are passed directly).
    A scalar ``t`` gives one ``JointDistribution``; a 1-D grid gives a tuple
    of them, one per time, from a single kbar table and contraction.
    """
    times, scalar = _time_grid(t)
    laws, *_ = _kbar_branches(q, local_systems, times, psi_global, list(psi_locals), tol)
    return _laws(laws, times, scalar, "three-term")


def operator_split_joint_distribution(q, local_systems, t: float | np.ndarray,
                                      psi_global: QuantumState, psi_locals,
                                      tol: float = GROUPING_TOL
                                      ) -> JointDistribution | tuple[JointDistribution, ...]:
    """Same law evaluated through the operator split of the evolution.

    The propagator is the identity plus one phased rank-1 branch per tuple;
    the identity amplitude is accumulated over the tuple lattice instead of
    taken as the product law, so agreement with the three-term form checks
    the completeness identity as well. ``t`` is a time or a 1-D grid, as in
    :func:`kbar_joint_distribution`.
    """
    times, scalar = _time_grid(t)
    _, W, phased, plain = _kbar_branches(q, local_systems, times, psi_global,
                                         list(psi_locals), tol)
    identity_amp = _contract_lattice(np.ones(plain.shape[1:], dtype=complex), W)
    prob = (np.abs(identity_amp) ** 2 + (np.abs(phased) ** 2).sum(axis=1)
            - (np.abs(plain) ** 2).sum(axis=0))
    return _laws(prob, times, scalar, "operator-split")


def _overlap_spread(vectors: np.ndarray, psi_global: QuantumState) -> tuple[float, float]:
    """Mean and spread of the squared overlaps of the tuple vectors with psi_global."""
    sq = np.abs(vectors @ psi_global.amplitudes) ** 2
    return float(sq.mean()), float(sq.max() - sq.min())


def constant_overlap(q, local_systems, psi_global: QuantumState,
                     tol: float = GROUPING_TOL) -> tuple[float, float]:
    """Return (p, spread) of the squared tuple-vector overlaps with psi_global."""
    vectors, _, _ = _kbar_table(_validate_q(q), [s.values for s in local_systems], tol)
    return _overlap_spread(vectors, psi_global)


def factorized_distribution(q, local_systems, t: float | np.ndarray, p: float, psi_locals,
                            psi_global: QuantumState | None = None,
                            tol: float = GROUPING_TOL
                            ) -> JointDistribution | tuple[JointDistribution, ...]:
    """p-mixture of the time-rescaled product law and the initial product law.

    Walker j runs for time q_j * t under its own Laplacian. When
    ``psi_global`` is supplied, the squared tuple overlaps must be constant
    within ``tol`` of spread and match ``p``; otherwise the asserted ``p``
    is refused. ``t`` is a time or a 1-D grid, as in
    :func:`kbar_joint_distribution`; the overlap check runs once per call.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidP(f"mixture weight must lie in [0, 1], got {p}")
    times, scalar = _time_grid(t)
    q = _validate_q(q)
    psi_locals = list(psi_locals)
    local_systems = tuple(local_systems)
    if psi_global is not None:
        mean, spread = constant_overlap(q, local_systems, psi_global, tol)
        if spread > tol:
            raise ConstantOverlapViolated(
                f"squared overlaps spread {spread:.3e} exceeds {tol:.1e}")
        if abs(mean - p) > max(tol, 1e-9):
            raise ConstantOverlapViolated(
                f"asserted p={p} but overlaps give {mean:.12f}")
    frozen = _outer_product([np.abs(psi.amplitudes) ** 2 for psi in psi_locals])
    moved = [_outer_product([ctqw_distribution_from_system(s, psi, q[j] * tv)
                             for j, (s, psi) in enumerate(zip(local_systems, psi_locals))])
             for tv in times]
    prob = p * np.reshape(moved, (len(times), *frozen.shape)) + (1.0 - p) * frozen
    return _laws(prob, times, scalar, "factorized")


# ---------------------------------------------------------------------------
# Single-graph walk
# ---------------------------------------------------------------------------

def ctqw_distribution_from_system(system: EigenSystem, psi: QuantumState, t: float) -> np.ndarray:
    """Position law |sum_l e^{i t w_l} <k|v_l><v_l|psi>|^2 of one walker."""
    if psi.dimension != system.dimension:
        raise DimensionMismatch("state dimension does not match the eigensystem")
    overlaps = system.vectors.conj().T @ psi.amplitudes
    amp = system.vectors @ (np.exp(1j * t * system.values) * overlaps)
    return np.abs(amp) ** 2


def single_ctqw_distribution(g: GraphModel, psi: QuantumState, t: float) -> np.ndarray:
    """Continuous-time quantum walk law on one reversible graph.

    The Hamiltonian is the graph's normalized Laplacian; phases carry the
    plus sign, exp(+i t mu).
    """
    data = walk_spectral_data(g)
    return ctqw_distribution_from_system(data.system, psi, t)
