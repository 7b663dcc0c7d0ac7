"""Hierarchical walk operators on a global graph coordinating local graphs.

The model couples a global graph H on vertices 0..d with one local graph
per global vertex. One step of the discrete-time walk moves the global
walker and advances a single local walker; the whole operator is

    P = sum_j  P_H |j><j|  (x)  lift_j(P_j),

acting on the tensor space (global register) x (local registers 0..d),
flattened with the global index slowest and local register d fastest. The
column selector |j><j| means the local graph that steps is indexed by the
*destination* of the global move; ``convention="source"`` transposes the
selector to |j><j| P_H so the source vertex chooses instead.

The continuous-time variant replaces each local step by the heat semigroup
exp(-t_j (I - P_j)). Both operators diagonalize blockwise over tuples of
local eigenlabels, which is what every function below exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr

from .errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    MissingTransition,
    NegativeTime,
    NonpositiveDiagonal,
    NotReversible,
)
from .graphs import GraphModel, normalized_laplacian, prepare_walk, verify_detailed_balance
from .spectral import (
    EigenSystem,
    TransitionSpectrum,
    _eigh_stack,
    _khatri_rao,
    _tuple_table,
    eigh,
    transition_spectrum,
)

DENSE_CAP = 4096
DEFECT_TOL = 1e-8
_DENSE_BLOCK = 512


@dataclass(frozen=True)
class WalkSpectralData:
    """One graph's walk data: measure, Laplacian eigensystem, P-spectrum."""

    graph: GraphModel
    laplacian: np.ndarray
    system: EigenSystem
    spectrum: TransitionSpectrum

    @property
    def dimension(self) -> int:
        return self.graph.vertex_count


def walk_spectral_data(g: GraphModel) -> WalkSpectralData:
    g = prepare_walk(g)
    report = verify_detailed_balance(g.transition, g.measure)
    if not report.ok:
        raise NotReversible(f"detailed balance defect {report.max_defect:.3e}")
    L = normalized_laplacian(g.transition, g.measure).matrix
    system = eigh(L)
    return WalkSpectralData(graph=g, laplacian=L, system=system,
                            spectrum=transition_spectrum(system, g.measure))


@dataclass(frozen=True)
class HierarchicalModel:
    """The pair (H; G_0..G_d) with per-graph spectral data and index layout."""

    global_walk: WalkSpectralData
    locals: tuple

    def __post_init__(self):
        if self.global_walk.dimension != len(self.locals):
            raise DimensionMismatch(
                f"global graph has {self.global_walk.dimension} vertices "
                f"but {len(self.locals)} local graphs were supplied")

    @property
    def branching(self) -> int:
        """Number of local graphs (= global vertex count)."""
        return len(self.locals)

    @property
    def local_dims(self) -> tuple:
        return tuple(loc.dimension for loc in self.locals)

    @property
    def local_dimension(self) -> int:
        return int(np.prod(self.local_dims))

    @property
    def dimension(self) -> int:
        return self.branching * self.local_dimension

    def flat_index(self, y: int, ks) -> int:
        """Flatten (global vertex, local positions); register d is fastest."""
        return int(np.ravel_multi_index((y, *ks), (self.branching, *self.local_dims)))

    def unflatten(self, index: int) -> tuple:
        return tuple(int(i) for i in np.unravel_index(index, (self.branching, *self.local_dims)))


def hierarchical_model(global_graph: GraphModel, local_graphs) -> HierarchicalModel:
    """Prepare walks on every graph and bundle their spectral data."""
    return HierarchicalModel(
        global_walk=walk_spectral_data(global_graph),
        locals=tuple(walk_spectral_data(g) for g in local_graphs),
    )


def lift_local(A: np.ndarray, dims, j: int) -> np.ndarray:
    """Embed a matrix acting on register j as identity on all other registers."""
    A = np.asarray(A)
    dims = tuple(int(n) for n in dims)
    if A.shape != (dims[j], dims[j]):
        raise DimensionMismatch(f"matrix is {A.shape}, register {j} has dimension {dims[j]}")
    out = np.eye(1, dtype=A.dtype)
    for m, n in enumerate(dims):
        out = np.kron(out, A if m == j else np.eye(n, dtype=A.dtype))
    return out


def _apply_register(matrix: np.ndarray, field: np.ndarray, register: int) -> np.ndarray:
    moved = np.tensordot(matrix, field, axes=([1], [register]))
    return np.moveaxis(moved, 0, register)


def _apply_selected(P_H: np.ndarray, local_mats, x: np.ndarray, dims,
                    convention: str) -> np.ndarray:
    """Apply sum_j selector_j(P_H) (x) lift_j(local_mats[j]) to x of shape (N,) or (N, k)."""
    d1 = P_H.shape[0]
    x = np.asarray(x)
    field = x.reshape((d1, *dims, *x.shape[1:]))
    if convention == "destination":
        # local graph indexed by the destination: step register j of slice j,
        # then mix slices with P_H
        stepped = np.stack([_apply_register(local_mats[j], field[j], j) for j in range(d1)])
        out = np.tensordot(P_H, stepped, axes=([1], [0]))
    elif convention == "source":
        mixed = np.tensordot(P_H, field, axes=([1], [0]))
        out = np.stack([_apply_register(local_mats[j], mixed[j], j) for j in range(d1)])
    else:
        raise ValueError(f"unknown selection convention {convention!r}")
    return out.reshape(x.shape)


def _dense_walk(model: HierarchicalModel, convention: str, cap: int, times=None) -> np.ndarray:
    """The matrix-free walk applied to the identity; ``times`` selects the deformed walk."""
    if model.dimension > cap:
        name = "apply_hdtrw" if times is None else "apply_hctrw"
        raise DimensionCapExceeded(f"dimension {model.dimension} exceeds cap {cap}; "
                                   f"use {name} for matrix-free application")
    P_H = model.global_walk.graph.transition
    if P_H is None:
        raise MissingTransition("global graph has no transition matrix")
    local_mats = ([loc.graph.transition for loc in model.locals] if times is None
                  else _semigroups(model, times))
    for j, A in enumerate(local_mats):
        if A is None:
            raise MissingTransition(f"local graph {j} has no transition matrix")
    N = model.dimension
    out = np.empty((N, N))
    for start in range(0, N, _DENSE_BLOCK):  # identity columns in blocks cap the memory
        block = np.eye(N, min(_DENSE_BLOCK, N - start), -start)
        out[:, start:start + block.shape[1]] = _apply_selected(P_H, local_mats, block,
                                                              model.local_dims, convention)
    return out


def build_hdtrw(model: HierarchicalModel, convention: str = "destination",
                cap: int = DENSE_CAP) -> np.ndarray:
    """Dense one-step transition matrix of the hierarchical walk.

    Materialization is refused above ``cap``; use :func:`apply_hdtrw` there.
    """
    return _dense_walk(model, convention, cap)


def apply_hdtrw(model: HierarchicalModel, x: np.ndarray,
                convention: str = "destination") -> np.ndarray:
    """Matrix-free action of the hierarchical walk on a state vector."""
    x = np.asarray(x)
    if x.shape != (model.dimension,):
        raise DimensionMismatch(f"vector has shape {x.shape}, expected ({model.dimension},)")
    return _apply_selected(model.global_walk.graph.transition,
                           [loc.graph.transition for loc in model.locals],
                           x, model.local_dims, convention)


@dataclass(frozen=True)
class HdtrwEigenpair:
    """One eigenpair of the discrete-time walk, tagged by its tuple block."""

    value: complex
    vector: np.ndarray
    labels: tuple
    block_index: int


@dataclass(frozen=True)
class HdtrwEigenpairs:
    """All eigenpairs recovered blockwise, plus the defective blocks."""

    pairs: tuple
    defective_blocks: tuple

    @property
    def complete(self) -> bool:
        return not self.defective_blocks


def hdtrw_eigenpairs(model: HierarchicalModel, convention: str = "destination",
                     defect_tol: float = DEFECT_TOL) -> HdtrwEigenpairs:
    """Eigenpairs of the hierarchical walk from its (d+1)-dimensional blocks.

    For each tuple of local eigenlabels the walk restricts to the block
    P_H Lambda (Lambda diagonal with the locals' P-eigenvalues), solved by a
    general eigensolver. Blocks whose eigenvector matrix is numerically
    singular are reported as defective; only an independent subset of their
    eigenvectors is returned, so the pair set is incomplete in that case.
    """
    P_H = model.global_walk.graph.transition
    lam = _tuple_table([loc.spectrum.values for loc in model.locals])
    blocks = P_H * lam[:, None, :] if convention == "destination" else lam[:, :, None] * P_H
    w, W = np.linalg.eig(blocks)
    sv = np.linalg.svd(W, compute_uv=False)
    # a stacked eig is complex for the whole stack once one block is; blocks
    # with a real spectrum go back to the real output a lone eig would give
    real = np.all(w.imag == 0, axis=1)
    local_factors = _khatri_rao([loc.spectrum.right_vectors for loc in model.locals])
    pairs = []
    defective = []
    for i, labels in enumerate(np.ndindex(*model.local_dims)):
        wi, Wi = (w[i].real, W[i].real) if real[i] else (w[i], W[i])
        keep = range(model.branching)
        if sv[i, -1] <= defect_tol * max(1.0, sv[i, 0]):
            defective.append(labels)
            # keep a maximal independent subset of the returned eigenvectors
            _, R, piv = qr(Wi, pivoting=True)
            rank = int(np.sum(np.abs(np.diag(R)) > defect_tol * max(1.0, abs(R[0, 0]))))
            keep = sorted(piv[:rank])
        # row k is kron(Wi[:, keep[k]], local factor of tuple i)
        vectors = (Wi[:, keep].T[:, :, None] * local_factors[:, i]).reshape(len(keep), -1)
        for m, vector in zip(keep, vectors):
            pairs.append(HdtrwEigenpair(value=complex(wi[m]), vector=vector, labels=labels,
                                        block_index=int(m)))
    return HdtrwEigenpairs(pairs=tuple(pairs), defective_blocks=tuple(defective))


def _checked_times(model: HierarchicalModel, times) -> np.ndarray:
    """One finite and nonnegative time per local graph."""
    times = np.asarray(times, dtype=float)
    if times.shape != (model.branching,):
        raise DimensionMismatch(f"need {model.branching} times, got {times.shape}")
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise NegativeTime(f"times must be finite and nonnegative, got {times}")
    return times


def _semigroups(model: HierarchicalModel, times) -> list[np.ndarray]:
    """exp(-t_j (I - P_j)) = R diag(exp(-t_j (1 - lambda))) L from each held spectrum."""
    times = _checked_times(model, times)
    return [(loc.spectrum.right_vectors * hctrw_lambda(loc.spectrum.values, t))
            @ loc.spectrum.left_vectors for t, loc in zip(times, model.locals)]


def build_hctrw(model: HierarchicalModel, times, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense deformed transition matrix with per-graph heat semigroups."""
    return _dense_walk(model, "destination", cap, times)


def apply_hctrw(model: HierarchicalModel, times, x: np.ndarray) -> np.ndarray:
    """Matrix-free action of the deformed walk on a state vector."""
    x = np.asarray(x)
    if x.shape != (model.dimension,):
        raise DimensionMismatch(f"vector has shape {x.shape}, expected ({model.dimension},)")
    return _apply_selected(model.global_walk.graph.transition, _semigroups(model, times),
                           x, model.local_dims, "destination")


def hctrw_lambda(p_values, times) -> np.ndarray:
    """Diagonal of exp(-t_j (1 - lambda_j)) for one tuple (or a table) of P-eigenvalues."""
    p_values = np.asarray(p_values, dtype=float)
    times = np.asarray(times, dtype=float)
    return np.exp(-times * (1.0 - p_values))


def hctrw_core(model: HierarchicalModel, lam_diag) -> np.ndarray:
    """Symmetric core Lambda^{1/2} (I - L_H) Lambda^{1/2} of one tuple block.

    A 2-D ``lam_diag`` holds one diagonal per row and gives a stack of cores.
    """
    lam_diag = np.asarray(lam_diag, dtype=float)
    if np.any(lam_diag <= 0):
        raise NonpositiveDiagonal(f"diagonal must be strictly positive, got {lam_diag}")
    root = np.sqrt(lam_diag)
    inner = np.eye(model.branching) - model.global_walk.laplacian
    core = root[..., :, None] * inner * root[..., None, :]
    return (core + core.swapaxes(-1, -2)) / 2.0


@dataclass(frozen=True)
class DeformedBlock:
    """Per-tuple eigendata of the deformed walk: values and left/right pairs."""

    labels: tuple
    values: np.ndarray
    right: np.ndarray
    left: np.ndarray


@dataclass(frozen=True)
class DeformedSpectrum:
    times: np.ndarray
    blocks: tuple


def hctrw_spectral(model: HierarchicalModel, times) -> DeformedSpectrum:
    """Blockwise spectral decomposition of the deformed transition matrix.

    Each tuple block P_H Lambda_t is similar to the symmetric core through
    D_H^{1/2} Lambda_t^{1/2}; diagonalizing the core gives eigenvalues and
    biorthogonal left/right vectors of the block.
    """
    times = _checked_times(model, times)
    diag = hctrw_lambda(_tuple_table([loc.spectrum.values for loc in model.locals]), times)
    values, vectors = _eigh_stack(hctrw_core(model, diag))
    scale = (np.sqrt(diag) * np.sqrt(model.global_walk.graph.measure))[:, :, None]
    right = vectors / scale
    left = (vectors * scale).swapaxes(1, 2)
    blocks = tuple(DeformedBlock(labels=labels, values=values[i], right=right[i], left=left[i])
                   for i, labels in enumerate(np.ndindex(*model.local_dims)))
    return DeformedSpectrum(times=times, blocks=blocks)


def reconstruct_hctrw(model: HierarchicalModel, spectrum: DeformedSpectrum) -> np.ndarray:
    """Assemble the dense deformed matrix from its blockwise decomposition."""
    columns = [np.ravel_multi_index(block.labels, model.local_dims) for block in spectrum.blocks]
    right = _khatri_rao([loc.spectrum.right_vectors for loc in model.locals])[:, columns]
    left = _khatri_rao([loc.spectrum.left_vectors.T for loc in model.locals])[:, columns]
    parts = np.stack([(block.right * block.values) @ block.left for block in spectrum.blocks])
    out = np.einsum("iab,ri,si->arbs", parts, right, left, optimize=True)
    return out.reshape(model.dimension, model.dimension)
