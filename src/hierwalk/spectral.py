"""Hermitian eigendecomposition with deterministic conventions.

Everything downstream consumes :class:`EigenSystem` objects: ascending
eigenvalues, orthonormal columns with a fixed phase convention (the
largest-magnitude component of each eigenvector is made real positive),
and a partition of the labels into degenerate groups. The phase convention
matters: cross products between eigenvectors of *different* operators enter
the hierarchical distribution formulas, so the decomposition has to be
reproducible rather than whatever the backend returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NotHermitian

HERMITIAN_TOL = 1e-10
GROUPING_TOL = 1e-9


def canonical_phases(vectors: np.ndarray) -> np.ndarray:
    """Rescale each column so its largest-magnitude entry is real positive.

    Works on ``(..., n, n)`` stacks; ties go to the first maximal entry.
    """
    V = np.asarray(vectors)
    z = np.take_along_axis(V, np.argmax(np.abs(V), axis=-2)[..., None, :], axis=-2)
    a = np.hypot(z.real, z.imag)  # the rounding of abs() on a scalar
    nonzero = a > 0
    return V * np.where(nonzero, np.conj(z) / np.where(nonzero, a, 1.0), 1.0)


def group_by_gap(values: np.ndarray, tol: float) -> list[list[int]]:
    """Partition ascending values into clusters separated by gaps > tol."""
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if groups and v - values[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with an orthonormal eigenvector basis.

    ``vectors[:, m]`` pairs with ``values[m]``; ``groups`` clusters indices
    of (numerically) degenerate eigenvalues.
    """

    values: np.ndarray
    vectors: np.ndarray
    groups: tuple

    @property
    def dimension(self) -> int:
        return self.values.shape[0]

    def reconstruct(self) -> np.ndarray:
        """V diag(values) V^H."""
        return (self.vectors * self.values) @ self.vectors.conj().T

    def orthonormality_defect(self) -> float:
        V = self.vectors
        return float(np.max(np.abs(V.conj().T @ V - np.eye(self.dimension))))


def _eigh_stack(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermiticity check, one ``np.linalg.eigh`` call and canonical phases on a stack."""
    defect = float(np.max(np.abs(A - A.conj().swapaxes(-1, -2)))) if A.size else 0.0
    if defect > HERMITIAN_TOL:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL:.1e}")
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as e:
        raise ConvergenceFailure(str(e)) from e
    return w, canonical_phases(V)


def eigh(A: np.ndarray, tol: float = GROUPING_TOL) -> EigenSystem:
    """Eigendecompose a Hermitian matrix with canonical ordering and phases.

    Raises :class:`NotHermitian` when ``max|A - A^H|`` exceeds 1e-10.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch("eigh expects a square matrix")
    w, V = _eigh_stack(A)
    return EigenSystem(values=w, vectors=V, groups=tuple(tuple(g) for g in group_by_gap(w, tol)))


@dataclass(frozen=True)
class TransitionSpectrum:
    """Left/right eigensystem of a reversible transition matrix.

    values[m] = 1 - mu[m] where mu are the normalized-Laplacian eigenvalues;
    right[:, m] = D^{-1/2} v_m and left[m, :] = v_m^H D^{1/2} satisfy
    left @ right = I and sum_m values[m] right_m left_m = P.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.right_vectors * self.values) @ self.left_vectors


def transition_spectrum(laplacian_system: EigenSystem, pi: np.ndarray) -> TransitionSpectrum:
    """Convert a normalized-Laplacian eigensystem into P's left/right pairs."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape[0] != laplacian_system.dimension:
        raise DimensionMismatch("measure dimension does not match the eigensystem")
    d = np.sqrt(pi)
    V = laplacian_system.vectors
    return TransitionSpectrum(
        values=1.0 - laplacian_system.values,
        right_vectors=V / d[:, None],
        left_vectors=(V * d[:, None]).conj().T,
    )


@dataclass(frozen=True)
class SpectralShift:
    """Record of the offset applied to make a spectrum nonnegative."""

    offset: float
    mode: str


def shift_to_nonnegative(system: EigenSystem, mode: str = "min-shift",
                         tol: float = GROUPING_TOL) -> tuple[EigenSystem, SpectralShift]:
    """Shift or reflect a Hermitian spectrum into the nonnegative half-line.

    ``min-shift`` subtracts the minimum eigenvalue; ``max-reflect`` returns
    ``max - values`` (reversing the order, eigenvectors following their
    eigenvalues). Either way the evolution operator changes by at most a
    global phase and a time reversal, so single-walk statistics are kept.
    """
    w = system.values
    if mode == "min-shift":
        offset = float(w[0])
        new = EigenSystem(values=w - offset, vectors=system.vectors,
                          groups=system.groups)
    elif mode == "max-reflect":
        offset = float(w[-1])
        values = offset - w[::-1]
        vectors = system.vectors[:, ::-1].copy()
        new = EigenSystem(values=values, vectors=vectors,
                          groups=tuple(tuple(g) for g in group_by_gap(values, tol)))
    else:
        raise ValueError(f"unknown shift mode {mode!r}")
    return new, SpectralShift(offset=offset, mode=mode)


def _tuple_table(columns) -> np.ndarray:
    """``(count, d)`` table whose row i holds ``columns[j][labels_i[j]]``.

    Rows follow ``np.ndindex`` order (lexicographic, last register fastest),
    the tuple order used by every per-tuple result in the package.
    """
    columns = [np.asarray(c) for c in columns]
    d = len(columns)
    table = np.empty(tuple(len(c) for c in columns) + (d,), dtype=np.result_type(*columns))
    for j, c in enumerate(columns):
        table[..., j] = c.reshape((-1,) + (1,) * (d - 1 - j))
    return table.reshape(-1, d)


def _khatri_rao(mats) -> np.ndarray:
    """Column i is the Kronecker product of column ``labels_i[j]`` of every ``mats[j]``."""
    out = np.ones((1, 1))
    for M in mats:
        out = (out[:, None, :, None] * M[None, :, None, :]).reshape(
            out.shape[0] * M.shape[0], out.shape[1] * M.shape[1])
    return out


def tuple_iterator(systems):
    """Yield (index tuple, eigenvalue tuple, eigenvector tuple) over all labels.

    Lexicographic order with the last system's label varying fastest.
    """
    systems = list(systems)
    if not systems:
        raise ValueError("tuple_iterator needs at least one eigensystem")
    for idx in np.ndindex(*(s.dimension for s in systems)):
        values = tuple(float(s.values[i]) for s, i in zip(systems, idx))
        vectors = tuple(s.vectors[:, i] for s, i in zip(systems, idx))
        yield idx, values, vectors
