"""Batched tuple-lattice paths against the per-tuple computations they replace.

Each ``_ref_*`` function below is the straightforward one-tuple-at-a-time
evaluation: one ``eigh``/``eig`` per block, one ``kron`` chain per local
factor. The library evaluates the same quantities on the whole lattice at
once; stacked solves run the same LAPACK routine on the same matrices, so
those outputs must agree bit for bit, dtypes included. The walk operators
keep their earlier references too: the selector-times-lifted-local ``kron``
sums (with scipy's ``expm`` semigroups) and the oracle's nested entry loop.
So do the joint laws: the general law added one branch at a time, and the
kbar amplitudes contracted with the time grid folded into one ``tensordot``;
and ``evolve``, as one ``einsum`` over the block eigendata between two
lattice contractions.
"""

import functools
import itertools
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, qr

import hierwalk as hw
from hierwalk import oracle, spectral
from hierwalk.errors import DimensionCapExceeded, NegativeLocalEigenvalue, NegativeWeight
from hierwalk.hierarchy import _apply_selected, _semigroups
from hierwalk.spectral import GROUPING_TOL, _contract_lattice

from conftest import global_hamiltonian


# ---------------------------------------------------------------------------
# per-tuple references
# ---------------------------------------------------------------------------

def _ref_canonical_phases(V):
    V = np.array(V, copy=True)
    for m in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, m])))
        z = V[i, m]
        a = abs(z)
        if a > 0:
            V[:, m] = V[:, m] * (np.conj(z) / a)
    return V


def _ref_eigh(A):
    w, V = np.linalg.eigh(A)
    return w, _ref_canonical_phases(V)


def _labels(dims):
    return list(itertools.product(*(range(n) for n in dims)))


def _ref_assemble(global_ham, systems, tol=GROUPING_TOL):
    anchor = _ref_eigh(global_ham)[1]
    d1 = global_ham.shape[0]
    clamped = [np.maximum(s.values, 0.0) for s in systems]
    labels = _labels([s.dimension for s in systems])
    values = np.empty((len(labels), d1))
    vectors = np.empty((len(labels), d1, d1), dtype=complex)
    for i, lab in enumerate(labels):
        lam = np.array([clamped[j][lab[j]] for j in range(d1)])
        if np.max(lam) <= tol:
            values[i] = 0.0
            vectors[i] = anchor
        else:
            root = np.sqrt(lam)
            block = root[:, None] * global_ham * root[None, :]
            values[i], vectors[i] = _ref_eigh((block + block.conj().T) / 2.0)
    return values, vectors


def _ref_dense_hamiltonian(assembly):
    out = np.zeros((assembly.dimension, assembly.dimension), dtype=complex)
    for i, lab in enumerate(_labels(assembly.local_dims)):
        block = (assembly.block_vectors[i] * assembly.block_values[i]) @ \
            assembly.block_vectors[i].conj().T
        proj = np.eye(1, dtype=complex)
        for j, s in enumerate(assembly.local_systems):
            v = s.vectors[:, lab[j]]
            proj = np.kron(proj, np.outer(v, v.conj()))
        out += np.kron(block, proj)
    return out


def _ref_evolve(assembly, t, psi):
    """The earlier evolve: the block phases applied by one einsum in the label basis."""
    d1, dims = assembly.branching, assembly.local_dims
    field = _contract_lattice(psi.amplitudes.reshape((d1, *dims)),
                              [s.vectors.conj().T for s in assembly.local_systems])
    phases = np.exp(1j * t * assembly.block_values)
    rotated = np.einsum("lam,lm,lbm,bl->al", assembly.block_vectors, phases,
                        assembly.block_vectors.conj(), field.reshape(d1, -1))
    field = _contract_lattice(rotated.reshape((d1, *dims)),
                              [s.vectors for s in assembly.local_systems])
    return field.reshape(-1)


def _ref_hctrw_spectral(model, times):
    dH = np.sqrt(model.global_walk.graph.measure)
    out = []
    for lab in _labels(model.local_dims):
        lam = np.array([model.locals[j].spectrum.values[lab[j]] for j in range(model.branching)])
        diag = hw.hctrw_lambda(lam, times)
        w, V = _ref_eigh(hw.hctrw_core(model, diag))
        root = np.sqrt(diag)
        out.append((lab, w, V / (root * dH)[:, None], (V * (root * dH)[:, None]).T))
    return out


def _ref_reconstruct_hctrw(model, spectrum):
    out = np.zeros((model.dimension, model.dimension))
    for block in spectrum.blocks:
        local_factor = np.eye(1)
        for j, loc in enumerate(model.locals):
            r = loc.spectrum.right_vectors[:, block.labels[j]]
            l = loc.spectrum.left_vectors[block.labels[j], :]
            local_factor = np.kron(local_factor, np.outer(r, l))
        out += np.kron((block.right * block.values) @ block.left, local_factor)
    return out


def _ref_hdtrw_eigenpairs(model, convention="destination", defect_tol=1e-8):
    P_H = model.global_walk.graph.transition
    d1 = model.branching
    pairs, defective = [], []
    for lab in _labels(model.local_dims):
        lam = np.array([model.locals[j].spectrum.values[lab[j]] for j in range(d1)])
        block = P_H * lam[None, :] if convention == "destination" else lam[:, None] * P_H
        w, W = np.linalg.eig(block)
        sv = np.linalg.svd(W, compute_uv=False)
        keep = range(d1)
        if sv[-1] <= defect_tol * max(1.0, sv[0]):
            defective.append(lab)
            _, R, piv = qr(W, pivoting=True)
            rank = int(np.sum(np.abs(np.diag(R)) > defect_tol * max(1.0, abs(R[0, 0]))))
            keep = sorted(piv[:rank])
        local_factor = np.ones(1)
        for j in range(d1):
            local_factor = np.kron(local_factor, model.locals[j].spectrum.right_vectors[:, lab[j]])
        for m in keep:
            pairs.append((complex(w[m]), np.kron(W[:, m], local_factor), lab, int(m)))
    return pairs, defective


def _ref_selector(P_H, j, convention):
    sel = np.zeros_like(P_H)
    if convention == "destination":
        sel[:, j] = P_H[:, j]
    else:
        sel[j, :] = P_H[j, :]
    return sel


def _ref_walk(P_H, local_mats, dims, convention):
    out = np.zeros((P_H.shape[0] * int(np.prod(dims)),) * 2)
    for j, A in enumerate(local_mats):
        out += np.kron(_ref_selector(P_H, j, convention), hw.lift_local(A, dims, j))
    return out


def _ref_build_hdtrw(model, convention="destination"):
    return _ref_walk(model.global_walk.graph.transition,
                     [loc.graph.transition for loc in model.locals], model.local_dims, convention)


def _ref_build_hctrw(model, times):
    semigroups = [expm(-t * (np.eye(loc.dimension) - loc.graph.transition))
                  for t, loc in zip(times, model.locals)]
    return _ref_walk(model.global_walk.graph.transition, semigroups, model.local_dims,
                     "destination")


def _ref_dense_hdtrw(P_H, local_Ps, convention="destination"):
    d1 = P_H.shape[0]
    dims = [P.shape[0] for P in local_Ps]
    N = d1 * int(np.prod(dims))
    out = np.zeros((N, N))
    row = 0
    for y in range(d1):
        for ks in itertools.product(*(range(n) for n in dims)):
            col = 0
            for y2 in range(d1):
                sel = y2 if convention == "destination" else y
                for ks2 in itertools.product(*(range(n) for n in dims)):
                    if all(ks[j] == ks2[j] for j in range(len(dims)) if j != sel):
                        out[row, col] = P_H[y, y2] * local_Ps[sel][ks[sel], ks2[sel]]
                    col += 1
            row += 1
    return out


def _ref_kbar(q, systems, tol=GROUPING_TOL):
    vectors, branches, rates = [], [], []
    for lab in _labels([s.dimension for s in systems]):
        oml = np.array([systems[j].values[lab[j]] for j in range(len(systems))])
        weights = oml * q
        if np.any(weights < -tol):
            raise NegativeWeight("negative weight")
        if np.max(oml) > tol:
            weights = np.maximum(weights, 0.0)
            vectors.append(np.sqrt(weights / weights.sum()))
            branches.append("weighted")
        else:
            vectors.append(np.sqrt(q))
            branches.append("uniform")
        rates.append(float(np.dot(oml, q)))
    return np.array(vectors), tuple(branches), np.array(rates)


def _ref_contract_lattice(coeff, mats):
    """The earlier contraction: leading axes folded into the columns of one tensordot."""
    lead = coeff.ndim - len(mats)
    for j, W in enumerate(mats):
        coeff = np.moveaxis(np.tensordot(W, coeff, axes=([1], [lead + j])), 0, lead + j)
    return coeff


def _ref_overlap_matrices(systems, psis):
    return [s.vectors * (s.vectors.conj().T @ p.amplitudes)[None, :]
            for s, p in zip(systems, psis)]


def _ref_joint_distribution(assembly, times, psi_g, psis):
    """The earlier general law: one branch at a time added onto the product law."""
    times = np.asarray(times, dtype=float)
    d1, dims = assembly.branching, assembly.local_dims
    W = _ref_overlap_matrices(assembly.local_systems, psis)
    overlaps = np.einsum("iam,a->mi", assembly.block_vectors.conj(), psi_g.amplitudes)
    phases = np.exp(1j * np.multiply.outer(times, assembly.block_values.T))
    phased = _ref_contract_lattice((overlaps * phases).reshape((len(times), d1, *dims)), W)
    plain = _ref_contract_lattice(overlaps.reshape((d1, *dims)), W)
    prob = np.empty((len(times), *dims))
    prob[...] = np.abs(functools.reduce(np.multiply.outer, [p.amplitudes for p in psis])) ** 2
    for m in range(d1):
        prob += np.abs(phased[:, m]) ** 2
        prob -= np.abs(plain[m]) ** 2
    return prob


def _ref_kbar_laws(q, systems, times, psi_g, psis):
    """The earlier kbar branch amplitudes; returns the three-term and operator-split laws."""
    times = np.asarray(times, dtype=float)
    dims = tuple(s.dimension for s in systems)
    spec = hw.kbar_spec(q, systems)
    W = _ref_overlap_matrices(systems, psis)
    a = (spec.vectors @ psi_g.amplitudes).reshape(dims)
    phases = np.exp(1j * np.multiply.outer(times, spec.rates)).reshape((len(times), *dims))
    phased = _ref_contract_lattice(a * phases, W)
    plain = _ref_contract_lattice(a, W)
    middle = functools.reduce(np.multiply.outer, [np.abs(p.amplitudes) ** 2 for p in psis])
    identity_amp = _ref_contract_lattice(np.ones(dims, dtype=complex), W)
    return (np.abs(phased) ** 2 + middle - np.abs(plain) ** 2,
            np.abs(identity_amp) ** 2 + np.abs(phased) ** 2 - np.abs(plain) ** 2)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

Q3 = np.array([0.2, 0.3, 0.5])


def _path_p5c3c5():
    return hw.hierarchical_model(hw.path_graph(3),
                                 [hw.path_graph(5), hw.cycle_graph(3), hw.cycle_graph(5)])


def _kbar_c5p5c5():
    return hw.hierarchical_model(hw.kbar_graph(Q3),
                                 [hw.cycle_graph(5), hw.path_graph(5), hw.cycle_graph(5)])


def _bipartite_p3c4p2():
    # P-eigenvalues of paths and even cycles reach -1, so some blocks P_H Lambda
    # carry mixed signs and complex eigenvalues while others stay real
    return hw.hierarchical_model(hw.cycle_graph(3),
                                 [hw.path_graph(3), hw.cycle_graph(4), hw.path_graph(2)])


def _random_model(seed):
    rng = np.random.default_rng(seed)
    d1 = int(rng.integers(2, 4))
    kind = ("kbar", "path", "cycle", "star")[seed % 4]
    if kind == "kbar":
        global_graph = hw.kbar_graph(rng.dirichlet(np.ones(d1)))
    elif kind == "path":
        global_graph = hw.path_graph(d1)
    elif kind == "cycle":
        d1 = 3
        global_graph = hw.cycle_graph(3)
    else:
        global_graph = hw.star_graph(d1 - 1)
    makers = (hw.path_graph, hw.cycle_graph, lambda n: hw.star_graph(n - 1))
    locals_ = []
    for _ in range(d1):
        n = int(rng.integers(3, 6))
        locals_.append(makers[int(rng.integers(3))](n))
    return hw.hierarchical_model(global_graph, locals_)


MODELS = {"path-P5/C3/C5": _path_p5c3c5, "kbar-C5/P5/C5": _kbar_c5p5c5,
          "bipartite-P3/C4/P2": _bipartite_p3c4p2}
MODELS.update({f"random-{s}": (lambda s=s: _random_model(s)) for s in range(8)})


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


def _systems(model):
    return tuple(loc.system for loc in model.locals)


def _assert_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# equality with the per-tuple references
# ---------------------------------------------------------------------------

def test_canonical_phases_on_stacks_matches_per_matrix():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    _, V = np.linalg.eigh(A + A.conj().swapaxes(-1, -2))
    # exact magnitude ties and a zero column: the first maximal entry decides
    V[0, :, 0] = [0.5, -0.5j, 0.5, 0.5]
    V[1, :, 1] = 0.0
    stacked = hw.canonical_phases(V)
    for k in range(V.shape[0]):
        _assert_identical(stacked[k], _ref_canonical_phases(V[k]))
    real = V.real
    stacked = hw.canonical_phases(real)
    for k in range(real.shape[0]):
        _assert_identical(stacked[k], _ref_canonical_phases(real[k]))


def test_canonical_phases_ties_on_path_global_model():
    model = _path_p5c3c5()
    ties = 0
    for blocks in hw.assemble_hamiltonian(global_hamiltonian(model), _systems(model)).block_vectors:
        mags = np.abs(blocks)
        ties += int(np.sum(np.sum(mags == mags.max(axis=0), axis=0) > 1))
    assert ties > 0


def test_assemble_hamiltonian_matches_per_tuple(model):
    H = global_hamiltonian(model)
    assembly = hw.assemble_hamiltonian(H, _systems(model))
    values, vectors = _ref_assemble(H, _systems(model))
    _assert_identical(assembly.block_values, values)
    _assert_identical(assembly.block_vectors, vectors)


def test_assemble_hamiltonian_complex_global_matches_per_tuple():
    model = _kbar_c5p5c5()
    rng = np.random.default_rng(3)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = A + A.conj().T
    assembly = hw.assemble_hamiltonian(H, _systems(model))
    values, vectors = _ref_assemble(H, _systems(model))
    _assert_identical(assembly.block_values, values)
    _assert_identical(assembly.block_vectors, vectors)


def test_dense_hamiltonian_matches_per_tuple(model):
    assembly = hw.assemble_hamiltonian(global_hamiltonian(model), _systems(model))
    if assembly.dimension > 400:
        pytest.skip("dense reference too large for a unit test")
    np.testing.assert_allclose(assembly.dense_hamiltonian(), _ref_dense_hamiltonian(assembly),
                               rtol=0, atol=1e-12)


def test_hctrw_spectral_matches_per_tuple(model):
    times = np.linspace(0.3, 1.7, model.branching)
    spectrum = hw.hctrw_spectral(model, times)
    ref = _ref_hctrw_spectral(model, times)
    assert len(spectrum.blocks) == len(ref)
    for block, (labels, values, right, left) in zip(spectrum.blocks, ref):
        assert block.labels == labels
        _assert_identical(block.values, values)
        _assert_identical(block.right, right)
        _assert_identical(block.left, left)


def test_reconstruct_hctrw_matches_per_tuple(model):
    if model.dimension > 400:
        pytest.skip("dense reference too large for a unit test")
    spectrum = hw.hctrw_spectral(model, np.linspace(0.3, 1.7, model.branching))
    np.testing.assert_allclose(hw.reconstruct_hctrw(model, spectrum),
                               _ref_reconstruct_hctrw(model, spectrum), rtol=0, atol=1e-12)


@pytest.mark.parametrize("convention", ["destination", "source"])
def test_hdtrw_eigenpairs_matches_per_tuple(model, convention):
    result = hw.hdtrw_eigenpairs(model, convention)
    pairs, defective = _ref_hdtrw_eigenpairs(model, convention)
    assert list(result.defective_blocks) == defective
    assert len(result.pairs) == len(pairs)
    for pair, (value, vector, labels, index) in zip(result.pairs, pairs):
        assert pair.value == value
        _assert_identical(pair.vector, vector)
        assert pair.labels == labels
        assert pair.block_index == index


@pytest.mark.parametrize("convention", ["destination", "source"])
def test_build_hdtrw_matches_kron_reference(model, convention):
    _assert_identical(hw.build_hdtrw(model, convention), _ref_build_hdtrw(model, convention))


def test_build_hctrw_matches_kron_expm_reference(model):
    times = np.linspace(0.3, 1.7, model.branching)
    np.testing.assert_allclose(hw.build_hctrw(model, times), _ref_build_hctrw(model, times),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("width", [1, 7, 100])
def test_dense_builders_in_column_blocks_match_one_block(monkeypatch, width):
    # each walk entry is a single product, so the column blocking cannot move
    # a bit; the tuple-basis operators batch their contractions by block width
    model = _path_p5c3c5()
    times = [0.4, 1.1, 2.0]
    assembly = hw.assemble_hamiltonian(global_hamiltonian(model), _systems(model))
    spectrum = hw.hctrw_spectral(model, times)

    def build():
        return ((hw.build_hdtrw(model), hw.build_hdtrw(model, "source"),
                 hw.build_hctrw(model, times)),
                (assembly.dense_hamiltonian(), hw.reconstruct_hctrw(model, spectrum)))

    walks, tuple_ops = build()
    monkeypatch.setattr(spectral, "_DENSE_BLOCK", width)
    blocked_walks, blocked_tuple_ops = build()
    for a, b in zip(walks, blocked_walks):
        _assert_identical(a, b)
    for a, b in zip(tuple_ops, blocked_tuple_ops):
        assert a.dtype == b.dtype
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_evolve_matches_earlier_einsum(model):
    assembly = hw.assemble_hamiltonian(global_hamiltonian(model), _systems(model))
    psi = hw.random_state(assembly.dimension, np.random.default_rng(24))
    for t in LAW_TIMES:
        np.testing.assert_allclose(hw.evolve(assembly, t, psi).amplitudes,
                                   _ref_evolve(assembly, t, psi), rtol=0, atol=1e-15)


@pytest.mark.parametrize("convention", ["destination", "source"])
def test_oracle_dense_hdtrw_matches_nested_loops(model, convention):
    P_H = model.global_walk.graph.transition
    local_Ps = [loc.graph.transition for loc in model.locals]
    _assert_identical(oracle.dense_hdtrw(P_H, local_Ps, convention),
                      _ref_dense_hdtrw(P_H, local_Ps, convention))


def test_oracle_dense_hctrw_matches_kron_expm_reference(model):
    times = np.linspace(0.3, 1.7, model.branching)
    direct = oracle.dense_hctrw(model.global_walk.graph.transition,
                                [loc.graph.transition for loc in model.locals], times)
    np.testing.assert_allclose(direct, _ref_build_hctrw(model, times), rtol=0, atol=1e-13)


@pytest.mark.parametrize("convention", ["destination", "source"])
def test_apply_selected_on_a_stack_matches_single_calls(model, convention):
    P_H = model.global_walk.graph.transition
    local_Ps = [loc.graph.transition for loc in model.locals]
    X = np.random.default_rng(5).normal(size=(model.dimension, 4))
    stacked = _apply_selected(P_H, local_Ps, X, model.local_dims, convention)
    singles = np.stack([_apply_selected(P_H, local_Ps, X[:, i], model.local_dims, convention)
                        for i in range(X.shape[1])], axis=1)
    assert stacked.shape == X.shape
    # a batched tensordot may take a different BLAS kernel than a single column
    np.testing.assert_allclose(stacked, singles, rtol=0, atol=1e-15)


def test_kbar_table_matches_per_tuple():
    model = _kbar_c5p5c5()
    systems = _systems(model)
    psi = hw.random_state(3, np.random.default_rng(5))
    spec = hw.kbar_spec(Q3, systems, psi)
    vectors, branches, rates = _ref_kbar(Q3, systems)
    assert spec.labels == tuple(_labels(model.local_dims))
    assert spec.branches == branches
    np.testing.assert_allclose(spec.vectors, vectors, rtol=0, atol=1e-15)
    np.testing.assert_allclose(spec.rates, rates, rtol=0, atol=1e-15)
    for i in (0, 7, len(branches) - 1):
        oml = [s.values[k] for s, k in zip(systems, spec.labels[i])]
        v, tag = hw.kbar_tuple_vector(oml, Q3)
        assert tag == branches[i]
        np.testing.assert_allclose(v, vectors[i], rtol=0, atol=1e-15)
    sq = np.abs(vectors @ psi.amplitudes) ** 2
    p, spread = hw.constant_overlap(Q3, systems, psi)
    assert p == pytest.approx(sq.mean(), abs=1e-15)
    assert spread == pytest.approx(sq.max() - sq.min(), abs=1e-15)


def test_kbar_laws_match_per_tuple_coefficients():
    model = _kbar_c5p5c5()
    systems = _systems(model)
    dims = model.local_dims
    rng = np.random.default_rng(9)
    psi_g = hw.random_state(3, rng)
    psis = [hw.random_state(n, rng) for n in dims]
    vectors, _, rates = _ref_kbar(Q3, systems)
    a = np.array([np.vdot(v, psi_g.amplitudes) for v in vectors]).reshape(dims)
    W = [s.vectors * (s.vectors.conj().T @ p.amplitudes)[None, :] for s, p in zip(systems, psis)]

    def contract(coeff):
        return np.einsum("abc,ia,jb,kc->ijk", coeff, *W)

    middle = np.einsum("i,j,k->ijk", *(np.abs(p.amplitudes) ** 2 for p in psis))
    ones = np.ones(dims, dtype=complex)
    for t in (0.0, 0.9, 3.3):
        phased = np.abs(contract(a * np.exp(1j * t * rates.reshape(dims)))) ** 2
        plain = np.abs(contract(a)) ** 2
        three = hw.kbar_joint_distribution(Q3, systems, t, psi_g, psis)
        split = hw.operator_split_joint_distribution(Q3, systems, t, psi_g, psis)
        np.testing.assert_allclose(three.probabilities, phased + middle - plain,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(split.probabilities,
                                   np.abs(contract(ones)) ** 2 + phased - plain,
                                   rtol=0, atol=1e-14)


def _law_inputs(model, seed):
    rng = np.random.default_rng(seed)
    psi_g = hw.random_state(model.branching, rng)
    return psi_g, [hw.random_state(n, rng) for n in model.local_dims]


def _three_laws(model, psi_g, psis):
    """The general, three-term and operator-split laws as functions of t."""
    systems = _systems(model)
    q = model.global_walk.graph.measure
    assembly = hw.assemble_hamiltonian(global_hamiltonian(model), systems)
    return {
        "general": lambda t: hw.joint_distribution(assembly, t, psi_g, psis),
        "three-term": lambda t: hw.kbar_joint_distribution(q, systems, t, psi_g, psis),
        "operator-split": lambda t: hw.operator_split_joint_distribution(q, systems, t,
                                                                         psi_g, psis),
    }


LAW_TIMES = (0.0, 0.9, 3.3, -1.7)


def test_kbar_laws_bit_identical_to_earlier_contraction(model):
    # the three-term and operator-split laws are formulas in q and the local
    # systems; the global walk's measure serves as q on every fixture
    systems = _systems(model)
    q = model.global_walk.graph.measure
    psi_g, psis = _law_inputs(model, 21)
    for t in LAW_TIMES:
        three, split = _ref_kbar_laws(q, systems, [t], psi_g, psis)
        _assert_identical(hw.kbar_joint_distribution(q, systems, t, psi_g, psis).probabilities,
                          three[0])
        _assert_identical(
            hw.operator_split_joint_distribution(q, systems, t, psi_g, psis).probabilities,
            split[0])


def test_general_law_matches_per_branch_loop(model):
    assembly = hw.assemble_hamiltonian(global_hamiltonian(model), _systems(model))
    psi_g, psis = _law_inputs(model, 22)
    ref = _ref_joint_distribution(assembly, LAW_TIMES, psi_g, psis)
    for t, expected in zip(LAW_TIMES, ref):
        law = hw.joint_distribution(assembly, t, psi_g, psis).probabilities
        np.testing.assert_allclose(law, expected, rtol=0, atol=1e-15)


def test_law_at_a_time_is_the_same_bits_in_any_grid(model):
    psi_g, psis = _law_inputs(model, 23)
    grids = ([0.9], [0.9, 0.9], [0.0, 0.9, 0.0], [3.3, 0.9, -1.7, 0.9, 0.0, 2.2, 5.0])
    for name, law in _three_laws(model, psi_g, psis).items():
        alone = {t: law(t).probabilities for grid in grids for t in grid}
        for grid in grids:
            for t, dist in zip(grid, law(grid)):
                assert np.array_equal(dist.probabilities, alone[t]), (name, grid, t)


def test_kbar_negative_weight_still_raised():
    bad = hw.EigenSystem(values=np.array([-0.5, 1.0]), vectors=np.eye(2), groups=((0,), (1,)))
    with pytest.raises(NegativeWeight):
        hw.kbar_spec([0.5, 0.5], [bad, bad])
    psi = hw.uniform_state(2)
    with pytest.raises(NegativeWeight):
        hw.kbar_joint_distribution([0.5, 0.5], [bad, bad], 1.0, psi, [psi, psi])


def test_kbar_tuple_with_all_weights_clamped_is_uniform():
    q = np.array([0.4, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, tag = hw.kbar_tuple_vector([-2e-9, 0.0], q)
        spec = hw.kbar_spec(q, [_diag_system([-2e-9]), _diag_system([0.0])])
    assert tag == "uniform"
    _assert_identical(v, np.sqrt(q))
    assert spec.branches == ("uniform",)
    _assert_identical(spec.rates, np.array([-2e-9 * 0.4]))
    with pytest.raises(NegativeWeight):
        hw.kbar_tuple_vector([-3e-9, 0.0], q)


# ---------------------------------------------------------------------------
# named edge cases
# ---------------------------------------------------------------------------

def _diag_system(values):
    values = np.asarray(values, dtype=float)
    n = values.size
    return hw.EigenSystem(values=values, vectors=np.eye(n), groups=tuple((i,) for i in range(n)))


def test_nearly_zero_negative_local_eigenvalue_is_clamped():
    H = hw.kbar_hamiltonian(Q3)
    tiny = _diag_system([-1e-13, 1.0])
    assembly = hw.assemble_hamiltonian(H, [tiny, tiny, tiny])
    clean = hw.assemble_hamiltonian(H, [_diag_system([0.0, 1.0])] * 3)
    _assert_identical(assembly.block_values, clean.block_values)
    _assert_identical(assembly.block_vectors, clean.block_vectors)
    with pytest.raises(NegativeLocalEigenvalue):
        hw.assemble_hamiltonian(H, [_diag_system([-1e-11, 1.0])] * 3)


def test_vanishing_blocks_take_zero_values_and_anchor_vectors():
    H = hw.kbar_hamiltonian(Q3)
    systems = [_diag_system([0.0, 0.5]), _diag_system([0.0, 2.0]), _diag_system([1e-10, 1.0])]
    assembly = hw.assemble_hamiltonian(H, systems)
    labels = list(assembly.tuples())
    anchor = assembly.anchor_system.vectors.astype(complex)
    vanishing = [i for i, lab in enumerate(labels) if lab == (0, 0, 0)]
    assert vanishing == [0]
    for i, lab in enumerate(labels):
        if i in vanishing:
            _assert_identical(assembly.block_values[i], np.zeros(3))
            _assert_identical(assembly.block_vectors[i], anchor)
        else:
            assert np.max(np.abs(assembly.block_values[i])) > 0.0


def test_bipartite_locals_mix_real_and_complex_blocks():
    model = _bipartite_p3c4p2()
    assert min(min(loc.spectrum.values) for loc in model.locals) < -0.5
    result = hw.hdtrw_eigenpairs(model)
    complex_blocks = {p.labels for p in result.pairs if p.value.imag != 0.0}
    real_blocks = {p.labels for p in result.pairs} - complex_blocks
    assert complex_blocks and real_blocks
    for pair in result.pairs:
        expected = np.complex128 if pair.labels in complex_blocks else np.float64
        assert pair.vector.dtype == expected
    P = hw.build_hdtrw(model)
    for pair in result.pairs:
        res = np.max(np.abs(P @ pair.vector - pair.value * pair.vector))
        assert res <= 1e-8 * np.max(np.abs(pair.vector))
    times = np.array([0.4, 1.1, 2.0])
    spectrum = hw.hctrw_spectral(model, times)
    np.testing.assert_allclose(hw.reconstruct_hctrw(model, spectrum),
                               hw.build_hctrw(model, times), rtol=0, atol=1e-10)


def test_bipartite_local_semigroup_matches_taylor_series():
    model = _bipartite_p3c4p2()
    for t in (0.0, 0.4, 2.0, 7.5):
        semigroups = _semigroups(model, np.full(model.branching, t))
        for loc, S in zip(model.locals, semigroups):
            assert np.min(loc.spectrum.values) == pytest.approx(-1.0, abs=1e-12)
            taylor = oracle.matrix_exp(-t * (np.eye(loc.dimension) - loc.graph.transition))
            np.testing.assert_allclose(S, taylor, rtol=0, atol=1e-14)
            np.testing.assert_allclose(S.sum(axis=1), 1.0, rtol=0, atol=1e-14)
            assert np.min(S) >= -1e-14


def test_model_at_the_dense_cap():
    model = hw.hierarchical_model(hw.kbar_graph([0.5, 0.5]),
                                  [hw.path_graph(2), hw.cycle_graph(3)])
    cap = model.dimension
    assert hw.build_hdtrw(model, cap=cap).shape == (cap, cap)
    assert hw.build_hctrw(model, [0.5, 1.0], cap=cap).shape == (cap, cap)
    assembly = hw.assemble_hamiltonian(global_hamiltonian(model), _systems(model))
    assert assembly.dense_hamiltonian(cap=cap).shape == (cap, cap)
    with pytest.raises(DimensionCapExceeded):
        hw.build_hdtrw(model, cap=cap - 1)
    with pytest.raises(DimensionCapExceeded):
        hw.build_hctrw(model, [0.5, 1.0], cap=cap - 1)
    with pytest.raises(DimensionCapExceeded):
        assembly.dense_hamiltonian(cap=cap - 1)
