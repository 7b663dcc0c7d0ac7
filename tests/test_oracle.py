"""The dense oracle: series exponential, comparisons, direct assembly and laws.

The batched oracle (stacked solves, Kronecker contractions) is checked
against the seed's per-tuple oracle, kept below as ``_ref_*``: one
``eigh`` per block, one ``kron`` chain per tuple projector, and a nested
loop over positions, branches, tuples and registers for the law.
"""

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import hierwalk as hw
from hierwalk import oracle
from hierwalk.errors import DimensionCapExceeded, ExponentOverflow, ShapeMismatch

from conftest import global_hamiltonian


class TestMatrixExp:
    def test_zero_matrix(self):
        np.testing.assert_allclose(oracle.matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        out = oracle.matrix_exp(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(out, np.diag([np.e, np.exp(-2.0)]), atol=1e-12)

    def test_rotation_closed_form(self):
        theta = np.pi / 2
        M = np.array([[0.0, theta], [-theta, 0.0]])
        np.testing.assert_allclose(oracle.matrix_exp(M), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)

    def test_series_matches_eigendecomposition(self):
        rng = np.random.default_rng(0)
        for n in (2, 8, 32, 64):
            A = rng.normal(size=(n, n))
            A = (A + A.T) / 2.0
            series = oracle.matrix_exp(A)
            eig = oracle.matrix_exp(A, hermitian_hint=True)
            assert np.max(np.abs(series - eig)) <= 1e-9, n

    def test_inverse(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(5, 5))
        out = oracle.matrix_exp(A) @ oracle.matrix_exp(-A)
        np.testing.assert_allclose(out, np.eye(5), atol=1e-9)

    def test_semigroup(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 4))
        lhs = oracle.matrix_exp(0.7 * A) @ oracle.matrix_exp(0.3 * A)
        np.testing.assert_allclose(lhs, oracle.matrix_exp(A), atol=1e-8)

    def test_entry_cap(self):
        with pytest.raises(ExponentOverflow):
            oracle.matrix_exp(np.array([[2e3]]))

    def test_imaginary_hermitian_is_unitary(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 6))
        A = (A + A.T) / 2.0
        U = oracle.matrix_exp(1j * A)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(6), atol=1e-9)


class TestCompare:
    def test_equal(self):
        report = oracle.compare(np.eye(3), np.eye(3), 1e-12)
        assert report.passed and report.max_abs_diff == 0.0

    def test_detects_single_entry(self):
        B = np.eye(3)
        B[0, 0] += 1e-6
        report = oracle.compare(np.eye(3), B, 1e-8)
        assert not report.passed
        assert report.location == (0, 0)
        assert report.max_abs_diff == pytest.approx(1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            oracle.compare(np.eye(2), np.eye(3), 1e-8)


class TestDenseHdtrw:
    def test_rows_stochastic(self, model_p2c3):
        P = oracle.dense_hdtrw(model_p2c3.global_walk.graph.transition,
                               [loc.graph.transition for loc in model_p2c3.locals])
        np.testing.assert_allclose(P.sum(axis=1), np.ones(12), atol=1e-12)

    def test_spectral_reconstruction_cross_check(self, model_p2p2):
        """Blockwise decomposition of the deformed walk rebuilt against the
        direct semigroup assembly and the oracle's entrywise one."""
        times = np.array([0.4, 0.9])
        rec = hw.reconstruct_hctrw(model_p2p2, hw.hctrw_spectral(model_p2p2, times))
        direct = hw.build_hctrw(model_p2p2, times)
        report = oracle.compare(rec, direct, 1e-8)
        assert report.passed
        entrywise = oracle.dense_hctrw(model_p2p2.global_walk.graph.transition,
                                       [loc.graph.transition for loc in model_p2p2.locals],
                                       times)
        assert oracle.compare(rec, entrywise, 1e-8).passed


class TestDenseJoint:
    def test_vertex_basis_time_zero_is_product(self, model_p2c3):
        rng = np.random.default_rng(4)
        psi_g = hw.random_state(2, rng)
        psis = [hw.random_state(2, rng), hw.random_state(3, rng)]
        out = oracle.dense_joint_distribution(
            global_hamiltonian(model_p2c3), [loc.laplacian for loc in model_p2c3.locals],
            0.0, psi_g.amplitudes, [p.amplitudes for p in psis], basis="vertex")
        expected = np.outer(np.abs(psis[0].amplitudes) ** 2, np.abs(psis[1].amplitudes) ** 2)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_d0_branch_equals_vertex(self, model_d0):
        psi_g = np.array([1.0 + 0j])
        psi0 = np.array([0.8, 0.6j])
        H = np.array([[1.0]])
        hams = [model_d0.locals[0].laplacian]
        for t in (0.5, np.pi):
            branch = oracle.dense_joint_distribution(H, hams, t, psi_g, [psi0], basis="branch")
            vertex = oracle.dense_joint_distribution(H, hams, t, psi_g, [psi0], basis="vertex")
            assert np.max(np.abs(branch - vertex)) <= 1e-10

    def test_vertex_basis_differs_in_general(self, model_p2p2):
        """The two marginalizations are different objects away from d=0."""
        psi_g = np.array([1.0, 1.0j]) / np.sqrt(2)
        psis = [np.array([1.0, 0.0j]), np.array([1.0, 0.0j])]
        H = global_hamiltonian(model_p2p2)
        hams = [loc.laplacian for loc in model_p2p2.locals]
        branch = oracle.dense_joint_distribution(H, hams, 0.7, psi_g, psis, basis="branch")
        vertex = oracle.dense_joint_distribution(H, hams, 0.7, psi_g, psis, basis="vertex")
        assert np.max(np.abs(branch - vertex)) > 1e-3
        assert vertex.min() >= -1e-12  # the vertex marginal is a true law
        assert vertex.sum() == pytest.approx(1.0, abs=1e-10)

    def test_reference_cross_check_at_t1(self, model_p2p2):
        """Dual implementation agreement on the reference model at t=1."""
        psi_g = np.array([1.0, 1.0j]) / np.sqrt(2)
        psis = [np.array([1.0, 0.0j]), np.array([0.6, 0.8j])]
        H = global_hamiltonian(model_p2p2)
        hams = [loc.laplacian for loc in model_p2p2.locals]
        ref = oracle.dense_joint_distribution(H, hams, 1.0, psi_g, psis, basis="branch")
        mine = hw.kbar_joint_distribution(
            np.array([0.5, 0.5]), tuple(loc.system for loc in model_p2p2.locals), 1.0,
            hw.QuantumState(psi_g), [hw.QuantumState(p) for p in psis])
        assert np.max(np.abs(ref - mine.probabilities)) <= 1e-8

    def test_dimension_cap(self, model_p2p2):
        with pytest.raises(DimensionCapExceeded):
            oracle.dense_joint_distribution(
                global_hamiltonian(model_p2p2),
                [loc.laplacian for loc in model_p2p2.locals],
                1.0, np.array([1.0, 0.0]), [np.array([1.0, 0.0])] * 2,
                basis="branch", cap=4)


# ---------------------------------------------------------------------------
# batched oracle against the per-tuple oracle it replaced
# ---------------------------------------------------------------------------

def _ref_eigh_canonical(A):
    w, V = np.linalg.eigh(A)
    V = np.array(V, dtype=complex)
    for m in range(V.shape[1]):
        i = int(np.argmax(np.abs(V[:, m])))
        z = V[i, m]
        if abs(z) > 0:
            V[:, m] *= np.conj(z) / abs(z)
    return w, V


def _ref_dense_hamiltonian(global_ham, local_hams):
    global_ham = np.asarray(global_ham)
    d1 = global_ham.shape[0]
    systems = [_ref_eigh_canonical(np.asarray(H)) for H in local_hams]
    dims = [w.shape[0] for w, _ in systems]
    N = d1 * int(np.prod(dims))
    out = np.zeros((N, N), dtype=complex)
    for labels in itertools.product(*(range(n) for n in dims)):
        lam = np.array([max(systems[j][0][labels[j]], 0.0) for j in range(d1)])
        root = np.sqrt(lam)
        block = root[:, None] * global_ham * root[None, :]
        proj = np.eye(1, dtype=complex)
        for j in range(d1):
            v = systems[j][1][:, labels[j]]
            proj = np.kron(proj, np.outer(v, v.conj()))
        out += np.kron(block, proj)
    return out


def _ref_dense_joint_distribution(global_ham, local_hams, t, psi_global, psi_locals):
    """Branch basis by direct summation, one position at a time."""
    global_ham = np.asarray(global_ham)
    d1 = global_ham.shape[0]
    psi_global = np.asarray(psi_global, dtype=complex)
    psi_locals = [np.asarray(p, dtype=complex) for p in psi_locals]
    systems = [_ref_eigh_canonical(np.asarray(H)) for H in local_hams]
    dims = [w.shape[0] for w, _ in systems]
    anchor_w, anchor_V = _ref_eigh_canonical(global_ham)
    tuples = list(itertools.product(*(range(n) for n in dims)))
    blocks = {}
    for labels in tuples:
        lam = np.array([max(systems[j][0][labels[j]], 0.0) for j in range(d1)])
        if np.max(lam) <= 1e-9:
            blocks[labels] = (np.zeros(d1), anchor_V)
        else:
            root = np.sqrt(lam)
            blocks[labels] = _ref_eigh_canonical(root[:, None] * global_ham * root[None, :])
    prob = np.zeros(dims)
    for ks in itertools.product(*(range(n) for n in dims)):
        ident = complex(1.0)
        for j in range(len(dims)):
            ident *= psi_locals[j][ks[j]]
        total = abs(ident) ** 2
        for m in range(d1):
            amp_t = complex(0.0)
            amp_0 = complex(0.0)
            for labels in tuples:
                w, V = blocks[labels]
                factor = np.vdot(V[:, m], psi_global)
                for j in range(len(dims)):
                    v = systems[j][1][:, labels[j]]
                    factor *= v[ks[j]] * np.vdot(v, psi_locals[j])
                amp_t += factor * np.exp(1j * t * w[m])
                amp_0 += factor
            total += abs(amp_t) ** 2 - abs(amp_0) ** 2
        prob[ks] = total
    return prob


def _model_inputs(model):
    return global_hamiltonian(model), [loc.laplacian for loc in model.locals]


def _random_inputs(seed):
    """Complex Hermitian global, positive semidefinite locals of random sizes."""
    rng = np.random.default_rng(seed)
    d1 = int(rng.integers(2, 4))
    A = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
    hams = []
    for _ in range(d1):
        n = int(rng.integers(2, 5))
        B = rng.normal(size=(n, n))
        hams.append(B @ B.T / n)
    return (A + A.conj().T) / 4.0, hams


def _shifted_p3():
    # a local whose lowest eigenvalue is -1e-13; both oracles clamp it to 0
    H = hw.path_graph(3)
    L = hw.hierarchical_model(hw.loop_vertex(), [H]).locals[0].laplacian
    return L - 1e-13 * np.eye(3)


ORACLE_MODELS = {
    "path-P5/C3/C5": lambda: _model_inputs(hw.hierarchical_model(
        hw.path_graph(3), [hw.path_graph(5), hw.cycle_graph(3), hw.cycle_graph(5)])),
    "kbar-C5/P5/C5": lambda: _model_inputs(hw.hierarchical_model(
        hw.kbar_graph([0.2, 0.3, 0.5]), [hw.cycle_graph(5), hw.path_graph(5), hw.cycle_graph(5)])),
    "clamped-local": lambda: (hw.kbar_hamiltonian([0.4, 0.6]),
                              [_shifted_p3(), _shifted_p3()]),
    "bipartite-local": lambda: _model_inputs(hw.hierarchical_model(
        hw.cycle_graph(3), [hw.path_graph(2), hw.cycle_graph(4), hw.path_graph(3)])),
}
ORACLE_MODELS.update({f"random-{s}": (lambda s=s: _random_inputs(s)) for s in range(4)})
REF_TIMES = (1.0, -0.4)


def _states(local_hams, d1, seed):
    rng = np.random.default_rng(seed)
    psi_g = hw.random_state(d1, rng).amplitudes
    return psi_g, [hw.random_state(len(H), rng).amplitudes for H in local_hams]


@pytest.fixture(scope="module", params=sorted(ORACLE_MODELS))
def oracle_model(request):
    return ORACLE_MODELS[request.param]()


def test_fixtures_reach_the_edge_cases():
    H, hams = ORACLE_MODELS["path-P5/C3/C5"]()
    # tuples whose every local eigenvalue is zero take the anchor basis;
    # the path's end vertices have no self-coupling, so other blocks vanish
    lam = [np.maximum(np.linalg.eigvalsh(L), 0.0) for L in hams]
    labels = list(itertools.product(*(range(len(v)) for v in lam)))
    roots = [np.sqrt([lam[j][lab[j]] for j in range(3)]) for lab in labels]
    anchored = [r for r in roots if np.max(r) <= np.sqrt(1e-9)]
    vanishing = [r for r in roots
                 if np.max(r) > np.sqrt(1e-9) and not np.any(r[:, None] * H * r[None, :])]
    assert anchored and vanishing
    assert min(np.linalg.eigvalsh(ORACLE_MODELS["clamped-local"]()[1][0])) < -5e-14
    assert max(max(np.linalg.eigvalsh(L)) for L in ORACLE_MODELS["bipartite-local"]()[1]) \
        == pytest.approx(2.0)


def test_dense_hamiltonian_matches_per_tuple_kron(oracle_model):
    H, hams = oracle_model
    np.testing.assert_allclose(oracle.dense_hamiltonian(H, hams),
                               _ref_dense_hamiltonian(H, hams), rtol=0, atol=1e-13)


def test_branch_law_matches_nested_loops(oracle_model):
    H, hams = oracle_model
    psi_g, psis = _states(hams, H.shape[0], 21)
    laws = oracle.dense_joint_distribution(H, hams, REF_TIMES, psi_g, psis)
    assert laws.shape == (len(REF_TIMES), *(len(L) for L in hams))
    for t, law in zip(REF_TIMES, laws):
        np.testing.assert_allclose(law, _ref_dense_joint_distribution(H, hams, t, psi_g, psis),
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("basis", ["branch", "vertex"])
def test_grid_law_matches_scalar_calls(oracle_model, basis):
    H, hams = oracle_model
    psi_g, psis = _states(hams, H.shape[0], 22)
    grid = [0.0, 0.9, -1.3, 0.9]
    laws = oracle.dense_joint_distribution(H, hams, grid, psi_g, psis, basis=basis)
    for t, law in zip(grid, laws):
        scalar = oracle.dense_joint_distribution(H, hams, t, psi_g, psis, basis=basis)
        assert scalar.shape == law.shape == tuple(len(L) for L in hams)
        np.testing.assert_allclose(law, scalar, rtol=0, atol=1e-15)


def test_time_grid_edge_shapes(model_p2c3):
    H, hams = _model_inputs(model_p2c3)
    psi_g, psis = _states(hams, 2, 23)
    assert oracle.dense_joint_distribution(H, hams, [], psi_g, psis).shape == (0, 2, 3)
    with pytest.raises(ValueError):
        oracle.dense_joint_distribution(H, hams, [[0.1, 0.2]], psi_g, psis)


def test_vertex_basis_matches_reference_operator(oracle_model):
    H, hams = oracle_model
    psi_g, psis = _states(hams, H.shape[0], 24)
    full = psi_g
    for p in psis:
        full = np.kron(full, p)
    evolved = oracle.matrix_exp(1j * 0.8 * _ref_dense_hamiltonian(H, hams)) @ full
    expected = np.sum(np.abs(evolved.reshape(H.shape[0], -1)) ** 2, axis=0)
    law = oracle.dense_joint_distribution(H, hams, 0.8, psi_g, psis, basis="vertex")
    np.testing.assert_allclose(law.reshape(-1), expected, rtol=0, atol=1e-13)


def test_dense_evolve_on_stacked_states(oracle_model):
    H, hams = oracle_model
    N = H.shape[0] * int(np.prod([len(L) for L in hams]))
    rng = np.random.default_rng(25)
    stack = np.stack([hw.random_state(N, rng).amplitudes for _ in range(4)], axis=1)
    out = oracle.dense_evolve(H, hams, 0.6, stack)
    assert out.shape == (N, 4)
    for k in range(4):
        np.testing.assert_allclose(out[:, k], oracle.dense_evolve(H, hams, 0.6, stack[:, k]),
                                   rtol=0, atol=1e-14)


def test_dense_cap_is_inclusive(model_p2c3):
    H, hams = _model_inputs(model_p2c3)
    cap = model_p2c3.dimension
    psi_g, psis = _states(hams, 2, 26)
    assert oracle.dense_hamiltonian(H, hams, cap=cap).shape == (cap, cap)
    assert oracle.dense_evolve(H, hams, 0.5, np.ones(cap) / np.sqrt(cap), cap=cap).shape == (cap,)
    for basis in ("branch", "vertex"):
        assert oracle.dense_joint_distribution(H, hams, 0.5, psi_g, psis,
                                               basis=basis, cap=cap).shape == (2, 3)
        with pytest.raises(DimensionCapExceeded):
            oracle.dense_joint_distribution(H, hams, 0.5, psi_g, psis, basis=basis, cap=cap - 1)
    with pytest.raises(DimensionCapExceeded):
        oracle.dense_hamiltonian(H, hams, cap=cap - 1)
    with pytest.raises(DimensionCapExceeded):
        oracle.dense_evolve(H, hams, 0.5, np.ones(cap) / np.sqrt(cap), cap=cap - 1)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

FAST_PATH_MODULES = ("hierarchy", "quantum", "spectral")


def _fast_path_imports(source: str) -> list[str]:
    """Names imported by ``source`` (a module of the package) from the fast-path modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "hierwalk." * bool(node.level) + (node.module or "")
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = [p for p in name.split(".") if p]
            if parts[:1] == ["hierwalk"] and parts[1:2] and parts[1] in FAST_PATH_MODULES:
                found.append(name)
    return found


@pytest.mark.parametrize("line", ["from .spectral import eigh", "from . import quantum",
                                  "import hierwalk.hierarchy",
                                  "from hierwalk.quantum import evolve"])
def test_import_guard_catches_every_form(line):
    assert _fast_path_imports(f"import numpy as np\n{line}\n")


def test_oracle_imports_no_fast_path_module():
    """The oracle validates the fast paths only while it shares no code with them."""
    path = Path(__file__).resolve().parents[1] / "src" / "hierwalk" / "oracle.py"
    assert _fast_path_imports(path.read_text()) == []
