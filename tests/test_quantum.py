import numpy as np
import pytest

import hierwalk as hw
from hierwalk import oracle
from hierwalk.errors import (
    ConstantOverlapViolated,
    DimensionCapExceeded,
    DimensionMismatch,
    InvalidP,
    InvalidProbabilityVector,
    NegativeLocalEigenvalue,
    NegativeWeight,
    NotHermitian,
)

from conftest import global_hamiltonian

Q_HALF = np.array([0.5, 0.5])
PSI_H_QUARTER = hw.QuantumState(np.array([1.0, 1.0j]) / np.sqrt(2))


def local_systems(model):
    return tuple(loc.system for loc in model.locals)


def kbar_assembly(model):
    return hw.assemble_hamiltonian(global_hamiltonian(model), local_systems(model))


class TestQuantumState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            hw.QuantumState(np.array([1.0, 1.0]))

    def test_helpers(self):
        assert hw.vertex_state(3, 1).amplitudes[1] == 1.0
        np.testing.assert_allclose(np.abs(hw.uniform_state(4).amplitudes), 0.5)
        rng = np.random.default_rng(0)
        assert abs(np.linalg.norm(hw.random_state(5, rng).amplitudes) - 1.0) < 1e-12


class TestAssembly:
    def test_unit_local_eigenvalues_reproduce_global(self):
        ones = hw.EigenSystem(values=np.array([1.0]), vectors=np.array([[1.0]]), groups=((0,),))
        H = np.array([[0.3, 0.1], [0.1, 0.7]])
        assembly = hw.assemble_hamiltonian(H, [ones, ones])
        block = (assembly.block_vectors[0] * assembly.block_values[0]) @ \
            assembly.block_vectors[0].conj().T
        np.testing.assert_allclose(block, H, atol=1e-12)

    def test_all_zero_tuple_gives_zero_block(self, model_p2p2):
        assembly = kbar_assembly(model_p2p2)
        # label (0,0) pairs both zero Laplacian eigenvalues
        np.testing.assert_allclose(assembly.block_values[0], [0.0, 0.0], atol=1e-12)

    def test_doubled_rank_one_block(self, model_p2p2):
        # both locals at eigenvalue 2: the sandwich doubles the rank-1 q matrix
        assembly = kbar_assembly(model_p2p2)
        i = list(assembly.tuples()).index((1, 1))
        block = (assembly.block_vectors[i] * assembly.block_values[i]) @ \
            assembly.block_vectors[i].conj().T
        np.testing.assert_allclose(block, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_negative_local_eigenvalue_rejected(self):
        bad = hw.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))  # values (-1, 1)
        with pytest.raises(NegativeLocalEigenvalue):
            hw.assemble_hamiltonian(np.eye(2), [bad, bad])

    def test_non_hermitian_global_rejected(self, model_p2p2):
        with pytest.raises(NotHermitian):
            hw.assemble_hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                    local_systems(model_p2p2))

    def test_dense_matches_oracle(self, model_p2c3):
        assembly = kbar_assembly(model_p2c3)
        dense = assembly.dense_hamiltonian()
        ref = oracle.dense_hamiltonian(global_hamiltonian(model_p2c3),
                                       [loc.laplacian for loc in model_p2c3.locals])
        np.testing.assert_allclose(dense, ref, atol=1e-12)

    def test_dense_cap(self, model_p2p2):
        with pytest.raises(DimensionCapExceeded):
            kbar_assembly(model_p2p2).dense_hamiltonian(cap=4)


class TestEvolve:
    def test_time_zero_identity(self, model_p2c3):
        assembly = kbar_assembly(model_p2c3)
        psi = hw.random_state(assembly.dimension, np.random.default_rng(1))
        out = hw.evolve(assembly, 0.0, psi)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-12)

    def test_forward_backward(self, model_p2c3):
        assembly = kbar_assembly(model_p2c3)
        psi = hw.random_state(assembly.dimension, np.random.default_rng(2))
        back = hw.evolve(assembly, -1.3, hw.evolve(assembly, 1.3, psi))
        np.testing.assert_allclose(back.amplitudes, psi.amplitudes, atol=1e-10)

    def test_matches_dense_exponential(self, reference_models):
        rng = np.random.default_rng(3)
        for name, model in reference_models.items():
            assembly = kbar_assembly(model)
            H = global_hamiltonian(model)
            hams = [loc.laplacian for loc in model.locals]
            for t in (0.3, 1.0, np.pi):
                psi = hw.random_state(assembly.dimension, rng)
                spectral = hw.evolve(assembly, t, psi).amplitudes
                dense = oracle.dense_evolve(H, hams, t, psi.amplitudes)
                assert np.max(np.abs(spectral - dense)) <= 1e-8, (name, t)

    def test_dimension_mismatch(self, model_p2p2):
        assembly = kbar_assembly(model_p2p2)
        with pytest.raises(DimensionMismatch):
            hw.evolve(assembly, 1.0, hw.vertex_state(3, 0))

    def test_dense_propagator_is_unitary(self, reference_models):
        for model in reference_models.values():
            assembly = kbar_assembly(model)
            n = assembly.dimension
            for t in (0.3, 1.0, np.pi, 10.0):
                U = np.column_stack([hw.evolve(assembly, t, hw.vertex_state(n, k)).amplitudes
                                     for k in range(n)])
                assert np.max(np.abs(U.conj().T @ U - np.eye(n))) <= 1e-9

    def test_single_block_reduces_to_block_unitary(self):
        """Single-eigenvalue locals leave one tuple block, the scaled global H."""
        single = hw.EigenSystem(values=np.array([1.5]), vectors=np.array([[1.0]]),
                                groups=((0,),))
        H = np.array([[0.4, 0.2], [0.2, 0.9]])
        assembly = hw.assemble_hamiltonian(H, [single, single])
        psi = hw.random_state(2, np.random.default_rng(20))
        out = hw.evolve(assembly, 2.3, psi)
        w, V = np.linalg.eigh(1.5 * H)
        expected = (V * np.exp(1j * 2.3 * w)) @ V.conj().T @ psi.amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_rank_one_toy_is_pure_phase(self):
        """d=0 with a one-eigenvalue local: nothing but a global phase."""
        single = hw.EigenSystem(values=np.array([2.0]), vectors=np.array([[1.0]]),
                                groups=((0,),))
        assembly = hw.assemble_hamiltonian(np.array([[0.7]]), [single])
        psi = hw.QuantumState(np.array([1.0 + 0j]))
        out = hw.evolve(assembly, 1.9, psi)
        np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes), atol=1e-12)
        assert out.amplitudes[0] == pytest.approx(np.exp(1j * 1.9 * 1.4), abs=1e-12)


class TestJointDistribution:
    def test_time_zero_is_product_law(self, model_p2c3):
        assembly = kbar_assembly(model_p2c3)
        rng = np.random.default_rng(4)
        psi_g = hw.random_state(2, rng)
        psis = [hw.random_state(2, rng), hw.random_state(3, rng)]
        dist = hw.joint_distribution(assembly, 0.0, psi_g, psis)
        expected = np.outer(np.abs(psis[0].amplitudes) ** 2, np.abs(psis[1].amplitudes) ** 2)
        np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)

    def test_mass_is_one_for_random_states(self, reference_models):
        rng = np.random.default_rng(5)
        for model in reference_models.values():
            assembly = kbar_assembly(model)
            for _ in range(10):
                psi_g = hw.random_state(model.branching, rng)
                psis = [hw.random_state(loc.dimension, rng) for loc in model.locals]
                for t in (0.0, 1.0, np.pi, 10.0):
                    dist = hw.joint_distribution(assembly, t, psi_g, psis)
                    assert abs(dist.total_mass - 1.0) <= 1e-9

    def test_local_eigenvector_collapses_its_register(self, model_p2c3):
        """A walker started in an eigenvector stays put: the law is rank-1 there."""
        assembly = kbar_assembly(model_p2c3)
        rng = np.random.default_rng(6)
        psi_g = hw.random_state(2, rng)
        v = model_p2c3.locals[1].system.vectors[:, 2]
        psis = [hw.random_state(2, rng), hw.QuantumState(v.astype(complex))]
        dist = hw.joint_distribution(assembly, 1.7, psi_g, psis)
        marg0 = dist.probabilities.sum(axis=1)
        np.testing.assert_allclose(dist.probabilities,
                                   np.outer(marg0, np.abs(v) ** 2), atol=1e-12)

    def test_d0_reduces_to_single_walk(self, model_d0):
        assembly = hw.assemble_hamiltonian(np.array([[1.0]]), local_systems(model_d0))
        psi_g = hw.QuantumState(np.array([1.0 + 0.0j]))
        psi0 = hw.vertex_state(2, 0)
        for t in (0.4, np.pi / 3):
            dist = hw.joint_distribution(assembly, t, psi_g, [psi0])
            single = hw.single_ctqw_distribution(hw.path_graph(2), psi0, t)
            np.testing.assert_allclose(dist.probabilities, single, atol=1e-12)

    def test_agrees_with_branch_basis_oracle(self, reference_models):
        rng = np.random.default_rng(7)
        for model in reference_models.values():
            assembly = kbar_assembly(model)
            H = global_hamiltonian(model)
            hams = [loc.laplacian for loc in model.locals]
            psi_g = hw.random_state(model.branching, rng)
            psis = [hw.random_state(loc.dimension, rng) for loc in model.locals]
            for t in (0.7, np.pi):
                mine = hw.joint_distribution(assembly, t, psi_g, psis)
                ref = oracle.dense_joint_distribution(H, hams, t, psi_g.amplitudes,
                                                      [p.amplitudes for p in psis],
                                                      basis="branch")
                assert np.max(np.abs(mine.probabilities - ref)) <= 1e-8

    def test_entries_can_dip_below_zero(self, model_p2p2):
        """The evaluated law is signed for some states; frozen closed form below.

        At k=(1,0), t=0.7, psi_H=(1,i)/sqrt(2), both walkers at vertex 0, the
        phased amplitude is [(1+i)(1-e^{2it})/2 + (i-1)e^{it}/sqrt(2)]/4 and
        the unphased one has squared modulus 1/16, so the entry is negative.
        """
        t = 0.7
        dist = hw.kbar_joint_distribution(Q_HALF, local_systems(model_p2p2), t,
                                          PSI_H_QUARTER,
                                          [hw.vertex_state(2, 0), hw.vertex_state(2, 0)])
        amp = ((1 + 1j) * (1 - np.exp(2j * t)) / 2 + (1j - 1) * np.exp(1j * t) / np.sqrt(2)) / 4
        expected = abs(amp) ** 2 - 1 / 16
        assert expected < -0.05
        assert dist.probabilities[1, 0] == pytest.approx(expected, abs=1e-12)
        assert dist.total_mass == pytest.approx(1.0, abs=1e-12)


class TestPhaseAndShiftBehavior:
    def test_local_eigenvector_sign_flip_changes_nothing(self, model_p2c3):
        rng = np.random.default_rng(8)
        psi_g = hw.random_state(2, rng)
        psis = [hw.random_state(2, rng), hw.random_state(3, rng)]
        systems = list(local_systems(model_p2c3))
        flipped = systems[1].vectors.copy()
        flipped[:, 1] *= -1.0
        systems_flipped = [systems[0],
                           hw.EigenSystem(values=systems[1].values, vectors=flipped,
                                          groups=systems[1].groups)]
        H = global_hamiltonian(model_p2c3)
        for t in (0.9, np.pi):
            base = hw.joint_distribution(hw.assemble_hamiltonian(H, systems), t, psi_g, psis)
            flip = hw.joint_distribution(hw.assemble_hamiltonian(H, systems_flipped), t, psi_g, psis)
            assert np.max(np.abs(base.probabilities - flip.probabilities)) <= 1e-12
            b3 = hw.kbar_joint_distribution(Q_HALF, systems, t, psi_g, psis)
            f3 = hw.kbar_joint_distribution(Q_HALF, systems_flipped, t, psi_g, psis)
            assert np.max(np.abs(b3.probabilities - f3.probabilities)) <= 1e-12

    def test_single_walk_min_shift_any_state(self):
        base = hw.eigh(np.array([[0.2, -0.4, 0.0], [-0.4, -0.5, 0.3], [0.0, 0.3, 0.1]]))
        shifted, _ = hw.shift_to_nonnegative(base, "min-shift")
        rng = np.random.default_rng(9)
        for _ in range(5):
            psi = hw.random_state(3, rng)
            for t in (0.6, 2.0):
                a = hw.ctqw_distribution_from_system(base, psi, t)
                b = hw.ctqw_distribution_from_system(shifted, psi, t)
                assert np.max(np.abs(a - b)) <= 1e-10

    def test_single_walk_max_reflect_real_state(self):
        base = hw.eigh(np.array([[0.2, -0.4, 0.0], [-0.4, -0.5, 0.3], [0.0, 0.3, 0.1]]))
        reflected, _ = hw.shift_to_nonnegative(base, "max-reflect")
        rng = np.random.default_rng(10)
        for _ in range(5):
            v = rng.normal(size=3)
            psi = hw.QuantumState((v / np.linalg.norm(v)).astype(complex))
            for t in (0.6, 2.0):
                a = hw.ctqw_distribution_from_system(base, psi, t)
                b = hw.ctqw_distribution_from_system(reflected, psi, t)
                assert np.max(np.abs(a - b)) <= 1e-10

    def test_joint_law_not_invariant_under_max_reflect(self, model_p2c3):
        """Documents a verified finding: reflecting a local spectrum changes the
        joint law (unlike the single-walk law), because the eigenvalue square
        roots enter the global sandwich nonlinearly."""
        systems = list(local_systems(model_p2c3))
        reflected0, _ = hw.shift_to_nonnegative(systems[0], "max-reflect")
        H = global_hamiltonian(model_p2c3)
        rng = np.random.default_rng(11)
        psi_g = hw.random_state(2, rng)
        psis = [hw.random_state(2, rng), hw.random_state(3, rng)]
        base = hw.joint_distribution(hw.assemble_hamiltonian(H, systems), 1.0, psi_g, psis)
        refl = hw.joint_distribution(hw.assemble_hamiltonian(H, [reflected0, systems[1]]),
                                     1.0, psi_g, psis)
        assert np.max(np.abs(base.probabilities - refl.probabilities)) > 1e-3


class TestKbarPieces:
    def test_hamiltonian_outer_product(self):
        np.testing.assert_allclose(hw.kbar_hamiltonian(Q_HALF),
                                   [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_hamiltonian_trace_one_rank_one(self):
        q = np.array([0.2, 0.5, 0.3])
        H = hw.kbar_hamiltonian(q)
        assert np.trace(H) == pytest.approx(1.0)
        values = np.linalg.eigvalsh(H)
        np.testing.assert_allclose(values, [0.0, 0.0, 1.0], atol=1e-12)

    def test_boundary_q_rejected(self):
        with pytest.raises(InvalidProbabilityVector):
            hw.kbar_hamiltonian([1.0, 0.0])
        with pytest.raises(InvalidProbabilityVector):
            hw.kbar_hamiltonian([0.4, 0.4])

    def test_tuple_vector_branches(self):
        v, tag = hw.kbar_tuple_vector([0.0, 0.0], Q_HALF)
        assert tag == "uniform"
        np.testing.assert_allclose(v, np.sqrt(Q_HALF))
        v, tag = hw.kbar_tuple_vector([2.0, 0.0], Q_HALF)
        assert tag == "weighted"
        np.testing.assert_allclose(v, [1.0, 0.0])
        v, tag = hw.kbar_tuple_vector([2.0, 2.0], Q_HALF)
        np.testing.assert_allclose(v, [np.sqrt(0.5), np.sqrt(0.5)])

    def test_tuple_vector_negative_weight(self):
        with pytest.raises(NegativeWeight):
            hw.kbar_tuple_vector([-0.5, 1.0], Q_HALF)


class TestKbarDistributions:
    def test_time_zero_product_law(self, model_p2p2):
        rng = np.random.default_rng(12)
        psis = [hw.random_state(2, rng), hw.random_state(2, rng)]
        dist = hw.kbar_joint_distribution(Q_HALF, local_systems(model_p2p2), 0.0,
                                          PSI_H_QUARTER, psis)
        expected = np.outer(np.abs(psis[0].amplitudes) ** 2, np.abs(psis[1].amplitudes) ** 2)
        np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)

    def test_three_way_consistency(self, model_p2p2, model_p2c3):
        rng = np.random.default_rng(13)
        for model in (model_p2p2, model_p2c3):
            systems = local_systems(model)
            assembly = kbar_assembly(model)
            q = model.global_walk.graph.measure
            for _ in range(5):
                psi_g = hw.random_state(2, rng)
                psis = [hw.random_state(loc.dimension, rng) for loc in model.locals]
                for t in (0.0, 0.7, np.pi, 5.0):
                    general = hw.joint_distribution(assembly, t, psi_g, psis)
                    three = hw.kbar_joint_distribution(q, systems, t, psi_g, psis)
                    split = hw.operator_split_joint_distribution(q, systems, t, psi_g, psis)
                    for a, b in ((general, three), (general, split), (three, split)):
                        assert np.max(np.abs(a.probabilities - b.probabilities)) <= 1e-9

    def test_spec_tabulation(self, model_p2p2):
        spec = hw.kbar_spec(Q_HALF, local_systems(model_p2p2), PSI_H_QUARTER)
        assert spec.labels == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert spec.branches == ("uniform", "weighted", "weighted", "weighted")
        np.testing.assert_allclose(spec.rates, [0.0, 1.0, 1.0, 2.0], atol=1e-12)
        assert spec.p == pytest.approx(0.5, abs=1e-12)
        assert spec.overlap_spread <= 1e-12
        for v in spec.vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        # a state with varying overlaps reports spread and no p
        spread_spec = hw.kbar_spec(Q_HALF, local_systems(model_p2p2), hw.vertex_state(2, 0))
        assert spread_spec.p is None
        assert spread_spec.overlap_spread > 0.9

    def test_spec_builds_the_kbar_table_once(self, model_p2p2, monkeypatch):
        from hierwalk import quantum
        builds = []

        def counting(*args, **kwargs):
            builds.append(args)
            return table(*args, **kwargs)

        table = quantum._kbar_table
        monkeypatch.setattr(quantum, "_kbar_table", counting)
        systems = local_systems(model_p2p2)
        for psi, constant in ((PSI_H_QUARTER, True), (hw.vertex_state(2, 0), False)):
            mean, spread = hw.constant_overlap(Q_HALF, systems, psi)
            builds.clear()
            spec = hw.kbar_spec(Q_HALF, systems, psi)
            assert len(builds) == 1
            assert spec.overlap_spread == spread
            assert spec.p == (mean if constant else None)

    def test_constant_overlap_detection(self, model_p2p2):
        p, spread = hw.constant_overlap(Q_HALF, local_systems(model_p2p2), PSI_H_QUARTER)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert spread <= 1e-12
        _, spread_e0 = hw.constant_overlap(Q_HALF, local_systems(model_p2p2),
                                           hw.vertex_state(2, 0))
        assert spread_e0 > 0.9


class TestFactorizedDistribution:
    def test_p_one_is_rescaled_product(self, model_p2c3):
        rng = np.random.default_rng(14)
        q = np.array([0.3, 0.7])
        psis = [hw.random_state(2, rng), hw.random_state(3, rng)]
        systems = local_systems(model_p2c3)
        t = 1.3
        dist = hw.factorized_distribution(q, systems, t, 1.0, psis)
        expected = np.outer(hw.ctqw_distribution_from_system(systems[0], psis[0], q[0] * t),
                            hw.ctqw_distribution_from_system(systems[1], psis[1], q[1] * t))
        np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)

    def test_p_zero_is_frozen_product(self, model_p2c3):
        rng = np.random.default_rng(15)
        psis = [hw.random_state(2, rng), hw.random_state(3, rng)]
        dist = hw.factorized_distribution(np.array([0.3, 0.7]), local_systems(model_p2c3),
                                          2.0, 0.0, psis)
        expected = np.outer(np.abs(psis[0].amplitudes) ** 2, np.abs(psis[1].amplitudes) ** 2)
        np.testing.assert_allclose(dist.probabilities, expected, atol=1e-12)

    def test_invalid_p(self, model_p2p2):
        with pytest.raises(InvalidP):
            hw.factorized_distribution(Q_HALF, local_systems(model_p2p2), 1.0, 1.5,
                                       [hw.vertex_state(2, 0), hw.vertex_state(2, 0)])

    def test_asserted_p_checked_against_overlaps(self, model_p2p2):
        psis = [hw.vertex_state(2, 0), hw.vertex_state(2, 0)]
        with pytest.raises(ConstantOverlapViolated):
            hw.factorized_distribution(Q_HALF, local_systems(model_p2p2), 1.0, 0.5, psis,
                                       psi_global=hw.vertex_state(2, 0))
        # the quarter-phase state has constant squared overlaps and is accepted
        dist = hw.factorized_distribution(Q_HALF, local_systems(model_p2p2), 1.0, 0.5, psis,
                                          psi_global=PSI_H_QUARTER)
        assert dist.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_mixture_identity_needs_constant_complex_overlaps(self, model_p2p2):
        """Documents a verified finding: constant squared overlaps do not make
        the closed-form law collapse to the p-mixture; the tuple overlaps must
        be equal as complex numbers, which only degenerate models achieve."""
        psis = [hw.vertex_state(2, 0), hw.vertex_state(2, 0)]
        systems = local_systems(model_p2p2)
        three = hw.kbar_joint_distribution(Q_HALF, systems, 0.7, PSI_H_QUARTER, psis)
        mix = hw.factorized_distribution(Q_HALF, systems, 0.7, 0.5, psis)
        assert np.max(np.abs(three.probabilities - mix.probabilities)) > 0.05

    def test_exact_mixture_on_coinciding_tuple_vectors(self):
        """With featureless locals every tuple vector is sqrt(q); starting the
        global register there gives constant complex overlap 1 and the p=1
        reduction is exact."""
        q = np.array([0.2, 0.5, 0.3])
        trivial = hw.eigh(np.zeros((1, 1)))
        systems = (trivial, trivial, trivial)
        psi_g = hw.QuantumState(np.sqrt(q).astype(complex))
        psis = [hw.QuantumState(np.array([1.0 + 0j])) for _ in range(3)]
        p, spread = hw.constant_overlap(q, systems, psi_g)
        assert p == pytest.approx(1.0, abs=1e-12) and spread == 0.0
        for t in (0.0, 0.7, np.pi):
            three = hw.kbar_joint_distribution(q, systems, t, psi_g, psis)
            mix = hw.factorized_distribution(q, systems, t, 1.0, psis, psi_global=psi_g)
            np.testing.assert_allclose(three.probabilities, mix.probabilities, atol=1e-12)


class TestSingleWalk:
    def test_time_zero(self):
        psi = hw.QuantumState(np.array([0.6, 0.8j]))
        dist = hw.single_ctqw_distribution(hw.path_graph(2), psi, 0.0)
        np.testing.assert_allclose(dist, [0.36, 0.64], atol=1e-12)

    def test_p2_closed_form(self):
        # amplitude at the start vertex is (1 + e^{2it})/2, law cos^2(t)
        psi = hw.vertex_state(2, 0)
        for t in (0.0, np.pi / 4, np.pi / 2, 1.0):
            dist = hw.single_ctqw_distribution(hw.path_graph(2), psi, t)
            assert dist[0] == pytest.approx(np.cos(t) ** 2, abs=1e-10)
            assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    def test_eigenvector_is_stationary(self, c3):
        data = hw.walk_spectral_data(c3)
        psi = hw.QuantumState(data.system.vectors[:, 1].astype(complex))
        base = hw.single_ctqw_distribution(c3, psi, 0.0)
        for t in (0.5, 2.0):
            np.testing.assert_allclose(hw.single_ctqw_distribution(c3, psi, t), base,
                                       atol=1e-12)
