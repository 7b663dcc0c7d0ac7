import numpy as np
import pytest

import hierwalk as hw
from hierwalk import oracle
from hierwalk.errors import (
    DimensionCapExceeded,
    DimensionMismatch,
    NegativeTime,
    NonpositiveDiagonal,
)

T_GRID = (0.1, 0.5, 1.0, 2.0)


class TestLayout:
    def test_dimensions(self, model_p2c3):
        assert model_p2c3.local_dims == (2, 3)
        assert model_p2c3.local_dimension == 6
        assert model_p2c3.dimension == 12

    def test_flat_index_global_slowest(self, model_p2c3):
        assert model_p2c3.flat_index(0, (0, 0)) == 0
        assert model_p2c3.flat_index(0, (0, 1)) == 1   # register d fastest
        assert model_p2c3.flat_index(0, (1, 0)) == 3
        assert model_p2c3.flat_index(1, (0, 0)) == 6
        for i in range(model_p2c3.dimension):
            y, *ks = model_p2c3.unflatten(i)
            assert model_p2c3.flat_index(y, ks) == i

    def test_mismatched_counts_rejected(self):
        with pytest.raises(DimensionMismatch):
            hw.hierarchical_model(hw.kbar_graph([0.5, 0.5]), [hw.path_graph(2)])


class TestLiftLocal:
    def test_single_register_is_identity_lift(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(hw.lift_local(A, (2,), 0), A)

    def test_second_register(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(hw.lift_local(X, (2, 2), 1), np.kron(np.eye(2), X))

    def test_identity_lifts_to_identity(self):
        np.testing.assert_allclose(hw.lift_local(np.eye(2), (2, 2), 0), np.eye(4))

    def test_acts_on_declared_register_only(self):
        A = np.array([[0.0, 2.0], [1.0, 0.0]])
        lifted = hw.lift_local(A, (3, 2), 1)
        for i in range(3):
            for k in range(2):
                e = np.zeros(6)
                e[i * 2 + k] = 1.0
                expected = np.zeros(6)
                expected[i * 2: i * 2 + 2] = A[:, k]
                np.testing.assert_allclose(lifted @ e, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hw.lift_local(np.eye(3), (2, 2), 0)


class TestBuildHdtrw:
    def test_single_loop_global_reduces_to_local(self, model_d0):
        np.testing.assert_allclose(hw.build_hdtrw(model_d0),
                                   model_d0.locals[0].graph.transition, atol=1e-15)

    def test_rows_and_nonnegativity(self, model_p2p2):
        P = hw.build_hdtrw(model_p2p2)
        assert P.shape == (8, 8)
        np.testing.assert_allclose(P.sum(axis=1), np.ones(8), atol=1e-10)
        assert np.min(P) >= 0.0
        # q=(1/2,1/2) with doubly stochastic locals keeps columns stochastic too
        np.testing.assert_allclose(P.sum(axis=0), np.ones(8), atol=1e-10)

    def test_matches_entrywise_oracle(self, reference_models):
        for model in reference_models.values():
            for convention in ("destination", "source"):
                built = hw.build_hdtrw(model, convention)
                direct = oracle.dense_hdtrw(
                    model.global_walk.graph.transition,
                    [loc.graph.transition for loc in model.locals],
                    convention)
                np.testing.assert_allclose(built, direct, atol=1e-12)

    def test_conventions_differ_on_asymmetric_models(self):
        model = hw.hierarchical_model(hw.kbar_graph([0.3, 0.7]),
                                      [hw.path_graph(2), hw.cycle_graph(3)])
        dest = hw.build_hdtrw(model, "destination")
        src = hw.build_hdtrw(model, "source")
        assert np.max(np.abs(dest - src)) > 1e-3
        np.testing.assert_allclose(src.sum(axis=1), np.ones(12), atol=1e-10)

    def test_matrix_free_application(self, model_p2c3):
        rng = np.random.default_rng(0)
        for convention in ("destination", "source"):
            dense = hw.build_hdtrw(model_p2c3, convention)
            for _ in range(3):
                x = rng.normal(size=model_p2c3.dimension)
                np.testing.assert_allclose(hw.apply_hdtrw(model_p2c3, x, convention),
                                           dense @ x, atol=1e-12)

    def test_dense_cap(self, model_p2p2):
        with pytest.raises(DimensionCapExceeded):
            hw.build_hdtrw(model_p2p2, cap=4)
        # matrix-free application still works above the cap
        x = np.ones(model_p2p2.dimension) / np.sqrt(model_p2p2.dimension)
        out = hw.apply_hdtrw(model_p2p2, x)
        assert out.shape == (8,)


class TestHdtrwEigenpairs:
    def test_d0_reduction(self, model_d0):
        result = hw.hdtrw_eigenpairs(model_d0)
        assert not result.defective_blocks
        values = sorted(p.value.real for p in result.pairs)
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-12)

    def test_uniform_tuple_block_is_global_transition(self, model_p2p2):
        """The all-ones eigenvalue tuple turns the block into P_H itself."""
        result = hw.hdtrw_eigenpairs(model_p2p2)
        block0 = sorted(p.value.real for p in result.pairs if p.labels == (0, 0))
        np.testing.assert_allclose(block0, [0.0, 1.0], atol=1e-12)

    def test_defective_blocks_detected(self, model_p2p2):
        # opposite-sign tuples make P_H Lambda nilpotent of rank 1
        result = hw.hdtrw_eigenpairs(model_p2p2)
        assert set(result.defective_blocks) == {(0, 1), (1, 0)}
        assert not result.complete
        assert len(result.pairs) == 6  # one independent vector per defective block

    def test_residuals(self, reference_models):
        for name, model in reference_models.items():
            P = hw.build_hdtrw(model)
            result = hw.hdtrw_eigenpairs(model)
            for pair in result.pairs:
                res = np.max(np.abs(P @ pair.vector - pair.value * pair.vector))
                assert res <= 1e-8 * np.max(np.abs(pair.vector)), (name, pair.labels)

    def test_count_complete_when_diagonalizable(self):
        model = hw.hierarchical_model(hw.kbar_graph([0.3, 0.7]),
                                      [hw.path_graph(2), hw.cycle_graph(3)])
        result = hw.hdtrw_eigenpairs(model)
        assert result.complete
        assert len(result.pairs) == model.dimension


class TestBuildHctrw:
    def test_zero_times_give_global_kron_identity(self, model_p2p2):
        P = hw.build_hctrw(model_p2p2, [0.0, 0.0])
        expected = np.kron(model_p2p2.global_walk.graph.transition, np.eye(4))
        np.testing.assert_allclose(P, expected, atol=1e-14)

    def test_d0_reduces_to_local_semigroup(self, model_d0):
        # exp(-s(I-P)) for P2 at s=ln 2 has entries (1 +- 1/4)/2
        s = np.log(2.0)
        P = hw.build_hctrw(model_d0, [s])
        np.testing.assert_allclose(P, [[5 / 8, 3 / 8], [3 / 8, 5 / 8]], atol=1e-12)

    def test_stochastic_and_nonnegative(self, reference_models):
        for model in reference_models.values():
            times = np.linspace(0.3, 1.1, model.branching)
            P = hw.build_hctrw(model, times)
            np.testing.assert_allclose(P.sum(axis=1), np.ones(model.dimension), atol=1e-9)
            assert np.min(P) >= -1e-12

    def test_short_time_limit(self, model_p2c3):
        P = hw.build_hctrw(model_p2c3, [1e-6, 1e-6])
        expected = np.kron(model_p2c3.global_walk.graph.transition, np.eye(6))
        assert np.max(np.abs(P - expected)) <= 1e-5

    def test_negative_time_rejected(self, model_p2p2):
        with pytest.raises(NegativeTime):
            hw.build_hctrw(model_p2p2, [0.5, -0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_time_rejected_by_build_hctrw(self, model_p2p2, bad):
        with pytest.raises(NegativeTime, match="finite and nonnegative"):
            hw.build_hctrw(model_p2p2, [bad, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_time_rejected_by_apply_hctrw(self, model_p2p2, bad):
        with pytest.raises(NegativeTime, match="finite and nonnegative"):
            hw.apply_hctrw(model_p2p2, [bad, 1.0], np.ones(model_p2p2.dimension))

    def test_wrong_time_count(self, model_p2p2):
        with pytest.raises(DimensionMismatch):
            hw.build_hctrw(model_p2p2, [0.5])

    def test_matrix_free_application(self, model_p2c3):
        times = np.array([0.4, 1.1])
        dense = hw.build_hctrw(model_p2c3, times)
        rng = np.random.default_rng(1)
        x = rng.normal(size=model_p2c3.dimension)
        np.testing.assert_allclose(hw.apply_hctrw(model_p2c3, times, x), dense @ x,
                                   atol=1e-12)

    def test_dense_cap(self, model_p2p2):
        with pytest.raises(DimensionCapExceeded):
            hw.build_hctrw(model_p2p2, [0.5, 0.5], cap=4)


class TestHctrwLambda:
    def test_unit_eigenvalues(self):
        np.testing.assert_allclose(hw.hctrw_lambda([1.0, 1.0], [3.0, 4.0]), [1.0, 1.0])

    def test_forced_arithmetic(self):
        np.testing.assert_allclose(hw.hctrw_lambda([1.0, -1.0], [1.0, 1.0]),
                                   [1.0, np.exp(-2.0)])
        np.testing.assert_allclose(hw.hctrw_lambda([0.0, 0.0], [np.log(2), np.log(2)]),
                                   [0.5, 0.5])

    def test_strictly_positive(self):
        diag = hw.hctrw_lambda([-1.0, -0.5, 1.0], [5.0, 2.0, 0.0])
        assert np.all(diag > 0.0)
        assert np.all(diag <= 1.0)


class TestHctrwCore:
    def test_identity_diagonal(self, model_p2p2):
        core = hw.hctrw_core(model_p2p2, np.ones(2))
        expected = np.eye(2) - model_p2p2.global_walk.laplacian
        np.testing.assert_allclose(core, expected, atol=1e-14)

    def test_kbar_closed_form(self, model_p2p2):
        # sandwiching the rank-1 sqrt(q) matrix: entries sqrt(ab * q_j q_k)
        a, b = 0.7, 0.2
        core = hw.hctrw_core(model_p2p2, np.array([a, b]))
        expected = np.array([[a / 2, np.sqrt(a * b) / 2], [np.sqrt(a * b) / 2, b / 2]])
        np.testing.assert_allclose(core, expected, atol=1e-14)

    def test_similar_to_global_block(self, model_p2c3):
        diag = hw.hctrw_lambda([1.0, -0.5], [0.4, 1.3])
        core = hw.hctrw_core(model_p2c3, diag)
        block = model_p2c3.global_walk.graph.transition @ np.diag(diag)
        np.testing.assert_allclose(np.poly(core), np.poly(block), atol=1e-8)

    def test_nonpositive_diagonal_rejected(self, model_p2p2):
        with pytest.raises(NonpositiveDiagonal):
            hw.hctrw_core(model_p2p2, np.array([1.0, 0.0]))


class TestHctrwSpectral:
    def test_zero_times(self, model_p2p2):
        spectrum = hw.hctrw_spectral(model_p2p2, [0.0, 0.0])
        base = np.sort(np.linalg.eigvalsh(np.eye(2) - model_p2p2.global_walk.laplacian))
        for block in spectrum.blocks:
            np.testing.assert_allclose(block.values, base, atol=1e-12)
        rec = hw.reconstruct_hctrw(model_p2p2, spectrum)
        np.testing.assert_allclose(
            rec, np.kron(model_p2p2.global_walk.graph.transition, np.eye(4)), atol=1e-12)

    def test_d0_values_are_semigroup_rates(self, model_d0):
        t = 0.8
        spectrum = hw.hctrw_spectral(model_d0, [t])
        got = sorted(float(b.values[0]) for b in spectrum.blocks)
        mus = model_d0.locals[0].system.values  # 0 and 2
        expected = sorted(np.exp(-t * mus))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_biorthogonality(self, model_p2c3):
        spectrum = hw.hctrw_spectral(model_p2c3, [0.7, 1.3])
        for block in spectrum.blocks:
            np.testing.assert_allclose(block.left @ block.right, np.eye(2), atol=1e-8)

    def test_reconstruction_on_grid(self, reference_models):
        for name, model in reference_models.items():
            for tval in T_GRID:
                times = np.full(model.branching, tval)
                direct = hw.build_hctrw(model, times)
                rec = hw.reconstruct_hctrw(model, hw.hctrw_spectral(model, times))
                assert np.max(np.abs(direct - rec)) <= 1e-8, (name, tval)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_time_rejected_by_hctrw_spectral(self, model_p2p2, bad):
        with pytest.raises(NegativeTime, match="finite and nonnegative"):
            hw.hctrw_spectral(model_p2p2, [bad, 1.0])

    def test_mixed_times_reconstruction(self, model_p2c3):
        times = np.array([0.25, 1.7])
        direct = hw.build_hctrw(model_p2c3, times)
        rec = hw.reconstruct_hctrw(model_p2c3, hw.hctrw_spectral(model_p2c3, times))
        np.testing.assert_allclose(rec, direct, atol=1e-8)
