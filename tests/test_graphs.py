import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hierwalk as hw
from hierwalk.errors import (
    DimensionMismatch,
    IsolatedVertex,
    MissingTransition,
    NotIrreducible,
    NotReversible,
)


def biased_triangle():
    """3-cycle stepping clockwise with probability 2/3; not reversible."""
    return np.array([[0.0, 2 / 3, 1 / 3],
                     [1 / 3, 0.0, 2 / 3],
                     [2 / 3, 1 / 3, 0.0]])


class TestGraphModel:
    def test_edge_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            hw.GraphModel(2, {(0, 2)})

    def test_transition_rows_must_be_stochastic(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            hw.GraphModel(2, {(0, 1)}, transition=np.array([[0.0, 0.9], [1.0, 0.0]]))

    def test_transition_support_must_be_edges(self):
        with pytest.raises(ValueError, match="not an edge"):
            hw.GraphModel(2, set(), transition=np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_measure_must_be_positive_and_normalized(self):
        with pytest.raises(ValueError):
            hw.GraphModel(2, {(0, 1)}, measure=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            hw.GraphModel(2, {(0, 1)}, measure=np.array([0.6, 0.6]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hw.GraphModel(3, {(0, 1)}, transition=np.eye(2))

    def test_self_loops_are_first_class(self):
        g = hw.loop_vertex()
        assert g.degree(0) == 1
        assert g.has_edge(0, 0)

    def test_json_round_trip(self):
        g = hw.kbar_graph([0.25, 0.75])
        back = hw.graph_from_dict(hw.graph_to_dict(g))
        assert back.edges == g.edges
        np.testing.assert_allclose(back.transition, g.transition)
        np.testing.assert_allclose(back.measure, g.measure)


class TestUniformWalk:
    def test_p2_forced_by_degree(self):
        g = hw.uniform_walk_transition(hw.path_graph(2))
        np.testing.assert_allclose(g.transition, [[0, 1], [1, 0]])

    def test_loop_vertex(self):
        g = hw.uniform_walk_transition(hw.GraphModel(1, {(0, 0)}))
        np.testing.assert_allclose(g.transition, [[1.0]])

    def test_triangle(self):
        g = hw.uniform_walk_transition(hw.cycle_graph(3))
        expect = np.full((3, 3), 0.5) - 0.5 * np.eye(3)
        np.testing.assert_allclose(g.transition, expect)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertex) as err:
            hw.uniform_walk_transition(hw.GraphModel(3, {(0, 1)}))
        assert err.value.vertex == 2


class TestStationaryMeasure:
    def test_p2_uniform(self):
        g = hw.uniform_walk_transition(hw.path_graph(2))
        np.testing.assert_allclose(hw.stationary_measure(g), [0.5, 0.5], atol=1e-12)

    def test_triangle_uniform(self):
        g = hw.uniform_walk_transition(hw.cycle_graph(3))
        np.testing.assert_allclose(hw.stationary_measure(g), np.full(3, 1 / 3), atol=1e-12)

    def test_star_weights_by_degree(self):
        # solved by hand from pi P = pi on the 3x3 system
        g = hw.uniform_walk_transition(hw.star_graph(2))
        np.testing.assert_allclose(hw.stationary_measure(g), [0.5, 0.25, 0.25], atol=1e-12)

    def test_missing_transition(self):
        with pytest.raises(MissingTransition):
            hw.stationary_measure(hw.path_graph(2))

    def test_disconnected_rejected(self):
        g = hw.uniform_walk_transition(hw.GraphModel(4, {(0, 1), (2, 3)}))
        with pytest.raises(NotIrreducible, match="not strongly connected"):
            hw.stationary_measure(g)

    def test_one_way_support_rejected(self):
        # connected as a graph, but no step leads back to vertex 0
        P = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        g = hw.GraphModel(3, {(0, 1), (1, 2)}, transition=P)
        with pytest.raises(NotIrreducible, match="not strongly connected"):
            hw.stationary_measure(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 10, 12])
    def test_long_path_is_strongly_connected(self, n):
        g = hw.uniform_walk_transition(hw.path_graph(n) if n > 1 else hw.loop_vertex())
        assert hw.stationary_measure(g).shape == (n,)


class TestDetailedBalance:
    def test_symmetric_p_with_uniform_measure(self):
        report = hw.verify_detailed_balance(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                            np.array([0.5, 0.5]))
        assert report.ok
        assert report.max_defect == 0.0

    def test_kbar_reversible_measure_is_q(self):
        q = np.array([0.3, 0.7])
        g = hw.kbar_graph(q)
        assert hw.verify_detailed_balance(g.transition, q).ok

    def test_biased_triangle_defect(self):
        report = hw.verify_detailed_balance(biased_triangle(), np.full(3, 1 / 3))
        assert not report.ok
        assert report.max_defect == pytest.approx(1 / 9, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hw.verify_detailed_balance(np.eye(3), np.array([0.5, 0.5]))


class TestNormalizedLaplacian:
    def test_p2(self):
        L = hw.normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                    np.array([0.5, 0.5]))
        np.testing.assert_allclose(L.matrix, [[1, -1], [-1, 1]], atol=1e-15)
        assert L.symmetry_defect <= 1e-12

    def test_loop_vertex_is_zero(self):
        L = hw.normalized_laplacian(np.array([[1.0]]), np.array([1.0]))
        np.testing.assert_allclose(L.matrix, [[0.0]], atol=1e-15)

    def test_triangle_equals_i_minus_p(self):
        P = np.full((3, 3), 0.5) - 0.5 * np.eye(3)
        L = hw.normalized_laplacian(P, np.full(3, 1 / 3))
        np.testing.assert_allclose(L.matrix, np.eye(3) - P, atol=1e-15)

    def test_non_reversible_rejected(self):
        with pytest.raises(NotReversible):
            hw.normalized_laplacian(biased_triangle(), np.full(3, 1 / 3))


def random_reversible_chain(rng, n):
    """Random reversible pair (P, pi) built from a symmetric flux matrix."""
    flux = rng.uniform(0.1, 1.0, size=(n, n))
    flux = (flux + flux.T) / 2.0
    pi = flux.sum(axis=1) / flux.sum()
    P = flux / flux.sum(axis=1)[:, None]
    return P, pi


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=2 ** 31))
def test_laplacian_invariants_for_reversible_chains(n, seed):
    """Symmetric within 1e-10, spectrum inside [-1e-10, 2+1e-10], round trip to I-P."""
    P, pi = random_reversible_chain(np.random.default_rng(seed), n)
    assert hw.verify_detailed_balance(P, pi).ok
    L = hw.normalized_laplacian(P, pi).matrix
    assert np.max(np.abs(L - L.T)) <= 1e-10
    values = np.linalg.eigvalsh(L)
    assert values[0] >= -1e-10
    assert values[-1] <= 2 + 1e-10
    d = np.sqrt(pi)
    roundtrip = L / d[:, None] * d[None, :]
    np.testing.assert_allclose(roundtrip, np.eye(n) - P, atol=1e-10)


def test_prepare_walk_keeps_supplied_measure():
    pi = np.array([0.5, 0.5])
    g = hw.GraphModel(2, {(0, 1)}, measure=pi)
    prepared = hw.prepare_walk(g)
    assert prepared.transition is not None
    np.testing.assert_allclose(prepared.measure, pi)
