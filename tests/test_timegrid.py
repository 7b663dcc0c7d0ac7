"""Time-grid laws and the simulate CSV writer.

A 1-D time grid given to the kbar laws and to ``factorized_distribution``
must give the same laws as one scalar call per time. The CSV writer must
give the same bytes as the per-row writer it replaced, kept here as the
reference.
"""

import json

import numpy as np
import pytest

import hierwalk as hw
from hierwalk.cli import Scenario, _csv_text, main

Q3 = np.array([0.2, 0.3, 0.5])
Q4 = np.array([0.1, 0.2, 0.3, 0.4])
LAW_TOL = 1e-15


def _reference_csv(dims, times, probabilities) -> str:
    """The per-row writer: one (labels, t, p) tuple and one f-string per row."""
    rows = []
    for t, prob in zip(times, probabilities):
        flat = prob.reshape(-1)
        for i, ks in enumerate(np.ndindex(*dims)):
            rows.append((ks, t, flat[i]))
    header = ",".join(f"k_{j}" for j in range(len(dims))) + ",t,probability"
    lines = [header]
    for ks, t, p in rows:
        lines.append(",".join(str(k) for k in ks) + f",{t:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"


def _model(q, graphs):
    return hw.hierarchical_model(hw.kbar_graph(q), graphs)


def _inputs(model, seed):
    rng = np.random.default_rng(seed)
    systems = tuple(loc.system for loc in model.locals)
    psi_g = hw.random_state(model.branching, rng)
    psis = [hw.random_state(n, rng) for n in model.local_dims]
    return systems, psi_g, psis


MODELS = {
    "3 registers": lambda: _model(Q3, [hw.cycle_graph(5), hw.path_graph(5), hw.cycle_graph(5)]),
    "4 registers": lambda: _model(Q4, [hw.path_graph(3), hw.cycle_graph(4),
                                       hw.path_graph(2), hw.cycle_graph(3)]),
}


# ---------------------------------------------------------------------------
# grid laws against per-time scalar laws
# ---------------------------------------------------------------------------

GRIDS = {
    "single time": [0.9],
    "time zero": [0.0],
    "repeated times": [2.0, 0.1, 2.0, 0.0, 2.0],
    "mixed signs": [-1.3, 0.0, 0.1, 2.0, 7.9],
}


def _assert_grid_matches_scalars(law, grid):
    laws = law(np.asarray(grid))
    assert isinstance(laws, tuple) and len(laws) == len(grid)
    for t, dist in zip(grid, laws):
        ref = law(t)
        assert isinstance(ref, hw.JointDistribution)
        assert dist.time == ref.time and dist.formula == ref.formula
        assert dist.probabilities.shape == ref.probabilities.shape
        np.testing.assert_allclose(dist.probabilities, ref.probabilities,
                                   rtol=0, atol=LAW_TOL)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("model_name", MODELS)
def test_kbar_grid_matches_scalar_calls(model_name, grid):
    model = MODELS[model_name]()
    q = model.global_walk.graph.measure
    systems, psi_g, psis = _inputs(model, 3)
    _assert_grid_matches_scalars(
        lambda t: hw.kbar_joint_distribution(q, systems, t, psi_g, psis), grid)
    _assert_grid_matches_scalars(
        lambda t: hw.operator_split_joint_distribution(q, systems, t, psi_g, psis), grid)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_factorized_grid_matches_scalar_calls(grid):
    model = MODELS["4 registers"]()
    systems, _, psis = _inputs(model, 4)
    _assert_grid_matches_scalars(
        lambda t: hw.factorized_distribution(Q4, systems, t, 0.3, psis), grid)


def test_grid_accepts_lists_and_returns_tuples():
    model = MODELS["3 registers"]()
    systems, psi_g, psis = _inputs(model, 5)
    laws = hw.kbar_joint_distribution(Q3, systems, [0.1, 2.0], psi_g, psis)
    assert [d.time for d in laws] == [0.1, 2.0]
    assert all(d.formula == "three-term" for d in laws)


def test_empty_grid_returns_empty_tuple():
    model = MODELS["3 registers"]()
    systems, psi_g, psis = _inputs(model, 6)
    assert hw.kbar_joint_distribution(Q3, systems, [], psi_g, psis) == ()
    assert hw.operator_split_joint_distribution(Q3, systems, np.array([]), psi_g, psis) == ()
    assert hw.factorized_distribution(Q3, systems, [], 0.5, psis) == ()


def test_two_dimensional_grid_rejected():
    model = MODELS["3 registers"]()
    systems, psi_g, psis = _inputs(model, 7)
    with pytest.raises(ValueError):
        hw.kbar_joint_distribution(Q3, systems, [[0.1, 2.0]], psi_g, psis)


def test_factorized_grid_checks_overlaps():
    model = _model([0.5, 0.5], [hw.path_graph(2), hw.path_graph(2)])
    systems = tuple(loc.system for loc in model.locals)
    psis = [hw.vertex_state(2, 0), hw.vertex_state(2, 0)]
    with pytest.raises(hw.ConstantOverlapViolated):
        hw.factorized_distribution([0.5, 0.5], systems, [0.1, 2.0], 0.5, psis,
                                   psi_global=hw.vertex_state(2, 0))


# ---------------------------------------------------------------------------
# CSV writer against the per-row reference
# ---------------------------------------------------------------------------

EDGE_VALUES = np.array([-0.0, 5e-324, 1e-300, -3.5e-17, 0.1, 1.0 / 3.0, -1e-300, 0.0])


@pytest.mark.parametrize("dims", [(8,), (2, 1, 2, 2)], ids=["1 register", "4 registers"])
def test_csv_matches_per_row_writer(dims):
    times = [0.1, 2.0, 0.0, 1e-300, 2.0]
    rng = np.random.default_rng(11)
    probabilities = [rng.normal(size=dims) for _ in times]
    probabilities[0] = EDGE_VALUES.reshape(dims)
    probabilities[3] = -EDGE_VALUES[::-1].reshape(dims)
    assert _csv_text(dims, times, probabilities) == _reference_csv(dims, times, probabilities)


def test_csv_with_no_times_is_the_header():
    assert _csv_text((2, 3), [], []) == _reference_csv((2, 3), [], [])


P2 = {"vertices": 2, "edges": [[0, 1]]}
P3 = {"vertices": 3, "edges": [[0, 1], [1, 2]]}
C3 = {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
CLI_MODELS = {
    "kbar, 2 registers": ("kbar", {"q": [0.4, 0.6], "locals": [P3, C3]}),
    "kbar, 4 registers": ("kbar", {"q": [0.1, 0.2, 0.3, 0.4], "locals": [P2, C3, P2, P3]}),
    "general, 1 register": ("general", {"global": {"vertices": 1, "edges": [[0, 0]]},
                                        "locals": [P3]}),
    "general, 4 registers": ("general", {"global": {"vertices": 4, "edges": [[0, 1], [1, 2],
                                                                             [2, 3], [3, 0]]},
                                         "locals": [P2, C3, P2, P3]}),
}


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in v]


@pytest.mark.parametrize("name", CLI_MODELS)
def test_cli_csv_matches_per_row_writer(tmp_path, name):
    mode, model = CLI_MODELS[name]
    rng = np.random.default_rng(12)
    dims = [g["vertices"] for g in model["locals"]]
    n_global = len(dims)
    data = {"model": model, "mode": mode,
            "psi_H": _pairs(hw.random_state(n_global, rng).amplitudes),
            "psi_locals": [_pairs(hw.random_state(n, rng).amplitudes) for n in dims],
            "times": [0.1, 2.0, 0.0, 2.0]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    # the arrays the CLI formats, computed from the same parsed scenario
    scn = Scenario(data, tmp_path)
    if mode == "kbar":
        laws = hw.kbar_joint_distribution(scn.q, scn.local_systems(), scn.times,
                                          scn.psi_global, scn.psi_locals)
    else:
        assembly = hw.assemble_hamiltonian(scn.global_hamiltonian(), scn.local_systems())
        laws = [hw.joint_distribution(assembly, t, scn.psi_global, scn.psi_locals)
                for t in scn.times]
    expected = _reference_csv(tuple(dims), scn.times, [d.probabilities for d in laws])
    assert (tmp_path / "out" / "distributions.csv").read_bytes() == expected.encode()
