"""Command-line front end: simulate, verify, spectra.

JSON in, CSV/JSON out. Graphs arrive as {"vertices", "edges", "transition"?,
"measure"?}; a model bundles {"global"?, "locals", "q"?} where "q" builds
the loopy-complete global graph when "global" is omitted; a scenario adds
{"mode", "psi_H", "psi_locals", "times", "p"?, "convention"?}. Complex
amplitudes are [re, im] pairs. Exit codes: 0 ok, 2 validation failure,
3 numerical/verification failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import oracle
from .errors import HierwalkError
from .graphs import graph_from_dict, kbar_graph
from .hierarchy import (
    DENSE_CAP,
    build_hctrw,
    build_hdtrw,
    hctrw_spectral,
    hdtrw_eigenpairs,
    hierarchical_model,
    reconstruct_hctrw,
)
from .quantum import (
    QuantumState,
    assemble_hamiltonian,
    evolve,
    factorized_distribution,
    joint_distribution,
    kbar_joint_distribution,
    operator_split_joint_distribution,
    random_state,
)
from .spectral import group_by_gap

STATE_NORM_SLACK = 1e-6
VERIFY_SEED = 20260810


class ValidationFailure(Exception):
    """Scenario or model input is unusable; maps to exit code 2."""


def _fail(msg: str) -> ValidationFailure:
    return ValidationFailure(msg)


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _fail(f"{what} must be a number, got {value!r}")


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise _fail(f"no such file: {path}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise _fail(f"invalid JSON in {path}: {e}")


def parse_state(pairs, what: str) -> QuantumState:
    """Parse [re, im] pairs; normalize small defects with a warning."""
    try:
        amp = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError):
        raise _fail(f"{what}: expected a list of [re, im] pairs")
    norm = float(np.linalg.norm(amp))
    if norm == 0.0:
        raise _fail(f"{what}: zero vector")
    if abs(norm - 1.0) > STATE_NORM_SLACK:
        raise _fail(f"{what}: norm {norm} is off by more than {STATE_NORM_SLACK}")
    if abs(norm - 1.0) > 1e-12:
        print(f"warning: {what} normalized (defect {abs(norm - 1.0):.2e})", file=sys.stderr)
    return QuantumState(amp / norm)


class Scenario:
    """Parsed scenario: model, mode, states, time grid, options."""

    def __init__(self, data: dict, base: Path, convention_override: str | None = None):
        model_ref = data.get("model")
        if isinstance(model_ref, str):
            model_data = _load_json(str(base / model_ref))
        elif isinstance(model_ref, dict):
            model_data = model_ref
        else:
            raise _fail("scenario needs a 'model' (inline object or file path)")
        self.q = np.asarray(data.get("q", model_data.get("q", [])), dtype=float)
        try:
            if "global" in model_data:
                global_graph = graph_from_dict(model_data["global"])
            elif self.q.size:
                global_graph = kbar_graph(self.q)
            else:
                raise _fail("model needs either a 'global' graph or a 'q' vector")
            locals_ = [graph_from_dict(g) for g in model_data.get("locals", [])]
        except (HierwalkError, ValueError, KeyError) as e:
            raise _fail(f"bad model: {e}")
        if not locals_:
            raise _fail("model needs at least one local graph")
        try:
            self.model = hierarchical_model(global_graph, locals_)
        except HierwalkError as e:
            raise _fail(f"model rejected: {e}")
        if not self.q.size:
            self.q = self.model.global_walk.graph.measure

        self.mode = data.get("mode", "general")
        if self.mode not in ("general", "kbar"):
            raise _fail(f"unknown mode {self.mode!r}")
        if self.mode == "kbar":
            P_H = self.model.global_walk.graph.transition
            if np.max(np.abs(P_H - np.tile(self.q, (len(self.q), 1)))) > 1e-12:
                raise _fail("kbar mode needs a loopy-complete global graph whose "
                            "rows all equal q")
        times = data.get("times", [])
        if not isinstance(times, list) or not times:
            raise _fail("scenario needs a nonempty 'times' grid")
        self.times = [_number(t, "times entry") for t in times]
        if not all(np.isfinite(self.times)):
            raise _fail("times must be finite")
        self.psi_global = parse_state(data["psi_H"], "psi_H") if "psi_H" in data else None
        self.psi_locals = [parse_state(p, f"psi_locals[{j}]")
                           for j, p in enumerate(data.get("psi_locals", []))]
        self.p = data.get("p")
        if self.p is not None and not 0.0 <= _number(self.p, "p") <= 1.0:
            raise _fail(f"p must lie in [0, 1], got {self.p}")
        self.grouping_tol = _number(data.get("tol", 1e-9), "tol")
        if not (np.isfinite(self.grouping_tol) and self.grouping_tol >= 0.0):
            raise _fail(f"tol must be finite and nonnegative, got {self.grouping_tol}")
        self.convention = convention_override or data.get("convention", "destination")
        if self.convention not in ("destination", "source"):
            raise _fail(f"unknown selection convention {self.convention!r}")

    def require_states(self):
        if self.psi_global is None:
            raise _fail("scenario needs 'psi_H'")
        if len(self.psi_locals) != self.model.branching:
            raise _fail(f"need {self.model.branching} local states, "
                        f"got {len(self.psi_locals)}")
        if self.psi_global.dimension != self.model.branching:
            raise _fail("psi_H dimension does not match the global graph")
        for j, (psi, loc) in enumerate(zip(self.psi_locals, self.model.locals)):
            if psi.dimension != loc.dimension:
                raise _fail(f"psi_locals[{j}] dimension does not match local graph {j}")

    def global_hamiltonian(self) -> np.ndarray:
        """I - L_H of the global walk; the rank-1 sqrt(q) form on loopy-complete graphs."""
        return np.eye(self.model.branching) - self.model.global_walk.laplacian

    def local_systems(self):
        return tuple(loc.system for loc in self.model.locals)


def _csv_text(dims, times, probabilities) -> str:
    """The distributions CSV: time-major rows, last register fastest, %.17g values.

    The position labels are formatted once into a per-time row template, so
    each time point's block of rows is a single format call.
    """
    header = ",".join(f"k_{j}" for j in range(len(dims))) + ",t,probability\n"
    template = "".join(",".join(map(str, ks)) + ",%s,%.17g\n" for ks in np.ndindex(*dims))
    positions = int(np.prod(dims))
    args = [None] * (2 * positions)
    blocks = [header]
    for t, prob in zip(times, probabilities):
        args[0::2] = [f"{t:.17g}"] * positions
        args[1::2] = prob.reshape(-1).tolist()
        blocks.append(template % tuple(args))
    return "".join(blocks)


def cmd_simulate(scenario: Scenario, out_dir: Path) -> int:
    scenario.require_states()
    out_dir.mkdir(parents=True, exist_ok=True)
    dims = scenario.model.local_dims
    systems = scenario.local_systems()
    start = _time.perf_counter()
    if scenario.mode == "kbar":
        laws = kbar_joint_distribution(scenario.q, systems, scenario.times,
                                       scenario.psi_global, scenario.psi_locals,
                                       tol=scenario.grouping_tol)
    else:
        assembly = assemble_hamiltonian(scenario.global_hamiltonian(), systems,
                                        tol=scenario.grouping_tol)
        laws = joint_distribution(assembly, scenario.times, scenario.psi_global,
                                  scenario.psi_locals)
    report_times = [{
        "t": t,
        "normalization_defect": abs(dist.total_mass - 1.0),
        "min_entry": dist.min_entry,
    } for t, dist in zip(scenario.times, laws)]
    if scenario.p is not None and scenario.mode == "kbar":
        mixtures = factorized_distribution(scenario.q, systems, scenario.times,
                                           float(scenario.p), scenario.psi_locals,
                                           psi_global=scenario.psi_global,
                                           tol=scenario.grouping_tol)
        for entry, dist, mixture in zip(report_times, laws, mixtures):
            entry["mixture_deviation"] = float(
                np.max(np.abs(dist.probabilities - mixture.probabilities)))
    elapsed = _time.perf_counter() - start

    (out_dir / "distributions.csv").write_text(
        _csv_text(dims, scenario.times, [dist.probabilities for dist in laws]))
    report = {
        "mode": scenario.mode,
        "rows": len(laws) * int(np.prod(dims)),
        "times": report_times,
        "stages": {"laws": elapsed, "write": _time.perf_counter() - start - elapsed},
        "wall_seconds": elapsed,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def _check(name, residual, tol):
    return {"name": name, "max_residual": float(residual), "tolerance": tol,
            "passed": bool(residual <= tol)}


def _verify_spectra(scenario: Scenario) -> list[dict]:
    checks = []
    model = scenario.model
    walks = [("global", model.global_walk)] + [(f"local_{j}", loc) for j, loc in enumerate(model.locals)]
    for name, data in walks:
        L = data.laplacian
        sysm = data.system
        checks.append(_check(f"{name}:laplacian-symmetry", np.max(np.abs(L - L.T)), 1e-10))
        checks.append(_check(f"{name}:eigh-reconstruction",
                             np.max(np.abs(sysm.reconstruct() - L)), 1e-9))
        checks.append(_check(f"{name}:psd-floor", max(0.0, -float(sysm.values[0])), 1e-10))
        checks.append(_check(f"{name}:spectrum-ceiling", max(0.0, float(sysm.values[-1]) - 2.0), 1e-10))
        pi = data.graph.measure
        d = np.sqrt(pi)
        roundtrip = L / d[:, None] * d[None, :]
        checks.append(_check(f"{name}:roundtrip",
                             np.max(np.abs(roundtrip - (np.eye(L.shape[0]) - data.graph.transition))),
                             1e-10))
        tspec = data.spectrum
        checks.append(_check(f"{name}:biorthogonality",
                             np.max(np.abs(tspec.left_vectors @ tspec.right_vectors - np.eye(L.shape[0]))),
                             1e-9))
        checks.append(_check(f"{name}:transition-reconstruction",
                             np.max(np.abs(tspec.reconstruct() - data.graph.transition)), 1e-9))
    return checks


def _verify_evolution(scenario: Scenario, rng) -> list[dict]:
    checks = []
    model = scenario.model
    P_G = build_hdtrw(model, scenario.convention)
    checks.append(_check("hdtrw:row-stochastic", np.max(np.abs(P_G.sum(axis=1) - 1.0)), 1e-10))
    P_H = model.global_walk.graph.transition
    local_Ps = [loc.graph.transition for loc in model.locals]
    direct = oracle.dense_hdtrw(P_H, local_Ps, scenario.convention)
    checks.append(_check("hdtrw:oracle-agreement", np.max(np.abs(P_G - direct)), 1e-12))

    pairs = hdtrw_eigenpairs(model, scenario.convention).pairs
    V = np.stack([pair.vector for pair in pairs], axis=1)
    residuals = np.max(np.abs(P_G @ V - V * np.array([pair.value for pair in pairs])), axis=0)
    worst = np.max(residuals / np.maximum(np.max(np.abs(V), axis=0), 1e-300))
    checks.append(_check("hdtrw:eigen-residual", worst, 1e-8))

    worst_rec = 0.0
    worst_rows = 0.0
    for tval in (0.1, 0.5, 1.0, 2.0):
        times = np.full(model.branching, tval)
        P_t = build_hctrw(model, times)
        worst_rows = max(worst_rows, float(np.max(np.abs(P_t.sum(axis=1) - 1.0))))
        rec = reconstruct_hctrw(model, hctrw_spectral(model, times))
        # against the oracle's Taylor semigroups, not the spectra the builder uses
        direct_t = oracle.dense_hctrw(P_H, local_Ps, times)
        worst_rec = max(worst_rec, float(np.max(np.abs(direct_t - rec))))
    checks.append(_check("hctrw:row-stochastic", worst_rows, 1e-9))
    checks.append(_check("hctrw:spectral-reconstruction", worst_rec, 1e-8))

    assembly = assemble_hamiltonian(scenario.global_hamiltonian(), scenario.local_systems())
    H_dense = assembly.dense_hamiltonian()
    local_hams = [loc.laplacian for loc in model.locals]
    worst_ev = 0.0
    worst_unitary = 0.0
    for t in (0.3, 1.0, float(np.pi)):
        U = oracle.matrix_exp(1j * t * H_dense, hermitian_hint=False)
        worst_unitary = max(worst_unitary,
                            float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0])))))
        states = [random_state(assembly.dimension, rng) for _ in range(5)]
        spectral = np.stack([evolve(assembly, t, psi).amplitudes for psi in states], axis=1)
        dense = oracle.dense_evolve(scenario.global_hamiltonian(), local_hams, t,
                                    np.stack([psi.amplitudes for psi in states], axis=1))
        worst_ev = max(worst_ev, float(np.max(np.abs(spectral - dense))))
    checks.append(_check("ctqw:unitarity", worst_unitary, 1e-9))
    checks.append(_check("ctqw:spectral-vs-dense", worst_ev, 1e-8))
    return checks


def _verify_distribution(scenario: Scenario, rng) -> list[dict]:
    checks = []
    model = scenario.model
    systems = scenario.local_systems()
    H_H = scenario.global_hamiltonian()
    assembly = assemble_hamiltonian(H_H, systems)
    local_hams = [loc.laplacian for loc in model.locals]

    worst_mass = 0.0
    worst_chain = 0.0
    worst_oracle = 0.0
    kbar_like = scenario.mode == "kbar"
    times = (0.0, 1.0, float(np.pi))
    for _ in range(10):
        psi_g = random_state(model.branching, rng)
        psis = [random_state(loc.dimension, rng) for loc in model.locals]
        general = joint_distribution(assembly, times, psi_g, psis)
        worst_mass = max(worst_mass, *(abs(law.total_mass - 1.0) for law in general))
        ref = oracle.dense_joint_distribution(
            H_H, local_hams, times, psi_g.amplitudes,
            [p.amplitudes for p in psis], basis="branch")
        worst_oracle = max(worst_oracle, float(np.max(np.abs(
            np.array([law.probabilities for law in general]) - ref))))
        if kbar_like:
            three = kbar_joint_distribution(scenario.q, systems, times, psi_g, psis)
            split = operator_split_joint_distribution(scenario.q, systems, times, psi_g, psis)
            for laws in zip(general, three, split):
                for a, b in itertools.combinations(laws, 2):
                    worst_chain = max(worst_chain, float(np.max(np.abs(
                        a.probabilities - b.probabilities))))
    checks.append(_check("joint:normalization", worst_mass, 1e-9))
    checks.append(_check("joint:oracle-agreement", worst_oracle, 1e-8))
    if kbar_like:
        checks.append(_check("joint:consistency-chain", worst_chain, 1e-9))

    # oracle self-tests
    worst_self = 0.0
    for n in (2, 4, 8):
        A = rng.normal(size=(n, n))
        A = (A + A.T) / 2.0
        worst_self = max(worst_self, float(np.max(np.abs(
            oracle.matrix_exp(A) - oracle.matrix_exp(A, hermitian_hint=True)))))
    checks.append(_check("oracle:series-vs-eigh", worst_self, 1e-9))
    A = rng.normal(size=(5, 5)) * 0.5
    inv = oracle.matrix_exp(A) @ oracle.matrix_exp(-A)
    checks.append(_check("oracle:inverse", np.max(np.abs(inv - np.eye(5))), 1e-9))
    semi = oracle.matrix_exp(0.4 * A) @ oracle.matrix_exp(0.6 * A)
    checks.append(_check("oracle:semigroup", np.max(np.abs(semi - oracle.matrix_exp(A))), 1e-8))
    return checks


def cmd_verify(scenario: Scenario, suite: str, out_path: Path | None,
               cap: int = DENSE_CAP) -> int:
    if scenario.model.dimension > cap:
        raise _fail(f"model dimension {scenario.model.dimension} exceeds cap {cap}")
    rng = np.random.default_rng(VERIFY_SEED)
    checks = []
    if suite in ("spectra", "all"):
        checks += _verify_spectra(scenario)
    if suite in ("evolution", "all"):
        checks += _verify_evolution(scenario, rng)
    if suite in ("distribution", "all"):
        checks += _verify_distribution(scenario, rng)
    report = {"suite": suite, "checks": checks, "passed": all(c["passed"] for c in checks)}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text)
    print(text, end="")
    if not report["passed"]:
        failing = [c["name"] for c in checks if not c["passed"]]
        print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
        return 3
    return 0


def cmd_spectra(scenario: Scenario, cap: int) -> int:
    model = scenario.model
    out = {"graphs": [], "tuples": None}
    walks = [("global", model.global_walk)] + [(f"local_{j}", loc) for j, loc in enumerate(model.locals)]
    for name, data in walks:
        out["graphs"].append({
            "name": name,
            "values": data.system.values.tolist(),
            "groups": group_by_gap(data.system.values, scenario.grouping_tol),
        })
    if model.dimension <= cap:
        assembly = assemble_hamiltonian(scenario.global_hamiltonian(), scenario.local_systems(),
                                        tol=scenario.grouping_tol)
        out["tuples"] = [
            {"labels": list(labels), "values": assembly.block_values[i].tolist()}
            for i, labels in enumerate(assembly.tuples())
        ]
    else:
        out["notice"] = f"dimension {model.dimension} exceeds cap {cap}; tuple section omitted"
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hierwalk",
                                     description="Hierarchical walk simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="model JSON file (wrapped as a bare scenario)")
    common.add_argument("--scenario", help="scenario JSON file")
    common.add_argument("--selection-convention", choices=("destination", "source"),
                        default=None, help="which global vertex picks the stepping local graph")
    common.add_argument("--cap", type=int, default=DENSE_CAP,
                        help="dense materialization cap (default %(default)s)")
    common.add_argument("--tol", type=float, default=None,
                        help="override the degeneracy-grouping tolerance (default 1e-9)")

    p_sim = sub.add_parser("simulate", parents=[common], help="write distribution CSV")
    p_sim.add_argument("--out-dir", required=True)

    p_ver = sub.add_parser("verify", parents=[common], help="run cross-check suites")
    p_ver.add_argument("--suite", choices=("spectra", "evolution", "distribution", "all"),
                       default="all")
    p_ver.add_argument("--out-dir", default=None)

    sub.add_parser("spectra", parents=[common], help="dump eigenvalue data as JSON")
    return parser


def _scenario_from_args(args) -> Scenario:
    if args.scenario:
        data = _load_json(args.scenario)
        base = Path(args.scenario).parent
    elif args.model:
        data = {"model": _load_json(args.model), "times": [0.0]}
        base = Path(args.model).parent
    else:
        raise _fail("provide --scenario or --model")
    if args.tol is not None:
        data["tol"] = args.tol
    return Scenario(data, base, convention_override=args.selection_convention)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = _scenario_from_args(args)
        if args.command == "simulate":
            return cmd_simulate(scenario, Path(args.out_dir))
        if args.command == "verify":
            out = Path(args.out_dir) / "verify.json" if args.out_dir else None
            return cmd_verify(scenario, args.suite, out, cap=args.cap)
        if args.command == "spectra":
            return cmd_spectra(scenario, args.cap)
        raise _fail(f"unknown command {args.command!r}")
    except ValidationFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except HierwalkError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
