"""Seeded scenario generator, the four workload operations and their checks.

A scenario is one operation of a closed loop with a single client: a model,
its states and a time grid. Scenario ``i`` of a run is drawn from
``default_rng([seed, workload tag, i])``, so the same seed always gives the
same inputs, and the program only ever sees these generated inputs.

Scenario sizes are stratified: scenario ``i`` targets stratum
``STRATUM_ORDER[i % 8]`` of a geometric size range, and counts (time
points, steps) and the global graph kind follow fixed cycles over ``i``.
The seed draws the rest: graph families, which register gets which size,
``q``, states and time values. Any eight consecutive scenarios therefore
cover the whole size range and every run does the same mix of work, which
keeps the per-scenario median and the tail percentile steady across
seeds.

hierwalk is imported inside the functions, never at module level, because
the runner re-imports the package while it measures set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STRATA = 8
STRATUM_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)
LAW_TOL = 1e-9
MASS_TOL = 1e-9
ROUNDTRIP_TOL = 1e-9
RESIDUAL_TOL = 1e-8

# Check failures that the seed program is known to produce, with the largest
# measured value that still counts as that defect. They are counted in
# ``failed`` like any other failure; they only keep ``correct`` true.
KNOWN_DEFECTS = {
    # hdtrw_eigenpairs keeps ill-conditioned eigenvectors of near-defective
    # kbar blocks: residuals 2e-8 to 4e-7 were seen.
    "hdtrw:eigen-residual": 1e-5,
    # the general joint law disagrees with the dense oracle on some
    # path-global models (P5/C3/C5: 0.034).
    "joint:oracle-agreement": 0.1,
}


@dataclass
class Scenario:
    index: int
    d1: int
    dims: tuple
    global_kind: str            # "kbar", "path", "cycle" or "star"
    local_kinds: tuple
    q: np.ndarray | None = None
    times: list = field(default_factory=list)
    psi_global: np.ndarray | None = None
    psi_locals: list = field(default_factory=list)
    psi_full: np.ndarray | None = None
    time_vectors: list = field(default_factory=list)
    start: int = 0
    steps: int = 0

    @property
    def tuples(self) -> int:
        return int(np.prod(self.dims))


@dataclass
class Output:
    """What one operation returned; ``out_bytes`` counts what the CLI wrote."""

    value: object
    out_bytes: int = 0
    exit_code: int = 0


class CheckFailure(Exception):
    """An output failed its check; ``name`` says which check, ``value`` what it measured."""

    def __init__(self, name: str, detail: str, value: float | None = None):
        super().__init__(f"{name}: {detail}")
        self.name = name
        self.value = value

    @property
    def known(self) -> bool:
        """True when this is one of the documented seed defects."""
        return self.value is not None and self.value <= KNOWN_DEFECTS.get(self.name, -1.0)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def random_state(rng, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def graph_dict(kind: str, n: int) -> dict:
    """Plain JSON graph, built here so that the program only receives inputs."""
    if kind == "cycle":
        edges = [[i, (i + 1) % n] for i in range(n)]
    elif kind == "path":
        edges = [[i, i + 1] for i in range(n - 1)]
    elif kind == "star":
        edges = [[0, i] for i in range(1, n)]
    else:
        raise ValueError(f"unknown graph family {kind!r}")
    return {"vertices": n, "edges": edges}


def local_kind(rng, n: int) -> str:
    kinds = ["path"] if n < 3 else ["cycle", "path", "star"]
    return kinds[int(rng.integers(len(kinds)))]


def stratum_target(index: int, lo: float, hi: float, stratum: int | None = None) -> float:
    s = STRATUM_ORDER[index % STRATA] if stratum is None else stratum
    return lo * (hi / lo) ** ((s + 0.5) / STRATA)


def choose_dims(rng, ranges: dict, target: float) -> tuple:
    """Local sizes whose product is closest to ``target``.

    ``ranges`` maps a global vertex count to the (min, max) local size. Ties
    (for instance the orderings of one set of sizes) are broken by ``rng``,
    so the seed decides which register gets which size but not the work.
    """
    shapes = [dims for d1, (lo, hi) in ranges.items()
              for dims in itertools.product(range(lo, hi + 1), repeat=d1)]
    miss = np.array([abs(np.log(np.prod(d) / target)) for d in shapes])
    closest = np.flatnonzero(miss <= miss.min() + 1e-12)
    return shapes[int(rng.choice(closest))]


def scheduled(index: int, lo: int, hi: int) -> int:
    """A count in [lo, hi] that cycles with the scenario index, independently
    of the size stratum, so every run sees the same mix of counts."""
    return lo + (3 * index + index // STRATA) % (hi - lo + 1)


def _states(rng, scn: Scenario) -> None:
    scn.psi_global = random_state(rng, scn.d1)
    scn.psi_locals = [random_state(rng, n) for n in scn.dims]


def _pairs(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.digest()


def _local_graphs(scn: Scenario):
    from hierwalk import graphs
    return [graphs.graph_from_dict(graph_dict(k, n)) for k, n in zip(scn.local_kinds, scn.dims)]


def _global_graph(scn: Scenario):
    from hierwalk import graphs
    if scn.global_kind == "kbar":
        return graphs.kbar_graph(scn.q)
    return graphs.graph_from_dict(graph_dict(scn.global_kind, scn.d1))


def _model_json(scn: Scenario) -> dict:
    model = {"locals": [graph_dict(k, n) for k, n in zip(scn.local_kinds, scn.dims)]}
    if scn.global_kind == "kbar":
        model["q"] = scn.q.tolist()
    else:
        model["global"] = graph_dict(scn.global_kind, scn.d1)
    return model


def _quiet_cli(argv) -> tuple[int, str]:
    """Call ``hierwalk.cli.main`` in-process, capturing what it prints."""
    from hierwalk import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """One workload: how to draw a scenario, run it, count its laws and check it.

    ``work_range`` is the (min, max) of the stratified size measure that
    ``draw`` targets; ``deck`` is the number of distinct scenarios a run
    cycles through, which bounds the number of full checks per run;
    ``tail_pct`` is the percentile ``scenario_tail_s`` reports, the highest
    one with at least 10 of a 22 s run's operations beyond it at the seed
    commit's speed.
    """

    name = ""
    tag = 0
    work_range = (1.0, 1.0)
    tiny_range = (1.0, 1.0)
    deck = 64
    tail_pct = 80.0
    why = ""

    def scenario(self, seed: int, index: int, tiny: bool = False,
                 stratum: int | None = None) -> Scenario:
        rng = np.random.default_rng([seed, self.tag, index])
        lo, hi = self.tiny_range if tiny else self.work_range
        return self.draw(rng, index, stratum_target(index, lo, hi, stratum), tiny)

    def draw(self, rng, index, target, tiny) -> Scenario:
        raise NotImplementedError

    def prepare(self, scn: Scenario, work_dir: Path) -> None:
        """Write the scenario's input files (outside the timed region)."""

    def run(self, scn: Scenario, work_dir: Path) -> Output:
        raise NotImplementedError

    def laws(self, scn: Scenario) -> int:
        raise NotImplementedError

    def check(self, scn: Scenario, out: Output) -> None:
        """Raise CheckFailure when the output is wrong."""
        raise NotImplementedError

    def digest(self, out: Output) -> bytes:
        raise NotImplementedError


class KbarTimegrid(Workload):
    name = "kbar_timegrid"
    tag = 1
    work_range = (8_000.0, 32_000.0)     # tuples x times
    tiny_range = (60.0, 120.0)
    deck = 32
    tail_pct = 80.0
    why = ("CLI simulate on loopy-complete globals: the kbar closed form recomputes every "
           "per-tuple vector at every time point, then the CLI formats the CSV")
    RANGES = {3: (8, 12), 4: (5, 7)}
    TINY_RANGES = {3: (2, 3)}
    TIMES = (16, 32)

    def draw(self, rng, index, target, tiny):
        if tiny:
            ranges = self.TINY_RANGES
        else:
            d1 = 3 + (index // STRATA) % 2
            ranges = {d1: self.RANGES[d1]}
        t_lo, t_hi = (3, 5) if tiny else self.TIMES
        dims = choose_dims(rng, ranges, target / scheduled(index, t_lo, t_hi))
        n_times = int(np.clip(round(target / np.prod(dims)), t_lo, t_hi))
        scn = Scenario(index=index, d1=len(dims), dims=dims, global_kind="kbar",
                       local_kinds=tuple(local_kind(rng, n) for n in dims),
                       q=rng.dirichlet(np.ones(len(dims))))
        scn.times = sorted(float(t) for t in rng.uniform(0.0, 8.0, n_times))
        _states(rng, scn)
        return scn

    def prepare(self, scn, work_dir):
        (work_dir / "scenario.json").write_text(json.dumps({
            "model": _model_json(scn), "mode": "kbar",
            "psi_H": _pairs(scn.psi_global),
            "psi_locals": [_pairs(p) for p in scn.psi_locals],
            "times": scn.times,
        }))

    def run(self, scn, work_dir):
        out_dir = work_dir / "out"
        code, printed = _quiet_cli(["simulate", "--scenario", str(work_dir / "scenario.json"),
                                    "--out-dir", str(out_dir)])
        csv = (out_dir / "distributions.csv").read_bytes() if code == 0 else b""
        report_bytes = (out_dir / "report.json").stat().st_size if code == 0 else 0
        return Output(value=csv, out_bytes=len(csv) + report_bytes + len(printed), exit_code=code)

    def laws(self, scn):
        return len(scn.times)

    def check(self, scn, out):
        from hierwalk import hierarchy, quantum
        if out.exit_code != 0:
            raise CheckFailure("simulate:exit", f"exit code {out.exit_code}")
        text = out.value.decode()
        header, _, body = text.partition("\n")
        expected_header = ",".join(f"k_{j}" for j in range(scn.d1)) + ",t,probability"
        if header != expected_header:
            raise CheckFailure("simulate:csv", f"header {header!r}")
        cols = scn.d1 + 2
        flat = np.fromstring(body.strip().replace("\n", ","), sep=",")
        if flat.size != cols * scn.tuples * len(scn.times):
            raise CheckFailure("simulate:csv", f"{flat.size} values, expected "
                               f"{cols * scn.tuples * len(scn.times)}")
        rows = flat.reshape(len(scn.times), scn.tuples, cols)
        labels = np.array(list(np.ndindex(*scn.dims)), dtype=float)
        if not (np.array_equal(rows[:, :, :scn.d1], np.broadcast_to(labels, rows[:, :, :scn.d1].shape))
                and np.array_equal(rows[:, :, scn.d1], np.repeat(
                    np.array(scn.times)[:, None], scn.tuples, axis=1))):
            raise CheckFailure("simulate:csv", "position or time columns out of order")
        model = hierarchy.hierarchical_model(_global_graph(scn), _local_graphs(scn))
        assembly = quantum.assemble_hamiltonian(
            np.eye(scn.d1) - model.global_walk.laplacian,
            tuple(loc.system for loc in model.locals))
        psi_g = quantum.QuantumState(scn.psi_global)
        psis = [quantum.QuantumState(p) for p in scn.psi_locals]
        worst = 0.0
        for k, t in enumerate(scn.times):
            ref = quantum.joint_distribution(assembly, t, psi_g, psis).probabilities.reshape(-1)
            worst = max(worst, float(np.max(np.abs(rows[k, :, -1] - ref))))
        if not worst <= LAW_TOL:
            raise CheckFailure("simulate:general-agreement", f"max deviation {worst:.3e}")

    def digest(self, out):
        return hashlib.blake2b(out.value, digest_size=16).digest() + bytes([out.exit_code])


class GeneralAssembly(Workload):
    name = "general_assembly"
    tag = 2
    work_range = (1_000.0, 4_000.0)      # tuples
    tiny_range = (8.0, 16.0)
    deck = 64
    tail_pct = 90.0
    why = ("library API on non-loopy globals (no kbar path): assemble_hamiltonian runs one "
           "eigh per tuple, then joint_distribution and evolve at every time point")
    RANGES = {3: (6, 10), 4: (6, 10)}
    TINY_RANGES = {3: (2, 3)}
    TIMES = (4, 8)

    def draw(self, rng, index, target, tiny):
        dims = choose_dims(rng, self.TINY_RANGES if tiny else self.RANGES, target)
        d1 = len(dims)
        kinds = ("path", "cycle") if d1 == 3 else ("path", "cycle", "star")
        scn = Scenario(index=index, d1=d1, dims=dims,
                       global_kind=kinds[int(rng.integers(len(kinds)))],
                       local_kinds=tuple(local_kind(rng, n) for n in dims))
        t_lo, t_hi = (2, 3) if tiny else self.TIMES
        scn.times = sorted(float(t) for t in rng.uniform(0.0, 8.0, scheduled(index, t_lo, t_hi)))
        _states(rng, scn)
        scn.psi_full = random_state(rng, d1 * scn.tuples)
        return scn

    def run(self, scn, work_dir):
        from hierwalk import hierarchy, quantum
        model = hierarchy.hierarchical_model(_global_graph(scn), _local_graphs(scn))
        assembly = quantum.assemble_hamiltonian(
            np.eye(scn.d1) - model.global_walk.laplacian,
            tuple(loc.system for loc in model.locals))
        psi_g = quantum.QuantumState(scn.psi_global)
        psis = [quantum.QuantumState(p) for p in scn.psi_locals]
        psi = quantum.QuantumState(scn.psi_full)
        laws = []
        evolved = []
        for t in scn.times:
            laws.append(quantum.joint_distribution(assembly, t, psi_g, psis).probabilities)
            evolved.append(quantum.evolve(assembly, t, psi).amplitudes)
        return Output(value=(assembly, laws, evolved))

    def laws(self, scn):
        return len(scn.times)

    def check(self, scn, out):
        from hierwalk import quantum
        assembly, laws, evolved = out.value
        for t, law, amp in zip(scn.times, laws, evolved):
            mass = float(np.sum(law))
            if not abs(mass - 1.0) <= MASS_TOL:
                raise CheckFailure("joint:mass", f"t={t}: mass {mass!r}")
            back = quantum.evolve(assembly, -t, quantum.QuantumState(amp)).amplitudes
            worst = float(np.max(np.abs(back - scn.psi_full)))
            if not worst <= ROUNDTRIP_TOL:
                raise CheckFailure("evolve:roundtrip", f"t={t}: max deviation {worst:.3e}")

    def digest(self, out):
        _, laws, evolved = out.value
        return _digest(*laws, *evolved)


class ClassicalWalk(Workload):
    name = "classical_walk"
    tag = 3
    work_range = (512.0, 1_000.0)        # tuples
    tiny_range = (8.0, 12.0)
    deck = 16
    tail_pct = 80.0
    why = ("hierarchy layer only: hctrw_spectral, hdtrw_eigenpairs (one dense length-N vector "
           "per pair, so N^2 memory) and matrix-free propagation; no quantum code runs")
    RANGES = {3: (8, 10)}
    TINY_RANGES = {3: (2, 3)}
    STEPS = (4, 8)

    def draw(self, rng, index, target, tiny):
        dims = choose_dims(rng, self.TINY_RANGES if tiny else self.RANGES, target)
        kbar = (index // STRATA) % 2 == 0
        scn = Scenario(index=index, d1=3, dims=dims, global_kind="kbar" if kbar else "cycle",
                       local_kinds=tuple(local_kind(rng, n) for n in dims),
                       q=rng.dirichlet(np.ones(3)) if kbar else None)
        scn.time_vectors = [rng.uniform(0.2, 2.0, 3) for _ in range(3)]
        scn.start = int(rng.integers(3 * scn.tuples))
        scn.steps = scheduled(index, *self.STEPS)
        return scn

    def run(self, scn, work_dir):
        from hierwalk import hierarchy
        model = hierarchy.hierarchical_model(_global_graph(scn), _local_graphs(scn))
        spectra = [hierarchy.hctrw_spectral(model, tv) for tv in scn.time_vectors]
        pairs = hierarchy.hdtrw_eigenpairs(model)
        x = np.zeros(model.dimension)
        x[scn.start] = 1.0
        y = x
        for _ in range(scn.steps):
            x = hierarchy.apply_hdtrw(model, x)
            y = hierarchy.apply_hctrw(model, scn.time_vectors[0], y)
        return Output(value=(model, spectra, pairs, x, y))

    def laws(self, scn):
        return 2 * scn.steps

    def check(self, scn, out):
        from hierwalk import hierarchy
        model, _, pairs, _, _ = out.value
        worst = 0.0
        for pair in pairs.pairs:
            res = np.max(np.abs(hierarchy.apply_hdtrw(model, pair.vector) - pair.value * pair.vector))
            worst = max(worst, float(res / max(np.max(np.abs(pair.vector)), 1e-300)))
        if not worst <= RESIDUAL_TOL:
            raise CheckFailure("hdtrw:eigen-residual", f"{worst:.3e} > {RESIDUAL_TOL:.0e}", worst)

    def digest(self, out):
        _, spectra, pairs, x, y = out.value
        h = hashlib.blake2b(digest_size=16)
        for spec in spectra:
            for block in spec.blocks:
                h.update(block.values.tobytes())
        probe = np.random.default_rng(0).normal(size=x.size)
        h.update(np.array([p.value for p in pairs.pairs]).tobytes())
        h.update(np.array([np.dot(p.vector, probe) for p in pairs.pairs]).tobytes())
        h.update(x.tobytes())
        h.update(y.tobytes())
        return h.digest()


class OracleVerify(Workload):
    name = "oracle_verify"
    tag = 4
    work_range = (12.0, 32.0)            # tuples
    tiny_range = (4.0, 8.0)
    deck = 48
    tail_pct = 75.0
    why = ("CLI verify --suite all on small models: the only workload that runs the dense "
           "oracle (nested-loop joint law, dense evolve, Taylor matrix_exp)")
    RANGES = {3: (2, 5)}
    TINY_RANGES = {3: (2, 2)}
    LAWS_PER_VERIFY = 30          # 10 random states x 3 times in the distribution suite

    def draw(self, rng, index, target, tiny):
        dims = choose_dims(rng, self.TINY_RANGES if tiny else self.RANGES, target)
        kind = ("kbar", "path", "cycle")[(index // STRATA) % 3]
        return Scenario(index=index, d1=3, dims=dims, global_kind=kind,
                        local_kinds=tuple(local_kind(rng, n) for n in dims),
                        q=rng.dirichlet(np.ones(3)) if kind == "kbar" else None,
                        times=[0.0])

    def prepare(self, scn, work_dir):
        (work_dir / "scenario.json").write_text(json.dumps({
            "model": _model_json(scn),
            "mode": "kbar" if scn.global_kind == "kbar" else "general",
            "times": scn.times,
        }))

    def run(self, scn, work_dir):
        code, printed = _quiet_cli(["verify", "--scenario", str(work_dir / "scenario.json"),
                                    "--suite", "all"])
        return Output(value=printed, out_bytes=len(printed), exit_code=code)

    def laws(self, scn):
        return self.LAWS_PER_VERIFY

    def check(self, scn, out):
        if out.exit_code == 0:
            return
        try:
            failing = {c["name"]: c["max_residual"] for c in json.loads(out.value)["checks"]
                       if not c["passed"]}
        except (ValueError, KeyError, TypeError):
            failing = {}
        detail = f"exit code {out.exit_code}; failing checks {failing}"
        if len(failing) == 1:
            [(name, value)] = failing.items()
            raise CheckFailure(name, detail, value)
        raise CheckFailure("verify:exit", detail)

    def digest(self, out):
        return hashlib.blake2b(out.value.encode(), digest_size=16).digest() + bytes([out.exit_code])


WORKLOADS = {w.name: w for w in (KbarTimegrid(), GeneralAssembly(), ClassicalWalk(), OracleVerify())}
