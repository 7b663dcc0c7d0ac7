"""hierwalk benchmark: closed-loop workloads with one client, checked outputs.

Run from the root of a checkout (hierwalk is imported from its ``src/``):

    python3 perfbench/run.py --workload kbar_timegrid --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 22 --trace 0

One operation is one scenario (model, states, time grid) drawn from the
seed; the loop cycles through a deck of distinct scenarios, one after
another, until the operations have taken ``--seconds`` of wall time and
every deck scenario has run. Times are wall times scaled to a reference host
speed (``speed.py``), and the statistics weigh every deck scenario the same.
Every output is checked outside the timed region. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced pass
over the same scenarios as an untraced pass of half the length. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``attempted`` counts the distinct scenarios of the deck and ``failed`` those
whose operation raised or whose output failed its check on any of their
runs; they are never retried or dropped, and both counts depend on the seed
only. ``correct`` is false when any failure is not one of the documented
seed defects (``workloads.KNOWN_DEFECTS``), or when no scenario passed.

The perfbench modules import numpy, so they are imported only after
hierwalk: its first import (numpy and scipy included) counts toward set-up.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("kbar_timegrid", "general_assembly", "classical_walk", "oracle_verify")
SETUP_REPEATS = 7
WARMUP_SEED = 0
SPAN_CAP = 4_000_000
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class OpRecord:
    index: int
    seconds: float                  # wall time scaled to the reference host speed
    wall_s: float
    laws: int
    tuples: int
    out_bytes: int
    exit_code: int
    failure: str | None = None      # check name, or "raised"
    detail: str = ""
    known: bool = True


class Checker:
    """Checks each output; a repeated scenario whose output is bit-identical
    to one already checked gets that check's result without re-running it."""

    def __init__(self, workload):
        self.workload = workload
        self.results = {}

    def __call__(self, index, scn, out):
        from workloads import CheckFailure
        digest = self.workload.digest(out)
        cached = self.results.get(index)
        if cached is not None and cached[0] == digest:
            return cached[1]
        try:
            self.workload.check(scn, out)
            result = None
        except CheckFailure as failure:
            result = failure.with_traceback(None)   # the traceback would keep the output alive
        except Exception as exc:  # a check that cannot read the output fails it
            result = CheckFailure("check:unreadable-output", repr(exc))
        self.results[index] = (digest, result)
        return result


def reimport_hierwalk() -> float:
    """Drop hierwalk's Python modules and import the package again; returns seconds."""
    for name in [n for n in sys.modules if n == "hierwalk" or n.startswith("hierwalk.")]:
        if str(getattr(sys.modules[name], "__file__", "")).endswith(".py"):
            del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("hierwalk")
    return time.perf_counter() - start


def set_up(workload, tiny, first_import, work_dir, repeats, scale) -> float:
    """Median over ``repeats`` of (import hierwalk + one untimed warm-up scenario),
    each scaled to the reference host speed by the probes around it.

    The first set-up uses the process's first import, numpy and scipy
    included; the others re-import hierwalk's own modules. Each warm-up is a
    distinct scenario of the smallest size stratum, drawn from a fixed seed
    so that every run warms up on the same work.
    """
    samples = []
    for j in range(repeats):
        before = scale.mark()
        seconds = first_import if j == 0 else reimport_hierwalk()
        scn = workload.scenario(WARMUP_SEED, j, tiny, stratum=0)
        workload.prepare(scn, work_dir)
        start = time.perf_counter()
        try:
            workload.run(scn, work_dir)
        except Exception:
            traceback.print_exc()
        seconds += time.perf_counter() - start
        samples.append(seconds * scale.scale(before, scale.mark()))
    return statistics.median(samples)


def run_ops(workload, seed, tiny, work_dir, checker, scale, budget=None, count=None,
            tracer=None):
    """Closed loop: scenario k starts when scenario k-1 has returned.

    Stops once the operations have taken ``budget`` seconds of wall time and
    every deck scenario has run at least once, or after ``count`` operations
    (the replay of an earlier pass), or when the tracer's span store is full.
    The speed probe runs between operations, outside their timed region.
    """
    records = []
    spent = 0.0
    k = 0
    before = scale.mark()
    while (spent < budget or k < workload.deck) if count is None else (k < count):
        index = k % workload.deck
        scn = workload.scenario(seed, index, tiny)
        workload.prepare(scn, work_dir)
        out = None
        start = time.perf_counter()
        try:
            with tracer.operation(k) if tracer is not None else nullcontext():
                out = workload.run(scn, work_dir)
        except Exception as exc:
            failure, detail, known = "raised", f"{type(exc).__name__}: {exc}", False
        wall = time.perf_counter() - start
        after = scale.mark()
        seconds = wall * scale.scale(before, after)
        before = after
        if out is not None:
            result = checker(index, scn, out)
            failure, detail, known = ((None, "", True) if result is None
                                      else (result.name, str(result), result.known))
        records.append(OpRecord(index=index, seconds=seconds, wall_s=wall,
                                laws=workload.laws(scn), tuples=scn.tuples,
                                out_bytes=out.out_bytes if out else 0,
                                exit_code=out.exit_code if out else -1,
                                failure=failure, detail=detail, known=known))
        spent += wall
        k += 1
        if tracer is not None and tracer.full:
            break
    return records


def deck_weights(records):
    """Weight 1/(runs of its scenario) per record, so every deck scenario
    weighs the same however often a run of a given length repeated it."""
    runs = {}
    for r in records:
        runs[r.index] = runs.get(r.index, 0) + 1
    return [1.0 / runs[r.index] for r in records]


def weighted_quantile(values, weights, q):
    """Smallest value whose cumulative weight reaches ``q`` of the total."""
    order = sorted(range(len(values)), key=values.__getitem__)
    total = sum(weights)
    acc = 0.0
    for i in order:
        acc += weights[i]
        if acc >= q * total * (1 - 1e-12):
            return values[i]
    return values[order[-1]]



def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def cache_sizes() -> dict:
    """Total L2 and L3 bytes of this machine, read from sysfs when available."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    ncpu = os.cpu_count() or 1
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except (OSError, ValueError):
            continue
        if level < 2 or not size.endswith("K"):
            continue
        sharing = sum(int(b) - int(a) + 1 if "-" in part else 1
                      for part in shared.split(",") for a, _, b in [part.partition("-")])
        sizes[f"L{level}_bytes"] = int(size[:-1]) * 1024 * max(1, ncpu // max(1, sharing))
    return sizes


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        **cache_sizes(),
    }


def summarize(records):
    """(correct, attempted, failed) counted over distinct scenarios.

    A scenario that failed on any of its runs counts once in ``failed``, so
    both counts depend on the seed only, not on how many times a run of a
    given length repeats the deck.
    """
    failing = {}
    for r in records:
        if r.failure is not None:
            failing.setdefault(r.index, r)
    attempted = len({r.index for r in records})
    correct = (attempted > len(failing)
               and all(r.known for r in failing.values()))
    return correct, attempted, len(failing)


def end_to_end(records, setup_s, tail_pct):
    """Deck-balanced statistics: each deck scenario weighs the same, so a run
    that ends part-way through a pass over the deck does not tilt the mix.

    The tail percentile is fixed per workload: one that moved with the number
    of operations a run completes would move the tail with the host's speed.
    """
    seconds = [r.seconds for r in records]
    weights = deck_weights(records)
    spent = sum(w * t for w, t in zip(weights, seconds))
    tail_value = weighted_quantile(seconds, weights, tail_pct / 100)
    beyond = sum(t > tail_value for t in seconds)
    metrics = {
        "setup_s": setup_s,
        "scenario_p50_s": weighted_quantile(seconds, weights, 0.5),
        "scenario_tail_s": tail_value,
        "scenarios_per_s": sum(weights) / spent,
        "laws_per_s": sum(w * r.laws for w, r in zip(weights, records)) / spent,
        "peak_rss_mb": peak_rss_mb(),
    }
    walls = [r.wall_s for r in records]
    wall_spent = sum(w * t for w, t in zip(weights, walls))
    notes = {"scenario_tail_s": f"p{tail_pct:g} of {len(seconds)} samples, {beyond} beyond",
             "wall": f"unscaled scenario p50 {weighted_quantile(walls, weights, 0.5):.6g} s, "
                     f"{sum(weights) / wall_spent:.6g} scenarios/s of wall time"}
    return metrics, notes


def per_layer(workload, seed, tiny, work_dir, checker, scale, seconds, trace_path):
    """Untraced pass for half the time (and over the whole deck), then the
    same scenarios traced.

    Span times are wall times; ``trace.overhead_frac`` compares scaled times.
    """
    from spans import Tracer

    plain = run_ops(workload, seed, tiny, work_dir, checker, scale, budget=seconds / 2)
    tracer = Tracer(SPAN_CAP)
    tracer.install()
    try:
        traced = run_ops(workload, seed, tiny, work_dir, checker, scale, count=len(plain),
                         tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.save(trace_path)
    n = len(traced)
    metrics, seen = tracer.derive(n)
    base = sum(r.seconds for r in plain[:n])
    metrics["trace.overhead_frac"] = (sum(r.seconds for r in traced) - base) / base
    tuples = sum(r.tuples for r in traced)
    metrics["quantum.kbar_tuple_vector.calls_per_tuple"] = (
        metrics["quantum.kbar_tuple_vector.calls"] * n / tuples)
    metrics["cli.out_bytes"] = sum(r.out_bytes for r in traced) / n
    metrics["cli.nonzero_exits"] = sum(r.exit_code != 0 for r in traced) / n
    block = eigenpair = 0
    for k, rec in enumerate(traced):
        scn = workload.scenario(seed, rec.index, tiny)
        names = seen.get(k, set())
        if "quantum.assemble_hamiltonian" in names:       # block_values + block_vectors
            block += scn.tuples * scn.d1 * (8 + 16 * scn.d1)
        if "quantum.kbar_joint_distribution" in names:    # per-tuple overlap + rate
            block += scn.tuples * (16 + 8)
        if "hierarchy.hdtrw_eigenpairs" in names:         # N pairs of length-N complex vectors
            eigenpair += (scn.d1 * scn.tuples) ** 2 * 16
    metrics["quantum.block_bytes"] = block / n
    metrics["hierarchy.eigenpair_bytes"] = eigenpair / n
    notes = {"trace": f"{n} traced scenarios, {len(tracer)} spans, written to "
                      f"{trace_path.relative_to(ROOT)}"}
    return plain + traced, metrics, notes


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import hierwalk
    first_import = time.perf_counter() - start
    if Path(hierwalk.__file__).resolve().parent != (SRC / "hierwalk").resolve():
        print(f"error: imported hierwalk from {hierwalk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from speed import REFERENCE_S, SpeedScale
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    work_dir = WORK_ROOT / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    checker = Checker(workload)
    scale = SpeedScale()
    repeats = SETUP_REPEATS if args.trace == 0 else 1
    setup_s = set_up(workload, args.tiny, first_import, work_dir, repeats, scale)

    if args.trace == 0:
        records = run_ops(workload, args.seed, args.tiny, work_dir, checker, scale,
                          budget=args.seconds)
        metrics, notes = end_to_end(records, setup_s, workload.tail_pct)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        trace_path = WORK_ROOT / f"trace_{args.workload}_seed{args.seed}.npz"
        records, metrics, notes = per_layer(workload, args.seed, args.tiny, work_dir, checker,
                                            scale, args.seconds, trace_path)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    correct, attempted, failed = summarize(records)
    notes["speed"] = (f"probe median {statistics.median(scale.samples) * 1e3:.4g} ms over "
                      f"{len(scale.samples)} probes (reference {REFERENCE_S * 1e3:.4g} ms)")

    failures = {}
    for r in records:
        if r.failure is not None:
            key = r.failure + ("" if r.known else " (not a known defect)")
            failures.setdefault(key, set()).add(r.index)
            if not r.known:
                print(f"scenario {r.index} failed: {r.detail}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(records)} operations on {attempted} distinct scenarios, "
          f"{sum(r.wall_s for r in records):.2f} s of operation time")
    breakdown = "".join(f", {k}: {len(v)}" for k, v in sorted(failures.items()))
    print(f"  {'failed_frac':<44} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted}{breakdown})")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<44} {metrics[name]:.6g} {unit}{note}")
    for key, note in notes.items():
        if key not in units:
            print(f"  {key}: {note}")
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(child.stdout, end="")
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny scenario sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hierwalk" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a hierwalk checkout (needs src/hierwalk and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
