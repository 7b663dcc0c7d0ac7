"""Self-test of the benchmark at a tiny scale; exits 0 when every check holds.

    python3 perfbench/selftest.py

1. Every workload runs with ``--tiny``, traced and untraced, and prints
   exactly the metric names and units of BENCHMARK.json.
2. A deliberately corrupted output of each workload is counted in
   ``failed`` and turns ``correct`` false; counting the same scenarios
   twice leaves ``attempted`` and ``failed`` unchanged.
3. The two documented seed defects are counted in ``failed`` (and keep
   ``correct`` true): the eigen-residual of hdtrw_eigenpairs on a kbar
   model, and the oracle disagreement on a path-global P5/C3/C5 model.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import run  # noqa: E402
from speed import SpeedScale  # noqa: E402
from workloads import WORKLOADS, Output, Scenario  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def check_printed_metrics(spec):
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES),
           "BENCHMARK.json, workloads.py and run.py name the same workloads")
    for name in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            what = f"{name} --trace {trace}"
            expect(child.returncode == 0, f"{what} exits 0")
            if child.returncode != 0:
                continue
            result = json.loads(child.stdout.strip().splitlines()[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{what} prints exactly correct/attempted/failed/metrics")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == expected, f"{what} prints the {section} names and units")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(math.isfinite(v) for v in values), f"{what} values are finite")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{what} end-to-end values are nonzero")
            expect(result["attempted"] >= 1 and result["correct"], f"{what} is correct")


def corrupt(name, out: Output) -> Output:
    """A wrong output of the same shape as ``out``."""
    if name == "kbar_timegrid":
        head, sep, last = out.value.rstrip(b"\n").rpartition(b",")
        return dataclasses.replace(out, value=head + sep + repr(float(last) + 1e-6).encode() + b"\n")
    if name == "general_assembly":
        assembly, laws, evolved = out.value
        return dataclasses.replace(out, value=(assembly, [laws[0] * 1.001] + laws[1:], evolved))
    if name == "classical_walk":
        model, spectra, pairs, x, y = out.value
        first = dataclasses.replace(pairs.pairs[-1], value=pairs.pairs[-1].value + 1e-3)
        pairs = dataclasses.replace(pairs, pairs=pairs.pairs[:-1] + (first,))
        return dataclasses.replace(out, value=(model, spectra, pairs, x, y))
    report = json.loads(out.value)
    report["checks"][0]["passed"] = False
    return dataclasses.replace(out, value=json.dumps(report), exit_code=3)


class Corrupting:
    """Delegates to a workload, corrupting the output of one scenario."""

    def __init__(self, workload, bad_index):
        self.workload = workload
        self.bad_index = bad_index

    def __getattr__(self, attr):
        return getattr(self.workload, attr)

    def run(self, scn, work_dir):
        out = self.workload.run(scn, work_dir)
        return corrupt(self.workload.name, out) if scn.index == self.bad_index else out


def check_corrupted_outputs(work_dir):
    for name, workload in WORKLOADS.items():
        wrapped = Corrupting(workload, bad_index=1)
        records = run.run_ops(wrapped, 7, True, work_dir, run.Checker(wrapped), SpeedScale(),
                              count=3)
        correct, attempted, failed = run.summarize(records)
        expect(attempted == 3 and failed == 1 and records[1].failure is not None,
               f"{name}: corrupted output counted in failed ({failed} of {attempted}: "
               f"{records[1].failure})")
        expect(not correct, f"{name}: corrupted output makes the run incorrect")
        expect(run.summarize(records + records) == (correct, attempted, failed),
               f"{name}: a repeated pass over the same scenarios leaves the counts unchanged")


def check_known_defects(work_dir):
    classical = WORKLOADS["classical_walk"]
    scn = Scenario(index=0, d1=3, dims=(5, 5, 3), global_kind="kbar",
                   local_kinds=("path", "star", "cycle"), q=np.array([0.12, 0.36, 0.52]),
                   time_vectors=[np.array([0.5, 1.0, 1.5])] * 3, start=0, steps=2)
    oracle = WORKLOADS["oracle_verify"]
    path_global = Scenario(index=0, d1=3, dims=(5, 3, 5), global_kind="path",
                           local_kinds=("path", "cycle", "cycle"), times=[0.0])
    for workload, scenario, defect in ((classical, scn, "hdtrw:eigen-residual"),
                                       (oracle, path_global, "joint:oracle-agreement")):
        workload.prepare(scenario, work_dir)
        out = workload.run(scenario, work_dir)
        result = run.Checker(workload)(0, scenario, out)
        expect(result is not None and result.name == defect,
               f"{workload.name}: seed defect {defect} is reported ({result})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = run.WORK_ROOT / "selftest"
    work_dir.mkdir(parents=True, exist_ok=True)
    check_printed_metrics(spec)
    check_corrupted_outputs(work_dir)
    check_known_defects(work_dir)
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
