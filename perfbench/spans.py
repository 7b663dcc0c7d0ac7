"""Spans around calls into hierwalk's public functions, and the per-layer metrics.

``Tracer.install`` replaces every public function of the six layer modules
at every name a hierwalk module binds it to (``hierwalk.cli.kbar_joint_distribution``,
``hierwalk.quantum.eigh``, ``hierwalk.spectral.canonical_phases``, ...), so
calls between layers are seen where the caller looks the name up. A span
records its parent, the operation it belongs to, its name, its start and
end, and whether it ended by an exception. Spans stay in memory in flat
arrays and are written out once, after the traced pass; self time, busy
time and counts are all derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("graphs", "spectral", "hierarchy", "quantum", "oracle", "cli")
ROOT = "bench.scenario"
BUSY_GROUPS = {
    "hierarchy.hierarchical_model.busy_s": ("hierarchy.hierarchical_model",),
    "hierarchy.hctrw_spectral.busy_s": ("hierarchy.hctrw_spectral",),
    "hierarchy.hdtrw_eigenpairs.busy_s": ("hierarchy.hdtrw_eigenpairs",),
    "hierarchy.apply.busy_s": ("hierarchy.apply_hdtrw", "hierarchy.apply_hctrw"),
    "hierarchy.dense.busy_s": ("hierarchy.build_hdtrw", "hierarchy.build_hctrw",
                               "hierarchy.reconstruct_hctrw"),
    "quantum.assemble_hamiltonian.busy_s": ("quantum.assemble_hamiltonian",),
    "quantum.joint_distribution.busy_s": ("quantum.joint_distribution",),
    "quantum.evolve.busy_s": ("quantum.evolve",),
    "quantum.kbar_joint_distribution.busy_s": ("quantum.kbar_joint_distribution",),
    "oracle.dense_joint_distribution.busy_s": ("oracle.dense_joint_distribution",),
    "oracle.dense_evolve.busy_s": ("oracle.dense_evolve",),
    "oracle.matrix_exp.busy_s": ("oracle.matrix_exp",),
    "oracle.dense_hdtrw.busy_s": ("oracle.dense_hdtrw",),
}
COUNTS = {
    "graphs.calls": lambda name: name.startswith("graphs."),
    "spectral.eigh.calls": lambda name: name == "spectral.eigh",
    "quantum.kbar_tuple_vector.calls": lambda name: name == "quantum.kbar_tuple_vector",
}
SELF_TIMES = {
    "graphs.self_s": lambda name: name.startswith("graphs."),
    "spectral.eigh.self_s": lambda name: name == "spectral.eigh",
    "spectral.canonical_phases.self_s": lambda name: name == "spectral.canonical_phases",
    "hierarchy.self_s": lambda name: name.startswith("hierarchy."),
    "quantum.self_s": lambda name: name.startswith("quantum."),
    "oracle.self_s": lambda name: name.startswith("oracle."),
    "cli.self_s": lambda name: name.startswith("cli."),
}


def public_functions(module):
    """Functions defined in ``module`` whose names do not start with '_'."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    """Records spans while enabled; ``cap`` bounds the spans kept in memory."""

    def __init__(self, cap: int):
        self.cap = cap
        self.names = [ROOT]
        self.parent = array("q")
        self.name = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error = array("b")
        self._stack = []
        self._op = -1
        self._enabled = False
        self._patched = []

    def __len__(self):
        return len(self.start)

    @property
    def full(self) -> bool:
        return len(self) >= self.cap

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.op.append(self._op)
        self.error.append(0)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name_id: int):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.error[sid] = 1
                raise
            finally:
                tracer._close(sid)
        return traced

    def install(self) -> None:
        """Wrap every public layer function at every hierwalk name bound to it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hierwalk.{layer}")
            for fname, fn in public_functions(module).items():
                self.names.append(f"{layer}.{fname}")
                wrappers[id(fn)] = self._wrap(fn, len(self.names) - 1)
        for mname, module in list(sys.modules.items()):
            if mname != "hierwalk" and not mname.startswith("hierwalk."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    @contextmanager
    def operation(self, index: int):
        """Root span of one operation; spans are recorded only inside it."""
        self._op = index
        self._enabled = True
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)
            self._enabled = False

    def arrays(self) -> dict:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def derive(self, n_ops: int) -> tuple[dict, dict]:
        """Per-layer metrics per operation, and the set of span names seen per op.

        Self time is a span's duration minus the durations of its direct
        children. Busy time of a group sums the spans of the group that
        have no ancestor in the group. Errors count spans of a layer that
        ended by an exception and whose parent lies in another layer, i.e.
        exceptions that left the layer.
        """
        a = self.arrays()
        parent, name_ids = a["parent"], a["name"]
        dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        names = np.array(self.names)
        span_names = names[name_ids]
        layer_of = np.array([n.split(".")[0] for n in self.names])
        span_layer = layer_of[name_ids]

        ancestors = []
        up = parent.copy()
        while np.any(up >= 0):
            ancestors.append(up)
            up = np.where(up >= 0, parent[np.maximum(up, 0)], -1)

        def mask(pred):
            return np.array([pred(n) for n in self.names])[name_ids]

        metrics = {}
        for key, pred in COUNTS.items():
            metrics[key] = float(np.count_nonzero(mask(pred))) / n_ops
        for key, pred in SELF_TIMES.items():
            metrics[key] = float(self_time[mask(pred)].sum()) / n_ops
        for key, group in BUSY_GROUPS.items():
            in_group = np.isin(span_names, group)
            nested = np.zeros(len(dur), dtype=bool)
            for anc in ancestors:
                nested |= (anc >= 0) & in_group[np.maximum(anc, 0)]
            metrics[key] = float(dur[in_group & ~nested].sum()) / n_ops
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], "")
        escaped = (a["error"] == 1) & (parent_layer != span_layer)
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = float(np.count_nonzero(escaped & (span_layer == layer))) / n_ops
        seen = {}
        for op_index, name in zip(a["op"].tolist(), span_names.tolist()):
            seen.setdefault(op_index, set()).add(name)
        return metrics, seen
