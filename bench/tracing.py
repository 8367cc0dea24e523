"""Span tracing of lurestab's public functions, from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
lurestab module that holds it (the defining module and every module that
imported it by name), so calls made inside the package are traced too.
Each call records a span (group, start, end, parent span) in flat arrays;
``Nonlinearity.__call__`` is only counted, because a simulation makes
millions of those calls.  Spans stay in memory and are written out once,
when the run ends.

Every ``_s`` metric is self time: a span's duration minus the time of the
traced spans nested directly inside it.  Summed over all groups, self
times never exceed the wall time of the traced operations.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (span group, functions as (module, attribute), time metric, call-count metric)
LAYERS = [
    ("cli.main", [("lurestab.cli", "main")], "cli.main_self_s", "cli.main_calls"),
    ("problems.load_problem", [("lurestab.problems", "load_problem")],
     "problems.load_problem_s", "problems.load_problem_calls"),
    ("radius.certify", [("lurestab.radius", "certify_positive_lure")],
     "radius.certify_s", "radius.certify_calls"),
    ("radius.formula", [("lurestab.radius", name) for name in (
        "stability_radius_linear", "stability_radius_schur",
        "stability_radius_lure", "nn_stability_radius")],
     "radius.formula_self_s", "radius.formula_calls"),
    ("radius.refine_upper_sector", [("lurestab.radius", "refine_upper_sector")],
     "radius.refine_upper_sector_s", None),
    ("linalg.eigvals", [("lurestab.linalg", "spectral_abscissa")],
     "linalg.eigvals_s", "linalg.eigvals_calls"),
    ("linalg.inverse", [("lurestab.linalg", "inverse")], "linalg.inverse_s", "linalg.inverse_calls"),
    ("linalg.certificate", [("lurestab.linalg", "metzler_hurwitz_certificate")],
     "linalg.certificate_s", None),
    ("ffnn.eval", [("lurestab.ffnn", "ffnn_eval")], "ffnn.eval_s", "ffnn.eval_calls"),
    ("ffnn.sector_bound", [("lurestab.ffnn", "sector_bound_ffnn")], "ffnn.sector_bound_s", None),
    ("ffnn.empirical_check", [("lurestab.ffnn", "empirical_sector_check")],
     "ffnn.empirical_check_s", "ffnn.empirical_check_calls"),
    ("sim.simulate", [("lurestab.sim", "simulate_lure")], "sim.simulate_s", "sim.simulate_calls"),
    ("sim.classify", [("lurestab.sim", "classify_stability")], "sim.classify_s", None),
    ("sim.search", [("lurestab.sim", "find_critical_delta")], "sim.search_s", None),
    ("sim.sweep", [("lurestab.sim", "sweep")], "sim.sweep_s", None),
    ("sim.write_csv", [("lurestab.sim", "write_sweep_csv")], "sim.write_csv_s", None),
]
COUNTERS = ["ffnn.eval_columns", "sim.rk4_steps", "sim.phi_calls", "sim.search_probes"]
GROUPS = [layer[0] for layer in LAYERS]


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.group = array("i")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._probes: set | None = None
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "ffnn.eval": (self._count_columns, None),
            "sim.simulate": (self._note_probe, self._count_steps),
            "sim.search": (self._open_search, self._close_search),
        }
        for gid, (group, targets, _, _) in enumerate(LAYERS):
            before, after = hooks.get(group, (None, None))
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                self._replace(original, self._span(gid, original, before, after))
        nonlinearity = sys.modules["lurestab.sim"].Nonlinearity
        call = nonlinearity.__call__
        counts = self.counts

        @functools.wraps(call)
        def counted(phi, y):
            counts["sim.phi_calls"] += 1
            return call(phi, y)

        self._patches.append((nonlinearity, "__call__", call))
        nonlinearity.__call__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "lurestab" or name.startswith("lurestab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _span(self, gid: int, fn, before, after):
        start, end, group, parent, stack = self.start, self.end, self.group, self.parent, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            group.append(gid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters ----------------------------------------------------------

    def _count_columns(self, args, kwargs) -> None:
        z = np.asarray(args[1] if len(args) > 1 else kwargs["z"])
        self.counts["ffnn.eval_columns"] += 1 if z.ndim == 1 else z.shape[1]

    def _count_steps(self, traj) -> None:
        self.counts["sim.rk4_steps"] += len(traj.times) - 1

    def _note_probe(self, args, kwargs) -> None:
        if self._probes is not None:
            delta = args[3] if len(args) > 3 else kwargs["delta"]
            self._probes.add(np.asarray(delta, dtype=float).tobytes())

    def _open_search(self, args, kwargs) -> None:
        self._probes = set()

    def _close_search(self, result) -> None:
        self.counts["sim.search_probes"] += len(self._probes)
        self._probes = None

    # -- analysis ----------------------------------------------------------

    def mark(self) -> tuple:
        """Position to pass to ``layer_metrics`` later: spans so far and counter values."""
        return len(self.start), dict(self.counts)

    def layer_metrics(self, first: tuple, last: tuple) -> dict:
        """Per-layer self times, call counts and counters between two marks."""
        lo, hi = first[0], last[0]
        start = np.frombuffer(self.start[lo:hi], dtype=np.float64)
        end = np.frombuffer(self.end[lo:hi], dtype=np.float64)
        group = np.frombuffer(self.group[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = np.bincount(group, weights=dur - child, minlength=len(GROUPS))
        calls = np.bincount(group, minlength=len(GROUPS))
        metrics = {}
        for gid, (_, _, time_name, calls_name) in enumerate(LAYERS):
            metrics[time_name] = float(self_time[gid])
            if calls_name is not None:
                metrics[calls_name] = int(calls[gid])
        for name in COUNTERS:
            metrics[name] = last[1][name] - first[1][name]
        return metrics

    def write(self, path) -> None:
        np.savez(
            path,
            groups=np.array(GROUPS),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            group=np.frombuffer(self.group, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
