"""Tracing for the per-layer run: spans around the public functions of
fracwave's layers, installed from outside the package and removed afterwards.

A span records calls, total time and self time (total minus the time of the
spans it encloses).  A call that re-enters a span of the same name, such as
the eps-scaled potential delegating to its inner well, is counted once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("operators", "potentials", "stepper", "diagnostics", "cli")
_KEPT = ("stepper.minimize_step",)    # spans whose durations and results are kept


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.results = defaultdict(list)
        self._stack = []                # [name, child time] of open spans
        self._undo = []

    def _span(self, name, fn):
        stack, keep = self._stack, name in _KEPT

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            stack.append([name, 0.0])
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()[1]
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
            if keep:
                self.durations[name].append(dt)
                self.results[name].append(out)
            return out
        return span

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the layers wherever a fracwave
        module binds it, plus `OperatorSet.solve_mass` and the potentials'
        `value` / `gradient`."""
        modules = [m for key, m in sys.modules.items()
                   if key == "fracwave" or key.startswith("fracwave.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"fracwave.{layer}")
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self._span(f"{layer}.{attr}", fn)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapped)
        operators = importlib.import_module("fracwave.operators")
        self._patch(operators.OperatorSet, "solve_mass",
                    self._span("operators.solve_mass",
                               operators.OperatorSet.solve_mass))
        potentials = importlib.import_module("fracwave.potentials")
        for cls in vars(potentials).values():
            if inspect.isclass(cls) and issubclass(cls, potentials.Potential):
                for meth in ("value", "gradient"):
                    if meth in vars(cls):
                        self._patch(cls, meth,
                                    self._span(f"potentials.{meth}", vars(cls)[meth]))
        return self

    def remove(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()


def layer_metrics(tr: Tracer, iters) -> dict:
    """Per-layer figures of one traced pipeline run; `iters` holds the
    trajectory's inner iterations per step."""
    steps = tr.results["stepper.minimize_step"]
    step_ms = 1e3 * np.asarray(tr.durations["stepper.minimize_step"])
    accepted = sum(len(r.j_path) - 1 for r in steps)
    build = tr.total["cli.build_problem"]
    solve = tr.total["stepper.run"]
    tracking = tr.total["diagnostics.track_interface"]
    return {
        "operators.decompose_s": tr.total["operators.spectral_decompose"],
        "operators.build_self_s": (tr.total["operators.build_operators"]
                                   - tr.total["operators.spectral_decompose"]),
        "operators.solve_mass_calls": tr.calls["operators.solve_mass"],
        "operators.solve_mass_s": tr.total["operators.solve_mass"],
        "potentials.calls": tr.calls["potentials.value"] + tr.calls["potentials.gradient"],
        "potentials.s": tr.total["potentials.value"] + tr.total["potentials.gradient"],
        "stepper.inner_iters": int(iters.sum()),
        "stepper.iters_mean": float(iters.mean()),
        "stepper.iters_max": int(iters.max()),
        "stepper.accept_ratio": accepted / max(int(iters.sum()), 1),
        "stepper.step_s": tr.total["stepper.minimize_step"],
        "stepper.step_p50_ms": float(np.percentile(step_ms, 50)),
        "stepper.step_p98_ms": float(np.percentile(step_ms, 98)),
        "stepper.self_s": tr.self_time["stepper.minimize_step"],
        "stepper.energies_s": tr.total["stepper.energy"],
        "diagnostics.track_interface_s": tracking,
        "cli.parse_s": tr.total["cli.parse_config"],
        "cli.build_problem_s": build,
        "cli.output_s": tr.total["cli.cmd_run"] - build - solve - tracking,
    }


def per_call_us(fn, *args, block_s=0.005, blocks=21) -> float:
    """Median time of one call, from blocks of back-to-back calls."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn(*args)
        if perf_counter() - t0 >= block_s:
            break
        n *= 2
    times = []
    for _ in range(blocks):
        t0 = perf_counter()
        for _ in range(n):
            fn(*args)
        times.append((perf_counter() - t0) / n)
    return 1e6 * statistics.median(times)


def held_mb(ops) -> float:
    """Bytes of the arrays an OperatorSet holds, computed from their sizes
    (not measured)."""
    arrays = [v for v in vars(ops).values() if isinstance(v, np.ndarray)]
    arrays += [ops.mass_chol[0], ops.mesh.nodes]
    return sum(a.nbytes for a in arrays) / 2**20
