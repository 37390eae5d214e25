"""fracwave benchmark: one workload through the public CLI path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs `cli.parse_config`, then `cli.cmd_run`, which builds the
problem (`cli.build_problem`), runs the time loop (`stepper.run`) and writes
the CSV outputs.  Repetitions continue until S seconds have passed, and every
one is checked for correct output.  The last line of standard output is one
JSON object with the medians.

--trace 0 times only those top-level boundaries and reports the end-to-end
metrics.  --trace 1 alternates untraced repetitions with repetitions traced
through the public functions of every layer (see tracing.py) and reports the
per-layer metrics, including the tracing overhead.

BLAS runs on one thread: the thread count changes both the timing and the
trajectory (iteration counts differ between one and two threads).
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

import argparse
import contextlib
import ctypes
import gc
import json
import resource
import shutil
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np
import scipy

try:
    import fracwave
    from fracwave import cli
except ImportError as exc:
    sys.exit(f"cannot import fracwave from {ROOT / 'src'}: {exc}")

from tracing import Tracer, held_mb, layer_metrics, per_call_us
from workloads import (WORKLOADS, check_outputs, check_reference, make_config,
                       reference_error)

WORK_DIR = ROOT / ".perfbench_work"


def blas_libraries() -> list:
    """Version string and thread count of each OpenBLAS the process loaded."""
    libs = []
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config and get_threads:
                get_config.argtypes = get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                entry["config"] = get_config().decode()
                entry["threads"] = int(get_threads())
                break
        libs.append(entry)
    return libs


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "fracwave": fracwave.__version__, "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "threads_env": {v: os.environ[v] for v in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "blas": blas_libraries()}


class Boundaries:
    """Times `build_problem` and `run` as `cmd_run` calls them, and keeps
    what they return.  Nothing below these boundaries is wrapped."""

    def __init__(self):
        self.times, self.values = {}, {}

    def _timed(self, key, fn):
        def call(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.times[key] = perf_counter() - t0
            self.values[key] = out
            return out
        return call

    def __enter__(self):
        self._saved = cli.build_problem, cli.run
        cli.build_problem = self._timed("build", cli.build_problem)
        cli.run = self._timed("run", cli.run)
        return self

    def __exit__(self, *exc):
        cli.build_problem, cli.run = self._saved


def pipeline(cfg_path: Path, out_dir: Path, tracer=None) -> tuple:
    """One timed pass through the CLI path: (times, scheme, trajectory,
    written files).  A tracer, if given, is installed for this pass only."""
    gc.collect()
    with tracer or contextlib.nullcontext():
        t0 = perf_counter()
        cfg = cli.parse_config(cfg_path)
        t_parse = perf_counter() - t0
        with Boundaries() as b:
            written = cli.cmd_run(cfg, out_dir)
        wall = perf_counter() - t0
    times = {"wall": wall, "setup": t_parse + b.times["build"], "solve": b.times["run"]}
    return times, b.values["build"], b.values["run"], written


def cycles(seconds: float):
    """Yields until `seconds` have passed, ending within half a cycle of it."""
    start = perf_counter()
    while True:
        t0 = perf_counter()
        yield
        now = perf_counter()
        if now - start + 0.5 * (now - t0) >= seconds:
            return


class Runner:
    """Checked repetitions of one workload.  Only their figures are kept, so
    memory does not grow with the number of repetitions."""

    def __init__(self, name: str, seed: int, tiny: bool, work: Path):
        self.name = name
        self.config = make_config(name, seed, tiny)
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.config))
        self.out_dir = work / "out"
        self.attempted = 0
        self.failures = []
        self.reps = []
        self.ops = None                 # operators of the latest repetition
        self.ref_err = None
        self.ref_s = 0.0
        self.ref_problem = None

    def warm_up(self):
        """One untimed parse + build, so that imports and first-call costs
        stay out of the first repetition."""
        cli.build_problem(cli.parse_config(self.cfg_path))

    def rep(self, tracer=None):
        """One checked pipeline run; its figures, or None if it raised.
        The checks run untraced."""
        self.attempted += 1
        try:
            rep, scheme, traj, written = pipeline(self.cfg_path, self.out_dir, tracer)
            # read before the checks and the reference run allocate
            rep["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rep["problems"] = check_outputs(self.name, rep, traj, written)
            rep["iterations"] = traj.iterations
            rep["inner_iters"] = int(traj.iterations.sum())
            rep["bytes"] = sum(p.stat().st_size for p in written.values())
            if self.ref_err is None and not rep["problems"]:
                self.reference(rep, traj)
        except Exception:
            self.failures.append(traceback.format_exc(limit=3))
            return None
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        self.ops = scheme.ops
        if self.reps and rep["inner_iters"] != self.reps[0]["inner_iters"]:
            rep["problems"].append(f"inner iterations {rep['inner_iters']} differ "
                                   f"from {self.reps[0]['inner_iters']} in an earlier run")
        if rep["problems"]:
            self.failures.append("; ".join(rep["problems"]))
        self.reps.append(rep)
        return rep

    def reference(self, rep: dict, traj):
        """ref_err of the workload, checked.  Computed once and untimed:
        every repetition of a seed produces the same trajectory."""
        t0 = perf_counter()
        if self.name == "gl_interface":
            self.ref_err = rep["ref_err"]
        else:
            self.ref_err = reference_error(self.name, traj, rep.get("obstacle"))
        self.ref_s = perf_counter() - t0
        problems = check_reference(self.name, self.ref_err, traj.tau)
        if problems:
            self.ref_problem = problems[0]
            self.failures.append(self.ref_problem)

    def result(self, metrics: dict) -> dict:
        passed = 0 if self.ref_problem else sum(not r["problems"] for r in self.reps)
        failed = self.attempted - passed
        info = {"workload": self.name, "config": self.config,
                "attempted": self.attempted, "failed": failed,
                "fail_rate": failed / max(self.attempted, 1),
                "inner_iters": sorted({r["inner_iters"] for r in self.reps}),
                **{f"{key}s": [round(r[key], 4) for r in self.reps]
                   for key in ("wall", "setup", "solve")},
                "failures": self.failures[:3]}
        print(json.dumps({"info": info}))
        ok = failed == 0 and self.attempted > 0 and len(metrics) > 0
        return {"correct": ok, "attempted": self.attempted, "failed": failed,
                "metrics": metrics}


def median(reps, key) -> float:
    return statistics.median(r[key] for r in reps)


def untraced(runner: Runner, seconds: float) -> dict:
    runner.warm_up()
    for _ in cycles(seconds):
        runner.rep()
    reps = runner.reps
    if not reps or runner.ref_err is None:
        return runner.result({})
    m = {"wall_s": (median(reps, "wall"), "s"),
         "setup_s": (median(reps, "setup"), "s"),
         "solve_s": (median(reps, "solve"), "s"),
         "peak_rss_mb": (reps[0]["rss_mb"], "MB"),
         "ref_err": (runner.ref_err, "1")}
    return runner.result({k: {"value": v, "unit": u} for k, (v, u) in m.items()})


PER_LAYER_UNITS = {
    "operators.decompose_s": "s", "operators.build_self_s": "s",
    "operators.solve_mass_calls": "count", "operators.solve_mass_s": "s",
    "operators.solve_mass_us": "us", "operators.apply_us": "us",
    "operators.held_mb": "MB-computed",
    "potentials.calls": "count", "potentials.s": "s",
    "stepper.inner_iters": "count", "stepper.iters_mean": "count",
    "stepper.iters_max": "count", "stepper.accept_ratio": "1",
    "stepper.step_s": "s", "stepper.step_p50_ms": "ms", "stepper.step_p98_ms": "ms",
    "stepper.self_s": "s", "stepper.energies_s": "s",
    "stepper.contact_steps": "count", "stepper.contact_max": "count",
    "stepper.vi_margin": "1",
    "diagnostics.track_interface_s": "s", "diagnostics.oracle_s": "s",
    "cli.parse_s": "s", "cli.build_problem_s": "s", "cli.output_s": "s",
    "cli.bytes_written": "B", "trace.overhead_s": "s",
}


def traced(runner: Runner, seconds: float) -> dict:
    runner.warm_up()
    layered = []
    for i, _ in enumerate(cycles(seconds)):
        # alternate which of the pair runs first, so that a drift in machine
        # speed does not enter the overhead with one sign
        if i % 2:
            plain = runner.rep()
        tr = Tracer()
        rep = runner.rep(tr)
        if not i % 2:
            plain = runner.rep()
        if plain is not None and rep is not None:
            layered.append(dict(layer_metrics(tr, rep["iterations"]),
                                overhead=rep["wall"] - plain["wall"],
                                bytes=rep["bytes"], obstacle=rep.get("obstacle", {})))
    if not layered or runner.ref_err is None:
        return runner.result({})
    ops = runner.ops
    u = np.random.default_rng(0).standard_normal(ops.n_free)
    obstacle = layered[-1]["obstacle"]
    m = {key: statistics.median(r[key] for r in layered)
         for key in layered[0] if key in PER_LAYER_UNITS}
    m.update({
        "operators.solve_mass_us": per_call_us(ops.solve_mass, u),
        "operators.apply_us": per_call_us(fracwave.fractional_apply, ops, u),
        "operators.held_mb": held_mb(ops),
        "stepper.contact_steps": obstacle.get("contact_steps", 0),
        "stepper.contact_max": obstacle.get("contact_max", 0),
        "stepper.vi_margin": obstacle.get("vi_margin", 0.0),
        "diagnostics.oracle_s": 0.0 if runner.name == "gl_interface" else runner.ref_s,
        "cli.bytes_written": statistics.median(r["bytes"] for r in layered),
        "trace.overhead_s": statistics.median(r["overhead"] for r in layered),
    })
    return runner.result({k: {"value": m[k], "unit": u} for k, u in PER_LAYER_UNITS.items()})


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="input seed; 0 gives the configs unperturbed")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink the meshes and step counts (smoke test)")
    args = p.parse_args(argv)

    env = environment()
    print(json.dumps({"env": env}))
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        runner = Runner(args.workload, args.seed, args.tiny, work)
        result = (traced if args.trace else untraced)(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    if any(lib.get("threads", 1) != 1 for lib in env["blas"]):
        print("BLAS is not pinned to one thread", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
