"""Write a BENCH_*.json file: the benchmark's end-to-end medians of a parent
checkout against this one, and mesh-size ladders at s = 1 and s = 1/2.

    python3 scripts/bench.py --parent DIR --seconds 40 --out BENCH_8.json

DIR is a checkout of the commit to compare against (`git clone . DIR` and
`git -C DIR checkout REV`).  For each workload and seed, perfbench/run.py
--trace 0 runs once in each checkout, alternating which runs first, so that
a drift in machine speed does not favour one side.  Each metric records
both sides' medians and quartiles, the number of seed pairs in which the
change reads lower, and two verdicts against BENCHMARK.json's metric
table (every metric there reads better lower): gain_resolved, when the
change reads lower in at least 9 of 10 pairs and its median lies below
the parent's by more than the parent's interquartile range, and
worse_beyond_bound, when its median lies above the parent's by more than
the metric's relative bound.  Next to the verdicts, pair_ratio is the
median over seed pairs of change / parent: the two runs of a pair are
seconds apart, so the ratio leaves out the drift in machine speed over
minutes that the parent's quartiles take in.  It informs; the verdicts do
not read it.  Next to the metrics, each workload keeps both sides' inner (Newton) iteration counts
per seed, from the info line of perfbench/run.py, so that a change in time
splits into iterations and cost per iteration.

Each ladder runs one config at each of its mesh sizes, in both checkouts,
one fresh process per run, so that the peak RSS is that size's own.  Each
size runs in LADDER_PAIRS pairs, alternating which side runs first, and
each side records the median and the minimum of its setup (parse and
build), solve (the time loop) and peak RSS, next to every run's value: one
run is too noisy a sample to show a scaling change, and the minimum is the
estimate least moved by interference.  A ladder runs the seed-0 config
of a workload (perfbench's make_config) with its own overrides, n_steps
and T among them, and n_cells set to each size.  The s = 1 ladder is
gl_interface (radial) with n_steps = 20 and T = 0.001.  The s = 1/2 ladder
is frac_line (uniform line, double well) with n_steps = 20 at the time
step of frac_line; its setup builds A_s, its solve runs the time loop.
The frac_line_dense ladder is the same with the right end free, which
takes the dense backend (operators.SpectralStiffness): its setup runs the
eigensolve, and each product in its loop is O(n^2).  The obstacle_frac
ladder is obstacle_wave (the flat obstacle, 512 steps) at s = 1/2 with the
double well, on the sine backend: its steps with a node pinned take the
banded path and PCG, the others start from the exact sine step, with CG
on it where its remainder misses the stop.  A ladder whose
config has an obstacle records the steps that end in contact, which must
be the same in every run and not zero.
Both checkouts run every size of the same configs, which this checkout's
perfbench/workloads.py gives.  The workloads and the end-to-end metrics
are the ones BENCHMARK.json lists.

The states section runs each workload's seed-0 config once per checkout,
in a fresh process, and records its Newton iterations, the SHA-256 of the
bytes of its states and whether the two sides' states are byte-equal.  Next
to the hashes it records how far apart the two sides' states and energy
rows are: the largest relative difference, max |change - parent| over
max |parent| (0.0 when they are byte-equal).  It also runs `cli.cmd_run` on that config and records the SHA-256 of every
file it writes and whether the two sides' files are byte-equal: a refactor
that claims the same results, or the same output files, shows it there.
The same section runs each study command of STUDIES once per checkout
(`cli.cmd_sweep_eps` and `cli.cmd_converge`) and records the SHA-256 of
every file it writes and whether the two sides' files are byte-equal.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])
# the relative worsening BENCHMARK.json allows each end-to-end metric; all
# of them read better lower, and one that does not has no entry here
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]
          if m["better"] == "lower"}
# ladder: (its workload, its overrides of the workload's seed-0 config, the
# mesh sizes)
LADDERS = {
    "gl_interface": ("gl_interface", {"n_steps": 20, "T": 0.001},
                     (400, 1600, 6400, 25600, 102400)),
    "frac_line": ("frac_line", {"n_steps": 20, "T": 0.75 * 20 / 768},
                  (400, 800, 1600, 6400, 25600, 102400)),
    "frac_line_dense": ("frac_line", {"n_steps": 20, "T": 0.75 * 20 / 768,
                                      "dirichlet_right": None},
                        (400, 800, 1600)),
    "obstacle_frac": ("obstacle_wave", {"s": 0.5, "potential": "double_well"},
                      (256, 1024, 4096)),
}
LADDER_PAIRS = 5
# name: (cli command, its config, its list argument)
STUDIES = {
    "sweep_eps": ("cmd_sweep_eps", {"preset": "gl_interface", "T": 0.02, "n_steps": 10},
                  [0.1, 0.05]),
    "converge": ("cmd_converge", {"preset": "eigenmode"}, [32, 64, 128]),
}


def use_checkout(root: Path):
    """Import fracwave from root/src, with BLAS on one thread."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))


def use_workloads(root: Path):
    """Import fracwave from root/src (use_checkout) and perfbench's
    workloads from root/perfbench."""
    use_checkout(root)
    sys.path.insert(0, str(root / "perfbench"))


def ladder_configs() -> dict:
    """Each ladder's config: its workload's seed-0 config (perfbench's
    make_config, from this checkout) with the ladder's overrides."""
    use_workloads(ROOT)
    from workloads import make_config

    return {name: dict(make_config(workload, 0), **overrides)
            for name, (workload, overrides, _) in LADDERS.items()}


def ladder_point(root: Path, config: str) -> dict:
    """One size of a ladder, its config as JSON text, run in this process
    with fracwave from root/src; perfbench is not imported, so that the
    peak RSS is the run's own."""
    use_checkout(root)
    import resource
    from time import perf_counter

    from fracwave import cli, run

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(config)
        t0 = perf_counter()
        scheme = cli.build_problem(cli.parse_config(path))
        t1 = perf_counter()
        traj = run(scheme)
        t2 = perf_counter()
    point = {"n_cells": json.loads(config)["n_cells"], "setup_s": round(t1 - t0, 4),
             "solve_s": round(t2 - t1, 4),
             "newton_iters": int(traj.iterations.sum()),
             "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                  / 1024, 1)}
    if scheme.obstacle is not None:
        point["contact_steps"] = int((traj.states[2:] == scheme.obstacle).any(axis=1).sum())
    return point


def ladder_summary(runs: list) -> dict:
    """One side's runs of one ladder size: the median, minimum and every
    value of setup, solve and peak RSS, the Newton iterations, which must
    be the same in every run, and under an obstacle the contact steps,
    which must be too, and not zero."""
    iters = {r["newton_iters"] for r in runs}
    if len(iters) != 1:
        sys.exit(f"ladder size {runs[0]['n_cells']}: Newton iterations differ: {iters}")
    stats = {}
    if "contact_steps" in runs[0]:
        contact = {r["contact_steps"] for r in runs}
        if len(contact) != 1 or 0 in contact:
            sys.exit(f"ladder size {runs[0]['n_cells']}: contact steps {contact}")
        stats["contact_steps"] = contact.pop()
    for metric in ("setup_s", "solve_s", "peak_rss_mb"):
        values = [r[metric] for r in runs]
        stats[metric] = {"median": statistics.median(values), "min": min(values),
                         "runs": values}
    return {"n_cells": runs[0]["n_cells"], "newton_iters": iters.pop(), **stats}


def sha256_files(written: dict) -> dict:
    """The SHA-256 of each file a cli command wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written.values()}


def states_point(root: Path, workload: str, arrays: Path) -> dict:
    """The seed-0 run of a workload's config (perfbench's make_config), in
    this process with fracwave from root/src: its Newton iterations, the
    SHA-256 of its states, and the SHA-256 of each file cli.cmd_run writes
    for it.  Its states and energy rows are saved to the .npz file
    arrays."""
    use_workloads(root)
    from fracwave import cli, run
    from workloads import make_config

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(make_config(workload, 0)))
        cfg = cli.parse_config(path)
        traj = run(cli.build_problem(cfg))
        outputs = sha256_files(cli.cmd_run(cfg, Path(tmp) / "out"))
    np.savez(arrays, states=traj.states, energies=traj.energies)
    return {"newton_iters": int(traj.iterations.sum()),
            "states_sha256": hashlib.sha256(traj.states.tobytes()).hexdigest(),
            "outputs_sha256": outputs}


def study_point(root: Path, study: str) -> dict:
    """A study command of STUDIES, in this process with fracwave from
    root/src: the SHA-256 of each file it writes."""
    use_checkout(root)
    from fracwave import cli

    command, config, values = STUDIES[study]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        written = getattr(cli, command)(cli.parse_config(path), values, Path(tmp) / "out")
        return {"outputs_sha256": sha256_files(written)}


def max_rel_diff(parent, change) -> float:
    """max |change - parent| over max |parent|."""
    return float(np.abs(change - parent).max() / np.abs(parent).max())


def subprocess_json(args) -> dict:
    out = subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one run and its inner iterations, which
    must be the same in every repetition."""
    out = subprocess.run([sys.executable, root / "perfbench" / "run.py",
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in out.stdout.splitlines()
             if line.startswith("{")]
    result = lines[-1]
    if not result["correct"]:
        sys.exit(f"{root}: {workload} seed {seed} failed its checks")
    (iters,) = next(line["info"]["inner_iters"] for line in lines if "info" in line)
    return {"inner_iters": iters, **{m: result["metrics"][m]["value"] for m in METRICS}}


def summary(metric: str, parent: list, change: list) -> dict:
    """Per-seed values, median and quartiles of each side, in how many seed
    pairs the change reads lower than the parent, the median per-pair ratio
    and the two verdicts on the metric (see the module docstring).  A pair
    whose parent reads 0 has no ratio."""
    out = {side: {"per_seed": v, "median": statistics.median(v),
                  "quartiles": statistics.quantiles(v, n=4)}
           for side, v in (("parent", parent), ("change", change))}
    out["change_lower_pairs"] = lower = sum(c < p for p, c in zip(parent, change))
    q1, _, q3 = out["parent"]["quartiles"]
    gain = out["parent"]["median"] - out["change"]["median"]
    out["gain_resolved"] = 10 * lower >= 9 * len(parent) and gain > q3 - q1
    out["worse_beyond_bound"] = -gain > BOUNDS[metric] * out["parent"]["median"]
    ratios = [c / p for p, c in zip(parent, change) if p]
    out["pair_ratio"] = statistics.median(ratios) if ratios else None
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--out", type=Path)
    p.add_argument("--ladder-point", help=argparse.SUPPRESS)
    p.add_argument("--states-point", nargs=2, help=argparse.SUPPRESS)
    p.add_argument("--study-point", help=argparse.SUPPRESS)
    p.add_argument("--root", type=Path, default=ROOT, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.ladder_point:
        print(json.dumps(ladder_point(args.root, args.ladder_point)))
        return
    if args.states_point:
        workload, arrays = args.states_point
        print(json.dumps(states_point(args.root, workload, Path(arrays))))
        return
    if args.study_point:
        print(json.dumps(study_point(args.root, args.study_point)))
        return
    if args.parent is None or args.out is None:
        p.error("--parent and --out are required")

    sides = {"parent": args.parent.resolve(), "change": ROOT}
    seeds = [int(s) for s in args.seeds.split(",")]
    bench = {}
    for workload in WORKLOADS:
        runs = {side: [] for side in sides}
        for i, seed in enumerate(seeds):
            for side in sorted(sides, reverse=bool(i % 2)):
                runs[side].append(perfbench(sides[side], workload, seed, args.seconds))
                print(workload, seed, side, runs[side][-1], file=sys.stderr)
        bench[workload] = {metric: summary(metric, [r[metric] for r in runs["parent"]],
                                           [r[metric] for r in runs["change"]])
                           for metric in METRICS}
        bench[workload]["inner_iters"] = {side: [r["inner_iters"] for r in runs[side]]
                                          for side in sides}

    ladders = {}
    configs = ladder_configs()
    for name, (_, _, sizes) in LADDERS.items():
        points = {side: [] for side in sides}
        for n in sizes:
            runs = {side: [] for side in sides}
            for i in range(LADDER_PAIRS):
                for side in sorted(sides, reverse=bool(i % 2)):
                    runs[side].append(subprocess_json(
                        [__file__, "--root", sides[side], "--ladder-point",
                         json.dumps(dict(configs[name], n_cells=n))]))
            for side in sides:
                points[side].append(ladder_summary(runs[side]))
            print(name, n, {side: points[side][-1]["solve_s"] for side in sides},
                  file=sys.stderr)
        ladders[name] = {"config": configs[name],
                         "sizes": list(sizes), "pairs": LADDER_PAIRS,
                         "order": "parent and change alternate first per pair",
                         **points}
    states = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            arrays = {side: Path(tmp) / f"{workload}_{side}.npz" for side in sides}
            runs = {side: subprocess_json([__file__, "--root", root,
                                           "--states-point", workload, arrays[side]])
                    for side, root in sides.items()}
            saved = {side: dict(np.load(path)) for side, path in arrays.items()}
            states[workload] = {**runs, **{
                f"{kind}_equal": (runs["parent"][f"{kind}_sha256"]
                                  == runs["change"][f"{kind}_sha256"])
                for kind in ("states", "outputs")}, **{
                f"{kind}_max_rel_diff": max_rel_diff(saved["parent"][kind],
                                                     saved["change"][kind])
                for kind in ("states", "energies")}}
    studies = {}
    for study, (command, config, values) in STUDIES.items():
        runs = {side: subprocess_json([__file__, "--root", root, "--study-point", study])
                for side, root in sides.items()}
        studies[study] = {"command": command, "config": config, "values": values, **runs,
                          "outputs_equal": (runs["parent"]["outputs_sha256"]
                                            == runs["change"]["outputs_sha256"])}
    rev = subprocess.run(["git", "-C", sides["parent"], "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()
    command = ["python3", "scripts/bench.py", "--parent", f"<checkout of {rev}>",
               "--seeds", args.seeds, "--seconds", f"{args.seconds:g}",
               "--out", args.out.name]
    record = {
        "command": " ".join(command),
        "parent": rev,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "blas_threads": 1},
        "perfbench": {"seeds": seeds, "seconds_per_run": args.seconds,
                      "order": "parent and change alternate first per seed",
                      "workloads": bench},
        "ladders": ladders,
        "states": {"seed": 0, "workloads": states, "studies": studies},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
