"""Batch front-end: strict flat-JSON configs, scenario presets, run
orchestration, and deterministic CSV emission.

Config files are a single flat JSON object.  Unknown keys are fatal, a
"preset" key expands a named scenario before the remaining keys override it,
and every command echoes the fully resolved configuration next to its
outputs so runs can be reproduced byte for byte.  Exit codes: 0 ok,
2 configuration error, 3 inner-solver failure, 4 numerical blowup.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (RefinementRow, convergence_study,
                          gl_energy_accounting, interface_radius,
                          track_interface)
from .errors import BlowupError, ConfigurationError, NumericError, SolverFailure
from .operators import build_mesh, build_operators
from .potentials import double_well, gl_scaled, quadratic, zero_potential
from .stepper import SchemeConfig, SolverParams, run

_DRIFT_FIT_SAFETY = 2.0
_DRIFT_FIT_FLOOR = 1e-10


@dataclass
class RunConfigFile:
    """Flat run description as read from disk (defaults already applied)."""

    preset: str | None = None
    # mesh
    geometry: str = "line"
    dim: int = 1
    x_min: float = 0.0
    x_max: float = 1.0
    n_cells: int = 64
    dirichlet_left: float | None = 0.0
    dirichlet_right: float | None = 0.0
    # equation
    s: float = 1.0
    T: float = 1.0
    n_steps: int = 128
    potential: str = "zero"          # zero | quadratic | double_well
    quadratic_c: float = 1.0
    gl_eps: float | None = None      # eps-scaling wrapper when set
    # initial data
    u0_kind: str = "zero"            # zero | modes | tanh_front | sine
    u0_modes: str = ""               # "k:amp,k:amp" eigenmode combination
    u0_r0: float | None = None
    u0_width: float | None = None    # default 2 * gl_eps for tanh_front
    u0_amp: float = 1.0
    v0_kind: str = "zero"            # zero | modes | sine
    v0_modes: str = ""
    v0_amp: float = 1.0
    # obstacle
    obstacle_kind: str = "none"      # none | constant
    obstacle_value: float = 0.0
    # initialization and solver
    init_mode: str = "standard"
    k_max: int | None = None
    tol: float | None = None
    max_iter: int = 100
    precondition: str = "off"        # accepted for older configs; no effect
    # output
    snapshot_stride: int = 10

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


PRESETS = {
    # circular interface collapsing under its curvature, radially reduced
    "gl_interface": dict(
        geometry="radial", dim=2, x_min=0.0, x_max=1.0, n_cells=400,
        dirichlet_left=None, dirichlet_right=-1.0,
        s=1.0, T=0.45, n_steps=900,
        potential="double_well", gl_eps=0.05,
        u0_kind="tanh_front", u0_r0=0.4, v0_kind="zero",
        snapshot_stride=10,
    ),
    # single Dirichlet eigenmode on the unit interval
    "eigenmode": dict(
        geometry="line", x_min=0.0, x_max=1.0, n_cells=64,
        dirichlet_left=0.0, dirichlet_right=0.0,
        s=1.0, T=1.0, n_steps=256,
        potential="zero", u0_kind="modes", u0_modes="1:1.0", v0_kind="zero",
    ),
    # string swung down onto a flat obstacle
    "obstacle_wave": dict(
        geometry="line", x_min=0.0, x_max=1.0, n_cells=128,
        dirichlet_left=0.0, dirichlet_right=0.0,
        s=1.0, T=1.0, n_steps=256,
        potential="zero", u0_kind="zero", v0_kind="sine", v0_amp=-4.0,
        obstacle_kind="constant", obstacle_value=-0.5,
    ),
}

_FIELDS = {f.name: f for f in dataclasses.fields(RunConfigFile)}
_INT_KEYS = {"dim", "n_cells", "n_steps", "k_max", "max_iter", "snapshot_stride"}
_FLOAT_KEYS = {"x_min", "x_max", "dirichlet_left", "dirichlet_right", "s", "T",
               "quadratic_c", "gl_eps", "u0_r0", "u0_width", "u0_amp", "v0_amp",
               "obstacle_value", "tol"}
_OPTIONAL_KEYS = {"preset", "dirichlet_left", "dirichlet_right", "gl_eps",
                  "u0_r0", "u0_width", "k_max", "tol"}


def _coerce(key: str, value):
    if value is None:
        if key in _OPTIONAL_KEYS:
            return None
        raise ConfigurationError(f"key '{key}' must not be null")
    if key in _INT_KEYS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"key '{key}' must be an integer")
        return int(value)
    if key in _FLOAT_KEYS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"key '{key}' must be a number")
        return float(value)
    if not isinstance(value, str):
        raise ConfigurationError(f"key '{key}' must be a string")
    return value


def parse_config(path) -> RunConfigFile:
    """Strict parse: flat JSON object, unknown keys fatal, presets expanded,
    numeric fields checked against the solver preconditions."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError("config must be a flat JSON object")
    for key in raw:
        if key not in _FIELDS:
            raise ConfigurationError(f"unknown key '{key}'")

    merged: dict = {}
    preset = raw.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigurationError(f"unknown preset '{preset}'")
        merged.update(PRESETS[preset])
    for key, value in raw.items():
        if key != "preset":
            merged[key] = _coerce(key, value)
    cfg = RunConfigFile(preset=preset, **merged)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfigFile):
    if cfg.x_max <= cfg.x_min:
        raise ConfigurationError("key 'x_max' must exceed 'x_min'")
    if cfg.n_cells < 2:
        raise ConfigurationError("key 'n_cells' must be >= 2")
    if cfg.n_steps < 2:
        raise ConfigurationError("key 'n_steps' must be >= 2")
    if cfg.T <= 0:
        raise ConfigurationError("key 'T' must be positive")
    if cfg.s < 0:
        raise ConfigurationError("key 's' must be >= 0")
    if cfg.geometry not in ("line", "radial"):
        raise ConfigurationError(f"key 'geometry' has unknown value '{cfg.geometry}'")
    if cfg.potential not in ("zero", "quadratic", "double_well"):
        raise ConfigurationError(f"key 'potential' has unknown value '{cfg.potential}'")
    if cfg.gl_eps is not None and cfg.gl_eps <= 0:
        raise ConfigurationError("key 'gl_eps' must be positive")
    if cfg.u0_kind not in ("zero", "modes", "tanh_front", "sine"):
        raise ConfigurationError(f"key 'u0_kind' has unknown value '{cfg.u0_kind}'")
    if cfg.v0_kind not in ("zero", "modes", "sine"):
        raise ConfigurationError(f"key 'v0_kind' has unknown value '{cfg.v0_kind}'")
    if cfg.obstacle_kind not in ("none", "constant"):
        raise ConfigurationError(f"key 'obstacle_kind' has unknown value '{cfg.obstacle_kind}'")
    if cfg.init_mode not in ("standard", "smoothed"):
        raise ConfigurationError(f"key 'init_mode' has unknown value '{cfg.init_mode}'")
    if cfg.precondition not in ("off", "spectral"):
        raise ConfigurationError(f"key 'precondition' has unknown value '{cfg.precondition}'")
    if cfg.snapshot_stride < 1:
        raise ConfigurationError("key 'snapshot_stride' must be >= 1")
    if cfg.u0_kind == "tanh_front":
        if cfg.u0_r0 is None:
            raise ConfigurationError("key 'u0_r0' is required for a tanh front")
        if cfg.u0_width is None and cfg.gl_eps is None:
            raise ConfigurationError("key 'u0_width' is required without 'gl_eps'")
    SolverParams(tol=cfg.tol, max_iter=cfg.max_iter)  # raises on a bad tol or max_iter


def _parse_modes(spec: str, key: str):
    out = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            k_str, amp_str = item.split(":")
            out.append((int(k_str), float(amp_str)))
        except ValueError as exc:
            raise ConfigurationError(
                f"key '{key}': expected 'k:amp,...', got '{spec}'") from exc
    if not out:
        raise ConfigurationError(f"key '{key}' lists no modes")
    return out


def build_problem(cfg: RunConfigFile) -> SchemeConfig:
    """Materialize mesh, operators, potential, and initial data."""
    mesh = build_mesh(cfg.x_min, cfg.x_max, cfg.n_cells, geometry=cfg.geometry,
                      dim=cfg.dim, dirichlet=(cfg.dirichlet_left, cfg.dirichlet_right))
    ops = build_operators(mesh, cfg.s)

    if cfg.potential == "zero":
        pot = zero_potential()
    elif cfg.potential == "quadratic":
        pot = quadratic(cfg.quadratic_c)
    else:
        pot = double_well()
    if cfg.gl_eps is not None:
        pot = gl_scaled(pot, cfg.gl_eps)
        h = (cfg.x_max - cfg.x_min) / cfg.n_cells
        if cfg.gl_eps <= 2.0 * h:
            warnings.warn(f"eps={cfg.gl_eps:g} <= 2h={2 * h:g}; the interface "
                          "is under-resolved (resolution rule: h <= eps/2)",
                          stacklevel=2)

    x = mesh.nodes[mesh.free]
    span = cfg.x_max - cfg.x_min

    def field(kind, modes, amp, key):
        if kind == "zero":
            return np.zeros(ops.n_free)
        if kind == "modes":
            vec = np.zeros(ops.n_free)
            for k, a in _parse_modes(modes, key):
                if not 1 <= k <= ops.n_free:
                    raise ConfigurationError(f"mode index {k} out of range")
                vec += a * ops.Phi[:, k - 1]
            return vec
        if kind == "sine":
            return amp * np.sin(np.pi * (x - cfg.x_min) / span)
        width = cfg.u0_width if cfg.u0_width is not None else 2.0 * cfg.gl_eps
        return np.tanh((cfg.u0_r0 - x) / width)

    u0 = field(cfg.u0_kind, cfg.u0_modes, cfg.u0_amp, "u0_modes")
    v0 = field(cfg.v0_kind, cfg.v0_modes, cfg.v0_amp, "v0_modes")
    obstacle = None
    if cfg.obstacle_kind == "constant":
        obstacle = np.full(ops.n_free, cfg.obstacle_value)

    solver = SolverParams(tol=cfg.tol, max_iter=cfg.max_iter)
    scheme = SchemeConfig(T=cfg.T, n_steps=cfg.n_steps, ops=ops, potential=pot,
                          u0=u0, v0=v0, obstacle=obstacle,
                          init_mode=cfg.init_mode, k_max=cfg.k_max, solver=solver)
    scheme.validate()
    return scheme


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return "nan"
    return format(x, ".17g")


def _write_csv(path: Path, header, rows, footer_comments=()):
    # the text _fmt gives each value, at half its cost: an integer below
    # 2**53 prints as its float does, and nan as "nan".  One row at a time,
    # so that no second copy of a large table is held
    lines = [",".join(header)]
    lines.extend(",".join(map("{:.17g}".format, np.asarray(row, dtype=float).tolist()))
                 for row in rows)
    lines.extend(footer_comments)
    path.write_text("\n".join(lines) + "\n")


def _echo_config(cfg: RunConfigFile, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "effective_config.json"
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def cmd_run(cfg: RunConfigFile, out_dir) -> dict:
    """Single trajectory; writes energy.csv, snapshots.csv, and, for radial
    interface scenarios, interface.csv.  Returns the written paths."""
    out_dir = Path(out_dir)
    written = {"config": _echo_config(cfg, out_dir)}
    scheme = build_problem(cfg)
    traj = run(scheme)
    mesh = scheme.ops.mesh
    n = traj.n_steps

    energy_rows = []
    for i in range(n + 1):
        kin, frac, pot, total = traj.energies[i]
        resid = traj.residuals[i - 1] if i >= 1 else 0.0
        iters = traj.iterations[i - 1] if i >= 1 else 0
        energy_rows.append((i, i * traj.tau, kin, frac, pot, total, resid, iters))
    epath = out_dir / "energy.csv"
    _write_csv(epath, ["step", "t", "kinetic", "fractional", "potential",
                       "total", "residual", "iterations"], energy_rows)
    written["energy"] = epath

    snap_steps = list(range(0, n + 1, cfg.snapshot_stride))
    if snap_steps[-1] != n:
        snap_steps.append(n)
    snap_rows = [(i * traj.tau, *mesh.embed(traj.u(i))) for i in snap_steps]
    spath = out_dir / "snapshots.csv"
    _write_csv(spath, ["t"] + [_fmt(xj) for xj in mesh.nodes], snap_rows)
    written["snapshots"] = spath

    if (mesh.geometry == "radial" and scheme.potential.kind == "gl_scaled"
            and cfg.u0_kind == "tanh_front"):
        trace = track_interface(traj, cfg.u0_r0, stride=cfg.snapshot_stride)
        ipath = out_dir / "interface.csv"
        _write_csv(ipath, ["t", "measured_radius", "reference_radius", "rel_error"],
                   zip(trace.times, trace.measured, trace.reference, trace.rel_errors))
        written["interface"] = ipath
    return written


def fit_drift_constant(row: RefinementRow, scale: float = 1.0) -> float:
    """Drift constant C with max-drift <= C * tau, fitted at one refinement
    with a safety factor and an absolute floor against round-off noise."""
    return _DRIFT_FIT_SAFETY * max(row.max_drift, _DRIFT_FIT_FLOOR * scale) / row.tau


def cmd_converge(cfg: RunConfigFile, n_list, out_dir) -> dict:
    out_dir = Path(out_dir)
    written = {"config": _echo_config(cfg, out_dir)}
    base = build_problem(cfg)
    report = convergence_study(base, n_list)
    c_drift = fit_drift_constant(report.rows[-1],
                                 scale=1.0 + abs(base.T))
    rows = [(r.n, r.tau, r.error, r.max_drift) for r in report.rows]
    footer = [f"# error_slope={_fmt(report.error_slope)}",
              f"# drift_slope={_fmt(report.drift_slope)}",
              f"# c_drift={_fmt(c_drift)}"]
    cpath = out_dir / "convergence.csv"
    _write_csv(cpath, ["n", "tau", "error_T", "max_drift"], rows, footer)
    written["convergence"] = cpath
    return written


def cmd_sweep_eps(cfg: RunConfigFile, eps_list, out_dir) -> dict:
    """One interface run per eps with matched fronts: the mesh is re-derived
    so h = eps/2 and the front width follows eps."""
    out_dir = Path(out_dir)
    if cfg.gl_eps is None or cfg.potential != "double_well":
        raise ConfigurationError("sweep-eps needs an eps-scaled double-well config")
    written = {"config": _echo_config(cfg, out_dir)}
    rows = []
    for eps in eps_list:
        if eps <= 0:
            raise ConfigurationError("eps values must be positive")
        sub = dataclasses.replace(
            cfg, gl_eps=float(eps), u0_width=None,
            n_cells=int(np.ceil(2.0 * (cfg.x_max - cfg.x_min) / eps)))
        scheme = build_problem(sub)
        traj = run(scheme)
        scaled, mm = gl_energy_accounting(traj, float(eps), scheme.ops)
        mesh = scheme.ops.mesh
        radius = interface_radius(mesh, mesh.embed(traj.u(traj.n_steps)))
        rows.append((eps, scaled[0], mm, np.nan if radius is None else radius))
    gpath = out_dir / "gl_sweep.csv"
    _write_csv(gpath, ["eps", "scaled_energy_0", "modica_mortola", "final_radius"],
               rows)
    written["sweep"] = gpath
    return written


def _parse_list(text: str, cast):
    try:
        values = [cast(item) for item in text.split(",") if item.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"malformed list '{text}'") from exc
    if not values:
        raise ConfigurationError(f"empty list '{text}'")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracwave",
        description="Variational time stepping for fractional semilinear "
                    "wave equations, with optional obstacle constraint.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("run", "single trajectory with CSV outputs"),
                           ("converge", "refinement study against the reference integrator"),
                           ("sweep-eps", "interface-energy sweep over eps")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="flat JSON config file")
        p.add_argument("--out", default="./out", help="output directory")
        if name == "converge":
            p.add_argument("--n-list", required=True,
                           help="comma-separated step counts, ascending")
        if name == "sweep-eps":
            p.add_argument("--eps-list", required=True,
                           help="comma-separated eps values")
    args = parser.parse_args(argv)
    # the warnings the active filters let through, each distinct one once,
    # after the command's own output
    with warnings.catch_warnings(record=True) as caught:
        code = _command(args)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


def _command(args) -> int:
    """Run the parsed command; its exit code."""
    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            cmd_run(cfg, args.out)
        elif args.command == "converge":
            cmd_converge(cfg, _parse_list(args.n_list, int), args.out)
        else:
            cmd_sweep_eps(cfg, _parse_list(args.eps_list, float), args.out)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3
    except (BlowupError, NumericError) as exc:
        print(f"error: numerical blowup: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
