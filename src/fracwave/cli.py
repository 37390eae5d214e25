"""Batch front-end: strict flat-JSON configs, scenario presets, run
orchestration, and deterministic CSV emission.

Config files are a single flat JSON object.  Unknown keys are fatal, and
each value must have its key's type in RunConfigFile, whose Literal
annotations list the allowed values of the enumerated keys.  A "preset" key
expands a named scenario before the remaining keys override it, and every
command echoes the fully resolved configuration next to its outputs so runs
can be reproduced byte for byte.  No command writes a file before every
check on its configuration has passed.  Exit codes: 0 ok, 2 configuration
error, 3 inner-solver failure (the failing step set by run), 4 numerical
blowup.

The rules of the eps-interface model are diagnostics', and this module
states none of them: whether a mesh resolves the front
(diagnostics.resolves_interface), which build_problem warns on and by
which sweep-eps meshes each eps, when a front follows the cosine law, and
which steps the snapshots and the interface trace sample.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import (RefinementRow, convergence_study, cosine_law_fault,
                          front_radius, gl_energy_accounting, resolves_interface,
                          sampled_steps, sharp_interface_fault, track_interface)
from .errors import BlowupError, ConfigurationError, NumericError, SolverFailure
from .operators import Mesh1D, build_mesh, build_operators
from .potentials import (Potential, double_well, gl_scaled, quadratic,
                         zero_potential)
from .stepper import SchemeConfig, SolverParams, run

_DRIFT_FIT_SAFETY = 2.0
_DRIFT_FIT_FLOOR = 1e-10


@dataclass
class RunConfigFile:
    """Flat run description as read from disk (defaults already applied).

    Each annotation is the type a key's JSON value must have; a Literal
    lists the values an enumerated key allows.  geometry and init_mode are
    checked by their owners, Mesh1D and SchemeConfig.validate."""

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
    potential: typing.Literal["zero", "quadratic", "double_well"] = "zero"
    quadratic_c: float = 1.0
    gl_eps: float | None = None      # eps-scaling wrapper when set
    # initial data
    u0_kind: typing.Literal["zero", "modes", "tanh_front", "sine"] = "zero"
    u0_modes: str = ""               # "k:amp,k:amp" eigenmode combination
    u0_r0: float | None = None
    u0_width: float | None = None    # default 2 * gl_eps for tanh_front
    u0_amp: float = 1.0
    v0_kind: typing.Literal["zero", "modes", "sine"] = "zero"
    v0_modes: str = ""
    v0_amp: float = 1.0
    # obstacle
    obstacle_kind: typing.Literal["none", "constant"] = "none"
    obstacle_value: float = 0.0
    # initialization and solver
    init_mode: str = "standard"
    k_max: int | None = None
    tol: float | None = None
    max_iter: int = SolverParams.max_iter
    # accepted for older configs; no effect
    precondition: typing.Literal["off", "spectral"] = "off"
    # output
    snapshot_stride: int = 10


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


def _hint(annotation):
    """(type, whether null is allowed, the allowed values or None) of an
    annotation T, T | None or Literal[...] of strings."""
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is typing.Literal:
        return str, False, args
    return (args[0] if args else annotation), type(None) in args, None


_KEY_TYPES = {key: _hint(annotation)
              for key, annotation in typing.get_type_hints(RunConfigFile).items()}
# the JSON values each key type takes, and its name in errors; a bool is
# never a number here, although Python counts it as an int
_ACCEPTED = {int: ((int,), "an integer"), float: ((int, float), "a number"),
             str: ((str,), "a string")}


def _coerce(key: str, value):
    kind, nullable, allowed = _KEY_TYPES[key]
    if value is None and nullable:
        return None
    accepted, name = _ACCEPTED[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigurationError(f"key '{key}' must be {name}"
                                 + (" or null" if nullable else ""))
    # json reads NaN and Infinity, 1e400 as inf, and 10**400 as an int that
    # float() cannot take; the comparisons are exact for ints, False for NaN
    if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigurationError(f"key '{key}' must be a finite number")
    if allowed is not None and value not in allowed:
        raise ConfigurationError(f"key '{key}' has unknown value '{value}' "
                                 f"(allowed: {', '.join(allowed)})")
    return kind(value)


def parse_config(path) -> RunConfigFile:
    """Strict parse: flat JSON object, unknown keys fatal, typed values,
    presets expanded.  Every rule that needs no operators is checked here,
    the library's by building the mesh, the potential and the solver
    parameters; build_problem checks the rest."""
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
        if key not in _KEY_TYPES:
            raise ConfigurationError(f"unknown key '{key}'")
    given = {key: _coerce(key, value) for key, value in raw.items()}
    preset = given.get("preset")
    if preset is not None and preset not in PRESETS:
        raise ConfigurationError(f"unknown preset '{preset}'")
    cfg = RunConfigFile(**{**PRESETS.get(preset, {}), **given})
    if cfg.snapshot_stride < 1:
        raise ConfigurationError("key 'snapshot_stride' must be >= 1")
    if cfg.u0_kind == "tanh_front":
        if cfg.u0_r0 is None:
            raise ConfigurationError("key 'u0_r0' is required for a tanh front")
        if cfg.u0_width is None and cfg.gl_eps is None:
            raise ConfigurationError("key 'u0_width' is required without 'gl_eps'")
    _mesh(cfg)
    _potential(cfg)
    SolverParams(tol=cfg.tol, max_iter=cfg.max_iter)
    return cfg


@contextlib.contextmanager
def _source(name: str):
    """Re-raise an owner's ConfigurationError with the config keys or the
    command-line entry that gave it its arguments named in front."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigurationError(f"{name}: {exc}") from exc


def _mesh(cfg: RunConfigFile) -> Mesh1D:
    with _source("mesh (keys x_min, x_max, n_cells, geometry, dim, "
                 "dirichlet_left, dirichlet_right)"):
        return build_mesh(cfg.x_min, cfg.x_max, cfg.n_cells, geometry=cfg.geometry,
                          dim=cfg.dim,
                          dirichlet=(cfg.dirichlet_left, cfg.dirichlet_right))


def _potential(cfg: RunConfigFile) -> Potential:
    if cfg.potential == "zero":
        pot = zero_potential()
    elif cfg.potential == "quadratic":
        with _source("key 'quadratic_c'"):
            pot = quadratic(cfg.quadratic_c)
    elif cfg.potential == "double_well":
        pot = double_well()
    else:
        raise ConfigurationError(f"key 'potential' has unknown value '{cfg.potential}'")
    if cfg.gl_eps is None:
        return pot
    with _source("key 'gl_eps'"):
        return gl_scaled(pot, cfg.gl_eps)


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
    mesh = _mesh(cfg)
    ops = build_operators(mesh, cfg.s)
    pot = _potential(cfg)
    span = cfg.x_max - cfg.x_min
    if cfg.gl_eps is not None and not resolves_interface(span, cfg.n_cells, cfg.gl_eps):
        warnings.warn(f"eps={cfg.gl_eps:g} < 2h={2 * span / cfg.n_cells:g}; the "
                      "interface is under-resolved (resolution rule: h <= eps/2)",
                      stacklevel=2)

    x = mesh.nodes[mesh.free]

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

    scheme = SchemeConfig(T=cfg.T, n_steps=cfg.n_steps, ops=ops, potential=pot,
                          u0=u0, v0=v0, obstacle=obstacle, init_mode=cfg.init_mode,
                          k_max=cfg.k_max,
                          solver=SolverParams(tol=cfg.tol, max_iter=cfg.max_iter))
    scheme.validate()
    return scheme


# every value of every output file: a float to 17 significant digits, so an
# integer below 2**53 prints bare, and nan, inf and -0 as such
_FMT = "%.17g"


def _write_table(path: Path, names, table, footer: str = "") -> Path:
    """The float table as CSV under a header row of names, in one pass,
    then the footer lines."""
    np.savetxt(path, table, fmt=_FMT, delimiter=",", header=",".join(names),
               footer=footer, comments="")
    return path


def _echo_config(cfg: RunConfigFile, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "effective_config.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")
    return path


def cmd_run(cfg: RunConfigFile, out_dir) -> dict:
    """Single trajectory; writes energy.csv, snapshots.csv, and, for a
    tanh front whose cosine law holds (diagnostics.cosine_law_fault: a
    circle at rest in a model with a sharp-interface limit), interface.csv.
    Returns the written paths."""
    scheme = build_problem(cfg)
    out_dir = Path(out_dir)
    written = {"config": _echo_config(cfg, out_dir)}
    traj = run(scheme)
    mesh = scheme.ops.mesh
    n = traj.n_steps

    steps = np.arange(n + 1)
    written["energy"] = _write_table(
        out_dir / "energy.csv",
        ["step", "t", "kinetic", "fractional", "potential", "total", "residual",
         "iterations"],
        np.column_stack((steps, steps * traj.tau, traj.energies,
                         np.r_[0.0, traj.residuals], np.r_[0, traj.iterations])))

    snap_steps = sampled_steps(n, cfg.snapshot_stride)
    snapshots = np.empty((snap_steps.size, 1 + mesh.nodes.size))
    snapshots[:, 0] = snap_steps * traj.tau
    for row, i in zip(snapshots[:, 1:], snap_steps):
        row[:] = mesh.embed(traj.u(i))
    written["snapshots"] = _write_table(
        out_dir / "snapshots.csv", ["t", *(_FMT % x for x in mesh.nodes)], snapshots)

    if cfg.u0_kind == "tanh_front" and cosine_law_fault(scheme) is None:
        trace = track_interface(traj, cfg.u0_r0, stride=cfg.snapshot_stride)
        written["interface"] = _write_table(
            out_dir / "interface.csv",
            ["t", "measured_radius", "reference_radius", "rel_error"],
            np.column_stack((trace.times, trace.measured, trace.reference,
                             trace.rel_errors)))
    return written


def fit_drift_constant(row: RefinementRow, scale: float = 1.0) -> float:
    """Drift constant C with max-drift <= C * tau, fitted at one refinement
    with a safety factor and an absolute floor against round-off noise."""
    return _DRIFT_FIT_SAFETY * max(row.max_drift, _DRIFT_FIT_FLOOR * scale) / row.tau


def cmd_converge(cfg: RunConfigFile, n_list, out_dir) -> dict:
    """Refinement study over n_list; its files are written once the study,
    which checks n_list first, is done."""
    base = build_problem(cfg)
    report = convergence_study(base, n_list)
    out_dir = Path(out_dir)
    c_drift = fit_drift_constant(report.rows[-1],
                                 scale=1.0 + abs(base.T))
    footer = "\n".join(f"# {name}={_FMT % value}" for name, value in
                       (("error_slope", report.error_slope),
                        ("drift_slope", report.drift_slope), ("c_drift", c_drift)))
    return {"config": _echo_config(cfg, out_dir),
            "convergence": _write_table(
                out_dir / "convergence.csv", ["n", "tau", "error_T", "max_drift"],
                [(r.n, r.tau, r.error, r.max_drift) for r in report.rows], footer)}


def _sweep_configs(cfg: RunConfigFile, eps_list) -> list:
    """cfg at each eps of the sweep, meshed with the fewest cells that
    resolve eps (diagnostics.resolves_interface) and with the front width
    following eps, each checked as parse_config checks a config.  The
    sharp-interface limit must hold (diagnostics.sharp_interface_fault),
    the rule the interface accounting of every eps applies, and it is asked
    before any problem is built.  An entry of eps_list is a number or,
    from the command line, its text (_number_text), which names the entry
    in an error as the user wrote it."""
    fault = sharp_interface_fault(_potential(cfg), cfg.s)
    if fault is not None:
        raise ConfigurationError(f"sweep-eps {fault}")
    span = cfg.x_max - cfg.x_min
    subs = []
    for entry in eps_list:
        eps = float(entry)
        sub = dataclasses.replace(cfg, gl_eps=eps, u0_width=None)
        with _source(f"--eps-list entry "
                     f"{entry if isinstance(entry, str) else f'{eps:g}'}"):
            # the potential rejects eps <= 0 and nan before eps sizes the mesh
            _potential(sub)
            cells = 2.0 * span / eps
            if not np.isfinite(cells):
                raise ConfigurationError(f"resolving eps needs 2 span / eps = "
                                         f"{cells:g} cells")
            # the fewest cells that resolve eps: span / n falls as n grows,
            # in floating point too, and the rounded 2 span / eps is off by
            # far less than one cell
            start = max(int(np.ceil(cells)) - 1, 1)
            sub.n_cells = next(n for n in itertools.count(start)
                               if resolves_interface(span, n, eps))
            _mesh(sub)
        subs.append(sub)
    return subs


def cmd_sweep_eps(cfg: RunConfigFile, eps_list, out_dir) -> dict:
    """One interface run per eps with matched fronts (_sweep_configs).  Every
    eps is checked before the first run, and the files are written after
    the last."""
    rows = []
    for sub in _sweep_configs(cfg, eps_list):
        traj = run(build_problem(sub))
        scaled, mm = gl_energy_accounting(traj)
        rows.append((sub.gl_eps, scaled[0], mm, front_radius(traj, traj.n_steps)))
    out_dir = Path(out_dir)
    return {"config": _echo_config(cfg, out_dir),
            "sweep": _write_table(
                out_dir / "gl_sweep.csv",
                ["eps", "scaled_energy_0", "modica_mortola", "final_radius"], rows)}


def _number_text(item: str) -> str:
    """item, stripped, once float reads it."""
    float(item)
    return item.strip()


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
    # every warning the command raises, each distinct one once, after the
    # command's own output; "always" keeps a caller's filters, such as
    # python -W error, from turning one into a traceback
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
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
            cmd_sweep_eps(cfg, _parse_list(args.eps_list, _number_text), args.out)
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
