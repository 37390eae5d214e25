import json
import os
import re
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracwave
from fracwave import ConfigurationError, cli
from fracwave.cli import (PRESETS, RunConfigFile, _echo_config, _sweep_configs,
                          _write_csv, build_problem, cmd_converge, cmd_run,
                          cmd_sweep_eps, main, parse_config)
from fracwave.diagnostics import oracle_recurrence


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    lines = [l for l in path.read_text().strip().splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def per_value(x) -> str:
    """The CSV text of one value: an integer bare, any float (nan as "nan")
    to 17 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def per_value_text(header, rows):
    """CSV text with every value formatted on its own by per_value."""
    return "\n".join([",".join(header)]
                     + [",".join(per_value(v) for v in row) for row in rows]) + "\n"


# typed overrides, each within the range that every rule accepts, so that any
# preset with any of them set parses
VALID_OVERRIDES = {
    "dim": st.integers(1, 3),
    "x_max": st.floats(1.0, 5.0),
    "n_cells": st.integers(2, 200),
    "dirichlet_right": st.none() | st.floats(-1.0, 1.0),
    "s": st.floats(0.0, 2.0),
    "T": st.floats(1e-3, 10.0),
    "n_steps": st.integers(2, 2000),
    "quadratic_c": st.floats(0.0, 10.0),
    "gl_eps": st.floats(1e-3, 1.0),
    "u0_r0": st.floats(0.1, 0.9),
    "u0_width": st.none() | st.floats(1e-3, 1.0),
    "u0_amp": st.floats(-5.0, 5.0),
    "v0_amp": st.floats(-5.0, 5.0),
    "obstacle_value": st.floats(-2.0, -1.0),
    "init_mode": st.sampled_from(["standard", "smoothed"]),
    "k_max": st.none() | st.integers(1, 100),
    "tol": st.none() | st.floats(1e-14, 1e-3),
    "max_iter": st.integers(1, 1000),
    "precondition": st.sampled_from(["off", "spectral"]),
    "snapshot_stride": st.integers(1, 100),
}
KEY_HINTS = typing.get_type_hints(RunConfigFile)


def wrong_values(hint):
    """JSON values that a key annotated `hint` (T or T | None) must reject."""
    kinds = typing.get_args(hint) or (hint,)
    wrong = st.booleans() | st.lists(st.integers(), max_size=2)
    if int in kinds:
        wrong |= st.text() | st.floats(allow_nan=False, allow_infinity=False)
    elif float in kinds:
        wrong |= st.text()
    else:
        wrong |= st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    return wrong if type(None) in kinds else wrong | st.none()


def read_footer(path):
    return {l[2:].split("=")[0]: float(l.split("=")[1])
            for l in path.read_text().strip().splitlines() if l.startswith("#")}


class TestParseConfig:
    def test_preset_expands_to_full_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"preset": "gl_interface"}))
        assert cfg.geometry == "radial"
        assert cfg.n_cells == 400
        assert cfg.n_steps == 900
        assert cfg.gl_eps == 0.05
        assert cfg.u0_r0 == 0.4
        assert cfg.dirichlet_right == -1.0
        assert cfg.dirichlet_left is None

    def test_file_keys_override_preset(self, tmp_path):
        cfg = parse_config(write_config(
            tmp_path, {"preset": "gl_interface", "n_cells": 40, "n_steps": 50}))
        assert cfg.n_cells == 40
        assert cfg.n_steps == 50
        assert cfg.gl_eps == 0.05

    def test_unknown_key_named_in_error(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode", "tolerence": 1e-9})
        with pytest.raises(ConfigurationError, match="tolerence"):
            parse_config(path)

    def test_invariant_violation_rejected(self, tmp_path):
        # SchemeConfig.validate owns the rule, so building the problem checks it
        path = write_config(tmp_path, {"preset": "eigenmode", "n_steps": 1})
        with pytest.raises(ConfigurationError, match="n_steps"):
            build_problem(parse_config(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="malformed"):
            parse_config(path)

    def test_wrong_types_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="n_cells"):
            parse_config(write_config(tmp_path, {"n_cells": "many"}))
        with pytest.raises(ConfigurationError, match="'T'"):
            parse_config(write_config(tmp_path, {"T": "long"}, "t.json"))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(preset=st.sampled_from([None, *PRESETS]),
           overrides=st.fixed_dictionaries({}, optional=VALID_OVERRIDES))
    def test_echo_round_trips(self, preset, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = parse_config(write_config(tmp, dict(overrides, preset=preset)))
            assert parse_config(_echo_config(cfg, tmp / "out")) == cfg

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_wrong_type_named(self, data):
        key = data.draw(st.sampled_from(sorted(KEY_HINTS)))
        value = data.draw(wrong_values(KEY_HINTS[key]))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp), {key: value})
            with pytest.raises(ConfigurationError, match=re.escape(f"key '{key}'")):
                parse_config(path)

    def test_effective_config_round_trips(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"preset": "obstacle_wave"}))
        out = tmp_path / "out"
        cmd_run(cfg, out)  # writes effective_config.json
        cfg2 = parse_config(out / "effective_config.json")
        assert cfg2 == cfg


class TestBuildProblem:
    def test_mode_combination(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode", "n_cells": 16,
                                       "u0_modes": "1:1.0,3:0.3"})
        scheme = build_problem(parse_config(path))
        expected = scheme.ops.Phi[:, 0] + 0.3 * scheme.ops.Phi[:, 2]
        assert np.allclose(scheme.u0, expected)

    def test_malformed_modes_named(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode",
                                       "u0_modes": "1;1.0"})
        with pytest.raises(ConfigurationError, match="u0_modes"):
            build_problem(parse_config(path))

    def test_mode_index_out_of_range(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode", "n_cells": 4,
                                       "u0_modes": "99:1.0"})
        with pytest.raises(ConfigurationError, match="out of range"):
            build_problem(parse_config(path))

    def test_quadratic_potential_and_sine_data(self, tmp_path):
        path = write_config(tmp_path, {
            "geometry": "line", "n_cells": 16, "potential": "quadratic",
            "quadratic_c": 2.0, "u0_kind": "sine", "u0_amp": 0.5,
            "n_steps": 8, "T": 0.5})
        scheme = build_problem(parse_config(path))
        assert scheme.potential.kind == "quadratic"
        assert scheme.potential.c == 2.0
        x = scheme.ops.mesh.nodes[scheme.ops.mesh.free]
        assert np.allclose(scheme.u0, 0.5 * np.sin(np.pi * x))

    def test_tanh_front_needs_width_source(self, tmp_path):
        path = write_config(tmp_path, {
            "geometry": "line", "n_cells": 16, "u0_kind": "tanh_front",
            "u0_r0": 0.4})
        with pytest.raises(ConfigurationError, match="u0_width"):
            parse_config(path)


class TestCmdRun:
    def test_zero_run_constant_energy_column(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "eigenmode", "u0_kind": "zero", "n_steps": 8, "T": 0.5,
            "n_cells": 16})
        written = cmd_run(parse_config(path), tmp_path / "out")
        header, rows = read_csv(written["energy"])
        assert header == ["step", "t", "kinetic", "fractional", "potential",
                          "total", "residual", "iterations"]
        totals = {row[5] for row in rows}
        assert totals == {"0"}

    def test_eigenmode_energies_match_recurrence(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode", "n_steps": 64,
                                       "n_cells": 32})
        cfg = parse_config(path)
        written = cmd_run(cfg, tmp_path / "out")
        scheme = build_problem(cfg)
        _, rows = read_csv(written["energy"])
        lam = scheme.ops.lam[0]
        tau = cfg.T / cfg.n_steps
        a = oracle_recurrence(lam, 1.0, 1.0, tau, cfg.n_steps + 1)
        # a coefficient deviation of 10*tol propagates through the quadratic
        # energy with a factor of order (1 + lam)
        tol = max(float(r[6]) for r in rows[1:]) + 1e-12
        budget = 10 * tol * (1 + lam)
        for i, row in enumerate(rows):
            vi = (a[i + 1] - a[i]) / tau
            expected = 0.5 * vi**2 + 0.5 * lam * a[i + 1]**2
            assert abs(float(row[5]) - expected) <= budget * (1 + expected)

    def test_snapshot_layout(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode", "n_steps": 25,
                                       "n_cells": 8, "snapshot_stride": 10})
        written = cmd_run(parse_config(path), tmp_path / "out")
        header, rows = read_csv(written["snapshots"])
        assert header[0] == "t"
        assert [float(x) for x in header[1:]] == pytest.approx(
            list(np.linspace(0, 1, 9)))
        # steps 0, 10, 20 and the final step 25
        assert [float(r[0]) for r in rows] == pytest.approx(
            [0.0, 0.4, 0.8, 1.0])
        assert all(len(r) == 10 for r in rows)
        # Dirichlet columns carry the boundary data
        assert {r[1] for r in rows} == {"0"}

    def test_interface_csv_for_radial_front(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "gl_interface", "gl_eps": 0.1, "n_cells": 20,
            "n_steps": 40, "T": 0.04, "snapshot_stride": 10})
        written = cmd_run(parse_config(path), tmp_path / "out")
        header, rows = read_csv(written["interface"])
        assert header == ["t", "measured_radius", "reference_radius", "rel_error"]
        assert float(rows[0][2]) == pytest.approx(0.4)
        assert all(float(r[3]) < 0.5 for r in rows)

    def test_obstacle_preset_needs_few_newton_iterations(self, tmp_path):
        path = write_config(tmp_path, {"preset": "obstacle_wave"})
        written = cmd_run(parse_config(path), tmp_path / "out")
        header, rows = read_csv(written["energy"])
        iterations = [int(r[header.index("iterations")]) for r in rows[1:]]
        assert len(iterations) == 256
        assert max(iterations) <= 5

    def test_csv_writer_keeps_the_per_value_text(self, tmp_path):
        # integers print bare, whether int or integral float; nan as "nan"
        rows = [(0, 0.0, -0.0, 900.0, np.int64(7), 2**52 + 1),
                (1, 0.1, np.nan, -np.inf, 1e-300, 1.0 / 3.0)]
        _write_csv(tmp_path / "a.csv", ["a", "b", "c", "d", "e", "f"], rows)
        assert (tmp_path / "a.csv").read_bytes() == \
            per_value_text(["a", "b", "c", "d", "e", "f"], rows).encode()

    def test_run_outputs_keep_the_per_value_text(self, tmp_path):
        path = write_config(tmp_path, {"preset": "gl_interface", "n_cells": 20,
                                       "n_steps": 40, "T": 0.02,
                                       "snapshot_stride": 10})
        cfg = parse_config(path)
        # 20 cells leave the preset's interface under-resolved
        with pytest.warns(UserWarning, match="under-resolved"):
            written = cmd_run(cfg, tmp_path / "out")
        with pytest.warns(UserWarning, match="under-resolved"):
            traj = fracwave.run(build_problem(cfg))
        energy_rows = [(i, i * traj.tau, *traj.energies[i],
                        traj.residuals[i - 1] if i else 0.0,
                        traj.iterations[i - 1] if i else 0)
                       for i in range(traj.n_steps + 1)]
        assert written["energy"].read_bytes() == per_value_text(
            ["step", "t", "kinetic", "fractional", "potential", "total",
             "residual", "iterations"], energy_rows).encode()
        mesh = traj.config.ops.mesh
        snap_rows = [(i * traj.tau, *mesh.embed(traj.u(i))) for i in range(0, 41, 10)]
        assert written["snapshots"].read_bytes() == per_value_text(
            ["t"] + [per_value(x) for x in mesh.nodes], snap_rows).encode()

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, {"preset": "obstacle_wave", "n_steps": 16,
                                       "n_cells": 16, "T": 0.25})
        cfg = parse_config(path)
        a = cmd_run(cfg, tmp_path / "a")
        b = cmd_run(cfg, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_byte_identical_across_blas_thread_counts(self, tmp_path):
        # at s = 1 the outputs must not depend on the BLAS thread count; each
        # run sets its count in its own process, before numpy loads BLAS
        path = write_config(tmp_path, {"preset": "gl_interface", "T": 0.02,
                                       "n_steps": 40})
        src = str(Path(fracwave.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            outs.append(tmp_path / f"threads_{threads}")
            subprocess.run([sys.executable, "-m", "fracwave.cli", "run",
                            "--config", str(path), "--out", str(outs[-1])],
                           env=env, check=True, capture_output=True)
        for name in ("energy.csv", "snapshots.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestCmdConverge:
    def test_eigenmode_slope_and_footer(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode", "n_cells": 32})
        written = cmd_converge(parse_config(path), [64, 128, 256], tmp_path / "out")
        header, rows = read_csv(written["convergence"])
        assert header == ["n", "tau", "error_T", "max_drift"]
        assert [int(r[0]) for r in rows] == [64, 128, 256]
        footer = read_footer(written["convergence"])
        assert footer["error_slope"] >= 0.8
        assert footer["c_drift"] >= 0.0
        assert written["config"].is_file()  # provenance next to outputs

    def test_zero_data_zero_errors(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode", "u0_kind": "zero",
                                       "n_cells": 8})
        written = cmd_converge(parse_config(path), [8, 16, 32], tmp_path / "out")
        _, rows = read_csv(written["convergence"])
        assert {r[2] for r in rows} == {"0"}

    def test_obstacle_drift_rows_bounded_by_echoed_constant(self, tmp_path):
        # constrained runs skip the reference comparison (error column nan)
        # but the drift column still obeys the constant fitted at the finest n
        path = write_config(tmp_path, {"preset": "obstacle_wave", "n_cells": 32,
                                       "T": 0.5})
        written = cmd_converge(parse_config(path), [32, 64, 128], tmp_path / "out")
        _, rows = read_csv(written["convergence"])
        c = read_footer(written["convergence"])["c_drift"]
        for r in rows:
            assert r[2] == "nan"
            assert float(r[3]) <= c * float(r[1])

    def test_unconstrained_drift_rows_bounded(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode", "n_cells": 32,
                                       "T": 0.5})
        written = cmd_converge(parse_config(path), [32, 64, 128], tmp_path / "out")
        _, rows = read_csv(written["convergence"])
        c = read_footer(written["convergence"])["c_drift"]
        for r in rows:
            assert float(r[3]) <= c * float(r[1])


class TestCmdSweep:
    def test_single_eps_matches_run_accounting(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "gl_interface", "T": 0.02, "n_steps": 10})
        written = cmd_sweep_eps(parse_config(path), [0.1], tmp_path / "out")
        header, rows = read_csv(written["sweep"])
        assert header == ["eps", "scaled_energy_0", "modica_mortola", "final_radius"]
        assert len(rows) == 1
        # h = eps/2 resolution rule applied: 20 cells on [0, 1]
        assert float(rows[0][1]) > 0
        assert 0 < float(rows[0][3]) < 1
        assert written["config"].is_file()  # provenance next to outputs

    def test_halving_sequence_band(self, tmp_path):
        path = write_config(tmp_path, {
            "preset": "gl_interface", "T": 0.05, "n_steps": 25})
        written = cmd_sweep_eps(parse_config(path), [0.1, 0.05], tmp_path / "out")
        _, rows = read_csv(written["sweep"])
        scaled = [float(r[1]) for r in rows]
        assert max(scaled) / min(scaled) <= 4.0

    def test_requires_scaled_double_well(self, tmp_path):
        path = write_config(tmp_path, {"preset": "eigenmode"})
        with pytest.raises(ConfigurationError):
            cmd_sweep_eps(parse_config(path), [0.1], tmp_path / "out")


class TestMainExitCodes:
    def test_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, {"preset": "eigenmode", "n_steps": 8,
                                       "n_cells": 8, "T": 0.25})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"preset": "eigenmode", "tolerence": 1.0})
        assert main(["run", "--config", str(path)]) == 2
        assert "tolerence" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("key, value", [("tol", -1.0), ("max_iter", 0),
                                            ("geometry", "sphere")])
    def test_bad_solver_key_or_geometry_is_2_before_any_output(
            self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, {"preset": "eigenmode", key: value})
        with pytest.raises(ConfigurationError, match=key):
            parse_config(path)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not (out / "effective_config.json").exists()

    def test_dirichlet_data_at_fractional_order_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"preset": "gl_interface", "s": 0.5})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "s = 0.5" in err and "Dirichlet" in err

    def test_solver_failure_is_3(self, tmp_path, capsys):
        path = write_config(tmp_path, {"preset": "eigenmode", "n_steps": 8,
                                       "n_cells": 8, "max_iter": 1,
                                       "potential": "double_well",
                                       "precondition": "off"})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "step 1" in capsys.readouterr().err

    # main reports the warnings the active filters let through, and this
    # config under-resolves the interface, which the default filters report
    @pytest.mark.filterwarnings("always:.*under-resolved:UserWarning")
    def test_non_convex_step_is_3(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "preset": "eigenmode", "n_cells": 8, "T": 1.0, "n_steps": 2,
            "potential": "double_well", "gl_eps": 0.05, "u0_kind": "sine",
            "u0_amp": 0.01})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "step 1" in err and "more time steps" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, config, named", [
        (["run"], {"preset": "gl_interface", "dirichlet_left": 0.0}, "Dirichlet"),
        (["run"], {"preset": "gl_interface", "dim": 0}, "dim >= 1"),
        (["run"], {"preset": "gl_interface", "x_min": 0.5}, "r = 0"),
        (["run"], {"preset": "eigenmode", "potential": "quadratic",
                   "quadratic_c": -1.0}, "quadratic coefficient"),
        (["run"], {"preset": "gl_interface", "s": 0.5}, "need s = 1"),
        (["run"], {"preset": "eigenmode", "u0_modes": "x"}, "u0_modes"),
        (["run"], {"preset": "eigenmode", "u0_modes": ""}, "u0_modes"),
        (["run"], {"preset": "eigenmode", "init_mode": "smoothed", "k_max": 0},
         "k_max"),
        (["run"], {"preset": "eigenmode", "n_steps": 1}, "n_steps"),
        (["run"], {"preset": "eigenmode", "geometry": "sphere"}, "geometry"),
        (["converge", "--n-list", "8,4,2"], {"preset": "eigenmode"},
         "strictly increasing"),
        (["sweep-eps", "--eps-list", "0.1,-1"], {"preset": "gl_interface"},
         "eps must be positive"),
        (["sweep-eps", "--eps-list", "0.1"],
         {"preset": "gl_interface", "s": 0.5, "dirichlet_right": 0.0},
         "assumes s = 1"),
        # json reads NaN and Infinity (also 1e400), and 10**400 as an int
        (["run"], {"preset": "eigenmode", "tol": float("inf")}, "'tol' must be a finite"),
        (["run"], {"preset": "eigenmode", "T": float("inf")}, "'T' must be a finite"),
        (["run"], {"preset": "obstacle_wave", "obstacle_value": float("nan")},
         "'obstacle_value' must be a finite"),
        (["run"], {"preset": "eigenmode", "x_max": -float("inf")}, "'x_max' must be a finite"),
        (["run"], {"preset": "eigenmode", "u0_amp": 10**400}, "'u0_amp' must be a finite"),
    ])
    def test_config_error_is_2_before_any_file(self, tmp_path, capsys, monkeypatch,
                                               command, config, named):
        def no_run(scheme):
            raise AssertionError("a trajectory ran before the checks ended")

        monkeypatch.setattr(cli, "run", no_run)
        path = write_config(tmp_path, config)
        out = tmp_path / "o"
        assert main([command[0], "--config", str(path), "--out", str(out),
                     *command[1:]]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, config, named, owner", [
        (["run"], {"preset": "gl_interface", "x_max": -1}, "x_max", "need b > a"),
        (["run"], {"preset": "eigenmode", "potential": "quadratic",
                   "quadratic_c": -1}, "key 'quadratic_c'", "quadratic coefficient"),
        (["run"], {"preset": "gl_interface", "gl_eps": 0}, "key 'gl_eps'",
         "eps must be positive"),
        (["sweep-eps", "--eps-list", "2"], {"preset": "gl_interface"},
         "--eps-list entry 2", "need at least 2 cells"),
    ])
    def test_owner_errors_name_the_key(self, tmp_path, capsys, command, config,
                                       named, owner):
        # the library's message, with the config key or the --eps-list entry
        # that gave the owner its argument named in front
        path = write_config(tmp_path, config)
        out = tmp_path / "o"
        assert main([command[0], "--config", str(path), "--out", str(out),
                     *command[1:]]) == 2
        err = capsys.readouterr().err
        assert named in err and owner in err
        assert err.index(named) < err.index(owner)
        assert not out.exists()

    def test_bad_n_list_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"preset": "eigenmode"})
        assert main(["converge", "--config", str(path), "--n-list", "a,b"]) == 2

    def test_blowup_is_4(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "geometry": "line", "n_cells": 8, "n_steps": 8, "T": 0.5,
            "potential": "double_well", "u0_kind": "sine", "u0_amp": 1e200})
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "blowup" in capsys.readouterr().err

    def test_under_resolved_config_warns(self, tmp_path):
        # eps = 0.05 on 20 cells of [0, 1]: eps = h < 2h
        path = write_config(tmp_path, {
            "preset": "gl_interface", "n_cells": 20, "n_steps": 4, "T": 0.01})
        with pytest.warns(UserWarning, match=r"under-resolved \(resolution rule: h <= eps/2\)"):
            build_problem(parse_config(path))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(eps=st.floats(1e-3, 1.0), x_max=st.floats(1.0, 4.0))
    def test_sweep_meshes_are_resolved(self, eps, x_max):
        # sweep-eps meshes each eps at h = eps/2, which the rule admits
        cfg = RunConfigFile(**dict(PRESETS["gl_interface"], x_max=x_max))
        (sub,) = _sweep_configs(cfg, [eps])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_problem(sub)

    # as a user's default filters do, let main record the warning
    @pytest.mark.filterwarnings("always:.*under-resolved:UserWarning")
    def test_under_resolved_warning(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "preset": "gl_interface", "n_cells": 5, "n_steps": 4, "T": 0.01})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err
        assert "under-resolved" in err and "h <= eps/2" in err
