"""Command-line entry points: outputs, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plantfield as pf
from plantfield.cli import _FLOW_CHUNK, _parse_grid, main
from oracles import gompertz_closed_form


def run(*argv):
    return main(list(argv))


def _read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    reader = csv.DictReader(lines[1:])
    return list(reader)


@pytest.fixture(scope="module")
def small_train_cfg(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "small.cfg"
    cfg.write_text(
        "train.T = 2.0\n"
        "train.N = 60\n"
        "train.K = 60\n"
        "train.d3 = 2\n"
        "train.d5 = 1\n"
        "seed = 5\n"
    )
    return cfg


@pytest.fixture(scope="module")
def trained_dir(small_train_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run("train-meanfield", "--config", str(small_train_cfg), "--out", str(out)) == 0
    return out


def test_simulate_writes_trajectory_and_diagnostics(tmp_path):
    out = tmp_path / "run"
    assert run("simulate", "--n", "8", "--seed", "3", "--out", str(out)) == 0

    rows = _read_rows(out / "trajectory.csv")
    assert set(rows[0]) == {"t", "plant_id", "s", "x1", "x2", "S", "gamma", "C_index"}
    assert len(rows) == 21 * 8  # default half-unit snapshot grid over [0, 10]
    assert rows[0]["t"] == "0.0" and rows[0]["plant_id"] == "0"

    doc = json.loads((out / "diagnostics.json").read_text())
    assert doc["command"] == "simulate"
    assert doc["n"] == 8 and doc["seed"] == 3
    assert doc["t_end"] == 10.0
    assert doc["n_accepted_steps"] > 0
    assert 0.05 < doc["min_size"] <= doc["max_size"]
    assert len(doc["snapshots"]) == 21
    assert doc["config_sha256"] == pf.config_sha256(
        pf.resolve_config({"sim.n": 8, "seed": 3})
    )


def test_simulate_is_deterministic(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b):
        assert run("simulate", "--n", "6", "--seed", "4", "--out", str(d)) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "diagnostics.json").read_bytes() == (b / "diagnostics.json").read_bytes()
    assert run("simulate", "--n", "6", "--seed", "9", "--out", str(c)) == 0
    assert (a / "trajectory.csv").read_bytes() != (c / "trajectory.csv").read_bytes()


def test_train_meanfield_outputs(trained_dir):
    model = pf.load_model(trained_dir / "model.json")
    assert model.T == 2.0 and model.n_stages == 2
    assert model.mu0_cfg.s0_law == "uniform"
    lines = (trained_dir / "r2.csv").read_text().splitlines()
    assert lines[1] == "t,r2_train,r2_test"
    assert len(lines) == 2 + 2


def test_train_meanfield_is_deterministic(small_train_cfg, trained_dir, tmp_path):
    again = tmp_path / "again"
    assert run("train-meanfield", "--config", str(small_train_cfg), "--out", str(again)) == 0
    assert (again / "model.json").read_bytes() == (trained_dir / "model.json").read_bytes()
    assert (again / "r2.csv").read_bytes() == (trained_dir / "r2.csv").read_bytes()


def test_converge_outputs(small_train_cfg, trained_dir, tmp_path):
    out = tmp_path / "conv"
    rc = run(
        "converge", "--config", str(small_train_cfg),
        "--model", str(trained_dir / "model.json"),
        "--n-list", "5,9", "--out", str(out),
    )
    assert rc == 0
    rows = _read_rows(out / "distances.csv")
    assert len(rows) == 2 * 5  # two sizes, grid 0:0.5:2
    assert sorted({r["N"] for r in rows}) == ["5", "9"]
    for r in rows:
        assert float(r["w1_size"]) >= 0.0
        assert np.isfinite(float(r["w1_full"]))  # both sizes under the cap
        assert float(r["bound_value"]) > 0.0


def test_converge_self_comparison_is_zero(small_train_cfg, trained_dir, tmp_path):
    out = tmp_path / "self"
    rc = run(
        "converge", "--config", str(small_train_cfg),
        "--model", str(trained_dir / "model.json"),
        "--n-list", "4,7", "--self-comparison", "--out", str(out),
    )
    assert rc == 0
    for r in _read_rows(out / "distances.csv"):
        assert float(r["w1_size"]) == 0.0
        assert float(r["flow_gap"]) == 0.0


def test_potential_dump_grid(trained_dir, tmp_path):
    out = tmp_path / "dump"
    rc = run(
        "potential-dump", "--model", str(trained_dir / "model.json"),
        "--grid", "-3,3,-3,3,4", "--out", str(out),
    )
    assert rc == 0
    rows = _read_rows(out / "potential_surface.csv")
    assert len(rows) == 16
    assert set(rows[0]) == {"x1", "x2", "S_bar", "gamma_bar", "s_inf", "extrapolated"}
    # Corner of the grid lies beyond twice the position spread.
    assert rows[0]["extrapolated"] == "1"
    center = [r for r in rows if abs(float(r["x1"])) <= 1.0 and abs(float(r["x2"])) <= 1.0]
    assert all(r["extrapolated"] == "0" for r in center)
    for r in rows:
        assert 0.05 < float(r["s_inf"]) < 0.05 * np.exp(3.0)


def test_potential_dump_zero_steps(trained_dir, tmp_path):
    out = tmp_path / "empty"
    rc = run(
        "potential-dump", "--model", str(trained_dir / "model.json"),
        "--grid", "-1,1,-1,1,0", "--out", str(out),
    )
    assert rc == 0
    lines = (out / "potential_surface.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "x1,x2,S_bar,gamma_bar,s_inf,extrapolated"


def test_potential_dump_is_deterministic(trained_dir, tmp_path):
    outs = [tmp_path / "d1", tmp_path / "d2"]
    for out in outs:
        assert run(
            "potential-dump", "--model", str(trained_dir / "model.json"),
            "--grid", "-2,2,-2,2,5", "--out", str(out),
        ) == 0
    assert (outs[0] / "potential_surface.csv").read_bytes() == (
        outs[1] / "potential_surface.csv"
    ).read_bytes()


def test_potential_dump_chunks_match_one_flow_evaluation(trained_dir, tmp_path):
    # 65^2 points span a full flow chunk and a ragged second one: row i
    # must still be grid point i, in row-major order, with the flow of
    # one evaluation over the whole grid.
    assert 64**2 <= _FLOW_CHUNK < 65**2
    out = tmp_path / "dump"
    model_path = trained_dir / "model.json"
    assert run(
        "potential-dump", "--model", str(model_path), "--grid", "-3,3,-2,2,65",
        "--out", str(out),
    ) == 0
    rows = _read_rows(out / "potential_surface.csv")
    model = pf.load_model(model_path)
    mu0 = model.mu0_cfg
    pts = np.array([
        (a, b) for a in np.linspace(-3, 3, 65) for b in np.linspace(-2, 2, 65)
    ])
    caps = pf.surface_eval(mu0.S_surface, pts)
    rates = pf.surface_eval(mu0.gamma_surface, pts)
    grid = pf.PopulationState(np.full(len(pts), mu0.s0_mid), pts, caps, rates)
    s_inf = pf.flow_eval_many(model, model.T, grid)
    got = np.array([[float(r[k]) for k in ("x1", "x2", "S_bar", "gamma_bar")] for r in rows])
    assert np.array_equal(got, np.column_stack([pts, caps, rates]))
    assert [float(r["s_inf"]) for r in rows] == pytest.approx(s_inf, rel=1e-14, abs=0.0)


def test_exit_code_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    for line in ("sim.banana = 1\n", "solver.method = rk4-fixed\n"):
        bad.write_text(line)
        assert run("simulate", "--config", str(bad), "--out", str(tmp_path / "o1")) == 2
    assert run(
        "simulate", "--config", str(tmp_path / "missing.cfg"),
        "--out", str(tmp_path / "o2"),
    ) == 2


def test_exit_code_bad_model_and_grid(trained_dir, tmp_path):
    assert run(
        "converge", "--model", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "c1"),
    ) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert run(
        "converge", "--model", str(garbage), "--out", str(tmp_path / "c2")
    ) == 2
    model = str(trained_dir / "model.json")
    assert run(
        "converge", "--model", model, "--n-list", "7,3",
        "--out", str(tmp_path / "c3"),
    ) == 2
    assert run(
        "potential-dump", "--model", model, "--grid", "1,2,3",
        "--out", str(tmp_path / "c4"),
    ) == 2
    assert run(
        "potential-dump", "--model", model, "--grid", "2,-2,-1,1,4",
        "--out", str(tmp_path / "c5"),
    ) == 2


def test_grid_steps_are_capped():
    # The grid has steps^2 points, built in Python at ~1.5 KB each, so a
    # grid beyond a million points is refused before anything is built.
    assert _parse_grid("-2,2,-2,2,1000")[-1] == 1000
    for steps in (-1, 1001, 100_000):
        with pytest.raises(pf.ConfigError, match=r"grid steps must lie in \[0, 1000\]"):
            _parse_grid(f"-2,2,-2,2,{steps}")


def _one_plant():
    return pf.PopulationState(
        np.array([0.1]), np.zeros((1, 2)), np.array([0.75]), np.array([1.0])
    )


_POPULATION_RULE = "= 1: a population needs at least 2 individuals"


@pytest.mark.parametrize(
    "entry, error, message",
    [
        (lambda ec, model, out: pf.integrate(ec.params, _one_plant(), ec.solver),
         ValueError, "N " + _POPULATION_RULE),
        (lambda ec, model, out: pf.bound_coefficients(ec.mu0, _one_plant(), N=1),
         ValueError, "N " + _POPULATION_RULE),
        (lambda ec, model, out: pf.convergence_experiment(
            pf.load_model(model), [1, 5], ec.solver, 0, ec.weights
        ), ValueError, "n-list entry " + _POPULATION_RULE),
        (lambda ec, model, out: pf.build_experiment_config(
            pf.resolve_config({"sim.n": 1})
        ), pf.ConfigError, "sim.n " + _POPULATION_RULE),
        (lambda ec, model, out: run("simulate", "--n", "1", "--out", out),
         None, "sim.n " + _POPULATION_RULE),
        (lambda ec, model, out: run(
            "converge", "--model", model, "--n-list", "1,5", "--out", out
        ), None, "n-list entry " + _POPULATION_RULE),
        (lambda ec, model, out: run(
            "converge", "--model", model, "--n-list", "5,3", "--out", out
        ), None, "n-list must be strictly increasing"),
    ],
    ids=[
        "integrate", "bound_coefficients", "convergence_experiment",
        "build_experiment_config", "simulate", "converge-1,5", "converge-5,3",
    ],
)
def test_population_size_rule_at_every_entry(
    entry, error, message, exp_config, trained_dir, tmp_path, capsys
):
    # A plant's competition index averages over the N - 1 others, so one
    # rule refuses N = 1 wherever a population size enters; the commands
    # report it as a configuration error (exit 2).
    args = (exp_config, str(trained_dir / "model.json"), str(tmp_path / "o"))
    if error is None:
        assert entry(*args) == 2
        text = capsys.readouterr().err
    else:
        with pytest.raises(error) as info:
            entry(*args)
        text = str(info.value)
    assert message in text


@pytest.mark.parametrize(
    "grid", ["nan,1,0,1,3", "-inf,1,0,1,3", "0,inf,0,1,3", "0,1,0,nan,3"]
)
def test_exit_code_non_finite_grid_bounds(grid, trained_dir, tmp_path, capsys):
    rc = run(
        "potential-dump", "--model", str(trained_dir / "model.json"),
        "--grid", grid, "--out", str(tmp_path / "d"),
    )
    assert rc == 2
    assert "grid bounds must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cmd, line, key",
    [
        ("simulate", "mu0.L = inf", "mu0.L"),
        ("simulate", "mu0.L = nan", "mu0.L"),
        ("simulate", "mu0.delta_S = inf", "mu0.delta_S"),
        ("simulate", "mu0.delta_gamma = nan", "mu0.delta_gamma"),
        ("converge", "metric.tau_r = nan", "metric weight tau_r"),
        ("converge", "metric.ell = nan", "metric weight ell"),
        ("converge", "metric.ell = inf", "metric weight ell"),
        ("simulate", "mu0.gamma_max = nan", "mu0.gamma_max"),
        ("simulate", "mu0.gamma_max = inf", "mu0.gamma_max"),
        ("simulate", "mu0.S_surface.peak = inf", "mu0.S_surface: peak_value"),
        ("simulate", "mu0.S_surface.peak_x1 = nan", "mu0.S_surface: peak_center"),
        ("simulate", "mu0.S_surface.trough_x2 = inf", "mu0.S_surface: trough_center"),
        ("simulate", "mu0.gamma_surface.h2_22 = inf", "mu0.gamma_surface: curvature_trough"),
    ],
)
def test_exit_code_non_finite_law_and_metric(
    cmd, line, key, trained_dir, tmp_path, capsys
):
    # Refused when the config is built, naming the setting, before any draw.
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    extra = (
        ("--model", str(trained_dir / "model.json"), "--n-list", "4")
        if cmd == "converge" else ("--n", "4")
    )
    rc = run(cmd, "--config", str(cfg), *extra, "--out", str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


@pytest.mark.parametrize(
    "lines, key",
    [
        ("train.T = 2.5\ntrain.dt = 1.0", "integral number of stages"),
        ("train.dt = 0.0", "dt must be finite and strictly positive"),
        ("train.d3 = -1", "degrees must be nonnegative"),
        ("train.N = 0", "sample sizes must be at least 1"),
        ("train.dt = 1e-320", "stages; at most"),
        ("train.dt = 1e-300", "stages; at most"),
        ("train.s0_min = 0.01", "train.s0"),
        ("train.s0_max = 0.05", "train.s0"),
    ],
    ids=[
        "T-not-whole-stages", "dt-zero", "d3-negative", "N-zero",
        "dt-stage-count-overflows", "dt-stage-count-above-ceiling",
        "s0_min-below-s_m", "s0_max-below-s0_min",
    ],
)
def test_exit_code_invalid_train_settings(lines, key, tmp_path, capsys):
    # Checked when the config is built, by the rules ``meanfield.train`` and
    # the training law use, so every command refuses the file alike.
    cfg = tmp_path / "train.cfg"
    cfg.write_text(lines + "\n")
    for cmd in ("simulate", "train-meanfield"):
        assert run(cmd, "--config", str(cfg), "--out", str(tmp_path / cmd)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and key in err


def test_exit_code_non_finite_stage_fit(small_train_cfg, tmp_path, monkeypatch, capsys):
    def nan_targets(params, s, x, cloud_sizes, cloud_positions):
        return np.full(np.shape(s), np.nan)

    monkeypatch.setattr("plantfield.meanfield.mc_potential", nan_targets)
    out = str(tmp_path / "o")
    assert run("train-meanfield", "--config", str(small_train_cfg), "--out", out) == 3
    err = capsys.readouterr().err
    assert "numerical failure: stage 0: fitted beta is not finite" in err


def test_plain_value_error_is_not_a_numerical_failure(tmp_path, monkeypatch):
    def broken(params, state0, cfg):
        raise ValueError("a defect, not a failed solve")

    monkeypatch.setattr("plantfield.cli.integrate", broken)
    with pytest.raises(ValueError, match="a defect"):
        run("simulate", "--n", "4", "--out", str(tmp_path / "o"))


def test_exit_code_solver_failure(tmp_path, capsys):
    cfg = tmp_path / "under.cfg"
    cfg.write_text("solver.dt_init = 1e-300\n")
    rc = run(
        "simulate", "--config", str(cfg), "--n", "4",
        "--out", str(tmp_path / "o"),
    )
    assert rc == 3
    assert "numerical failure: step size underflow" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lines, key",
    [
        ("solver.t_end = inf", "solver.t_end"),
        ("solver.t_end = nan", "solver.t_end"),
        ("solver.t_end = -1", "solver.t_end"),
        ("solver.t_end = -0.1", "solver.t_end"),
        ("solver.snapshot_dt = 1e-320", "solver.snapshot_dt"),
        ("solver.snapshot_dt = 1e-12", "solver.snapshot_dt"),
        ("solver.snapshot_dt = inf", "solver.snapshot_dt"),
        ("solver.dt_init = inf", "solver.dt_init"),
        ("solver.dt_init = nan", "solver.dt_init"),
        ("solver.rel_tol = inf", "solver.rel_tol"),
        ("solver.abs_tol = nan", "solver.abs_tol"),
    ],
    ids=[
        "t_end-inf", "t_end-nan", "t_end-negative", "t_end-negative-fraction",
        "snapshot-count-overflows", "snapshot-count-above-ceiling", "snapshot_dt-inf",
        "dt_init-inf",
        "dt_init-nan", "rel_tol-inf", "abs_tol-nan",
    ],
)
def test_exit_code_non_finite_solver_settings(lines, key, tmp_path, capsys):
    # Rejected when the config is built, naming the key, before any solve.
    # t_end and snapshot_dt are checked by the snapshot grid SolverConfig builds.
    cfg = tmp_path / "solver.cfg"
    cfg.write_text(lines + "\n")
    rc = run("simulate", "--config", str(cfg), "--n", "4", "--out", str(tmp_path / "o"))
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


@pytest.mark.parametrize("dt", ["1e-300", "1e-320"])
def test_exit_code_converge_grid_over_model_horizon(dt, trained_dir, tmp_path, capsys):
    # The config's own grid (t_end = snapshot_dt) is one step; against the
    # model's horizon it has too many points (1e-300) or an infinite count
    # (1e-320).  Both are refused before anything is allocated.
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"solver.t_end = {dt}\nsolver.snapshot_dt = {dt}\n")
    rc = run(
        "converge", "--config", str(cfg), "--model", str(trained_dir / "model.json"),
        "--n-list", "4", "--out", str(tmp_path / "o"),
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "solver.snapshot_dt" in err


def test_exit_code_diverged_integration(tmp_path, monkeypatch, capsys):
    # A load of -1 sets every plant's target to twice its log-cap, so an
    # accepted step crosses the cap by far more than roundoff.
    monkeypatch.setattr(
        "plantfield.population._competition_all",
        lambda params, r, row, n_sources: -np.ones_like(r),
    )
    rc = run("simulate", "--n", "4", "--out", str(tmp_path / "o"))
    assert rc == 3
    assert "numerical failure: size bound violated" in capsys.readouterr().err


def test_simulate_draws_caps_far_above_their_mean(tmp_path):
    # S_lower = 0.5 lies 40 sd above a flat cap mean of 0.1: the tail
    # mass there underflows, yet every cap must be drawn inside its bounds.
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        "mu0.S_surface.offset = 0.1\nmu0.S_surface.peak = 0.1\n"
        "mu0.S_surface.trough = 0.1\nmu0.delta_S = 0.01\n"
    )
    out = tmp_path / "o"
    assert run("simulate", "--config", str(cfg), "--n", "20", "--out", str(out)) == 0
    caps = np.array([float(r["S"]) for r in _read_rows(out / "trajectory.csv")])
    assert np.all((0.5 < caps) & (caps < 0.51))


@pytest.mark.parametrize("command", ["simulate", "train-meanfield"])
def test_caps_within_rounding_of_their_bound_are_a_configuration_error(
    command, tmp_path, capsys
):
    # S_lower = 0.5 lies 4e8 sd above a flat cap mean of 0.1: every exact
    # draw lies within about 1e-17 of the bound and rounds onto it, so no
    # cap can be drawn strictly inside (S_lower, S_max).
    cfg = tmp_path / "near.cfg"
    cfg.write_text(
        "mu0.S_surface.offset = 0.1\nmu0.S_surface.peak = 0.1\n"
        "mu0.S_surface.trough = 0.1\nmu0.delta_S = 1e-9\n"
        "train.T = 1.0\ntrain.N = 10\ntrain.K = 10\n"
    )
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "mu0.delta_S" in err and "mu0.S_lower" in err


def test_exit_code_non_finite_state(tmp_path, monkeypatch, capsys):
    def nan_integrate(params, state0, cfg):
        pf.solve_ode(lambda t, y: np.full_like(y, np.nan), 0.0, 1.0, state0.sizes)

    monkeypatch.setattr("plantfield.cli.integrate", nan_integrate)
    rc = run("simulate", "--n", "4", "--out", str(tmp_path / "o"))
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: non-finite" in err
    assert "t=0.0 (step 0)" in err


def test_exit_code_sigma_r_below_kernel_window(trained_dir, tmp_path, capsys):
    # R_M / sigma_r = 3 / 0.004 = 750 exceeds the admissible 600, from a
    # config file and from a model document alike.
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("model.sigma_r = 0.004\n")
    rc = run("simulate", "--config", str(cfg), "--n", "4", "--out", str(tmp_path / "o"))
    assert rc == 2
    assert "sigma_r=0.004" in capsys.readouterr().err
    doc = json.loads((trained_dir / "model.json").read_text())
    doc["params"]["sigma_r"] = 0.004
    bad = tmp_path / "narrow.json"
    bad.write_text(json.dumps(doc))
    for cmd, *rest in (("converge", "--n-list", "4"), ("potential-dump", "--grid", "0,1,0,1,2")):
        rc = run(cmd, "--model", str(bad), *rest, "--out", str(tmp_path / cmd))
        assert rc == 2
        err = capsys.readouterr().err
        assert "sigma_r=0.004" in err and "R_M=3.0" in err


@pytest.mark.parametrize("sigma_x", [1e-170, 1e200])
def test_exit_code_sigma_x_without_normal_square(sigma_x, trained_dir, tmp_path, capsys):
    # sigma_x**2 underflows to 0 at 1e-170 (kernel diagonal 0/0) and
    # overflows at 1e200; both are configuration errors, not exit 3.
    cfg = tmp_path / "spread.cfg"
    cfg.write_text(f"model.sigma_x = {sigma_x!r}\n")
    rc = run("simulate", "--config", str(cfg), "--n", "4", "--out", str(tmp_path / "o"))
    assert rc == 2
    assert f"sigma_x={sigma_x!r}" in capsys.readouterr().err
    doc = json.loads((trained_dir / "model.json").read_text())
    doc["params"]["sigma_x"] = sigma_x
    bad = tmp_path / "spread.json"
    bad.write_text(json.dumps(doc))
    rc = run("potential-dump", "--model", str(bad), "--grid", "0,1,0,1,2", "--out", str(tmp_path / "d"))
    assert rc == 2
    assert f"sigma_x={sigma_x!r}" in capsys.readouterr().err


def _dump_edited_model(trained_dir, tmp_path, edit):
    """Exit code of potential-dump on the trained model.json after ``edit(doc)``."""
    doc = json.loads((trained_dir / "model.json").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return run("potential-dump", "--model", str(path), "--grid", "0,1,0,1,2", "--out", str(tmp_path / "d"))


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["mu0"].pop("delta_S"),
        lambda d: d["mu0"]["gamma_surface"].pop("curvature_trough"),
        lambda d: d["stages"][-1].pop("r2_test"),
        lambda d: d["spec"].update(dt="1.0"),
        lambda d: d["spec"].update(d5=2.5),
    ],
    ids=["mu0", "surface", "stage", "spec-dt-string", "spec-d5-float"],
)
def test_exit_code_model_missing_key(edit, trained_dir, tmp_path, capsys):
    assert _dump_edited_model(trained_dir, tmp_path, edit) == 2
    assert "invalid model file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, words",
    [
        (lambda d: d.update(version=1), ["model version 1", "retrain"]),
        (lambda d: d["stages"][1]["beta"].pop(), ["stage 1: beta must have length 6"]),
        (lambda d: d["spec"].update(d5=2.5), ["degrees must be", "d5=2.5"]),
    ],
    ids=["version-1", "short-beta", "d5-float"],
)
def test_exit_code_model_document_names_its_fault(
    edit, words, trained_dir, tmp_path, capsys
):
    # A document of the previous layout (a frame per stage) is refused, not
    # read; a coefficient vector is checked against its stage's position,
    # and the frame's degrees are checked whether or not a stage uses them.
    assert _dump_edited_model(trained_dir, tmp_path, edit) == 2
    err = capsys.readouterr().err
    assert all(w in err for w in words), err


@pytest.mark.parametrize(
    "flag, content",
    [
        ("--model", b"[]"),
        ("--model", None),
        ("--model", b"\xff{}"),
        ("--config", None),
        ("--config", b"seed = 1 # \xff\n"),
    ],
    ids=[
        "model-not-object", "model-directory", "model-not-utf8",
        "config-directory", "config-not-utf8",
    ],
)
def test_exit_code_unreadable_input_file(flag, content, tmp_path, capsys):
    # An input that cannot be read as its format is a configuration error
    # that names the file, not a traceback; ``None`` makes it a directory.
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    if flag == "--model":
        argv = ["potential-dump", "--model", str(path), "--grid", "0,1,0,1,2"]
    else:
        argv = ["simulate", "--config", str(path), "--n", "4"]
    assert run(*argv, "--out", str(tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(path) in err


@pytest.mark.parametrize(
    "surface, key, value",
    [
        ("S_surface", "trough_value", -0.2),
        ("S_surface", "trough_value", 0.0),
        ("S_surface", "peak_value", 1.5),
        ("gamma_surface", "trough_value", -0.5),
    ],
    ids=["cap-negative", "cap-below-s_m", "cap-above-max", "rate-negative"],
)
def test_exit_code_potential_dump_inadmissible_surface(
    surface, key, value, trained_dir, tmp_path, capsys
):
    # Grid points whose mean cap lies outside (s_m, s_m e^{R_M}) or whose mean
    # rate is negative are outside the flow's domain; the dump names the first
    # such point and writes nothing, where it would write NaN or sizes below s_m.
    doc = json.loads((trained_dir / "model.json").read_text())
    doc["mu0"][surface][key] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "d"
    rc = run("potential-dump", "--model", str(path), "--grid", "-2,2,-2,2,9", "--out", str(out))
    assert rc == 2
    axis = np.linspace(-2.0, 2.0, 9)
    pts = np.array([(a, b) for a in axis for b in axis])
    model = pf.load_model(path)
    caps = pf.surface_eval(model.mu0_cfg.S_surface, pts)
    caps_ok = (model.params.s_m < caps) & (caps < model.params.max_size)
    rates_ok = pf.surface_eval(model.mu0_cfg.gamma_surface, pts) >= 0.0
    first = int(np.flatnonzero(~(caps_ok & rates_ok))[0])
    reason = (
        "growth rate not nonnegative" if caps_ok[first]
        else "asymptotic size outside (s_m, s_m*exp(R_M))"
    )
    assert f"inadmissible grid point {first}: {reason}" in capsys.readouterr().err
    assert not (out / "potential_surface.csv").exists()


@pytest.mark.parametrize(
    "edit",
    [lambda d: d["mu0"].update(note=1), lambda d: d["params"].update(note=1)],
    ids=["mu0", "params"],
)
def test_model_extra_key_is_ignored(edit, trained_dir, tmp_path):
    assert _dump_edited_model(trained_dir, tmp_path, edit) == 0


@pytest.mark.parametrize(
    "dt, T",
    [(-1.0, None), (float("nan"), float("nan")), (None, float("nan"))],
    ids=["negative", "nan", "nan-horizon"],
)
@pytest.mark.parametrize(
    "cmd",
    [("converge", "--n-list", "4"), ("potential-dump", "--grid", "0,1,0,1,2")],
    ids=["converge", "potential-dump"],
)
def test_exit_code_malformed_model_horizon(cmd, dt, T, trained_dir, tmp_path, capsys):
    # A negative horizon of whole stages (dt = -1, T = -m) and NaN values
    # pass a bare stage-count test (false for NaN), so dt is checked first.
    doc = json.loads((trained_dir / "model.json").read_text())
    doc["spec"]["dt"] = doc["spec"]["dt"] if dt is None else dt
    doc["T"] = -len(doc["stages"]) if T is None else T
    bad = tmp_path / "horizon.json"
    bad.write_text(json.dumps(doc))
    name, *rest = cmd
    assert run(name, "--model", str(bad), *rest, "--out", str(tmp_path / name)) == 2
    err = capsys.readouterr().err
    assert "invalid model file" in err and ("dt" in err or "T=" in err)


@pytest.mark.parametrize("field, index", [("dt", None), ("length", None), ("center", 0)])
@pytest.mark.parametrize(
    "cmd",
    [("converge", "--n-list", "4"), ("potential-dump", "--grid", "0,1,0,1,2")],
    ids=["converge", "potential-dump"],
)
def test_exit_code_non_finite_stage_spec(cmd, field, index, trained_dir, tmp_path, capsys):
    # json.load reads the NaN literal, so the model's feature frame can hold
    # one; it is refused when the frame is built, before any row is computed.
    doc = json.loads((trained_dir / "model.json").read_text())
    spec = doc["spec"]
    if index is None:
        spec[field] = float("nan")
    else:
        spec[field][index] = float("nan")
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(doc))
    name, *rest = cmd
    assert run(name, "--model", str(bad), *rest, "--out", str(tmp_path / name)) == 2
    err = capsys.readouterr().err
    assert "invalid model file" in err and f"{field} must be finite" in err
    assert not (tmp_path / name / "potential_surface.csv").exists()
    assert not (tmp_path / name / "distances.csv").exists()


def _run_twice(tmp_path, *argv):
    """Run a command into two directories, check that every output file is
    byte-identical between them, and return the first directory."""
    outs = [tmp_path / "first", tmp_path / "again"]
    for out in outs:
        assert run(*argv, "--out", str(out)) == 0
    names = sorted(f.name for f in outs[0].iterdir())
    assert names == sorted(f.name for f in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    return outs[0]


def _checked_trajectory_rows(out):
    rows = _read_rows(out / "trajectory.csv")
    for r in rows:
        assert 0.05 < float(r["s"]) < float(r["S"])
        assert 0.0 <= float(r["C_index"]) <= 1.0
    return rows


def test_simulate_two_plants(tmp_path):
    rows = _checked_trajectory_rows(_run_twice(tmp_path, "simulate", "--n", "2"))
    assert len(rows) == 2 * 21
    assert {r["plant_id"] for r in rows} == {"0", "1"}


@pytest.mark.parametrize("seed", ["2", "3"])
def test_simulate_c_index_never_below_zero(seed, tmp_path):
    # Narrowest admissible sigma_r (R_M/600) and a distance-free kernel: a
    # row whose other terms underflow used to cancel to -1.5e-18.
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("model.sigma_r = 0.005\nmodel.sigma_x = 1000000.0\n")
    out = tmp_path / "run"
    assert run("simulate", "--config", str(cfg), "--seed", seed, "--out", str(out)) == 0
    _checked_trajectory_rows(out)
    doc = json.loads((out / "diagnostics.json").read_text())
    assert doc["min_c_index"] >= 0.0


def test_simulate_zero_horizon(tmp_path):
    cfg = tmp_path / "t0.cfg"
    cfg.write_text("solver.t_end = 0\n")
    out = _run_twice(tmp_path, "simulate", "--config", str(cfg), "--n", "5")
    rows = _checked_trajectory_rows(out)
    assert [r["t"] for r in rows] == ["0.0"] * 5
    assert {r["s"] for r in rows} == {"0.1"}  # the point initial law
    doc = json.loads((out / "diagnostics.json").read_text())
    assert doc["n_accepted_steps"] == 0 and len(doc["snapshots"]) == 1


def test_simulate_caps_far_above_their_mean(tmp_path):
    # A cap trough of -1 lies 15 sd below mu0.S_lower, where the normal CDF
    # at S_lower rounds to 1; the caps come from the mirrored tail instead.
    cfg = tmp_path / "trough.cfg"
    cfg.write_text("mu0.S_surface.trough = -1.0\n")
    out = tmp_path / "o"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
    ec = pf.build_experiment_config(pf.resolve_config({}))
    caps = np.array([float(r["S"]) for r in _read_rows(out / "trajectory.csv")])
    assert np.all((ec.mu0.S_lower < caps) & (caps < ec.params.max_size))


def test_potential_dump_one_point_grid(trained_dir, tmp_path):
    out = _run_twice(
        tmp_path, "potential-dump", "--model", str(trained_dir / "model.json"),
        "--grid", "0.5,0.5,-0.25,-0.25,1",
    )
    rows = _read_rows(out / "potential_surface.csv")
    assert len(rows) == 1
    row = rows[0]
    assert (row["x1"], row["x2"], row["extrapolated"]) == ("0.5", "-0.25", "0")
    assert 0.05 < float(row["s_inf"]) < float(row["S_bar"])


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("simulate")  # --out is mandatory
    assert exc.value.code == 2


def test_decoupled_population_matches_isolated_growth(tmp_path):
    # With plants pushed astronomically far apart the interaction term
    # vanishes and every trajectory must follow its isolated closed form.
    cfg = tmp_path / "far.cfg"
    cfg.write_text("mu0.L = 5e6\nsim.n = 2\nseed = 2\n")
    out = tmp_path / "far"
    assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
    rows = _read_rows(out / "trajectory.csv")
    by_plant = {}
    for r in rows:
        by_plant.setdefault(r["plant_id"], []).append(r)
    assert set(by_plant) == {"0", "1"}
    params = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=1.32)
    for seq in by_plant.values():
        s0, S, gamma = (float(seq[0][key]) for key in ("s", "S", "gamma"))
        for r in seq:
            ref = gompertz_closed_form(params, s0, S, gamma, float(r["t"]))
            assert abs(float(r["s"]) - ref) / ref < 1e-5


def test_degree_zero_training_runs(tmp_path):
    cfg = tmp_path / "d0.cfg"
    cfg.write_text(
        "train.T = 2.0\ntrain.N = 40\ntrain.K = 40\n"
        "train.d3 = 0\ntrain.d5 = 0\n"
    )
    out = tmp_path / "out"
    assert run("train-meanfield", "--config", str(cfg), "--out", str(out)) == 0
    model = pf.load_model(out / "model.json")
    assert all(st.beta.shape == (1,) for st in model.stages)


def _package_env(**extra):
    """The environment of a child process that imports this package."""
    src = str(Path(pf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def _assert_bytes_do_not_depend_on_blas_threads(argv, names, tmp_path):
    """Run ``plantfield argv --out <dir>`` under one and two BLAS threads,
    each in a fresh process, and compare the files ``names`` byte for byte."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = _package_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "plantfield", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.fixture(scope="module")
def default_model(trained_model, tmp_path_factory):
    """The session's model trained at the default settings, as a file."""
    path = tmp_path_factory.mktemp("default_model") / "model.json"
    pf.save_model(trained_model[0], path)
    return path


def test_train_meanfield_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The training targets' rank-8 cross sums are rounded inside the BLAS
    # kernel; one and two BLAS threads must still write the same model and
    # R^2 table byte for byte.
    cfg = tmp_path / "small.cfg"
    cfg.write_text("train.T = 2.0\ntrain.N = 300\ntrain.K = 300\n")
    _assert_bytes_do_not_depend_on_blas_threads(
        ["train-meanfield", "--config", str(cfg)], ["model.json", "r2.csv"], tmp_path
    )


@pytest.mark.parametrize("n", [129, 300])
def test_simulate_bytes_do_not_depend_on_blas_threads(n, tmp_path):
    # The population row sums are BLAS matrix-vector products per kernel
    # block, which OpenBLAS may split across threads; one and two threads
    # must still write the same trajectory and diagnostics byte for byte.
    # 129 plants leave a one-row second block; 300 make three blocks.
    cfg = tmp_path / "short.cfg"
    cfg.write_text(f"solver.t_end = 1.0\nsim.n = {n}\n")
    _assert_bytes_do_not_depend_on_blas_threads(
        ["simulate", "--config", str(cfg)], ["trajectory.csv", "diagnostics.json"],
        tmp_path,
    )


def test_converge_bytes_do_not_depend_on_blas_threads(default_model, tmp_path):
    # Each N integrates a population (row sums by block gemv) and evaluates
    # the surrogate flow (stage products F @ beta); 129 plants leave a
    # one-row second kernel block.
    _assert_bytes_do_not_depend_on_blas_threads(
        ["converge", "--model", str(default_model), "--n-list", "50,129"],
        ["distances.csv"], tmp_path,
    )


def test_potential_dump_bytes_do_not_depend_on_blas_threads(default_model, tmp_path):
    # 97^2 = 9409 grid points make two full flow chunks and a ragged third,
    # each a threaded F @ beta product.
    _assert_bytes_do_not_depend_on_blas_threads(
        ["potential-dump", "--model", str(default_model), "--grid", "-1,2,-3,1,97"],
        ["potential_surface.csv"], tmp_path,
    )


_LOADED_SCIPY = """\
import json, sys
if sys.argv[2] == "refuse":
    class RefuseScipy:
        def find_spec(self, name, path=None, target=None):
            if name.split(".")[0] == "scipy":
                raise ImportError(f"{name} is refused")
    sys.meta_path.insert(0, RefuseScipy())
import plantfield
from plantfield.cli import main
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = {"import plantfield": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    # Loading SciPy costs a process about 40 MB resident and 0.8 s: neither
    # the package nor any command may load any of it.  One process runs
    # the commands in turn, so each sees what the earlier ones loaded; a
    # second process refuses every scipy import and must write the same
    # bytes.
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "solver.t_end = 1.0\nsim.n = 8\n"
        "train.T = 1.0\ntrain.N = 40\ntrain.K = 40\n"
    )
    outs = {}
    for mode in ("load", "refuse"):
        out = outs[mode] = tmp_path / mode
        model = out / "train" / "model.json"
        commands = [
            ["simulate", "--config", str(cfg), "--out", str(out / "sim")],
            ["train-meanfield", "--config", str(cfg), "--out", str(out / "train")],
            ["potential-dump", "--model", str(model), "--grid", "-1,1,-1,1,3",
             "--out", str(out / "dump")],
            ["converge", "--config", str(cfg), "--model", str(model),
             "--n-list", "4,6", "--out", str(out / "conv")],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", _LOADED_SCIPY, json.dumps(commands), mode],
            env=_package_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "import plantfield": [], "simulate": [], "train-meanfield": [],
            "potential-dump": [], "converge": [],
        }
    files = sorted(p.relative_to(outs["load"]) for p in outs["load"].rglob("*.*"))
    assert len(files) == 6
    assert files == sorted(p.relative_to(outs["refuse"]) for p in outs["refuse"].rglob("*.*"))
    for name in files:
        assert (outs["load"] / name).read_bytes() == (outs["refuse"] / name).read_bytes(), name


def test_module_execution():
    proc = subprocess.run(
        [sys.executable, "-m", "plantfield", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for cmd in ("simulate", "train-meanfield", "converge", "potential-dump"):
        assert cmd in proc.stdout


@pytest.mark.parametrize("command", ["simulate", "train-meanfield", "converge", "potential-dump"])
def test_commands_leave_the_blas_thread_count_as_they_found_it(
    command, blas_threads, small_train_cfg, trained_dir, tmp_path
):
    get, _ = blas_threads
    model = str(trained_dir / "model.json")
    argv = {
        "simulate": ["--n", "8"],
        "train-meanfield": ["--config", str(small_train_cfg)],
        "converge": ["--model", model, "--n-list", "8,16"],
        "potential-dump": ["--model", model, "--grid", "-1,1,-1,1,5"],
    }[command]
    assert run(command, *argv, "--out", str(tmp_path / "o")) == 0
    assert get() == 3
