"""Flat key-value configs: parsing, validation, canonical hashing."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

import plantfield as pf
from plantfield.config import DEFAULTS, canonical_config_text


def test_defaults_resolve_cleanly():
    flat = pf.resolve_config({})
    assert set(flat) == set(DEFAULTS)
    assert flat["seed"] == 0
    assert flat["sim.n"] == 50
    assert flat["model.s_m"] == 0.05
    assert flat["solver.t_end"] == 10.0


def test_defaults_build_reference_experiment(exp_config):
    ec = exp_config
    assert ec.n == 50
    assert ec.seed == 0
    assert ec.params.s_m == 0.05
    assert ec.params.R_M == 3.0
    assert ec.mu0.s0_law == "point"
    assert ec.mu0.S_lower == 0.5
    assert ec.mu0.gamma_max == 2.0
    assert ec.mu0.L == 1.0
    assert ec.solver.t_end == 10.0
    assert ec.train.T == 10.0 and ec.train.N == 1000
    assert ec.weights.ell == 1.0
    assert len(ec.sha256) == 64
    grid = np.asarray(ec.solver.snapshot_times)
    assert grid.shape == (21,)
    assert grid[0] == 0.0 and grid[-1] == 10.0
    assert np.allclose(np.diff(grid), 0.5)


def test_snapshot_grid_ends_exactly_at_t_end():
    # 3 * 0.3 is 0.8999999999999999 in floating point; the grid must still
    # end on t_end itself.
    ec = pf.build_experiment_config(
        pf.resolve_config({"solver.t_end": 0.9, "solver.snapshot_dt": 0.3})
    )
    assert np.asarray(ec.solver.snapshot_times).tolist() == [0.0, 0.3, 0.6, 0.9]
    # A spacing that does not divide t_end appends the end point.
    assert pf.SolverConfig(t_end=1.0, snapshot_dt=0.3).snapshot_times.tolist() == [
        0.0, 0.3, 0.6, 0.8999999999999999, 1.0
    ]
    default = pf.SolverConfig(t_end=10.0).snapshot_times
    assert np.array_equal(default, np.arange(21) * 0.5)


def test_replace_rebuilds_snapshot_grid():
    # The grid is derived from t_end and snapshot_dt, not an init field,
    # so replacing the horizon rebuilds it.
    cfg = replace(pf.SolverConfig(t_end=10.0, snapshot_dt=0.3), t_end=0.9)
    assert cfg.snapshot_times.tolist() == [0.0, 0.3, 0.6, 0.9]
    assert [f.name for f in fields(cfg)] == [
        "t_end", "dt_init", "rel_tol", "abs_tol", "snapshot_dt"
    ]


def test_file_parsing_tolerates_comments(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reference run\n"
        "\n"
        "sim.n = 12   # small\n"
        "model.s_m=0.04\n"
        "mu0.s0_law = point\n"
    )
    flat = pf.load_config_file(cfg)
    assert flat == {"sim.n": 12, "model.s_m": 0.04, "mu0.s0_law": "point"}
    assert isinstance(flat["sim.n"], int)
    assert isinstance(flat["model.s_m"], float)


def test_file_parsing_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sim.n 12\n")
    with pytest.raises(pf.ConfigError, match="expected"):
        pf.load_config_file(bad)
    bad.write_text("= 3\n")
    with pytest.raises(pf.ConfigError, match="empty key"):
        pf.load_config_file(bad)
    bad.write_text("sim.n = 5\nsim.n = 6\n")
    with pytest.raises(pf.ConfigError, match="duplicate"):
        pf.load_config_file(bad)


def test_resolve_rejects_unknown_keys():
    with pytest.raises(pf.ConfigError, match="unknown configuration key"):
        pf.resolve_config({"sim.m": 10})
    with pytest.raises(pf.ConfigError, match="unknown configuration key"):
        pf.resolve_config({"model.sm": 0.04})


def test_resolve_enforces_types():
    with pytest.raises(pf.ConfigError, match="integer"):
        pf.resolve_config({"sim.n": 1.5})
    with pytest.raises(pf.ConfigError, match="integer"):
        pf.resolve_config({"sim.n": True})
    with pytest.raises(pf.ConfigError, match="number"):
        pf.resolve_config({"model.s_m": "tiny"})
    with pytest.raises(pf.ConfigError, match="string"):
        pf.resolve_config({"mu0.s0_law": 3})
    # Integers are accepted where a float is expected, and promoted.
    flat = pf.resolve_config({"model.R_M": 2})
    assert flat["model.R_M"] == 2.0
    assert isinstance(flat["model.R_M"], float)


def test_canonical_text_is_sorted_and_order_free():
    a = pf.resolve_config({"sim.n": 7, "model.s_m": 0.04})
    b = pf.resolve_config({"model.s_m": 0.04, "sim.n": 7})
    ta, tb = canonical_config_text(a), canonical_config_text(b)
    assert ta == tb
    keys = [line.split("=", 1)[0] for line in ta.strip().splitlines()]
    assert keys == sorted(keys)
    assert pf.config_sha256(a) == pf.config_sha256(b)


def test_hash_tracks_values():
    base = pf.config_sha256(pf.resolve_config({}))
    changed = pf.config_sha256(pf.resolve_config({"seed": 1}))
    assert base != changed
    again = pf.config_sha256(pf.resolve_config({}))
    assert base == again


def test_canonical_text_round_trips_through_parser(tmp_path):
    flat = pf.resolve_config({"sim.n": 9, "mu0.gamma_max": 1.75})
    path = tmp_path / "canon.cfg"
    path.write_text(canonical_config_text(flat))
    reparsed = pf.resolve_config(pf.load_config_file(path))
    assert reparsed == flat
    assert pf.config_sha256(reparsed) == pf.config_sha256(flat)


def test_build_rejects_single_plant():
    with pytest.raises(pf.ConfigError, match="sim.n"):
        pf.build_experiment_config(pf.resolve_config({"sim.n": 1}))


def test_build_rejects_inconsistent_physics():
    with pytest.raises(pf.ConfigError):
        pf.build_experiment_config(pf.resolve_config({"model.s_m": -0.05}))
    with pytest.raises(pf.ConfigError, match="snapshot_dt"):
        pf.build_experiment_config(pf.resolve_config({"solver.snapshot_dt": -0.5}))


# The SurfaceParams field each surface key fills (see _surface_from_flat),
# by key prefix; the longer prefix of "peak_x" and "peak" comes first.
_SURFACE_FIELDS = {
    "offset": "offset", "peak_x": "peak_center", "peak": "peak_value",
    "trough_x": "trough_center", "trough": "trough_value",
    "h1_": "curvature_peak", "h2_": "curvature_trough",
}


def _field_name(key):
    """The record field that ``key`` sets."""
    name = key.rsplit(".", 1)[1]
    if ".S_surface." in key or ".gamma_surface." in key:
        return next(f for k, f in _SURFACE_FIELDS.items() if name.startswith(k))
    return name


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", [k for k, v in DEFAULTS.items() if isinstance(v, float)])
def test_every_float_setting_refuses_non_finite_values(key, value):
    # Whether or not the chosen s0 law reads it, a non-finite setting is a
    # configuration error that names its field.
    with pytest.raises(pf.ConfigError, match=_field_name(key)):
        pf.build_experiment_config(pf.resolve_config({key: value}))


@pytest.mark.parametrize(
    "key, value",
    [("mu0.S_lower", 0.01), ("mu0.S_lower", 2.0), ("mu0.s0", 0.01), ("mu0.s0", 0.6)],
)
def test_initial_law_range_errors_name_key_and_value(key, value):
    # Finite but out of range: the message names the setting and its value.
    with pytest.raises(pf.ConfigError, match=re.escape(f"{key} = {value!r}")):
        pf.build_experiment_config(pf.resolve_config({key: value}))


def test_build_makes_the_training_law(exp_config):
    # The training law is the initial law with s0 uniform on the train.*
    # support; a support the law refuses is a configuration error naming it.
    want = replace(exp_config.mu0, s0_law="uniform", s0_min=0.1, s0_max=0.3)
    assert exp_config.mu0_train == want
    for key, value in (("train.s0_min", 0.01), ("train.s0_max", 0.05)):
        with pytest.raises(pf.ConfigError, match=f"{key} = {value}"):
            pf.build_experiment_config(pf.resolve_config({key: value}))


def test_section_keys_are_record_field_names(exp_config):
    # Each record is read from its section by field name, so a key that
    # names no field would be silently ignored.  Only the passed-in
    # fields, the surface keys and the keys read by key are exempt.
    surfaces = ("mu0.S_surface.", "mu0.gamma_surface.")
    for prefix, record, passed_in, by_key in [
        ("model", exp_config.params, set(), set()),
        ("mu0", exp_config.mu0, {"params", "seed", "S_surface", "gamma_surface"}, set()),
        ("solver", exp_config.solver, set(), set()),
        ("train", exp_config.train, set(), {"s0_min", "s0_max"}),  # into mu0_train
        ("metric", exp_config.weights, {"s_m"}, set()),
    ]:
        keys = {
            k.split(".", 1)[1]
            for k in DEFAULTS
            if k.startswith(prefix + ".") and not k.startswith(surfaces)
        } - by_key
        names = {f.name for f in fields(record)} - passed_in
        assert keys == names, prefix


def test_build_wires_surfaces(exp_config):
    # Midway between symmetric bumps the two corrections cancel exactly,
    # leaving the offset; near the centers the surface tilts toward the
    # configured peak and trough.
    mid, low, high = pf.surface_eval(
        exp_config.mu0.S_surface, np.array([[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
    )
    assert mid == pytest.approx(0.75, abs=1e-15)
    assert low > 0.9
    assert high < 0.6
    mid, up, down = pf.surface_eval(
        exp_config.mu0.gamma_surface, np.array([[0.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    )
    assert mid == pytest.approx(1.05, abs=1e-15)
    assert up > 1.7
    assert down < 0.5


def test_initial_laws_compare_by_value(tiny_model):
    a = pf.build_experiment_config(pf.resolve_config({}))
    b = pf.build_experiment_config(pf.resolve_config({}))
    assert a.mu0.S_surface is not b.mu0.S_surface
    assert a.mu0 == b.mu0 and a.mu0_train == b.mu0_train
    moved = pf.build_experiment_config(
        pf.resolve_config({"mu0.S_surface.peak_x1": -0.5})
    )
    assert moved.mu0.S_surface != a.mu0.S_surface and moved.mu0 != a.mu0
    loaded = pf.model_from_dict(pf.model_to_dict(tiny_model))
    assert loaded.mu0_cfg == tiny_model.mu0_cfg


def test_experiment_sha_matches_flat_hash(exp_config):
    assert exp_config.sha256 == pf.config_sha256(pf.resolve_config({}))
