"""Surrogate machinery: features, stage fits, weights, flow, storage."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

import plantfield as pf
from conftest import one_plus_tanh
from oracles import (
    competition_potential, gompertz_closed_form, reconstructed_potential_integral
)
from plantfield import meanfield
from plantfield.meanfield import (
    _SET_CLOUD,
    _SET_TEST,
    _SET_TRAIN,
    _child_seed,
    _stage_values,
    _stage_weights,
    export_r2_csv,
    model_from_dict,
    model_to_dict,
)


def test_monomial_count_formula():
    for k in range(1, 6):
        for d in range(0, 9):
            assert pf.n_monomials(k, d) == len(pf.monomial_exponents(k, d))
    assert pf.n_monomials(3, 5) == 56
    assert pf.n_monomials(5, 3) == 56


def test_monomial_order_two_vars_degree_two():
    assert pf.monomial_exponents(2, 2) == (
        (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2),
    )


def test_monomial_exponents_degrees_bounded():
    for alpha in pf.monomial_exponents(4, 3):
        assert sum(alpha) <= 3
    assert len(set(pf.monomial_exponents(4, 3))) == pf.n_monomials(4, 3)


def test_polynomial_features_hand_values():
    got = pf.polynomial_features(np.array([[2.0, 3.0]]), 2)
    assert np.array_equal(got, [[1.0, 2.0, 4.0, 3.0, 6.0, 9.0]])
    batch = pf.polynomial_features(np.array([[2.0, 3.0], [1.0, 1.0]]), 2)
    assert batch.shape == (2, 6)
    assert np.array_equal(batch[1], np.ones(6))


@pytest.mark.parametrize("k, d", [(3, 5), (5, 3), (2, 0), (1, 7)])
def test_polynomial_features_match_power_oracle(k, d, rng):
    # Powers are repeated products, so a monomial of degree <= d carries
    # at most d - 1 roundings from its powers and k - 1 from the product
    # over variables; the oracle's ``**`` and product add up to 2k - 1.
    values = rng.uniform(-2.0, 2.0, (40, k))
    got = pf.polynomial_features(values, d)
    assert got.shape == (40, pf.n_monomials(k, d)) and got.flags.c_contiguous
    exps = pf.monomial_exponents(k, d)
    want = np.array([
        [math.prod(v**a for v, a in zip(row, alpha)) for alpha in exps]
        for row in values.tolist()
    ])
    eps = np.finfo(float).eps
    assert got == pytest.approx(want, rel=2.0 * (d + 2 * k) * eps, abs=0.0)


def test_polynomial_features_degree_zero():
    assert np.array_equal(pf.polynomial_features(np.array([[5.0, -1.0]]), 0), [[1.0]])


@pytest.fixture(scope="module")
def p():
    return pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=1.32)


def _spec(p, d3=2, d5=1):
    """A frame centred at the origin with unit length and stage length."""
    return pf.FeatureSpec(center=(0.0, 0.0), length=1.0, dt=1.0, d3=d3, d5=d5, params=p)


def _one(s0, x, S, gamma):
    """One atom as a record of one row."""
    return pf.PopulationState([s0], np.reshape(x, (1, 2)), [S], [gamma])


def _with_traits(s, x, S=0.8, gamma=1.0):
    """Sizes and positions plus constant S and gamma columns (arity-3 fits
    ignore them)."""
    n = len(s)
    return pf.PopulationState(s, x, np.full(n, S), np.full(n, gamma))


def test_feature_map_at_center(p):
    # At the center both arctans vanish and the damping factor is 1, so
    # the features reduce to powers of log(s/s_m).
    spec = _spec(p, d3=2)
    (got,) = pf.feature_map(spec, 0, _one(0.1, np.zeros(2), 0.8, 1.0))
    r = math.log(0.1 / 0.05)
    # variable order (r, ax, ay): exponent tuples (0,0,0),(1,0,0),(2,0,0),...
    assert got[0] == pytest.approx(1.0, abs=1e-15)
    assert got[1] == pytest.approx(r, rel=1e-14)
    assert got[2] == pytest.approx(r * r, rel=1e-14)
    assert np.allclose(got[3:], 0.0, atol=1e-15)


def test_feature_map_damping_off_center(p):
    spec = _spec(p, d3=0)
    x = np.array([0.5, 0.0])
    (got,) = pf.feature_map(spec, 0, _one(0.1, x, 0.8, 1.0))
    expected = 1.0 / (1.0 + 0.25 / p.sigma_x**2)
    assert got == pytest.approx(np.array([expected]), rel=1e-14)


def test_feature_map_arity_five_variables(p):
    spec = _spec(p, d5=1)
    s, S, gamma = 0.1, 0.8, 0.6
    x = np.array([0.2, -0.4])
    (got,) = pf.feature_map(spec, 1, _one(s, x, S, gamma))
    damp = 1.0 / (1.0 + (0.04 + 0.16) / p.sigma_x**2)
    expected_vars = [
        math.log(s / p.s_m),
        math.atan(0.2),
        math.atan(-0.4),
        math.log(S / p.s_m),
        math.exp(-gamma * spec.dt),
    ]
    assert got.shape == (6,)
    assert got[0] == pytest.approx(damp, rel=1e-14)
    for j, v in enumerate(expected_vars):
        assert got[1 + j] == pytest.approx(v * damp, rel=1e-13)


def test_feature_map_arity_three_ignores_cap_and_rate(p, rng):
    s, x = rng.uniform(0.06, 0.9, 7), rng.normal(size=(7, 2))
    spec = _spec(p, d3=3)
    a = pf.feature_map(spec, 0, _with_traits(s, x, S=0.8, gamma=0.6))
    other = pf.PopulationState(
        s, x, rng.uniform(0.55, 0.95, 7), rng.uniform(0.1, 2.0, 7)
    )
    b = pf.feature_map(spec, 0, other)
    assert np.array_equal(a, b)


def test_mc_potential_single_atom_is_pair_potential(p):
    (got,) = pf.mc_potential(
        p, np.array([0.1]), np.zeros((1, 2)), np.array([0.2]), np.array([[0.5, 0.0]])
    )
    assert got == pytest.approx(
        competition_potential(p, 0.1, 0.2, 0.5), rel=1e-14
    )


def test_mc_potential_batch_and_average(p, rng):
    cloud_s = rng.uniform(0.1, 0.4, 30)
    cloud_x = rng.normal(size=(30, 2))
    probe_s = np.array([0.1, 0.2])
    probe_x = np.array([[0.0, 0.0], [1.0, 1.0]])
    got = pf.mc_potential(p, probe_s, probe_x, cloud_s, cloud_x)
    for k in range(2):
        manual = np.mean(
            [
                competition_potential(
                    p, probe_s[k], cloud_s[j],
                    float(np.linalg.norm(probe_x[k] - cloud_x[j])),
                )
                for j in range(30)
            ]
        )
        assert got[k] == pytest.approx(manual, rel=1e-13)
    none = pf.mc_potential(p, np.array([]), np.zeros((0, 2)), cloud_s, cloud_x)
    assert none.shape == (0,)


def test_mc_potential_rejects_mismatched_positions(p):
    cloud_s, cloud_x = np.array([0.2, 0.3]), np.zeros((2, 2))
    with pytest.raises(ValueError, match="positions"):
        pf.mc_potential(p, np.full(4, 0.1), np.zeros(2), cloud_s, cloud_x)
    one = np.array([0.1])
    with pytest.raises(ValueError, match="positions"):
        pf.mc_potential(p, one, np.zeros((3, 2)), cloud_s, cloud_x)
    with pytest.raises(ValueError, match="positions"):
        pf.mc_potential(p, one, np.zeros((1, 2)), cloud_s, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="positions"):
        pf.mc_potential(p, one, np.zeros((1, 2)), cloud_s, np.zeros(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column", ["s", "x", "cloud_sizes", "cloud_positions"])
def test_mc_potential_rejects_non_finite_columns(column, bad, p):
    # A NaN size would turn every target into NaN, and an infinite position
    # would read as a kernel of 0; both are refused, naming the column.
    cols = {
        "s": np.array([0.1, 0.2]),
        "x": np.zeros((2, 2)),
        "cloud_sizes": np.array([0.2, 0.3, 0.25]),
        "cloud_positions": np.ones((3, 2)),
    }
    cols[column].flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{column} must be finite"):
        pf.mc_potential(p, *cols.values())


def test_mc_potential_rejects_sizes_outside_the_domain(p):
    # A cloud size below s_m has a negative log-size, which would pull the
    # cloud average below 0; the first such atom is named.
    with pytest.raises(ValueError, match=r"inadmissible cloud atom 0: size outside"):
        pf.mc_potential(p, [0.1], [[0, 0]], [0.01, 0.02], [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match=r"inadmissible probe 1: size outside"):
        pf.mc_potential(p, [0.1, p.max_size], np.zeros((2, 2)), [0.2], [[1, 1]])


def test_mc_potential_matches_double_loop_at_small_sigma_r(rng):
    # sigma_r = 0.02 saturates the tanh term; 150 probes span a ragged
    # second row block of the kernel.
    q = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=0.02)
    probe_s = rng.uniform(0.06, 0.9, 150)
    probe_x = rng.normal(size=(150, 2))
    cloud_s = rng.uniform(0.06, 0.9, 90)
    cloud_x = rng.normal(size=(90, 2))
    got = pf.mc_potential(q, probe_s, probe_x, cloud_s, cloud_x)
    r_cloud = [math.log(v / q.s_m) for v in cloud_s]
    for k in range(150):
        r_k = math.log(probe_s[k] / q.s_m)
        want = math.fsum(
            r_j
            / (2.0 * q.R_M * (1.0 + float(np.sum((probe_x[k] - x_j) ** 2)) / 0.25))
            * one_plus_tanh((r_j - r_k) / q.sigma_r)
            for r_j, x_j in zip(r_cloud, cloud_x)
        ) / 90
        assert got[k] == pytest.approx(want, rel=1e-12, abs=0.0)
    again = pf.mc_potential(q, probe_s, probe_x, cloud_s, cloud_x)
    assert np.array_equal(again, got)


def test_mc_potential_subsample_consistency(p, mu0_uniform):
    # The cloud average at 10^3 atoms must sit within Monte-Carlo error
    # of the 10^5-atom estimate of the same integral.
    big = pf.sample_mu0(mu0_uniform.with_seed(31), 100_000)
    sizes, pos = big.s0, big.x
    probe_s, probe_x = np.array([0.15]), np.array([[0.3, -0.2]])

    r_probe = math.log(probe_s[0] / p.s_m)
    d2 = ((pos - probe_x) ** 2).sum(axis=1)
    vals = (
        np.log(sizes / p.s_m) / (2.0 * p.R_M * (1.0 + d2 / p.sigma_x**2))
        * (1.0 + np.tanh((np.log(sizes / p.s_m) - r_probe) / p.sigma_r))
    )
    (small,) = pf.mc_potential(p, probe_s, probe_x, sizes[:1000], pos[:1000])
    (full,) = pf.mc_potential(p, probe_s, probe_x, sizes, pos)
    se_small = vals.std() / math.sqrt(1000)
    assert abs(small - full) < 5.0 * se_small
    assert full == pytest.approx(vals.mean(), rel=1e-12)


def test_fit_recovers_clean_polynomial(p, rng):
    spec = _spec(p, d3=2)
    beta_true = np.array([0.3, 0.05, 0.01, -0.02, 0.015, 0.004, -0.01, 0.02, 0.005, 0.002])
    s = rng.uniform(0.06, 0.9, 400)
    x = rng.normal(size=(400, 2))
    F = pf.feature_map(spec, 0, _with_traits(s, x))
    y = F @ beta_true
    assert np.all((y > 0.0) & (y < 1.0))  # clamping never active
    stage = pf.fit_stage((F, y))
    assert np.allclose(stage.beta, beta_true, atol=1e-9)
    assert stage.r2_train == pytest.approx(1.0, abs=1e-12)
    assert math.isnan(stage.r2_test)


def test_fit_handles_rank_deficient_design(p):
    # Every probe identical: the design has rank 1; the minimum-norm
    # solution must still predict the (constant) target exactly.
    spec = _spec(p, d3=1)
    s = np.full(20, 0.1)
    x = np.zeros((20, 2))
    y = np.full(20, 0.4)
    F = pf.feature_map(spec, 0, _with_traits(s, x))
    stage = pf.fit_stage((F, y))
    (pred,) = pf.stage_potential_eval(spec, 0, stage, _one(0.1, np.zeros(2), 0.8, 1.0))
    assert pred == pytest.approx(0.4, rel=1e-10)
    assert math.isnan(stage.r2_train)  # constant targets carry no variance


def test_fit_residuals_orthogonal_to_features(p, rng):
    spec = _spec(p, d3=3)
    s = rng.uniform(0.06, 0.9, 300)
    x = rng.normal(size=(300, 2))
    y = rng.uniform(0.0, 1.0, 300)
    F = pf.feature_map(spec, 0, _with_traits(s, x))
    stage = pf.fit_stage((F, y))
    resid = y - F @ stage.beta
    gram_scale = float(np.abs(F.T @ F).max())
    assert np.abs(F.T @ resid).max() < 1e-8 * max(gram_scale, 1.0)


def test_fit_quality_improves_with_degree(p, rng):
    # Same data, nested feature sets: training R^2 cannot decrease.
    # Positions stay in a small box so the distance damping is bounded
    # below and predictions remain strictly inside (0, 1); then clamping
    # is inactive and the comparison is pure least squares.
    s = rng.uniform(0.06, 0.9, 500)
    x = rng.uniform(-0.3, 0.3, (500, 2))
    y = 0.3 + 0.2 * np.tanh(np.log(s / 0.05) - 1.0) + 0.05 * np.tanh(x[:, 0])
    r2 = []
    for degree in (0, 1, 2, 3):
        F = pf.feature_map(_spec(p, d3=degree), 0, _with_traits(s, x))
        stage = pf.fit_stage((F, y))
        raw = F @ stage.beta
        assert np.all((raw > 0.0) & (raw < 1.0))
        r2.append(stage.r2_train)
    assert all(b >= a - 1e-12 for a, b in zip(r2, r2[1:]))


def test_stage_eval_clamps_into_unit_interval(p):
    spec = _spec(p, d3=0)
    stage = pf.PotentialStage(
        beta=np.array([5.0]), r2_train=float("nan"), r2_test=float("nan")
    )
    atom = _one(0.1, np.zeros(2), 0.8, 1.0)
    assert np.array_equal(pf.stage_potential_eval(spec, 0, stage, atom), [1.0])
    stage_neg = pf.PotentialStage(
        beta=np.array([-5.0]), r2_train=float("nan"), r2_test=float("nan")
    )
    assert np.array_equal(pf.stage_potential_eval(spec, 0, stage_neg, atom), [0.0])


def test_stage_weights_telescope():
    dt, m = 1.0, 6
    for t in (0.3, 1.0, 2.5, 4.0, 6.0):
        for gamma in (0.1, 0.7, 2.0):
            w = _stage_weights(dt, m, t, gamma)[:, 0]
            assert w.sum() == pytest.approx(1.0 - math.exp(-gamma * t), rel=1e-12)
    # Future stages contribute nothing.
    w = _stage_weights(dt, m, 2.5, 1.0)[:, 0]
    assert np.all(w[3:] == 0.0)
    # The active stage carries weight 1 - e^{gamma (t_k - t)}.
    assert w[2] == pytest.approx(1.0 - math.exp(1.0 * (2.0 - 2.5)), rel=1e-12)
    # A completed stage carries e^{gamma(t_{k+1}-t)} - e^{gamma(t_k-t)}.
    assert w[0] == pytest.approx(math.exp(1.0 - 2.5) - math.exp(-2.5), rel=1e-12)


def _piecewise_weights(dt, m, t, gamma):
    """Stage weights by cases, as in the definition of the integral."""
    w = np.zeros(m)
    for k in range(m):
        t_k, t_k1 = k * dt, (k + 1) * dt
        if t_k < t < t_k1:
            w[k] = 1.0 - np.exp(gamma * (t_k - t))
        elif t >= t_k1:
            w[k] = np.exp(gamma * (t_k1 - t)) - np.exp(gamma * (t_k - t))
    return w


@pytest.mark.parametrize("dt", [1.0, 0.3])
def test_stage_weights_match_piecewise_definition(dt, rng):
    # Bit for bit, at every stage boundary t = k dt (where a stage turns
    # from in progress to completed) up to the horizon T = m dt, at
    # gamma = 0, and at random interior times.
    m = 10
    times = [k * dt for k in range(m + 1)] + list(rng.uniform(0, m * dt, 40))
    for t in times:
        for gamma in (0.0, 0.05, 0.9, 2.0):
            want = _piecewise_weights(dt, m, t, gamma)
            assert np.array_equal(_stage_weights(dt, m, t, gamma)[:, 0], want), t


def test_stage_weights_zero_rate():
    w = _stage_weights(1.0, 5, 3.3, 0.0)
    assert np.all(w == 0.0)


def test_stage_weights_broadcast():
    t = np.full(4, 2.2)
    g = np.array([0.2, 0.5, 1.0, 2.0])
    w = _stage_weights(1.0, 3, t, g)
    assert w.shape == (3, 4)
    for j in range(4):
        assert np.allclose(w[:, j], _stage_weights(1.0, 3, 2.2, g[j])[:, 0])


def _random_atoms(rng, n, gamma_lo=0.1):
    """n atoms in the ranges of the training law."""
    return pf.PopulationState(
        rng.uniform(0.08, 0.45, n), rng.normal(size=(n, 2)),
        rng.uniform(0.55, 0.95, n), rng.uniform(gamma_lo, 2.0, n),
    )


def test_integral_zero_at_start_and_zero_rate(tiny_model):
    atom = _one(0.2, np.zeros(2), 0.75, 1.05)
    assert reconstructed_potential_integral(tiny_model, 0.0, atom) == 0.0
    frozen = _one(0.2, np.zeros(2), 0.75, 0.0)
    assert reconstructed_potential_integral(tiny_model, 2.0, frozen) == 0.0


def test_integral_single_stage_closed_form(tiny_model):
    # Inside the first stage only one term is active:
    # chat(t) = C_0 * (1 - e^{-gamma t}).
    x = np.array([0.3, -0.1])
    atom = _one(0.2, x, 0.8, 0.9)
    (c0,) = pf.stage_potential_eval(tiny_model.spec, 0, tiny_model.stages[0], atom)
    (got,) = reconstructed_potential_integral(tiny_model, 0.6, atom)
    assert got == pytest.approx(c0 * (1.0 - math.exp(-0.9 * 0.6)), rel=1e-12)


def test_integral_monotone_and_bounded(tiny_model):
    atom = _one(0.15, np.array([0.1, 0.4]), 0.8, 1.1)
    ts = np.linspace(0.0, tiny_model.T, 40)
    vals = [reconstructed_potential_integral(tiny_model, t, atom)[0] for t in ts]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
    stage_vals = _stage_values(tiny_model.spec, tiny_model.stages, atom)[:, 0]
    cap = stage_vals.max() * (1.0 - math.exp(-1.1 * tiny_model.T))
    assert vals[-1] <= cap + 1e-14


def test_integral_matches_adaptive_quadrature(tiny_model, rng):
    dt, m = tiny_model.spec.dt, tiny_model.n_stages
    for _ in range(25):
        t = rng.uniform(0.0, tiny_model.T)
        atoms = _random_atoms(rng, 1)
        vals = _stage_values(tiny_model.spec, tiny_model.stages, atoms)[:, 0]
        gamma = atoms.rates[0]

        def step(tau):
            k = min(int(tau / dt), m - 1)
            return vals[k]

        breaks = [j * dt for j in range(1, int(t / dt) + 1)] or None
        quad, _ = scipy.integrate.quad(
            lambda u: gamma * math.exp(gamma * (u - t)) * step(u),
            0.0, t, points=breaks, limit=200, epsabs=1e-13, epsrel=1e-13,
        )
        (got,) = reconstructed_potential_integral(tiny_model, t, atoms)
        assert abs(got - quad) < 1e-10


def test_stage_values_match_each_stage_eval(tiny_model, rng, tmp_path):
    # _stage_values builds one feature matrix per arity and shares the
    # arity-5 one between stages 1 and 2; every row must still be its own
    # stage's evaluation, bit for bit, also after a file round trip.
    atoms = _random_atoms(rng, 40, gamma_lo=0.0)
    pf.save_model(tiny_model, tmp_path / "m.json")
    loaded = pf.load_model(tmp_path / "m.json")
    for model in (tiny_model, loaded):
        want = [
            pf.stage_potential_eval(model.spec, k, st, atoms)
            for k, st in enumerate(model.stages)
        ]
        got = _stage_values(model.spec, model.stages, atoms)
        assert got.shape == (model.n_stages, 40)
        assert np.array_equal(got, np.stack(want))


def test_integral_rejects_times_outside_horizon(tiny_model):
    atom = _one(0.2, np.zeros(2), 0.75, 1.0)
    with pytest.raises(ValueError):
        reconstructed_potential_integral(tiny_model, tiny_model.T + 0.5, atom)
    with pytest.raises(ValueError):
        reconstructed_potential_integral(tiny_model, -0.5, atom)


def test_flow_identity_at_time_zero(tiny_model):
    (got,) = pf.flow_eval_many(tiny_model, 0.0, _one(0.2, np.zeros(2), 0.75, 1.05))
    assert got == pytest.approx(0.2, rel=1e-14)


def _zeroed(model):
    return pf.MeanFieldModel(
        stages=[
            pf.PotentialStage(
                beta=np.zeros_like(st.beta),
                r2_train=float("nan"), r2_test=float("nan"),
            )
            for st in model.stages
        ],
        spec=model.spec, T=model.T, mu0_cfg=model.mu0_cfg,
        n_cloud=model.n_cloud, seed=model.seed,
    )


def test_flow_without_competition_is_isolated_growth(tiny_model, rng):
    zero = _zeroed(tiny_model)
    p = zero.params
    for _ in range(50):
        t = rng.uniform(0.0, zero.T)
        atoms = _random_atoms(rng, 1, gamma_lo=0.05)
        got = pf.flow_eval_many(zero, t, atoms)
        ref = gompertz_closed_form(p, atoms.sizes, atoms.caps, atoms.rates, t)
        assert np.all(np.abs(got - ref) / ref < 1e-10)


def test_flow_stays_in_admissible_band(tiny_model, rng):
    p = tiny_model.params
    hi = p.s_m * math.exp(2.0 * p.R_M)
    for _ in range(200):
        t = rng.uniform(0.0, tiny_model.T)
        got = pf.flow_eval_many(tiny_model, t, pf.PopulationState(
            rng.uniform(0.06, 0.49, 1), rng.normal(size=(1, 2)) * 2.0,
            rng.uniform(0.51, 1.0, 1), rng.uniform(0.01, 2.0, 1),
        ))
        assert np.all((p.s_m < got) & (got < hi))


def test_flow_eval_many_matches_scalar(tiny_model, rng):
    # One batch of 20 atoms equals 20 one-atom batches.
    n = 20
    atoms = _random_atoms(rng, n)
    many = pf.flow_eval_many(tiny_model, 2.3, atoms)
    for i in range(n):
        (one,) = pf.flow_eval_many(tiny_model, 2.3, _one(
            atoms.sizes[i], atoms.positions[i], atoms.caps[i], atoms.rates[i]
        ))
        assert many[i] == pytest.approx(one, rel=1e-13)


def test_flow_rejects_bad_inputs(tiny_model):
    with pytest.raises(ValueError):
        pf.flow_eval_many(tiny_model, 0.5, _one(0.04, np.zeros(2), 0.75, 1.0))
    atom = _one(0.2, np.zeros(2), 0.75, 1.0)
    with pytest.raises(ValueError):
        pf.flow_eval_many(tiny_model, tiny_model.T + 1.0, atom)


def test_training_is_deterministic(mu0_uniform):
    cfg = pf.TrainConfig(dt=1.0, T=2.0, N=80, K=80, d3=2, d5=1)
    a = pf.train(mu0_uniform, cfg, seed=3)
    b = pf.train(mu0_uniform, cfg, seed=3)
    for sa, sb in zip(a.stages, b.stages):
        assert np.array_equal(sa.beta, sb.beta)
        assert sa.r2_train == sb.r2_train and sa.r2_test == sb.r2_test
    c = pf.train(mu0_uniform, cfg, seed=4)
    assert not np.array_equal(a.stages[0].beta, c.stages[0].beta)


def _train_by_rebuilding(mu0, dt, T, N, K, d3, d5, seed):
    """The forward recursion rebuilt from public pieces, one call per use:
    each stage wraps the stages so far in a partial model whose flow
    advances the cloud and the probes, and fits freshly built features."""
    p = mu0.params

    def draw(tag, k, n):
        return pf.samples_to_state(
            pf.sample_mu0(mu0.with_seed(_child_seed(seed, tag, k)), n)
        )

    cloud = draw(_SET_CLOUD, 0, N)
    spread = float(np.std(cloud.positions))
    spec = pf.FeatureSpec(
        center=cloud.positions.mean(axis=0), length=spread, dt=dt, d3=d3, d5=d5,
        params=p,
    )
    stages = []
    for k in range(round(T / dt)):
        if k:
            partial = pf.MeanFieldModel(
                stages=list(stages), spec=spec, T=k * dt, mu0_cfg=mu0, n_cloud=N,
                seed=seed,
            )
            advance = lambda atoms: pf.flow_eval_many(partial, k * dt, atoms)
        else:
            advance = lambda atoms: atoms.sizes
        sizes_cloud = advance(cloud)
        sets = []
        for tag in (_SET_TRAIN, _SET_TEST):
            d = draw(tag, k, K)
            y = pf.mc_potential(p, advance(d), d.positions, sizes_cloud, cloud.positions)
            sets.append((pf.feature_map(spec, k, d), y))
        stages.append(pf.fit_stage(*sets))
    return pf.MeanFieldModel(
        stages=stages, spec=spec, T=float(T), mu0_cfg=mu0, n_cloud=N, seed=seed,
    )


@pytest.mark.parametrize("dt, T", [(1.0, 3.0), (0.3, 0.9)])
def test_training_matches_the_rebuilt_recursion(mu0_uniform, dt, T):
    # Training shares one feature matrix per probe set and arity between the
    # flow, the stage values and the fit; the model must not change by a bit.
    args = (mu0_uniform, dt, T, 60, 60, 3, 2, 5)
    want = model_to_dict(_train_by_rebuilding(*args))
    got = pf.train(mu0_uniform, pf.TrainConfig(dt, T, 60, 60, 3, 2), seed=5)
    assert model_to_dict(got) == want


def test_training_builds_one_feature_matrix_per_set_and_spec(
    mu0_uniform, monkeypatch
):
    # The cloud is built once per arity (2); stage 0's training and testing
    # sets once each (2); every later stage's sets once per arity (2 x 2).
    # Arity 3: cloud 1, stage 0 2, stages 1-2 4; arity 5: cloud 1, sets 4.
    build = meanfield.feature_map
    calls = []

    def counted(spec, k, atoms):
        calls.append(5 if k else 3)
        return build(spec, k, atoms)

    monkeypatch.setattr(meanfield, "feature_map", counted)
    pf.train(
        mu0_uniform, pf.TrainConfig(dt=1.0, T=3.0, N=20, K=20, d3=2, d5=1), seed=0
    )
    assert len(calls) == 12
    assert (calls.count(3), calls.count(5)) == (7, 5)


def test_training_stage_structure(tiny_model):
    # Stage 0 is arity 3 at degree d3, later stages arity 5 at degree d5.
    assert tiny_model.n_stages == 3
    assert (tiny_model.spec.d3, tiny_model.spec.d5) == (3, 2)
    assert [st.beta.size for st in tiny_model.stages] == [
        pf.n_monomials(3, 3), pf.n_monomials(5, 2), pf.n_monomials(5, 2)
    ]


def test_training_validates_horizon(mu0_uniform):
    with pytest.raises(ValueError):
        pf.train(
            mu0_uniform, pf.TrainConfig(dt=0.7, T=2.0, N=50, K=50, d3=1, d5=1), seed=0
        )
    with pytest.raises(ValueError):
        pf.train(
            mu0_uniform, pf.TrainConfig(dt=1.0, T=0.0, N=50, K=50, d3=1, d5=1), seed=0
        )


def test_training_stores_requested_horizon(mu0_uniform, tmp_path):
    # 3 * 0.3 is 0.8999999999999999 in floating point; the model keeps the
    # horizon it was asked for, so grids built from model.T end on it.
    model = pf.train(
        mu0_uniform, pf.TrainConfig(dt=0.3, T=0.9, N=30, K=30, d3=1, d5=1), seed=0
    )
    assert model.n_stages == 3
    assert model.T == 0.9
    pf.save_model(model, tmp_path / "m.json")
    assert pf.load_model(tmp_path / "m.json").T == 0.9


def test_training_with_degree_zero(mu0_uniform):
    model = pf.train(
        mu0_uniform, pf.TrainConfig(dt=1.0, T=2.0, N=60, K=60, d3=0, d5=0), seed=1
    )
    # Degree zero still regresses on the damping factor (one feature),
    # which is a weighted, not plain, average of the targets.
    assert all(st.beta.shape == (1,) for st in model.stages)
    (val,) = pf.flow_eval_many(model, 2.0, _one(0.2, np.zeros(2), 0.75, 1.0))
    assert model.params.s_m < val < model.params.max_size


def test_model_roundtrip_is_bit_exact(tiny_model):
    d = model_to_dict(tiny_model, config_sha256="cafe")
    clone = model_from_dict(d)
    d2 = model_to_dict(clone, config_sha256="cafe")
    assert json.dumps(d, sort_keys=True) == json.dumps(d2, sort_keys=True)
    for sa, sb in zip(tiny_model.stages, clone.stages):
        assert np.array_equal(sa.beta, sb.beta)
    assert np.array_equal(clone.spec.center, tiny_model.spec.center)
    assert clone.mu0_cfg.s0_law == tiny_model.mu0_cfg.s0_law
    assert clone.seed == tiny_model.seed


@pytest.mark.parametrize(
    "field, value",
    [
        ("length", math.nan), ("length", math.inf), ("length", -math.inf),
        ("dt", math.nan), ("dt", math.inf), ("dt", -math.inf),
        ("center", (math.nan, 0.0)),
    ],
)
def test_feature_spec_refuses_non_finite_fields(p, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        replace(_spec(p), **{field: value})


def test_model_document_keys_are_pinned(tiny_model):
    # The document is written from the dataclass fields; a new field must
    # not change the file format without a MODEL_VERSION bump.
    d = model_to_dict(tiny_model)
    assert set(d) == {
        "format", "version", "config_sha256", "seed", "T", "n_cloud",
        "params", "mu0", "spec", "stages",
    }
    assert d["version"] == 2
    assert set(d["params"]) == {"s_m", "R_M", "sigma_x", "sigma_r"}
    assert set(d["spec"]) == {"center", "length", "dt", "d3", "d5"}
    assert set(d["mu0"]) == {
        "seed", "L", "S_surface", "gamma_surface", "delta_S", "delta_gamma",
        "S_lower", "gamma_max", "s0_law", "s0", "s0_min", "s0_max",
    }
    surface = {
        "offset", "peak_value", "trough_value", "peak_center", "trough_center",
        "curvature_peak", "curvature_trough",
    }
    assert set(d["mu0"]["S_surface"]) == set(d["mu0"]["gamma_surface"]) == surface
    for sd in d["stages"]:
        assert set(sd) == {"beta", "r2_train", "r2_test"}


def test_model_file_roundtrip(tiny_model, tmp_path):
    path = tmp_path / "model.json"
    pf.save_model(tiny_model, path, config_sha256="feed")
    loaded = pf.load_model(path)
    for sa, sb in zip(tiny_model.stages, loaded.stages):
        assert np.array_equal(sa.beta, sb.beta)
    # Saving the loaded model reproduces the file byte for byte.
    path2 = tmp_path / "model2.json"
    pf.save_model(loaded, path2, config_sha256="feed")
    assert path.read_bytes() == path2.read_bytes()


def test_model_load_rejects_foreign_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError):
        pf.load_model(path)
    path.write_text(json.dumps({"format": "plantfield-meanfield-model", "version": 99}))
    with pytest.raises(ValueError):
        pf.load_model(path)


def test_r2_csv_layout(tiny_model, tmp_path):
    out = tmp_path / "r2.csv"
    export_r2_csv(tiny_model, out, comments=["seed=7"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "t,r2_train,r2_test"
    assert len(lines) == 2 + tiny_model.n_stages
    t0 = lines[2].split(",")
    assert float(t0[0]) == 0.0
