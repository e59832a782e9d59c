"""Transport distances, the a-priori bound's drive term, convergence driver."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import plantfield as pf
from plantfield import metrics
from plantfield.metrics import export_distances_csv

# Drive constant frozen from an independent high-precision evaluation
# of the closed-form expression (uniform start law on [0.1, 0.3],
# log-range 3).
DRIVE_CONSTANT = 18.076983230868901


@pytest.fixture(scope="module")
def w():
    return pf.ZMetricWeights(s_m=0.05, ell=2.0, tau_r=0.7)


def _measure(rng, n, spread=1.0):
    return pf.PopulationState(
        sizes=rng.uniform(0.06, 0.9, n),
        positions=rng.normal(scale=spread, size=(n, 2)),
        caps=rng.uniform(0.55, 0.95, n),
        rates=rng.uniform(0.1, 1.9, n),
    )


def _atom(m, i):
    return (m.sizes[i], m.positions[i], m.caps[i], m.rates[i])


def z_distance(w, z1, z2) -> float:
    """The weighted ground distance between two states (s, x, S, gamma),
    written out one pair at a time: the oracle for the package's cost."""
    s1, x1, S1, g1 = z1
    s2, x2, S2, g2 = z2
    dx = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
    return (
        abs(s1 - s2) / w.s_m
        + abs(S1 - S2) / w.s_m
        + float(np.sqrt((dx**2).sum())) / w.ell
        + w.tau_r * abs(g1 - g2)
    )


def _brute_w1(w, a, b) -> float:
    """W1 by exhaustive search over the permutations of scalar distances."""
    n = a.n
    d = np.array([
        [z_distance(w, _atom(a, i), _atom(b, j)) for j in range(n)]
        for i in range(n)
    ])
    perms = np.array(list(itertools.permutations(range(n))))
    return float(d[np.arange(n), perms].mean(axis=1).min())


def test_z_distance_hand_value(w):
    z1 = (0.2, np.array([0.0, 0.0]), 0.8, 1.0)
    z2 = (0.25, np.array([3.0, 4.0]), 0.7, 1.6)
    expected = 0.05 / 0.05 + 0.1 / 0.05 + 5.0 / 2.0 + 0.7 * 0.6
    assert z_distance(w, z1, z2) == pytest.approx(expected, rel=1e-12)


def test_z_distance_axioms(w, rng):
    for _ in range(50):
        zs = [
            (rng.uniform(0.05, 1.0), rng.normal(size=2),
             rng.uniform(0.5, 1.0), rng.uniform(0.0, 2.0))
            for _ in range(3)
        ]
        a, b, c = zs
        assert z_distance(w, a, a) == 0.0
        assert z_distance(w, a, b) == z_distance(w, b, a)
        assert z_distance(w, a, c) <= (
            z_distance(w, a, b) + z_distance(w, b, c) + 1e-12
        )


def test_z_weights_validation():
    with pytest.raises(ValueError):
        pf.ZMetricWeights(s_m=0.0, ell=1.0, tau_r=1.0)
    with pytest.raises(ValueError):
        pf.ZMetricWeights(s_m=0.05, ell=-1.0, tau_r=1.0)


def test_w1_sorted_hand_values():
    assert pf.w1_sorted_1d([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]) == pytest.approx(1.0 / 3.0)
    a = np.array([0.3, 0.9, 0.1, 0.5])
    assert pf.w1_sorted_1d(a, a + 0.25) == pytest.approx(0.25, rel=1e-14)
    assert pf.w1_sorted_1d(a, np.sort(a)) == 0.0
    with pytest.raises(ValueError):
        pf.w1_sorted_1d([1.0, 2.0], [1.0])


def test_w1_sorted_is_optimal_on_line(rng):
    # Sorting realizes the optimal coupling in one dimension: check
    # against brute-force assignment on small instances.
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        brute = min(
            np.abs(a - np.asarray(perm)).mean()
            for perm in itertools.permutations(b)
        )
        assert pf.w1_sorted_1d(a, b) == pytest.approx(brute, abs=1e-12)


def test_matching_equals_brute_force(w, rng):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a = _measure(rng, n)
        b = _measure(rng, n)
        assert pf.w1_matching(a, b, w) == pytest.approx(_brute_w1(w, a, b), abs=1e-12)


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_matching_equals_brute_force_over_weight_range(scale, rng):
    # Every weight from 1e-6 to 1e6 against every position scale, so each
    # term of the ground metric in turn dominates or vanishes.
    for s_m, ell, tau_r in itertools.product((1e-6, 1.0, 1e6), repeat=3):
        w = pf.ZMetricWeights(s_m=s_m, ell=ell, tau_r=tau_r)
        for _ in range(3):
            n = int(rng.integers(2, 7))
            a = _measure(rng, n, spread=scale)
            b = _measure(rng, n, spread=scale)
            assert pf.w1_matching(a, b, w) == pytest.approx(
                _brute_w1(w, a, b), rel=1e-12, abs=0.0
            )


def test_matching_never_beats_identity(w, rng):
    for _ in range(10):
        a = _measure(rng, 12)
        b = _measure(rng, 12)
        identity = np.mean([
            z_distance(w, _atom(a, i), _atom(b, i)) for i in range(12)
        ])
        assert pf.w1_matching(a, b, w) <= identity + 1e-12


def test_matching_dominates_marginal_transports(w, rng):
    # Dropping coordinates can only shrink the ground distance, so the
    # joint W1 dominates each marginal W1.
    for _ in range(10):
        a = _measure(rng, 15)
        b = _measure(rng, 15)
        joint = pf.w1_matching(a, b, w)
        assert joint >= pf.w1_sorted_1d(a.sizes, b.sizes) / w.s_m - 1e-12
        assert joint >= pf.w1_sorted_1d(a.caps, b.caps) / w.s_m - 1e-12
        assert joint >= w.tau_r * pf.w1_sorted_1d(a.rates, b.rates) - 1e-12
        assert joint >= (
            pf.w1_sorted_1d(a.positions[:, 0], b.positions[:, 0]) / w.ell - 1e-12
        )


def test_matching_reduces_to_sorted_when_only_sizes_differ(w, rng):
    n = 30
    pos = np.tile([[0.3, -0.2]], (n, 1))
    caps = np.full(n, 0.7)
    rates = np.full(n, 1.1)
    a = pf.PopulationState(rng.uniform(0.1, 0.9, n), pos, caps, rates)
    b = pf.PopulationState(rng.uniform(0.1, 0.9, n), pos, caps, rates)
    assert pf.w1_matching(a, b, w) == pytest.approx(
        pf.w1_sorted_1d(a.sizes, b.sizes) / w.s_m, abs=1e-12
    )


def test_matching_refuses_oversized_and_mismatched(w, rng):
    a = _measure(rng, 513)
    b = _measure(rng, 513)
    with pytest.raises(ValueError, match="cap"):
        pf.w1_matching(a, b, w)
    with pytest.raises(ValueError, match="cardinality"):
        pf.w1_matching(a, _measure(rng, 5), w)


def test_bound_constants_frozen_values(mu0_uniform, rng):
    cloud = _measure(rng, 40)
    c = pf.bound_coefficients(mu0_uniform, cloud, 100)
    assert c.drive_constant == pytest.approx(DRIVE_CONSTANT, rel=1e-12)
    assert c.N == 100
    assert c.drive_term(2.0) == pytest.approx(
        (c.drive_constant + 2.0 * c.A_mu) / 99.0, rel=1e-14
    )


def test_bound_requires_two_plants(mu0_uniform, rng):
    with pytest.raises(ValueError):
        pf.bound_coefficients(mu0_uniform, _measure(rng, 5), 1)


def _cloud_measure(sample, n):
    """The first n drawn plants as a uniformly weighted measure."""
    return pf.PopulationState(sample.s0[:n], sample.x[:n], sample.S[:n], sample.gamma[:n])


def test_drive_functional_against_direct_average(params, mu0_uniform):
    # The A functional is a plain cloud average of a known integrand:
    # recompute it directly, and check the 10^4-atom value sits within
    # Monte-Carlo error of the 10^5-atom value of the same integral.
    cfg = mu0_uniform.with_seed(77)
    big = pf.sample_mu0(cfg, 100_000)
    m_big = _cloud_measure(big, 100_000)
    m_small = _cloud_measure(big, 10_000)

    p = params
    s0_max = mu0_uniform.s0_support_max
    terms = (
        m_big.rates * m_big.caps * (m_big.sizes / p.s_m)
        * np.log(m_big.sizes / p.s_m)
        + s0_max * math.exp(p.R_M) * p.R_M * m_big.rates
        * np.log(m_big.caps / p.s_m)
    ) / (2.0 * p.R_M)

    a_big = pf.bound_coefficients(mu0_uniform, m_big, 100).A_mu
    a_small = pf.bound_coefficients(mu0_uniform, m_small, 100).A_mu
    assert a_big == pytest.approx(terms.mean(), rel=1e-12)
    se_small = terms.std() / math.sqrt(10_000)
    assert abs(a_small - a_big) < 5.0 * se_small


def test_flow_gap_zero_at_start(params, mu0_uniform, tiny_model):
    sample = pf.sample_mu0(mu0_uniform.with_seed(5), 12)
    state0 = pf.samples_to_state(sample)
    cfg = pf.SolverConfig(t_end=1.0)
    traj = pf.integrate(params, state0, cfg)
    probes = _cloud_measure(sample, 4)
    gap0 = pf.flow_gap(traj, tiny_model, 0.0, probes, solver_cfg=cfg)
    assert gap0 == pytest.approx(0.0, abs=1e-14)
    gap1 = pf.flow_gap(traj, tiny_model, 1.0, probes, solver_cfg=cfg)
    assert gap1 >= 0.0
    with pytest.raises(ValueError):
        pf.flow_gap(traj, tiny_model, 1.0, _cloud_measure(sample, 0), solver_cfg=cfg)


def _grid(t_end, snapshot_dt):
    """Solver settings whose snapshot grid runs from 0 to ``t_end``."""
    return pf.SolverConfig(t_end=t_end, snapshot_dt=snapshot_dt)


def test_self_comparison_is_exactly_zero(tiny_model, exp_config):
    reports = pf.convergence_experiment(
        tiny_model, [5, 9], _grid(1.0, 0.5), seed=3,
        weights=exp_config.weights, self_comparison=True,
    )
    assert [r.N for r in reports] == [5, 9]
    for r in reports:
        assert np.all(r.w1_size == 0.0)
        assert np.all(r.w1_full == 0.0)
        assert np.all(r.flow_gap == 0.0)
        assert np.all(r.bound_value > 0.0)


def test_bound_value_is_the_drive_term_of_the_draw(tiny_model, exp_config):
    # The bound column is the drive term evaluated on the run's own start
    # cloud: the first N plants of the model's training law at this seed.
    n, seed = 7, 5
    cfg = _grid(1.0, 0.25)
    (report,) = pf.convergence_experiment(
        tiny_model, [n], cfg, seed=seed, weights=exp_config.weights
    )
    mu0 = tiny_model.mu0_cfg
    cloud = _cloud_measure(pf.sample_mu0(mu0.with_seed(seed), 2 * n), n)
    c = pf.bound_coefficients(mu0, cloud, n)
    expected = [(c.drive_constant + t * c.A_mu) / (n - 1) for t in cfg.snapshot_times]
    assert report.bound_value.tolist() == expected


def test_convergence_flow_gap_equals_member_probe_gap(
    params, mu0_uniform, tiny_model, exp_config
):
    # flow_gap is computed from the run's own trajectories; growing each
    # member again as a probe against the frozen run must give the same
    # gap, because the probe reproduces the member (criterion 04).
    n, seed = 12, 4
    cfg = _grid(3.0, 0.5)
    t_grid = cfg.snapshot_times
    (report,) = pf.convergence_experiment(
        tiny_model, [n], cfg, seed=seed, weights=exp_config.weights
    )
    sample = pf.sample_mu0(mu0_uniform.with_seed(seed), n)
    traj = pf.integrate(params, pf.samples_to_state(sample), cfg)
    members = _cloud_measure(sample, n)
    probes = pf.empirical_flow(traj, members, cfg)
    mf = np.stack([pf.flow_eval_many(tiny_model, t, members) for t in t_grid])
    probe_gaps = np.abs(probes - mf)
    assert np.all(report.flow_gap[1:] > 0.0)
    np.testing.assert_allclose(
        report.flow_gap, probe_gaps.mean(axis=1), rtol=0.0, atol=1e-8
    )


def test_convergence_experiment_grows_no_probes(
    tiny_model, exp_config, monkeypatch
):
    def no_probes(*args, **kwargs):
        raise AssertionError("convergence_experiment must not grow probes")

    monkeypatch.setattr("plantfield.metrics.empirical_flow", no_probes)
    reports = pf.convergence_experiment(
        tiny_model, [5, 8], _grid(1.0, 1.0), seed=1, weights=exp_config.weights
    )
    assert [r.N for r in reports] == [5, 8]
    assert all(np.all(np.isfinite(r.flow_gap)) for r in reports)


@pytest.mark.parametrize("cheap_traits", [False, True])
@pytest.mark.parametrize("seed", [0, 3])
def test_full_w1_equals_matching_at_each_time(
    tiny_model, exp_config, seed, cheap_traits
):
    # The trait cost is built once per N; each time point must still give
    # exactly the matching of the run's sizes against the surrogate's.
    # Default weights match each plant with itself; cheap position and
    # rate terms make some swaps pay at N = 200, so the trait values count.
    w = exp_config.weights
    if cheap_traits:
        w = replace(w, ell=1e3, tau_r=1e-3)
    cfg = _grid(1.0, 0.25)
    reports = pf.convergence_experiment(
        tiny_model, [2, 50, 200], cfg, seed=seed, weights=w
    )
    for rep in reports:
        sample = pf.sample_mu0(tiny_model.mu0_cfg.with_seed(seed), rep.N)
        state0 = pf.samples_to_state(sample)
        sim = pf.integrate(tiny_model.params, state0, cfg).sizes
        for k, t in enumerate(cfg.snapshot_times):
            mf = pf.flow_eval_many(tiny_model, t, state0)
            expected = pf.w1_matching(
                replace(state0, sizes=sim[k]), replace(state0, sizes=mf), w
            )
            assert rep.w1_full[k] == expected
        assert rep.w1_full[-1] > 0.0


def test_full_w1_is_nan_above_the_cap_without_an_assignment(
    tiny_model, exp_config, monkeypatch
):
    sizes = []
    assign = metrics.linear_sum_assignment

    def counted(cost):
        sizes.append(cost.shape[0])
        return assign(cost)

    monkeypatch.setattr(metrics, "DEFAULT_MATCHING_CAP", 10)
    monkeypatch.setattr(metrics, "linear_sum_assignment", counted)
    cfg = _grid(1.0, 0.5)
    small, big = pf.convergence_experiment(
        tiny_model, [10, 11], cfg, seed=2, weights=exp_config.weights
    )
    assert np.all(np.isfinite(small.w1_full))
    assert np.all(np.isnan(big.w1_full))
    assert sizes == [10] * cfg.snapshot_times.size


def test_ladder_builds_each_trait_cost_once(tiny_model, exp_config, monkeypatch):
    built = []
    trait_cost = metrics._trait_cost

    def counted(w, a, b):
        built.append(a.n)
        return trait_cost(w, a, b)

    monkeypatch.setattr(metrics, "DEFAULT_MATCHING_CAP", 8)
    monkeypatch.setattr(metrics, "_trait_cost", counted)
    pf.convergence_experiment(
        tiny_model, [3, 5, 8, 9], _grid(1.0, 0.25), seed=1,
        weights=exp_config.weights,
    )
    assert built == [3, 5, 8]


def test_convergence_experiment_validation(tiny_model, exp_config):
    w = exp_config.weights
    with pytest.raises(ValueError, match="increasing"):
        pf.convergence_experiment(tiny_model, [10, 10], _grid(1.0, 1.0), 0, w)
    with pytest.raises(ValueError, match="at least 2"):
        pf.convergence_experiment(tiny_model, [1, 5], _grid(1.0, 1.0), 0, w)
    with pytest.raises(ValueError, match="horizon"):
        pf.convergence_experiment(
            tiny_model, [5, 10], _grid(tiny_model.T + 1.0, 1.0), 0, w
        )


def test_distances_csv_layout(tiny_model, exp_config, tmp_path):
    reports = pf.convergence_experiment(
        tiny_model, [4, 6], _grid(1.0, 0.5), seed=11,
        weights=exp_config.weights, self_comparison=True,
    )
    out = tmp_path / "distances.csv"
    export_distances_csv(reports, out, comments=["seed=11"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=11"
    assert lines[1] == "N,t,w1_size,w1_full,flow_gap,bound_value"
    assert len(lines) == 2 + 2 * 3
    first = lines[2].split(",")
    assert first[0] == "4"
    assert float(first[1]) == 0.0
    assert float(first[2]) == 0.0


def test_surrogate_tracks_large_population(params, mu0_uniform, trained_model):
    # Direct mean-field check: in a 2000-plant system, per-plant probe
    # growth at the final time should agree with the surrogate flow at
    # the same initial data to within a few percent.
    model, _ = trained_model
    sample = pf.sample_mu0(mu0_uniform.with_seed(123), 2000)
    state0 = pf.samples_to_state(sample)
    cfg = pf.SolverConfig(t_end=10.0, rel_tol=1e-6, abs_tol=1e-9)
    traj = pf.integrate(params, state0, cfg)
    members = _cloud_measure(sample, 40)
    probe = pf.empirical_flow(traj, members, cfg)[-1]
    surro = pf.flow_eval_many(model, 10.0, members)
    assert float(np.mean(np.abs(probe - surro) / probe)) < 0.05
