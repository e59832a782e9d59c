"""Acceptance gate: every primary behavioral guarantee, one test each.

Each test prints exactly one ``criterion NN: PASS/FAIL`` line (visible
with ``pytest -s``; the verbose test listing carries the same verdict)
and then asserts it.  Tolerances are stated inline next to each check.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.integrate

import plantfield as pf
from plantfield.cli import main as cli_main
from oracles import gompertz_closed_form
from plantfield.meanfield import _potential_integral, _stage_values


def _report(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_sizes_and_indices_stay_in_band(exp_config, default_run):
    state0, traj, elapsed = default_run
    p = exp_config.params
    caps = state0.caps
    sizes = traj.sizes  # (T, n)
    strict = bool(
        np.all(sizes > p.s_m) and np.all(sizes < caps[None, :])
    )
    c = traj.c_indices
    c_ok = bool(np.all(c >= -1e-9) and np.all(c <= 1.0 + 1e-9))
    fast = elapsed < 10.0
    _report(
        1, strict and c_ok and fast,
        f"sizes strictly inside (s_m, S_i) at every snapshot: {strict}; "
        f"competition index within [0,1] pad 1e-9: {c_ok}; "
        f"runtime {elapsed:.2f}s < 10s: {fast}",
    )


def test_criterion_02_decoupled_pair_follows_closed_form(params):
    sep = 1e6 * params.sigma_x  # 5e5 length units apart
    s0 = np.array([0.12, 0.2])
    state0 = pf.PopulationState(
        sizes=s0.copy(),
        positions=np.array([[0.0, 0.0], [sep, 0.0]]),
        caps=np.array([0.7, 0.85]),
        rates=np.array([0.9, 1.2]),
    )
    cfg = pf.SolverConfig(t_end=10.0)
    traj = pf.integrate(params, state0, cfg)
    grid = np.linspace(0.0, 10.0, 101)
    got = np.array([traj.sizes_at(t) for t in grid])
    ref = gompertz_closed_form(
        params, s0, state0.caps, state0.rates, grid[:, None]
    )
    worst = float(np.max(np.abs(got - ref) / ref))
    ok = worst < 1e-5
    _report(
        2, ok,
        f"two plants 5e5 apart vs isolated closed form on 101 times: "
        f"max rel dev {worst:.2e} < 1e-5",
    )


def test_criterion_03_envelopes_bracket_every_plant(exp_config, default_run):
    state0, traj, _ = default_run
    p = exp_config.params
    s0 = state0.sizes
    caps = state0.caps
    rates = state0.rates
    worst_lo, worst_up = 0.0, 0.0
    ok = True
    for k, t in enumerate(traj.times):
        decay = np.exp(-rates * t)
        lower = p.s_m * (s0 / p.s_m) ** decay
        upper = caps * (s0 / caps) ** decay
        s = traj.sizes[k]
        ok = ok and bool(np.all(s >= lower - 1e-9) and np.all(s <= upper + 1e-9))
        worst_lo = max(worst_lo, float(np.max(lower - s)))
        worst_up = max(worst_up, float(np.max(s - upper)))
    _report(
        3, ok,
        f"no-shading upper / full-shading lower growth envelopes hold at "
        f"every snapshot (pad 1e-9): worst breaches {worst_lo:.2e}, {worst_up:.2e}",
    )


def test_criterion_04_probe_reproduces_members(exp_config, default_run):
    state0, traj, _ = default_run
    rng = np.random.default_rng(42)
    members = rng.choice(state0.n, size=5, replace=False)
    probes = pf.empirical_flow(
        traj,
        pf.PopulationState(
            state0.sizes[members], state0.positions[members],
            state0.caps[members], state0.rates[members],
        ),
        exp_config.solver,
    )
    member = traj.sizes[:, members]
    worst = float(np.max(np.abs(probes - member) / member))
    ok = worst < 1e-7
    _report(
        4, ok,
        f"a batch of probes grown together against the frozen background "
        f"matches the in-system members for 5 random plants: max rel dev "
        f"{worst:.2e} < 1e-7",
    )


def test_criterion_05_training_quality(trained_model):
    model, elapsed = trained_model
    r2 = [st.r2_test for st in model.stages]
    all_ok = all(v >= 0.95 for v in r2)
    first_ok = r2[0] >= 0.97
    fast = elapsed < 120.0
    _report(
        5, all_ok and first_ok and fast,
        f"held-out R^2 per stage in [{min(r2):.4f}, {max(r2):.4f}], "
        f"all >= 0.95: {all_ok}; first stage {r2[0]:.4f} >= 0.97: {first_ok}; "
        f"runtime {elapsed:.1f}s < 120s: {fast}",
    )


def test_criterion_06_distances_shrink_with_population(convergence_reports):
    reports, elapsed = convergence_reports
    w1_final = [r["w1_size"][-1] for r in reports]
    gap_final = [r["flow_gap"][-1] for r in reports]
    ratio_w1 = w1_final[0] / w1_final[-1]
    ratio_gap = gap_final[0] / gap_final[-1]
    non_mono = sum(b > a for a, b in zip(w1_final, w1_final[1:])) + sum(
        b > a for a, b in zip(gap_final, gap_final[1:])
    )
    ok = ratio_w1 >= 1.5 and ratio_gap >= 1.5 and non_mono <= 1 and elapsed < 300.0
    _report(
        6, ok,
        f"N 50->400 at t=10: size-distribution W1 shrinks x{ratio_w1:.2f} "
        f"(>=1.5), probe-vs-surrogate gap shrinks x{ratio_gap:.2f} (>=1.5), "
        f"{non_mono} non-monotone adjacent pairs (<=1 allowed), "
        f"runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_07_matching_agrees_with_brute_force(rng):
    w = pf.ZMetricWeights(s_m=0.05, ell=1.0, tau_r=0.5)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        sa, sb = rng.uniform(0.06, 0.9, (2, n))
        Sa, Sb = rng.uniform(0.55, 0.95, (2, n))
        ga, gb = rng.uniform(0.1, 1.9, (2, n))
        xa, xb = rng.normal(size=(2, n, 2))
        cost = (
            np.abs(sa[:, None] - sb[None, :]) / w.s_m
            + np.abs(Sa[:, None] - Sb[None, :]) / w.s_m
            + np.sqrt(((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2)) / w.ell
            + w.tau_r * np.abs(ga[:, None] - gb[None, :])
        )
        brute = min(
            cost[np.arange(n), list(perm)].mean()
            for perm in itertools.permutations(range(n))
        )
        got = pf.w1_matching(
            pf.PopulationState(sa, xa, Sa, ga), pf.PopulationState(sb, xb, Sb, gb), w
        )
        worst = max(worst, abs(got - brute))
    ok = worst < 1e-12
    _report(
        7, ok,
        f"assignment-based W1 equals exhaustive search over 200 random "
        f"instances (n=2..6): max abs dev {worst:.2e} < 1e-12",
    )


def _one_atom(rng, gamma_lo):
    """One random atom as a record of one row."""
    return pf.PopulationState(
        rng.uniform(0.08, 0.45, 1), rng.normal(size=(1, 2)),
        rng.uniform(0.55, 0.95, 1), rng.uniform(gamma_lo, 2.0, 1),
    )


def test_criterion_08_flow_solves_its_integral_equation(trained_model, rng):
    model, _ = trained_model
    p = model.params
    dt, m = model.spec.dt, model.n_stages

    worst_int = 0.0
    for _ in range(500):
        t = rng.uniform(0.0, model.T)
        atom = _one_atom(rng, 0.1)
        gamma = atom.rates[0]
        vals = _stage_values(model.spec, model.stages, atom)[:, 0]

        def step(tau):
            return vals[min(int(tau / dt), m - 1)]

        breaks = [j * dt for j in range(1, int(t / dt) + 1)] or None
        quad, _ = scipy.integrate.quad(
            lambda u: gamma * math.exp(gamma * (u - t)) * step(u),
            0.0, t, points=breaks, limit=200, epsabs=1e-13, epsrel=1e-13,
        )
        (got,) = _potential_integral(dt, t, vals[:, None], atom.rates)
        worst_int = max(worst_int, abs(got - quad))

    zero = pf.MeanFieldModel(
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
    worst_flow = 0.0
    for _ in range(500):
        t = rng.uniform(0.0, model.T)
        atom = _one_atom(rng, 0.05)
        (got,) = pf.flow_eval_many(zero, t, atom)
        (ref,) = gompertz_closed_form(p, atom.sizes, atom.caps, atom.rates, t)
        worst_flow = max(worst_flow, abs(got - ref) / ref)

    ok = worst_int < 1e-9 and worst_flow < 1e-10
    _report(
        8, ok,
        f"accumulated-shading term equals adaptive quadrature of the "
        f"exponentially weighted stage step function over 500 draws "
        f"(max {worst_int:.2e} < 1e-9), and with all stages zeroed the "
        f"flow falls back to isolated growth (max rel {worst_flow:.2e} < 1e-10)",
    )


def test_criterion_09_feature_basis_combinatorics():
    ok = (
        pf.n_monomials(3, 5) == 56
        and pf.n_monomials(5, 3) == 56
        and pf.monomial_exponents(2, 2)
        == ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))
    )
    _report(
        9, ok,
        "monomial basis sizes 56 for (3 vars, degree 5) and (5 vars, "
        "degree 3); exponent enumeration for 2 vars, degree 2 in the "
        "documented order",
    )


def test_criterion_10_cli_is_deterministic(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "train.T = 3.0\ntrain.N = 100\ntrain.K = 100\n"
        "train.d3 = 2\ntrain.d5 = 1\n"
    )
    outs = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        assert cli_main(["simulate", "--n", "12", "--seed", "3",
                         "--out", str(d / "sim")]) == 0
        assert cli_main(["train-meanfield", "--config", str(cfg),
                         "--out", str(d / "train")]) == 0
        assert cli_main(["converge", "--config", str(cfg),
                         "--model", str(d / "train" / "model.json"),
                         "--n-list", "10,20", "--out", str(d / "conv")]) == 0
        assert cli_main(["potential-dump",
                         "--model", str(d / "train" / "model.json"),
                         "--grid", "-1,1,-1,1,4", "--out", str(d / "dump")]) == 0
        outs[tag] = d
    files = [
        ("sim", "trajectory.csv"), ("sim", "diagnostics.json"),
        ("train", "model.json"), ("train", "r2.csv"),
        ("conv", "distances.csv"), ("dump", "potential_surface.csv"),
    ]
    same = all(
        (outs["one"] / sub / name).read_bytes()
        == (outs["two"] / sub / name).read_bytes()
        for sub, name in files
    )
    _report(
        10, same,
        "all four subcommands rerun byte-identically "
        "(trajectory, diagnostics, model, fit report, distances, surface dump)",
    )


def test_criterion_11_surrogate_respects_cap_surface(trained_model):
    model, _ = trained_model
    mu0 = model.mu0_cfg
    axis = np.linspace(-2.0, 2.0, 25)
    pts = np.array([(a, b) for a in axis for b in axis])
    inside = (pts**2).sum(axis=1) <= (2.0 * mu0.L) ** 2
    S_bar = pf.surface_eval(mu0.S_surface, pts)
    g_bar = pf.surface_eval(mu0.gamma_surface, pts)
    s0 = np.full(pts.shape[0], mu0.s0_mid)
    s_inf = pf.flow_eval_many(model, model.T, pf.PopulationState(s0, pts, S_bar, g_bar))
    frac = float(np.mean(s_inf[inside] < S_bar[inside]))
    ok = frac >= 0.9
    _report(
        11, ok,
        f"long-run surrogate size sits below the local cap surface on "
        f"{frac:.3f} of a 25x25 grid within twice the position spread "
        f"(>= 0.9 required)",
    )
