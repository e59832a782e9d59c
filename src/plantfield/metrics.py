"""Transport distances, flow-gap diagnostics, and bound certificates.

Compares a finite simulated population against its mean-field surrogate:
exact 1-D Wasserstein distance of the size marginal by sorting, exact
full-state Wasserstein by minimum-cost matching under the weighted
ground metric, the mean probe-flow gap, and the coefficients of the
theoretical a-priori bound evaluated on the initial empirical cloud.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .initial import Mu0Config, sample_mu0, samples_to_state
from .meanfield import (
    MeanFieldModel, _flow, _horizon_time, _stage_values, flow_eval_many
)
from .model import ModelParams
from .population import (
    PopulationState,
    SolverConfig,
    Trajectory,
    empirical_flow,
    integrate,
    snapshot_measure,
)
from .textio import format_row, write_csv

__all__ = [
    "BoundCoefficients",
    "DistanceReport",
    "ZMetricWeights",
    "bound_coefficients",
    "convergence_experiment",
    "export_distances_csv",
    "flow_gap",
    "w1_matching",
    "w1_sorted_1d",
    "z_distance",
]

DEFAULT_MATCHING_CAP = 512


@dataclass(frozen=True)
class ZMetricWeights:
    """Scales making the four state coordinates commensurable."""

    s_m: float
    ell: float
    tau_r: float

    def __post_init__(self):
        for name in ("s_m", "ell", "tau_r"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # also false for NaN
                raise ValueError(
                    f"metric weight {name} must be finite and strictly "
                    f"positive, got {value!r}"
                )


def z_distance(w: ZMetricWeights, z1, z2) -> float:
    """Weighted ground distance between two states (s, x, S, gamma)."""
    s1, x1, S1, g1 = z1
    s2, x2, S2, g2 = z2
    dx = np.asarray(x1, dtype=float) - np.asarray(x2, dtype=float)
    return (
        abs(s1 - s2) / w.s_m
        + abs(S1 - S2) / w.s_m
        + float(np.sqrt((dx**2).sum())) / w.ell
        + w.tau_r * abs(g1 - g2)
    )


def w1_sorted_1d(a, b) -> float:
    """Exact W1 between two equal-weight point sets on the line."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("inputs must be nonempty 1-D arrays of equal length")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def _cost_matrix(
    w: ZMetricWeights, a: PopulationState, b: PopulationState
) -> np.ndarray:
    ds = np.abs(a.sizes[:, None] - b.sizes[None, :]) / w.s_m
    dS = np.abs(a.caps[:, None] - b.caps[None, :]) / w.s_m
    dxy = np.sqrt(
        ((a.positions[:, None, :] - b.positions[None, :, :]) ** 2).sum(axis=2)
    ) / w.ell
    dg = w.tau_r * np.abs(a.rates[:, None] - b.rates[None, :])
    return ds + dS + dxy + dg


def w1_matching(
    a: PopulationState,
    b: PopulationState,
    w: ZMetricWeights,
    cap: int = DEFAULT_MATCHING_CAP,
) -> float:
    """Exact W1 between equal-size atom sets by minimum-cost matching."""
    if a.n != b.n:
        raise ValueError("atom sets must have equal cardinality")
    if a.n > cap:
        raise ValueError(
            f"matching refused for n={a.n} > cap={cap} (cubic cost); "
            "raise the cap explicitly to force it"
        )
    cost = _cost_matrix(w, a, b)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / a.n)


def flow_gap(
    params: ModelParams,
    background: Trajectory,
    model: MeanFieldModel,
    t: float,
    s0,
    x,
    S,
    gamma,
    solver_cfg: SolverConfig | None = None,
) -> float:
    """Mean absolute gap at time t between probe growth and the surrogate flow.

    The K probes (s0, x, S, gamma) are grown together against the frozen
    background to t, with the tolerances of ``solver_cfg``, and compared
    with the model flow at the same initial data.
    """
    cfg = replace(solver_cfg or SolverConfig(t_end=t), t_end=t)
    probes = empirical_flow(params, background, s0, x, S, gamma, cfg)[-1]
    return float(np.mean(np.abs(probes - flow_eval_many(model, t, s0, x, S, gamma))))


@dataclass
class BoundCoefficients:
    """Constants of the a-priori gap bound, evaluated on a start cloud."""

    alpha_S: float
    alpha_gamma: float
    beta_N: float
    A_mu: float
    B_mu: float
    s0_max: float
    S_m_lower: float
    s_m_N: float
    N: int
    drive_constant: float
    clamped_radicands: int

    def drive_term(self, t: float) -> float:
        """The finite part of the bound: (drive + t*A) / (N - 1).

        The full certificate multiplies this by e^{beta_N t}, which
        overflows for realistic constants; the drive term is reported
        instead and the exponential rate separately.
        """
        return (self.drive_constant + t * self.A_mu) / (self.N - 1)


def bound_coefficients(
    params: ModelParams,
    mu0_cfg: Mu0Config,
    cloud: PopulationState,
    N: int,
) -> BoundCoefficients:
    """Evaluate the bound constants on an initial empirical cloud.

    The A functional is a Monte-Carlo average over the cloud atoms; the
    B functional mixes empirical position moments of the cloud with the
    exact Gaussian moments of the configured position law.  An inner
    radicand that is not guaranteed positive pointwise is clamped at
    zero, with the number of clamps reported.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    p = params
    s0_max = mu0_cfg.s0_support_max
    gamma_max = mu0_cfg.gamma_max
    e_rm = math.exp(p.R_M)

    s = cloud.sizes
    S = cloud.caps
    g = cloud.rates
    a_terms = (
        g * S * (s / p.s_m) * np.log(s / p.s_m)
        + s0_max * e_rm * p.R_M * g * np.log(S / p.s_m)
    )
    A_mu = float(a_terms.mean() / (2.0 * p.R_M))

    # Position moments: empirical for the cloud, exact for the Gaussian law.
    pos = cloud.positions
    m1_cloud = pos.mean(axis=0)
    m2_cloud = float((pos**2).sum(axis=1).mean())
    L = mu0_cfg.L
    abs1_law = L * math.sqrt(math.pi / 2.0)
    m2_law = 2.0 * L**2
    m1_law = np.zeros(2)

    pref = s0_max * e_rm * p.R_M * gamma_max / p.sigma_x**2
    term1 = 2.0 * abs1_law
    term2 = math.sqrt(2.0 * m2_law + 2.0 * m2_cloud)
    radicand = 2.0 * m2_cloud + 2.0 * m2_law - 4.0 * pos @ (m1_cloud + m1_law)
    clamped = int(np.sum(radicand < 0.0))
    term3 = float(np.sqrt(np.maximum(radicand, 0.0)).mean())
    B_mu = pref * (term1 + term2 + term3)

    s_m_N = p.s_m * math.exp(-2.0 * p.R_M / (2.0 * N - 3.0))
    beta_N = (
        s0_max * e_rm * p.R_M * gamma_max / (s_m_N * p.sigma_r)
        * (1.0 + p.sigma_r / p.R_M + 0.5)
    )
    return BoundCoefficients(
        alpha_S=s0_max / mu0_cfg.S_lower,
        alpha_gamma=s0_max * math.log(s0_max / p.s_m) * e_rm
        + s0_max * e_rm * p.R_M,
        beta_N=beta_N,
        A_mu=A_mu,
        B_mu=B_mu,
        s0_max=s0_max,
        S_m_lower=mu0_cfg.S_lower,
        s_m_N=s_m_N,
        N=int(N),
        drive_constant=s0_max * e_rm * p.R_M,
        clamped_radicands=clamped,
    )


@dataclass
class DistanceReport:
    """Per-time distances between one finite run and the surrogate."""

    N: int
    times: np.ndarray
    w1_size: np.ndarray
    w1_full: np.ndarray
    flow_gap: np.ndarray
    bound_value: np.ndarray
    runtime_seconds: float
    coefficients: BoundCoefficients


def convergence_experiment(
    model: MeanFieldModel,
    n_list,
    solver: SolverConfig,
    seed: int,
    weights: ZMetricWeights,
    self_comparison: bool = False,
) -> list:
    """Distance trend over increasing population sizes.

    For each N: draw the population from the model's training law
    ``model.mu0_cfg`` (samples are nested across N via the
    seed-extension property), run it under ``model.params`` with
    ``solver``, evaluate the surrogate flow at the same initial data,
    and report distances on ``solver.snapshot_times``, which must end
    within the model horizon.  The full-state W1 is computed for N up to
    ``DEFAULT_MATCHING_CAP`` and is NaN above it.  In self-comparison
    mode the population is compared to itself, so all distances are
    exactly zero — a pipeline identity check.

    The flow gap is the paired member gap
    ``mean_i |s_i^N(t) - flow(t, z_i)|``.  A probe grown by
    ``empirical_flow`` from member i's own initial data against the
    frozen run solves the same ODE as that member, so by uniqueness it
    reproduces the member's trajectory (acceptance criterion 04 checks
    this to 1e-7 relative); the probe gap of ``flow_gap`` over all
    members therefore equals this paired gap up to solver tolerance,
    without a probe solve.
    """
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly increasing")
    if any(n < 2 for n in n_list):
        raise ValueError("population sizes must be at least 2")
    t_grid = solver.snapshot_times
    if float(t_grid[-1]) > model.T + 1e-12:
        raise ValueError("snapshot times exceed the model horizon")
    mu0_cfg, params = model.mu0_cfg, model.params

    reports = []
    for n in n_list:
        tic = time.perf_counter()
        state0 = samples_to_state(sample_mu0(mu0_cfg.with_seed(seed), n))
        traj = integrate(params, state0, solver)
        sim_sizes = traj.sizes  # (T, n)
        atoms = (state0.sizes, state0.positions, state0.caps, state0.rates)

        if self_comparison:
            mf_sizes = sim_sizes
        else:
            sv = _stage_values(model, *atoms)  # one evaluation for every t
            mf_sizes = np.stack([
                _flow(params, model.dt, _horizon_time(model, t), sv, *atoms)
                for t in t_grid
            ])

        # Both runs share the initial traits; only the sizes differ.
        measure0 = snapshot_measure(state0)
        coeffs = bound_coefficients(params, mu0_cfg, measure0, n)
        w1_size = np.array(
            [w1_sorted_1d(sim_sizes[k], mf_sizes[k]) for k in range(t_grid.size)]
        )
        w1_full = np.full(t_grid.size, float("nan"))
        if n <= DEFAULT_MATCHING_CAP:
            for k in range(t_grid.size):
                a = replace(measure0, sizes=sim_sizes[k])
                b = replace(measure0, sizes=mf_sizes[k])
                w1_full[k] = w1_matching(a, b, weights)
        gap = np.abs(sim_sizes - mf_sizes).mean(axis=1)
        bound = np.array([coeffs.drive_term(t) for t in t_grid])
        reports.append(
            DistanceReport(
                N=n,
                times=t_grid.copy(),
                w1_size=w1_size,
                w1_full=w1_full,
                flow_gap=gap,
                bound_value=bound,
                runtime_seconds=time.perf_counter() - tic,
                coefficients=coeffs,
            )
        )
    return reports


def export_distances_csv(reports, path, comments=()) -> None:
    """One row per (N, t): N,t,w1_size,w1_full,flow_gap,bound_value."""
    header = ["N", "t", "w1_size", "w1_full", "flow_gap", "bound_value"]

    def rows():
        for rep in reports:
            for k, t in enumerate(rep.times):
                yield (
                    rep.N,
                    float(t),
                    float(rep.w1_size[k]),
                    float(rep.w1_full[k]),
                    float(rep.flow_gap[k]),
                    float(rep.bound_value[k]),
                )

    write_csv(path, header, map(format_row, rows()), comments=comments)
