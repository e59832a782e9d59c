"""Transport distances, flow-gap diagnostics, and the a-priori bound's drive term.

Compares a finite simulated population against its mean-field surrogate:
exact 1-D Wasserstein distance of the size marginal by sorting, exact
full-state Wasserstein by minimum-cost matching under the weighted
ground metric, the mean probe-flow gap, and the finite drive part of the
theoretical a-priori bound evaluated on the initial empirical cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .initial import Mu0Config, sample_mu0, samples_to_state
from .meanfield import (
    MeanFieldModel, _flow, _horizon_time, _stage_values, flow_eval_many
)
from .model import _require_population, _require_positive
from .population import (
    PopulationState,
    SolverConfig,
    Trajectory,
    _sq_distances,
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
]

# The assignment is cubic.  Converge builds the trait cost once per N, and
# each time point adds only the size term and one assignment.
DEFAULT_MATCHING_CAP = 512


@dataclass(frozen=True)
class ZMetricWeights:
    """Scales making the four state coordinates commensurable."""

    s_m: float
    ell: float
    tau_r: float

    def __post_init__(self):
        _require_positive("metric weight ", s_m=self.s_m, ell=self.ell, tau_r=self.tau_r)


def w1_sorted_1d(a, b) -> float:
    """Exact W1 between two equal-weight point sets on the line."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("inputs must be nonempty 1-D arrays of equal length")
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def _trait_cost(
    w: ZMetricWeights, a: PopulationState, b: PopulationState
) -> np.ndarray:
    """The cap, position and rate terms of the ground metric between the
    atoms of a (rows) and b (columns); the size term is added per use."""
    dS = np.abs(a.caps[:, None] - b.caps[None, :]) / w.s_m
    dxy = np.sqrt(_sq_distances(a.positions, b.positions)) / w.ell
    dg = w.tau_r * np.abs(a.rates[:, None] - b.rates[None, :])
    return dS + dxy + dg


def linear_sum_assignment(cost):
    """SciPy's assignment solver, imported on first use: only matching
    needs ``scipy.optimize``, which adds about 22 MB resident."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def _matched_cost(w: ZMetricWeights, sizes_a, sizes_b, trait) -> float:
    """Mean optimal-assignment cost of sizes a vs b plus the ``trait`` cost."""
    cost = np.subtract.outer(sizes_a, sizes_b)
    np.abs(cost, out=cost)
    cost /= w.s_m
    cost += trait
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum() / sizes_a.size)


def w1_matching(a: PopulationState, b: PopulationState, w: ZMetricWeights) -> float:
    """Exact W1 between equal-size atom sets by minimum-cost matching, for
    at most ``DEFAULT_MATCHING_CAP`` atoms (the cost is cubic)."""
    if a.n != b.n:
        raise ValueError("atom sets must have equal cardinality")
    if a.n > DEFAULT_MATCHING_CAP:
        raise ValueError(
            f"matching refused for n={a.n} > cap={DEFAULT_MATCHING_CAP} (cubic cost)"
        )
    return _matched_cost(w, a.sizes, b.sizes, _trait_cost(w, a, b))


def flow_gap(
    background: Trajectory,
    model: MeanFieldModel,
    t: float,
    probes: PopulationState,
    solver_cfg: SolverConfig | None = None,
) -> float:
    """Mean absolute gap at time t between probe growth and the surrogate flow.

    The K probes are grown together against the frozen background to t,
    with the tolerances of ``solver_cfg``, and compared with the model
    flow at the same initial data.
    """
    cfg = replace(solver_cfg or SolverConfig(t_end=t), t_end=t)
    grown = empirical_flow(background, probes, cfg)[-1]
    return float(np.mean(np.abs(grown - flow_eval_many(model, t, probes))))


@dataclass
class BoundCoefficients:
    """The finite drive part of the a-priori gap bound on a start cloud."""

    A_mu: float
    drive_constant: float
    N: int

    def drive_term(self, t):
        """The finite part of the bound at time t (or an array of times):
        (drive + t*A) / (N - 1).  The full certificate multiplies it by
        e^{beta_N t}, vacuous at beta_N ~ 1e3."""
        return (self.drive_constant + t * self.A_mu) / (self.N - 1)


def bound_coefficients(
    mu0_cfg: Mu0Config,
    cloud: PopulationState,
    N: int,
) -> BoundCoefficients:
    """Evaluate the drive constants on an initial empirical cloud.

    The drive is s0_max e^{R_M} R_M; the A functional is a Monte-Carlo
    average over the cloud atoms.  The parameters are ``mu0_cfg.params``.
    """
    _require_population("N", N)
    p = mu0_cfg.params
    drive = mu0_cfg.s0_support_max * math.exp(p.R_M) * p.R_M
    s, S, g = cloud.sizes, cloud.caps, cloud.rates
    a_terms = g * S * (s / p.s_m) * np.log(s / p.s_m) + drive * g * np.log(S / p.s_m)
    A_mu = float(a_terms.mean() / (2.0 * p.R_M))
    return BoundCoefficients(A_mu=A_mu, drive_constant=drive, N=int(N))


@dataclass
class DistanceReport:
    """Per-time distances between one finite run and the surrogate."""

    N: int
    times: np.ndarray
    w1_size: np.ndarray
    w1_full: np.ndarray
    flow_gap: np.ndarray
    bound_value: np.ndarray


def _n_ladder(n_list) -> list:
    """``n_list`` as ints, once each is a population size and they increase."""
    n_list = [int(n) for n in n_list]
    for n in n_list:
        _require_population("n-list entry", n)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n-list must be strictly increasing")
    return n_list


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
    n_list = _n_ladder(n_list)
    t_grid = solver.snapshot_times
    if float(t_grid[-1]) > model.T + 1e-12:
        raise ValueError("snapshot times exceed the model horizon")
    mu0_cfg, params = model.mu0_cfg, model.params

    reports = []
    for n in n_list:
        state0 = samples_to_state(sample_mu0(mu0_cfg.with_seed(seed), n))
        traj = integrate(params, state0, solver)
        sim_sizes = traj.sizes  # (T, n)

        if self_comparison:
            mf_sizes = sim_sizes
        else:
            sv = _stage_values(model.spec, model.stages, state0)  # shared by every t
            mf_sizes = np.stack([
                _flow(params, model.spec.dt, _horizon_time(model, t), sv, state0)
                for t in t_grid
            ])

        # Both runs share the initial traits; only the sizes differ.
        measure0 = snapshot_measure(state0)
        coeffs = bound_coefficients(mu0_cfg, measure0, n)
        w1_size = np.array(
            [w1_sorted_1d(sim_sizes[k], mf_sizes[k]) for k in range(t_grid.size)]
        )
        w1_full = np.full(t_grid.size, float("nan"))
        if n <= DEFAULT_MATCHING_CAP:
            trait = _trait_cost(weights, measure0, measure0)
            for k in range(t_grid.size):
                w1_full[k] = _matched_cost(weights, sim_sizes[k], mf_sizes[k], trait)
        gap = np.abs(sim_sizes - mf_sizes).mean(axis=1)
        bound = coeffs.drive_term(t_grid)
        reports.append(
            DistanceReport(
                N=n,
                times=t_grid.copy(),
                w1_size=w1_size,
                w1_full=w1_full,
                flow_gap=gap,
                bound_value=bound,
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
