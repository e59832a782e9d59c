"""Transport distances, flow-gap diagnostics, and the a-priori bound's drive term.

Compares a finite simulated population against its mean-field surrogate:
exact 1-D Wasserstein distance of the size marginal by sorting, exact
full-state Wasserstein by minimum-cost matching under the weighted
ground metric (a warm-started shortest-augmenting-path solver in NumPy),
the mean probe-flow gap, and the finite drive part of the theoretical
a-priori bound evaluated on the initial empirical cloud.
"""

from __future__ import annotations

import math
import numbers
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
    "DISTANCE_COLUMNS",
    "BoundCoefficients",
    "ZMetricWeights",
    "bound_coefficients",
    "convergence_experiment",
    "export_distances_csv",
    "flow_gap",
    "run_sizes",
    "surrogate_sizes",
    "w1_matching",
    "w1_sorted_1d",
]

# A convergence report's distances, in the order distances.csv writes them.
DISTANCE_COLUMNS = ("w1_size", "w1_full", "flow_gap", "bound_value")

# The assignment is cubic in the worst case (unrelated atom sets), and near
# linear on converge's diagonally dominant costs, where its warm start
# matches almost every row.  Converge builds the trait cost once per N, and
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


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """The column of each row in a minimum-cost perfect matching of the
    finite square matrix ``cost``.

    Shortest augmenting paths with dual variables u (rows) and v
    (columns), as in Crouse, "On implementing 2D rectangular assignment
    algorithms", IEEE TAES 52(4), 2016 (the method of SciPy's
    ``linear_sum_assignment``).  The warm start sets u to the row minima
    and v = 0, which leaves every reduced cost c - u - v nonnegative, and
    gives each row its argmin column unless an earlier row took it.
    Each row left over then grows a Dijkstra tree over the reduced costs
    until it reaches a free column; the duals move so that the tree's
    edges stay tight, and the path flips.  The solve is cubic in n in the
    worst case, but a diagonally dominant matrix, as in ``converge``,
    leaves few rows to augment, each along a short path, and the solve
    is near linear in the number of entries.
    """
    n = cost.shape[0]
    u = cost.min(axis=1)
    if not np.isfinite(u).all():
        raise ValueError("cost matrix must be finite")
    v = np.zeros(n)
    col4row = np.full(n, -1)
    row4col = np.full(n, -1)
    cols, first = np.unique(cost.argmin(axis=1), return_index=True)
    col4row[first], row4col[cols] = cols, first
    for cur in np.flatnonzero(col4row < 0).tolist():
        dist = np.full(n, np.inf)  # tree distance of each column not yet scanned
        via = np.zeros(n, dtype=int)  # the tree row each column is reached from
        v_open = v.copy()  # -inf at scanned columns: no relaxation reaches them
        scanned, depth = [], []
        i, lowest = cur, 0.0
        while True:
            r = cost[i] - v_open
            r += lowest - u[i]
            np.copyto(via, i, where=r < dist)
            np.minimum(dist, r, out=dist)
            j = int(dist.argmin())
            lowest = dist[j]
            if not lowest < np.inf:
                raise ValueError("cost matrix must be finite")
            scanned.append(j)
            depth.append(lowest)
            dist[j], v_open[j] = np.inf, -np.inf
            if row4col[j] < 0:
                break
            i = int(row4col[j])
        shift = lowest - np.array(depth)
        u[cur] += lowest
        u[row4col[scanned[:-1]]] += shift[:-1]  # the tree's other rows
        v[scanned] -= shift
        while True:  # flip the path from the free column back to cur
            i = int(via[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _matched_cost(w: ZMetricWeights, sizes_a, sizes_b, trait) -> float:
    """Mean optimal-assignment cost of sizes a vs b plus the ``trait`` cost.

    When a and b are two runs from the same initial traits, each atom's
    cheapest partner is almost always itself, and the warm start of
    ``_min_cost_assignment`` matches nearly every row before any search."""
    cost = np.subtract.outer(sizes_a, sizes_b)
    np.abs(cost, out=cost)
    cost /= w.s_m
    cost += trait
    rows = np.arange(sizes_a.size)
    cols = _min_cost_assignment(cost)
    return float(cost[rows, cols].sum() / sizes_a.size)


def w1_matching(a: PopulationState, b: PopulationState, w: ZMetricWeights) -> float:
    """Exact W1 between equal-size atom sets by minimum-cost matching, for
    at most ``DEFAULT_MATCHING_CAP`` atoms (the worst case is cubic)."""
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


def _n_ladder(n_list) -> list:
    """``n_list`` as ints, once each is a population size and they increase."""
    n_list = list(n_list)
    for n in n_list:
        if not isinstance(n, numbers.Integral):
            raise ValueError(f"n-list entry = {n!r}: not an integer")
        _require_population("n-list entry", n)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n-list must be strictly increasing")
    return [int(n) for n in n_list]


def surrogate_sizes(model: MeanFieldModel):
    """The target that grows a run's initial data by the surrogate flow of
    ``model`` to each of the run's snapshot times: sizes (T, n)."""

    def target(traj: Trajectory) -> np.ndarray:
        state0 = traj.initial
        sv = _stage_values(model.spec, model.stages, state0)  # shared by every t
        return np.stack([
            _flow(model.params, model.spec.dt, _horizon_time(model, t), sv, state0)
            for t in traj.times
        ])

    return target


def run_sizes(traj: Trajectory) -> np.ndarray:
    """The target that is the run itself: every distance is exactly zero,
    a pipeline identity check."""
    return traj.sizes


def convergence_experiment(
    model: MeanFieldModel,
    n_list,
    solver: SolverConfig,
    seed: int,
    weights: ZMetricWeights,
    target=None,
) -> list:
    """Distance trend over increasing population sizes.

    For each N: draw the population from the model's training law
    ``model.mu0_cfg`` (samples are nested across N via the
    seed-extension property), run it under ``model.params`` with
    ``solver``, and compare its sizes with ``target(traj)``, by default
    ``surrogate_sizes(model)``, on ``solver.snapshot_times``, which must
    end within the model horizon.  Each report maps ``N``, the times
    ``t`` and each name in ``DISTANCE_COLUMNS`` to its values.  The
    full-state W1 is computed for N up to ``DEFAULT_MATCHING_CAP`` and
    is NaN above it.

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
    if target is None:
        target = surrogate_sizes(model)
    mu0_cfg = model.mu0_cfg

    reports = []
    for n in n_list:
        state0 = samples_to_state(sample_mu0(mu0_cfg.with_seed(seed), n))
        traj = integrate(model.params, state0, solver)
        sim_sizes, ref_sizes = traj.sizes, target(traj)

        # The run and its target share the initial traits; only the sizes differ.
        measure0 = snapshot_measure(state0)
        coeffs = bound_coefficients(mu0_cfg, measure0, n)
        size_w1 = np.array(
            [w1_sorted_1d(sim_sizes[k], ref_sizes[k]) for k in range(t_grid.size)]
        )
        full_w1 = np.full(t_grid.size, float("nan"))
        if n <= DEFAULT_MATCHING_CAP:
            trait = _trait_cost(weights, measure0, measure0)
            for k in range(t_grid.size):
                full_w1[k] = _matched_cost(weights, sim_sizes[k], ref_sizes[k], trait)
        gap = np.abs(sim_sizes - ref_sizes).mean(axis=1)
        columns = (size_w1, full_w1, gap, coeffs.drive_term(t_grid))
        reports.append(
            {"N": n, "t": t_grid.copy(), **dict(zip(DISTANCE_COLUMNS, columns))}
        )
    return reports


def export_distances_csv(reports, path, comments=()) -> None:
    """One row per (N, t): N, t and the ``DISTANCE_COLUMNS`` in order."""

    def rows():
        for rep in reports:
            for k, t in enumerate(rep["t"]):
                yield rep["N"], float(t), *(float(rep[c][k]) for c in DISTANCE_COLUMNS)

    header = ["N", "t", *DISTANCE_COLUMNS]
    write_csv(path, header, map(format_row, rows()), comments=comments)
