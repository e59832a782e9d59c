"""Coupled growth of N interacting plants.

The sizes of a finite population evolve under Gompertz growth damped by
the pairwise competition load: each plant's effective asymptotic size
shrinks by the factor (1 - mean neighbour potential).  Integration is
carried out on log-sizes r_i = log(s_i / s_m), which keeps sizes
positive by construction, and the integrator's dense output (the
Dormand-Prince continuous extension) is retained so a frozen run can
later serve as the background environment for a batch of probe plants.

Each run builds one growth workspace (``_GrowthWorkspace``): the
half-stored kernel blocks of the positions with their views, and the
buffers one right-hand side needs, so a call allocates nothing and every
N takes the same sequence of in-place ufunc and BLAS calls.  The
competition index (``_competition_all``) and the growth formula
(``_growth``) are shared with the probe solves of ``empirical_flow``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .model import (
    ModelParams, _domain_checks, _raise_first_offender, _require_positive,
    validate_initial_config,
)
from .solver import _MIN_STEP, DenseSolution, solve_ode
from .textio import format_floats, format_row, format_value, write_csv

__all__ = [
    "IntegrationDivergedError",
    "KernelRangeError",
    "PopulationState",
    "SolverConfig",
    "Trajectory",
    "empirical_flow",
    "export_trajectory_csv",
    "integrate",
    "snapshot_measure",
]

# Breaches of the open size interval at an accepted step smaller than this
# are roundoff and projected back; anything larger aborts the run.
_BREACH_TOLERANCE = 1e-9

# Row blocks of the pairwise reductions reuse one (block, N) buffer, so no call
# allocates an N x N temporary; cross sums run a fifth faster on 64 rows.
_BLOCK, _CROSS_BLOCK = 128, 64

# Largest |x - c|/sigma_x, c the centre of the bounding box, at which
# ``_cross_kernel`` uses its rank-8 form: row sums err by <= 0.55 eps
# (1 + 4 U^2) = 4e-13 (measured); terms stay below (1 + 4 U^2) 2 e^700.
_RANK8_REACH = 32.0

# Widest log-size spread of one kernel call over sigma_r, so |exponent| <= 700
# (ModelParams admits R_M/sigma_r <= 600; the margin covers RK overshoot).
_EXP_WINDOW = 700.0

# Most snapshot steps one grid may hold: beyond this the (snapshots, N)
# output would not fit in memory.
_MAX_SNAPSHOTS = 1_000_000

# The columns of a PopulationState, in field order.
_COLUMNS = ("sizes", "positions", "caps", "rates")


class IntegrationDivergedError(RuntimeError):
    """A size invariant was violated beyond roundoff during integration."""

    def __init__(self, step_index: int, plant_index: int, breach: float):
        self.step_index = step_index
        self.plant_index = plant_index
        self.breach = breach
        super().__init__(
            f"size bound violated by {breach:.3e} at accepted step "
            f"{step_index}, plant {plant_index}"
        )


class KernelRangeError(FloatingPointError):
    """The log-sizes of one competition-kernel call spread too far."""


@dataclass
class PopulationState:
    """Plants as columns, one row each: sizes (n,), positions (n, 2),
    asymptotic sizes ``caps`` (n,) and rates (n,).

    The one record of plant columns: a population at one instant, the
    atoms of a measure, or a batch of probes.  It holds n >= 1 rows with
    finite sizes, positions and rates, caps > 0 and rates >= 0, and names
    the first row that breaks a rule; entry points add ``_domain_checks``.
    """

    sizes: np.ndarray
    positions: np.ndarray
    caps: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        for name in _COLUMNS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        shapes = tuple(getattr(self, name).shape for name in _COLUMNS)
        n = shapes[0]
        if len(n) != 1 or shapes != (n, n + (2,), n, n) or n == (0,):
            raise ValueError(
                f"plant columns sizes, positions, caps, rates have shapes {shapes}; "
                "they must be (n,), (n, 2), (n,) and (n,) with n >= 1"
            )
        _raise_first_offender("plant", [
            ("size not finite", np.isfinite(self.sizes)),
            ("position not finite", np.isfinite(self.positions).all(axis=1)),
            ("asymptotic size not strictly positive", self.caps > 0.0),
            ("growth rate not nonnegative", self.rates >= 0.0),  # NaN fails both
            ("growth rate not finite", self.rates < math.inf),
        ])

    @property
    def n(self) -> int:
        return self.sizes.shape[0]


def _snapshot_times(t_end: float, snap_dt: float) -> np.ndarray:
    """Grid 0, snap_dt, 2 snap_dt, ... whose last point is t_end exactly."""
    if not 0.0 <= t_end < math.inf:  # also false for NaN
        raise ValueError(f"solver.t_end must be finite and nonnegative, got {t_end!r}")
    _require_positive("solver.", snapshot_dt=snap_dt)
    ratio = t_end / snap_dt
    if not ratio < _MAX_SNAPSHOTS:  # also false for inf and NaN
        raise ValueError(
            f"solver.t_end / solver.snapshot_dt = {ratio!r} snapshot steps; "
            f"at most {_MAX_SNAPSHOTS} are allowed"
        )
    n_steps = int(np.floor(ratio + 1e-9))
    times = np.arange(n_steps + 1) * snap_dt
    if times[-1] < t_end - 1e-9 * max(1.0, t_end):
        times = np.append(times, t_end)
    else:
        # Within roundoff of the end: snap to it exactly.
        times[-1] = t_end
    return times


@dataclass
class SolverConfig:
    """Integration controls for a population run.

    ``snapshot_times`` is derived, not a field: the grid 0, snapshot_dt,
    2 snapshot_dt, ... ending on ``t_end`` exactly, which ``replace``
    rebuilds.  The error controller sets every step after the first,
    ``dt_init``.  A ``dt_init``, or a nonzero ``t_end``, below the
    solver's smallest step at t = 0 (``solver._MIN_STEP``, about 3.6e-15)
    could only underflow, and a ``rel_tol`` of 1 or more accepts an error
    as large as the state, so controls nothing: each is refused.
    """

    t_end: float
    dt_init: float = 0.01
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    snapshot_dt: float = 0.5

    def __post_init__(self):
        _require_positive(
            "solver.", dt_init=self.dt_init, rel_tol=self.rel_tol, abs_tol=self.abs_tol
        )
        if not self.rel_tol < 1.0:
            raise ValueError(
                f"solver.rel_tol must be below 1, got {self.rel_tol!r}: a relative "
                "error as large as the state controls nothing"
            )
        for name, value in (("dt_init", self.dt_init), ("t_end", self.t_end)):
            if 0.0 < value < _MIN_STEP:
                raise ValueError(
                    f"solver.{name} = {value!r} is below the smallest step the "
                    f"solver takes from t = 0, {_MIN_STEP:.3g}"
                )
        self.snapshot_times = _snapshot_times(self.t_end, self.snapshot_dt)


@dataclass
class Trajectory:
    """A completed population run from ``initial``, sampled on the snapshot grid."""

    times: np.ndarray
    initial: PopulationState
    sizes: np.ndarray  # (n_snapshots, N)
    c_indices: np.ndarray  # (n_snapshots, N), the competition index
    n_clamped: int  # projected plant states
    dense: DenseSolution = field(repr=False)
    params: ModelParams = field(repr=False)

    def sizes_at(self, t: float) -> np.ndarray:
        """Sizes at ``t`` from the dense output, projected into (0, S) as the
        snapshot rows are, so ``sizes_at(times[k])`` equals ``sizes[k]``."""
        caps_log = np.log(self.initial.caps / self.params.s_m)
        return self.params.s_m * np.exp(_project(self.dense(t), caps_log))

    @property
    def t_end(self) -> float:
        return self.dense.t_end

    @property
    def n(self) -> int:
        return self.initial.n


def _project(r: np.ndarray, caps_log: np.ndarray) -> np.ndarray:
    """Log-sizes r moved into the open interval (0, caps_log)."""
    return np.minimum(np.maximum(r, 5e-324), np.nextafter(caps_log, -np.inf))


def _hold_in_band(r, caps_log, tol, step_index):
    """``r`` if it lies in (0, caps_log); its projection if no plant leaves
    the band by more than ``tol`` (scalar or per plant); otherwise raise
    ``IntegrationDivergedError`` for the worst plant."""
    breach = np.maximum(-r, r - caps_log)
    if breach[breach.argmax()] <= 0.0:  # the largest breach, or a NaN
        return r
    excess = breach - tol
    worst_i = int(np.argmax(excess))
    if excess[worst_i] > 0.0:
        raise IntegrationDivergedError(step_index, worst_i, float(breach[worst_i]))
    return _project(r, caps_log)


def _sq_distances(a, b, out=None) -> np.ndarray:
    """Squared distances dx^2 + dy^2 between points a (T, 2) and b (S, 2),
    written into ``out`` (T, S) if given; dy^2 takes one T x S temporary.
    The bits equal SciPy's ``cdist(a, b, "sqeuclidean")``."""
    out = np.subtract.outer(a[:, 0], b[:, 0], out=out)
    np.multiply(out, out, out=out)
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    out += np.multiply(dy, dy, out=dy)
    return out


def _kernel_block(x, sources, sigma_x: float, out: np.ndarray) -> np.ndarray:
    """Write 1 / (1 + |x_i - x'_j|^2 / sigma_x^2) of targets x (T, 2) and
    sources x' (S, 2) into ``out`` (T, S, C-contiguous) and return it.

    ``_sq_distances`` makes one T x S temporary; the rest is in place.
    """
    _sq_distances(x, sources, out)
    out /= sigma_x**2
    out += 1.0
    return np.reciprocal(out, out=out)


def _kernel_blocks(x, sigma_x: float):
    """Yield the symmetric kernel of a population at x (N, 2) as C-contiguous
    row blocks [i0, i0 + _BLOCK) of the columns j >= i0: about half of it."""
    n = x.shape[0]
    for i0 in range(0, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        yield _kernel_block(x[i0:i1], x[i0:], sigma_x, np.empty((i1 - i0, n - i0)))


def _exp_shift(sigma_r: float, lo, hi) -> float:
    """The midpoint of log-sizes spanning [lo, hi], which
    ``exp(2 (r - mid)/sigma_r)`` shifts by; a spread over
    ``_EXP_WINDOW * sigma_r`` would overflow and raises instead."""
    # Python floats: scalar arithmetic on NumPy scalars costs more per call.
    lo, hi = float(lo), float(hi)
    if hi - lo > _EXP_WINDOW * sigma_r:
        raise KernelRangeError(
            f"log-size spread {hi - lo:.6g} exceeds {_EXP_WINDOW:g} * sigma_r "
            f"(sigma_r={sigma_r!r}); the competition kernel would overflow"
        )
    return 0.5 * (lo + hi)


def _cross_kernel(x, x_src, sigma_x: float):
    """``row_sums(r, r_src, sigma_r)``: the ``_GrowthWorkspace.row_sums``
    terms of targets (log-sizes r (T,), positions x (T, 2)) against other
    sources (r' (S,), x' (S, 2)), summed over each row.

    With u = (x - c)/sigma_x, w = (x' - c)/sigma_x and c the centre of
    the bounding box, each denominator (1 + |u_i - w_j|^2)(e_i + e'_j)
    is an entry of the rank-8 product of the rows [1 + |u|^2, 1, -2u] x
    [e, 1] and [1, |w|^2, w] x [1, e']: a row block costs one ``matmul``,
    one ``reciprocal`` and one matrix-vector product, and builds no
    kernel.  A block with a |u|, or any |w|, past ``_RANK8_REACH`` keeps
    its exact kernel over the rank-2 e + e' instead.  Calls refill the
    factors, so they must not overlap.  BLAS rounds each rank-8 sum in
    one thread, and the row sums are BLAS matrix-vector products: the
    bits do not depend on the thread count, but may on the CPU.
    """
    pts = np.concatenate([x, x_src])
    c = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    u, w = (x - c) / sigma_x, (x_src - c) / sigma_x
    uu, ww = np.einsum("ij,ij->i", u, u), np.einsum("ij,ij->i", w, w)
    n_t, n_s = x.shape[0], x_src.shape[0]
    # Calls fill in the factors times e and e'; then lhs[:, 2:4] is [e, 1]
    # and rhs[:2] is [1; e'].
    left, right = np.empty((n_t, 4, 2)), np.empty((4, 2, n_s))
    left[:, :, 1] = np.column_stack([1.0 + uu, np.ones(n_t), -2.0 * u])
    right[:, 0] = np.vstack([np.ones(n_s), ww, w.T])
    lhs, rhs = left.reshape(n_t, 8), right.reshape(8, n_s)
    reach, exact = _RANK8_REACH**2, []  # per row block: None, or its kernel
    far = not ww.max() <= reach  # also true for NaN
    for i0 in range(0, n_t, _CROSS_BLOCK):
        xb = x[i0 : i0 + _CROSS_BLOCK]
        near = not far and uu[i0 : i0 + _CROSS_BLOCK].max() <= reach
        exact.append(None if near else _kernel_block(
            xb, x_src, sigma_x, np.empty((len(xb), n_s))
        ))
    buf = np.empty(min(_CROSS_BLOCK, n_t) * n_s)

    def row_sums(r, r_src, sigma_r: float) -> np.ndarray:
        lo = np.minimum.reduce(r_src, initial=np.minimum.reduce(r, initial=np.inf))
        hi = np.maximum.reduce(r_src, initial=np.maximum.reduce(r, initial=-np.inf))
        scale, mid = 2.0 / sigma_r, _exp_shift(sigma_r, lo, hi)
        e, e_src = np.exp((r - mid) * scale), np.exp((r_src - mid) * scale)
        np.multiply(left[:, :, 1], e[:, None], out=left[:, :, 0])
        np.multiply(right[:, 0], e_src, out=right[:, 1])
        v = 2.0 * e_src * r_src
        out = np.empty(n_t)
        for i0, k in zip(range(0, n_t, _CROSS_BLOCK), exact):
            i1 = min(i0 + _CROSS_BLOCK, n_t)
            d = buf[: (i1 - i0) * n_s].reshape(i1 - i0, n_s)
            if k is None:
                np.reciprocal(np.matmul(lhs[i0:i1], rhs, out=d), out=d)
            else:
                np.divide(k, lhs[i0:i1, 2:4] @ rhs[:2], out=d)
            np.matmul(d, v, out=out[i0:i1])
        return out

    return row_sums


def _competition_all(params: ModelParams, r, row, n_sources: int, out=None):
    """Mean neighbour potential on targets with pair row sums ``row``,
    written into ``out`` if given: the self term r_i (unit kernel, tanh 0)
    is dropped and the rest averaged over n_sources - 1, so a probe that
    duplicates a source feels what it feels.  Roundoff below 0 is raised
    to 0."""
    c = np.subtract(row, r, out=out)
    c /= 2.0 * params.R_M * (n_sources - 1)
    return np.maximum(c, 0.0, out=c)


def _growth(rates, caps_log, c, r, out) -> np.ndarray:
    """The log-size growth r' = rates (caps_log (1 - C) - r) under the
    mean load ``c``, written into ``out``."""
    g = np.subtract(1.0, c, out=out)
    g *= caps_log
    g -= r
    g *= rates
    return g


class _GrowthWorkspace:
    """The growth right-hand side of one population run, preallocated.

    Built once per ``integrate`` from the run's plants: the half-stored
    ``_kernel_blocks`` of the positions, each with its row and column
    views of the factors and buffers, and one buffer each for e, v, the
    row sums, a block, the competition index and r'.  A call is a fixed
    sequence of in-place ufunc and BLAS calls that allocates nothing.
    Each method returns one of these buffers, which the next call
    overwrites: a caller that keeps a result copies it.
    """

    def __init__(self, params: ModelParams, plants: PopulationState):
        n = plants.n
        self.params, self.n = params, n
        self.caps_log = np.log(plants.caps / params.s_m)
        self.rates = plants.rates
        self.n_clamped = 0
        # Rows [1; e; 1]: [e, 1] is the left factor and [1; e] the right one.
        q = np.ones((3, n))
        self.e, left, right = q[1], q[1:].T, q[:2]
        self.v, self.row, self.c, self.dr = np.empty((4, n))
        v, row = self.v, self.row
        part = np.empty(n)  # one block's share of the row sums
        buf = np.empty(min(_BLOCK, n) * n)
        self.blocks = []
        blocks = _kernel_blocks(plants.positions, params.sigma_x)
        for i0, k in zip(range(0, n, _BLOCK), blocks):
            i1, w = i0 + k.shape[0], buf[: k.size].reshape(k.shape)
            self.blocks.append((
                # Its own rows against the columns j >= i0 ...
                (k, w, left[i0:i1], right[:, i0:], v[i0:], part[i0:i1], row[i0:i1]),
                # ... and, by symmetry, the rows below against its columns.
                (v[i0:i1], w[:, i1 - i0 :], part[i1:], row[i1:]) if i1 < n else None,
            ))

    def row_sums(self, r: np.ndarray) -> np.ndarray:
        """Row sums of r_j * kernel_ij * (1 + tanh((r_j - r_i)/sigma_r))
        over the population at log-sizes r (N,); each term is
        ``model.log_potential`` times 2 R_M.

        With c from ``_exp_shift`` and e = exp(2 (r - c)/sigma_r), the
        tanh factor is 2 e_j/(e_i + e_j), so a row sum is sum_j W_ij v_j
        with W_ij = kernel_ij/(e_i + e_j) and v = 2 e r.  W is symmetric:
        each block's transpose adds to the rows below.  Each e_i + e_j is
        the rank-2 product [e_i, 1] [1; e_j], two exact products and one
        rounded sum, so it equals ``np.add``'s bit for bit at any BLAS
        thread count.  Each block reduces by two BLAS matrix-vector
        products, its rows and its transpose, in a fixed block order; the
        bits do not depend on the thread count, but may on the CPU.
        """
        sigma_r = self.params.sigma_r
        # r[argmin] is the minimum, or a NaN as np.minimum's would be, at a
        # quarter of a reduction's call overhead.
        mid = _exp_shift(sigma_r, r[r.argmin()], r[r.argmax()])
        e, v, row = self.e, self.v, self.row
        np.subtract(r, mid, out=e)
        e *= 2.0 / sigma_r
        np.exp(e, out=e)
        np.multiply(e, 2.0, out=v)
        v *= r
        row.fill(0.0)
        for own, below in self.blocks:
            k, w, left, right, v_cols, part, out = own
            np.matmul(left, right, out=w)
            np.divide(k, w, out=w)
            out += np.matmul(w, v_cols, out=part)
            if below is not None:
                v_rows, w_below, part, out = below
                out += np.matmul(v_rows, w_below, out=part)
        return row

    def competition(self, r: np.ndarray) -> np.ndarray:
        """The competition index of every plant at log-sizes r."""
        return _competition_all(self.params, r, self.row_sums(r), self.n, out=self.c)

    def rhs(self, t: float, r: np.ndarray) -> np.ndarray:
        """r' at log-sizes r; the growth is autonomous, so t is unused."""
        return _growth(self.rates, self.caps_log, self.competition(r), r, out=self.dr)

    def hold(self, r: np.ndarray, tol, step_index: int) -> np.ndarray:
        """``_hold_in_band`` against the caps, counting projected plants."""
        fixed = _hold_in_band(r, self.caps_log, tol, step_index)
        if fixed is not r:
            self.n_clamped += int(np.sum(fixed != r))
        return fixed

    def monitor(self, t: float, r: np.ndarray, step_index: int) -> np.ndarray:
        """The solver's check on an accepted state: roundoff only."""
        return self.hold(r, _BREACH_TOLERANCE, step_index)


def _grow(cfg: SolverConfig, r0, rhs, monitor=None):
    """Solve the log-size growth ``r' = rhs(t, r)`` from r0.

    Returns the dense solution over [0, cfg.t_end] and its rows on the
    snapshot grid.
    """
    dense = solve_ode(
        rhs, 0.0, cfg.t_end, r0, rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
        dt_init=cfg.dt_init, monitor=monitor,
    )
    return dense, dense.eval_many(cfg.snapshot_times)


def integrate(
    params: ModelParams,
    initial: PopulationState,
    cfg: SolverConfig,
) -> Trajectory:
    """Run the coupled system from ``initial``, sampling the snapshot grid.

    Integration uses log-sizes; every accepted step is checked against
    the open interval (0, log(S_i/s_m)).  Breaches within roundoff are
    projected back and counted; larger ones raise
    ``IntegrationDivergedError``.  Snapshot rows between nodes come from
    the interpolant, whose error near a cap is the error control's own,
    abs_tol + rel_tol log(S_i/s_m): they are held to the same rule with
    that tolerance.  An inadmissible ``initial`` raises ``ValueError``
    naming the first offending plant (``validate_initial_config``).
    """
    validate_initial_config(params, initial)

    ws = _GrowthWorkspace(params, initial)
    r0 = np.log(initial.sizes / params.s_m)
    dense, r_mat = _grow(cfg, r0, ws.rhs, ws.monitor)
    # Each snapshot row is checked under the index of the step whose
    # segment holds it.
    interp_tol = np.maximum(_BREACH_TOLERANCE, cfg.abs_tol + cfg.rel_tol * ws.caps_log)
    steps = np.maximum(np.searchsorted(dense.ts, cfg.snapshot_times) - 1, 0)
    c_mat = np.empty_like(r_mat)
    for j, step_index in enumerate(steps.tolist()):
        r_mat[j] = ws.hold(r_mat[j], interp_tol, step_index)
        c_mat[j] = ws.competition(r_mat[j])
    return Trajectory(
        times=cfg.snapshot_times,
        initial=initial,
        sizes=params.s_m * np.exp(r_mat),
        c_indices=c_mat,
        n_clamped=ws.n_clamped,
        dense=dense,
        params=params,
    )


def empirical_flow(
    background: Trajectory,
    probes: PopulationState,
    cfg: SolverConfig,
) -> np.ndarray:
    """Grow K probe plants inside a frozen population run, as one solve.

    Probe k starts at size ``probes.sizes[k]`` with its position, cap and
    rate.  Each probe feels the mean potential of the recorded population
    (interpolated from the dense background, under its ``params``), with
    the self term C(s, s, 0) removed so that a probe that duplicates a
    recorded plant reproduces that plant's trajectory, up to the roundoff
    of ``_cross_kernel``.  Probes do not feel one another.  Returns the
    probe sizes on ``cfg.snapshot_times``, shape (n_snapshots, K).
    ``ValueError`` names a probe outside the model's domain.
    """
    if cfg.t_end > background.t_end + 1e-12:
        raise ValueError(
            f"probe horizon {cfg.t_end} exceeds background range "
            f"[{background.dense.t0}, {background.t_end}]"
        )
    params = background.params
    s0, S = probes.sizes, probes.caps
    _raise_first_offender(
        "probe", _domain_checks(params, initial_size=s0, asymptotic_size=S)
    )

    x_bg = background.initial.positions
    row_sums = _cross_kernel(probes.positions, x_bg, params.sigma_x)
    caps_log = np.log(S / params.s_m)

    def rhs(t, r):
        row = row_sums(r, background.dense(t), params.sigma_r)
        c = _competition_all(params, r, row, background.n)
        return _growth(probes.rates, caps_log, c, r, out=c)

    _, r_mat = _grow(cfg, np.log(s0 / params.s_m), rhs)
    return params.s_m * np.exp(r_mat)


def snapshot_measure(state: PopulationState) -> PopulationState:
    """A copy of one snapshot: its uniformly weighted atoms (s, x, S, gamma)."""
    return replace(state, **{name: getattr(state, name).copy() for name in _COLUMNS})


def export_trajectory_csv(
    traj: Trajectory,
    path,
    comments: Sequence[str] = (),
) -> None:
    """Write one row per (snapshot, plant), time-major then id; a plant's
    id and trait cells (x1, x2, S, gamma) are formatted once."""
    header = ["t", "plant_id", "s", "x1", "x2", "S", "gamma", "C_index"]

    x1, x2 = traj.initial.positions.T.tolist()
    caps = traj.initial.caps.tolist()
    rates = traj.initial.rates.tolist()
    ids = [format_value(i) for i in range(traj.n)]
    traits = [format_row(c) for c in zip(x1, x2, caps, rates)]

    def lines():
        for t, sizes, c_row in zip(
            traj.times.tolist(),
            traj.sizes.tolist(),
            traj.c_indices.tolist(),
        ):
            yield from map(",".join, zip(
                repeat(format_value(t)), ids, format_floats(sizes), traits,
                format_floats(c_row),
            ))

    write_csv(path, header, lines(), comments=comments)
