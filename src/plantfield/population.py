"""Coupled growth of N interacting plants.

The sizes of a finite population evolve under Gompertz growth damped by
the pairwise competition load: each plant's effective asymptotic size
shrinks by the factor (1 - mean neighbour potential).  Integration is
carried out on log-sizes r_i = log(s_i / s_m), which keeps sizes
positive by construction, and the integrator's dense output (the
Dormand-Prince continuous extension) is retained so a frozen run can
later serve as the background environment for a batch of probe plants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .model import ModelParams, _raise_first_offender, validate_initial_config
from .solver import DenseSolution, solve_ode
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

# Row-block size of the pairwise reductions: one (block, N) buffer is
# reused by every block, so a call allocates no N x N temporary.
_BLOCK = 128

# Widest log-size spread of one kernel call over sigma_r, so |exponent| <= 700
# (ModelParams admits R_M/sigma_r <= 600; the margin covers RK overshoot).
_EXP_WINDOW = 700.0

# Most snapshot steps one grid may hold: beyond this the (snapshots, N)
# output would not fit in memory.
_MAX_SNAPSHOTS = 1_000_000


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
    """Sizes (N,) of all plants at one instant, plus their fixed traits as
    columns: positions (N, 2), asymptotic sizes ``caps`` and rates (N,)."""

    sizes: np.ndarray
    positions: np.ndarray
    caps: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        for name in ("sizes", "positions", "caps", "rates"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.sizes.ndim != 1:
            raise ValueError("sizes must be a 1-D array")
        n = self.sizes.shape[0]
        shapes = (self.positions.shape, self.caps.shape, self.rates.shape)
        if shapes != ((n, 2), (n,), (n,)):
            raise ValueError(
                f"positions, caps and rates {shapes} must have one row per size ({n})"
            )
        if n < 2:
            raise ValueError("a population needs at least two plants")
        if not np.all(self.caps > 0.0):
            raise ValueError("asymptotic sizes S must be strictly positive")
        if np.any(self.rates < 0.0):
            raise ValueError("growth rates gamma must be nonnegative")

    @property
    def n(self) -> int:
        return self.sizes.shape[0]


def _snapshot_times(t_end: float, snap_dt: float) -> np.ndarray:
    """Grid 0, snap_dt, 2 snap_dt, ... whose last point is t_end exactly."""
    if not 0.0 <= t_end < math.inf:  # also false for NaN
        raise ValueError(f"solver.t_end must be finite and nonnegative, got {t_end!r}")
    if not 0.0 < snap_dt < math.inf:  # also false for NaN
        raise ValueError(
            f"solver.snapshot_dt must be finite and strictly positive, got {snap_dt!r}"
        )
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
    ``dt_init``.
    """

    t_end: float
    dt_init: float = 0.01
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    snapshot_dt: float = 0.5

    def __post_init__(self):
        for name in ("dt_init", "rel_tol", "abs_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # also false for NaN
                raise ValueError(
                    f"solver.{name} must be finite and strictly positive, got {value!r}"
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
    if breach.max() <= 0.0:
        return r
    excess = breach - tol
    worst_i = int(np.argmax(excess))
    if excess[worst_i] > 0.0:
        raise IntegrationDivergedError(step_index, worst_i, float(breach[worst_i]))
    return _project(r, caps_log)


def _kernel_block(x, sources, sigma_x: float, out: np.ndarray) -> np.ndarray:
    """Write 1 / (1 + |x_i - x'_j|^2 / sigma_x^2) of targets x (T, 2) and
    sources x' (S, 2) into ``out`` (T, S, C-contiguous) and return it.

    ``cdist`` forms dx^2 + dy^2 exactly as NumPy's subtract and square do,
    and the rest is in place, so no T x S temporary is made.
    """
    cdist(x, sources, "sqeuclidean", out=out)
    out /= sigma_x**2
    out += 1.0
    return np.reciprocal(out, out=out)


def _spatial_kernel(
    positions: np.ndarray,
    sigma_x: float,
    sources: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Factor 1 / (1 + |x_i - x'_j|^2 / sigma_x^2), (T, S); sources default to x."""
    src = positions if sources is None else sources
    return _kernel_block(
        positions, src, sigma_x, np.empty((positions.shape[0], src.shape[0]))
    )


def _pair_row_sums(
    r: np.ndarray,
    kernel: np.ndarray | tuple,
    sigma_r: float,
    r_sources: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Row sums of r'_j * kernel_ij * (1 + tanh((r'_j - r_i)/sigma_r)).

    Targets r (T,) meet sources r' (S,) through the kernel (T, S); each
    term is ``model.log_potential`` times 2 R_M.  With e = exp(2 (r - c)/
    sigma_r), exactly 1 + tanh((r'_j - r_i)/sigma_r) = 2 e'_j/(e_i + e'_j),
    so a row sum is sum_j W_ij v_j, W_ij = kernel_ij/(e_i + e'_j) and
    v = 2 e' r'.  The shift c (midpoint of the log-sizes) cancels; a spread
    over ``_EXP_WINDOW * sigma_r`` would overflow and raises instead.  With
    no ``r_sources`` the targets are their own sources, kernel and W are
    symmetric, and row block [i0, i1) forms only the columns j >= i0 and
    adds its transpose to the rows below.  ``einsum`` sums in one thread
    and a fixed order, where BLAS may spread them over threads.

    ``kernel`` is either the stored (T, S) array, read block by block, or
    the positions and scale ``(x, x', sigma_x)`` it is made from: then
    ``_kernel_block`` builds each block into one reused buffer, the same
    values the stored array holds, and no T x S array is made.
    """
    sym = r_sources is None
    src = r if sym else r_sources
    lo = np.minimum.reduce(r, initial=np.inf)
    hi = np.maximum.reduce(r, initial=-np.inf)
    if not sym:
        lo = np.minimum.reduce(src, initial=lo)
        hi = np.maximum.reduce(src, initial=hi)
    # Python floats: scalar arithmetic on NumPy scalars costs more per call.
    lo, hi = float(lo), float(hi)
    if hi - lo > _EXP_WINDOW * sigma_r:
        raise KernelRangeError(
            f"log-size spread {hi - lo:.6g} exceeds {_EXP_WINDOW:g} * sigma_r "
            f"(sigma_r={sigma_r!r}); the competition kernel would overflow"
        )
    scale = 2.0 / sigma_r
    mid = 0.5 * (lo + hi)
    e = np.exp((r - mid) * scale)
    e_src = e if sym else np.exp((src - mid) * scale)
    v = 2.0 * e_src * src
    stored = isinstance(kernel, np.ndarray)
    if stored:
        n_t, n_s = kernel.shape
    else:
        x, x_src, sigma_x = kernel
        n_t, n_s = x.shape[0], x_src.shape[0]
    out = np.zeros(n_t)
    buf = np.empty(min(_BLOCK, n_t) * n_s)
    k_buf = None if stored else np.empty_like(buf)
    e_col = e[:, None]
    for i0 in range(0, n_t, _BLOCK):
        i1 = min(i0 + _BLOCK, n_t)
        c0 = i0 if sym else 0
        shape = (i1 - i0, n_s - c0)
        w = buf[: shape[0] * shape[1]].reshape(shape)
        np.add(e_col[i0:i1], e_src[c0:], out=w)
        if stored:
            k = kernel[i0:i1, c0:]
        else:
            k = k_buf[: w.size].reshape(shape)
            _kernel_block(x[i0:i1], x_src[c0:], sigma_x, out=k)
        np.divide(k, w, out=w)
        out[i0:i1] += np.einsum("ij,j->i", w, v[c0:])
        if sym and i1 < n_t:
            out[i1:] += np.einsum("ij,i->j", w[:, i1 - i0 :], v[i0:i1])
    return out


def _competition_all(
    params: ModelParams,
    r: np.ndarray,
    kernel: np.ndarray,
    r_sources: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Mean neighbour potential on every target, from log-sizes.

    Sources default to the targets.  Each row drops the self term r_i
    (unit kernel, tanh 0) and averages over N - 1 of the N sources, so
    a probe that duplicates a source feels exactly what that source feels.
    Where the other terms are negligible, row - r is roundoff and may dip
    below 0; it is raised to 0, the least load there is.
    """
    row = _pair_row_sums(r, kernel, params.sigma_r, r_sources)
    c = (row - r) / (2.0 * params.R_M * (kernel.shape[1] - 1))
    return np.maximum(c, 0.0, out=c)


def _grow(cfg: SolverConfig, r0, caps_log, rates, competition, monitor=None):
    """Solve the log-size growth r' = rates (caps_log (1 - C) - r) from r0.

    ``competition(t, r)`` is the mean load C on each grown plant.  Returns
    the dense solution over [0, cfg.t_end] and its rows on the snapshot grid.
    """

    def rhs(t, r):
        return rates * (caps_log * (1.0 - competition(t, r)) - r)

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
    validate_initial_config(params, initial.caps, initial.rates, initial.sizes)

    caps_log = np.log(initial.caps / params.s_m)
    kernel = _spatial_kernel(initial.positions, params.sigma_x)
    r0 = np.log(initial.sizes / params.s_m)
    clamp_count = 0

    def hold(r, tol, step_index):
        nonlocal clamp_count
        fixed = _hold_in_band(r, caps_log, tol, step_index)
        if fixed is not r:
            clamp_count += int(np.sum(fixed != r))
        return fixed

    dense, r_mat = _grow(
        cfg, r0, caps_log, initial.rates,
        lambda t, r: _competition_all(params, r, kernel),
        lambda t, r, step_index: hold(r, _BREACH_TOLERANCE, step_index),
    )
    # Each snapshot row is checked under the index of the step whose
    # segment holds it.
    interp_tol = np.maximum(_BREACH_TOLERANCE, cfg.abs_tol + cfg.rel_tol * caps_log)
    steps = np.maximum(np.searchsorted(dense.ts, cfg.snapshot_times) - 1, 0)
    r_mat = np.stack([hold(r_t, interp_tol, int(k)) for r_t, k in zip(r_mat, steps)])
    sizes_mat = params.s_m * np.exp(r_mat)
    c_mat = np.stack([_competition_all(params, r_t, kernel) for r_t in r_mat])
    return Trajectory(
        times=cfg.snapshot_times,
        initial=initial,
        sizes=sizes_mat,
        c_indices=c_mat,
        n_clamped=clamp_count,
        dense=dense,
        params=params,
    )


def empirical_flow(
    params: ModelParams,
    background: Trajectory,
    s0,
    x,
    S,
    gamma,
    cfg: SolverConfig,
) -> np.ndarray:
    """Grow K probe plants inside a frozen population run, as one solve.

    Probe k starts at size ``s0[k]`` with position ``x[k]`` (K, 2), cap
    ``S[k]`` and rate ``gamma[k]``.  Each probe feels the mean potential
    of the recorded population (interpolated from the dense background),
    with the self term C(s, s, 0) removed so that a probe that
    duplicates a recorded plant reproduces that plant's trajectory.
    Probes do not feel one another.  Returns the probe sizes on
    ``cfg.snapshot_times``, shape (n_snapshots, K).
    """
    if cfg.t_end > background.t_end + 1e-12:
        raise ValueError(
            f"probe horizon {cfg.t_end} exceeds background range "
            f"[{background.dense.t0}, {background.t_end}]"
        )
    s0, x, S, gamma = (np.asarray(v, dtype=float) for v in (s0, x, S, gamma))
    shapes = (s0.shape, x.shape, S.shape, gamma.shape)
    k = s0.shape[:1]
    if s0.ndim != 1 or shapes[1:] != (k + (2,), k, k):
        raise ValueError(
            f"probe columns s0, x, S, gamma have shapes {shapes}; they must "
            "be (K,), (K, 2), (K,) and (K,)"
        )
    if not s0.size:
        raise ValueError("need at least one probe")
    _raise_first_offender("probe", [
        ("initial size not above s_m", s0 > params.s_m),
        ("asymptotic size outside (s_m, s_m*exp(R_M))",
         (params.s_m < S) & (S < params.max_size)),
        ("growth rate not nonnegative", gamma >= 0.0),
    ])

    probe_kernel = _spatial_kernel(x, params.sigma_x, background.initial.positions)
    _, r_mat = _grow(
        cfg,
        np.log(s0 / params.s_m),
        np.log(S / params.s_m),
        gamma,
        lambda t, r: _competition_all(params, r, probe_kernel, background.dense(t)),
    )
    return params.s_m * np.exp(r_mat)


def snapshot_measure(state: PopulationState) -> PopulationState:
    """A copy of one snapshot: its uniformly weighted atoms (s, x, S, gamma)."""
    return PopulationState(
        sizes=state.sizes.copy(),
        positions=state.positions.copy(),
        caps=state.caps.copy(),
        rates=state.rates.copy(),
    )


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
