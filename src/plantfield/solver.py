"""Explicit Runge-Kutta integration with continuous (dense) output.

Integrates with the adaptive Dormand-Prince 5(4) embedded pair under
elementary (PI-free) step control.  Every accepted step also keeps the
coefficients of the pair's 4th-order continuous extension (Hairer,
Norsett & Wanner, *Solving ODEs I*, II.6, ``CONTD5``; Dormand & Prince,
"Runge-Kutta triples", 1986), built from the seven stages already
computed, so the solution can be evaluated anywhere in the integration
range to the accuracy of the nodes without an extra right-hand-side
call.  This interpolant is what downstream code evaluates on the
snapshot grid and, when a frozen trajectory serves as the background of
another integration, between nodes.

The right-hand side is called as ``f(t, y)`` with ``y`` a 1-D float array.
An optional per-step ``monitor`` callback can repair (or reject, by
raising) each accepted state before it is committed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import _require_positive

__all__ = [
    "DenseSolution",
    "NonFiniteStateError",
    "SolverStats",
    "StepSizeUnderflowError",
    "solve_ode",
]

# Dormand-Prince 5(4) tableau, zero-padded to 7 x 7.  The last stage row
# equals the 5th-order weights (FSAL), so the derivative at the accepted
# point is free.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    ]
)
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_A[6] - _DP_B4
# Weights of the quartic term r5 = h sum_j d_j k_j of the continuous
# extension (CONTD5's d1..d7; they sum to zero).
_DP_D = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)

# Per step the tableau is scaled by h once: rows 1-6 build the stage
# inputs (row 6 is the 5th-order solution), row 7 the error estimate and
# row 8 the dense coefficient r5.
_DP_ROWS = np.vstack([_DP_A, _DP_ERR, _DP_D])

_STAGE_NODES = list(enumerate(_DP_C.tolist()))[1:]
_EPS = float(np.finfo(float).eps)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class StepSizeUnderflowError(RuntimeError):
    """Raised when the adaptive controller cannot make progress."""


class NonFiniteStateError(RuntimeError):
    """Raised when a step produces a NaN or infinite state or error norm."""

    def __init__(self, t: float, step_index: int):
        self.t = t
        self.step_index = step_index
        super().__init__(
            f"non-finite state or right-hand side at t={t!r} (step {step_index})"
        )


@dataclass(frozen=True)
class SolverStats:
    """What one ``solve_ode`` call did.

    ``n_rhs`` counts right-hand-side calls (1 + 6 per tried step + 1 per
    repaired state); ``h_min``/``h_max`` span the accepted step sizes (0
    when no step was taken).
    """

    n_rhs: int
    n_accepted: int
    n_rejected: int
    h_min: float
    h_max: float


class DenseSolution:
    """Piecewise quartic interpolant of an accepted-step sequence.

    Stores the node times ``ts``, states ``ys`` and slopes ``fs`` of every
    accepted step, plus one quartic coefficient ``r5`` per step.  On step
    [t_k, t_k + h] with theta = (t - t_k)/h, Delta = y_{k+1} - y_k,
    r3 = h f_k - Delta and r4 = Delta - h f_{k+1} - r3,

        y(theta) = y_k + theta (Delta + (1 - theta) (r3 + theta (r4 + (1 - theta) r5))),

    which matches values and slopes at both ends; with r5 = 0 it is the
    cubic Hermite segment.  ``stats`` is the run's ``SolverStats``.
    """

    def __init__(
        self,
        ts: np.ndarray,
        ys: np.ndarray,
        fs: np.ndarray,
        r5: np.ndarray,
        stats: Optional[SolverStats] = None,
    ):
        self.ts = ts
        self.ys = ys
        self.fs = fs
        self.r5 = r5
        self.stats = stats

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def __call__(self, t: float) -> np.ndarray:
        """Evaluate the interpolant at a single time ``t``."""
        return self.eval_many([t])[0]

    def eval_many(self, times) -> np.ndarray:
        """Evaluate at several times; returns an array of shape (len(times), dim)."""
        times = np.asarray(times, dtype=float)
        ts = self.ts
        lo, hi = times.min(), times.max()
        if not (ts[0] <= lo and hi <= ts[-1]):
            bad = lo if not ts[0] <= lo else hi
            raise ValueError(
                f"time {bad} outside the integrated range [{ts[0]}, {ts[-1]}]"
            )
        if len(ts) == 1:
            return np.repeat(self.ys, len(times), axis=0)
        k = np.minimum(np.searchsorted(ts, times, side="right"), len(ts) - 1) - 1
        h = (ts[k + 1] - ts[k])[:, None]
        u = (times - ts[k])[:, None] / h
        v = 1.0 - u
        y0, y1 = self.ys[k], self.ys[k + 1]
        delta = y1 - y0
        r3 = h * self.fs[k] - delta
        r4 = delta - h * self.fs[k + 1] - r3
        # The formula above with y_k + theta Delta written as a blend, so
        # each node evaluates to its stored state exactly.
        return v * y0 + u * y1 + u * v * (r3 + u * (r4 + v * self.r5[k]))


def solve_ode(
    f,
    t0: float,
    t_end: float,
    y0,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    dt_init: float = 0.01,
    monitor=None,
) -> DenseSolution:
    """Integrate ``y' = f(t, y)`` from ``t0`` to ``t_end``.

    ``monitor(t, y, step_index) -> y`` runs on every accepted state and
    may return a repaired copy or raise to abort.  A repaired step's
    slope and dense coefficients are rebuilt from the repaired state.

    Returns the dense solution over ``[t0, t_end]``.
    """
    y0 = np.asarray(y0, dtype=float)
    if t_end < t0:
        raise ValueError("t_end must be >= t0")
    _require_positive(rel_tol=rel_tol, abs_tol=abs_tol, dt_init=dt_init)
    ts = [t0]
    ys = [y0.copy()]
    k1 = np.asarray(f(t0, y0), dtype=float)
    fs = [k1.copy()]
    r5 = []
    n_rhs = 1
    n_rejected = 0
    h_min, h_max = math.inf, 0.0

    t = t0
    y = y0.copy()
    h = dt_init
    k = np.empty((7,) + y0.shape)
    k[0] = k1
    step_index = 0
    while t < t_end:
        h = min(h, t_end - t)
        if h < 16.0 * _EPS * max(abs(t), 1.0):
            raise StepSizeUnderflowError(
                f"step size underflow at t={t!r} (step {step_index})"
            )
        hm = h * _DP_ROWS
        for i, c in _STAGE_NODES:
            y_new = y + hm[i, :i] @ k[:i]
            k[i] = f(t + c * h, y_new)
        n_rhs += 6
        # The last stage input is the 5th-order solution, so k[6] is the
        # slope there (FSAL).
        err, r5_step = hm[7:] @ k
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        q = err / scale
        norm = math.sqrt(float(np.dot(q, q)) / q.size)
        # A NaN norm would only shrink h until it underflows; say why.
        if not (math.isfinite(norm) and np.isfinite(y_new).all()):
            raise NonFiniteStateError(t, step_index)
        if norm <= 1.0:
            t = t + h
            if abs(t_end - t) <= 1e-12 * max(abs(t_end), 1.0):
                t = t_end
            if monitor is not None:
                y_fixed = monitor(t, y_new, step_index)
                if y_fixed is not y_new and not np.array_equal(y_fixed, y_new):
                    y_new = np.asarray(y_fixed, dtype=float)
                    k[6] = f(t, y_new)
                    n_rhs += 1
                    r5_step = hm[8] @ k
            r5.append(r5_step)
            y = y_new
            ts.append(t)
            ys.append(y.copy())
            fs.append(k[6].copy())
            k[0] = k[6]
            step_index += 1
            h_min, h_max = min(h_min, h), max(h_max, h)
            factor = _MAX_FACTOR if norm == 0.0 else _SAFETY * norm ** -0.2
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            n_rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
    stats = SolverStats(
        n_rhs=n_rhs,
        n_accepted=step_index,
        n_rejected=n_rejected,
        h_min=h_min if step_index else 0.0,
        h_max=h_max,
    )
    return DenseSolution(
        np.array(ts),
        np.stack(ys),
        np.stack(fs),
        np.array(r5).reshape((step_index,) + y0.shape),
        stats,
    )
