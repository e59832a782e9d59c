"""Explicit Runge-Kutta integration with Hermite dense output.

Integrates with the adaptive Dormand-Prince 5(4) embedded pair under
elementary (PI-free) step control.  Every accepted step is recorded as a
cubic Hermite segment (endpoint values and slopes), so the solution can
be evaluated anywhere in the integration range with fourth-order
interpolation accuracy.  The segments are what downstream code
interpolates when a frozen trajectory serves as the background of
another integration.

The right-hand side is called as ``f(t, y)`` with ``y`` a 1-D float array.
An optional per-step ``monitor`` callback can repair (or reject, by
raising) each accepted state before it is committed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DenseSolution",
    "NonFiniteStateError",
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
_DP_B5 = _DP_A[6]
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_ERR = _DP_B5 - _DP_B4

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


class DenseSolution:
    """Piecewise cubic Hermite interpolant of an accepted-step sequence.

    Stores the node times, states and slopes of every accepted step.
    Evaluation between nodes matches values and derivatives at both ends
    of the bracketing step (fourth-order accuracy in the step size).
    """

    def __init__(self, ts: np.ndarray, ys: np.ndarray, fs: np.ndarray):
        self.ts = ts
        self.ys = ys
        self.fs = fs

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
        k = np.minimum(np.searchsorted(ts, times, side="right"), len(ts) - 1) - 1
        h = ts[k + 1] - ts[k]
        # A zero-length step (or a one-node solution) yields its node value.
        u = (times - ts[k]) / np.where(h == 0.0, 1.0, h)
        u2 = u * u
        u3 = u2 * u
        h00 = (2.0 * u3 - 3.0 * u2 + 1.0)[:, None]
        h10 = (u3 - 2.0 * u2 + u)[:, None]
        h01 = (-2.0 * u3 + 3.0 * u2)[:, None]
        h11 = (u3 - u2)[:, None]
        return (
            h00 * self.ys[k]
            + h01 * self.ys[k + 1]
            + h[:, None] * (h10 * self.fs[k] + h11 * self.fs[k + 1])
        )


def solve_ode(
    f,
    t0: float,
    t_end: float,
    y0,
    *,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    dt_init: float = 0.01,
    max_step: float = math.inf,
    monitor=None,
) -> DenseSolution:
    """Integrate ``y' = f(t, y)`` from ``t0`` to ``t_end``.

    ``monitor(t, y, step_index) -> y`` runs on every accepted state and
    may return a repaired copy or raise to abort.

    Returns the dense solution over ``[t0, t_end]``.
    """
    y0 = np.asarray(y0, dtype=float)
    if t_end < t0:
        raise ValueError("t_end must be >= t0")
    if rel_tol <= 0.0 or abs_tol <= 0.0:
        raise ValueError("tolerances must be strictly positive")
    ts = [t0]
    ys = [y0.copy()]
    k1 = np.asarray(f(t0, y0), dtype=float)
    fs = [k1.copy()]
    if t_end == t0:
        return DenseSolution(np.array(ts), np.stack(ys), np.stack(fs))

    t = t0
    y = y0.copy()
    h = dt_init
    k = np.empty((7,) + y0.shape)
    k[0] = k1
    step_index = 0
    while t < t_end:
        h = min(h, max_step, t_end - t)
        if h < 16.0 * np.finfo(float).eps * max(abs(t), 1.0):
            raise StepSizeUnderflowError(
                f"step size underflow at t={t!r} (step {step_index})"
            )
        for i in range(1, 7):
            k[i] = f(t + _DP_C[i] * h, y + h * (_DP_A[i, :i] @ k[:i]))
        y_new = y + h * (_DP_B5 @ k)
        # k[6] was evaluated at (t + h, y_new): the FSAL derivative.
        err = h * (_DP_ERR @ k)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        norm = math.sqrt(float(np.mean((err / scale) ** 2)))
        # A NaN norm would only shrink h until it underflows; say why.
        if not (math.isfinite(norm) and np.all(np.isfinite(y_new))):
            raise NonFiniteStateError(t, step_index)
        if norm <= 1.0:
            t = t + h
            if abs(t_end - t) <= 1e-12 * max(abs(t_end), 1.0):
                t = t_end
            f_new = k[6].copy()
            if monitor is not None:
                y_fixed = monitor(t, y_new, step_index)
                if y_fixed is not y_new and not np.array_equal(y_fixed, y_new):
                    y_new = np.asarray(y_fixed, dtype=float)
                    f_new = np.array(f(t, y_new), dtype=float)
            y = y_new
            ts.append(t)
            ys.append(y.copy())
            fs.append(f_new)
            k[0] = f_new
            step_index += 1
            factor = _MAX_FACTOR if norm == 0.0 else _SAFETY * norm ** -0.2
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        else:
            h *= max(_MIN_FACTOR, _SAFETY * norm ** -0.2)
    return DenseSolution(np.array(ts), np.stack(ys), np.stack(fs))

