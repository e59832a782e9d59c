"""Integrator unit tests: order, dense output, monitor, failure modes."""

import math

import numpy as np
import pytest

from plantfield.solver import (
    _DP_A,
    _DP_C,
    _DP_D,
    DenseSolution,
    NonFiniteStateError,
    SolverStats,
    StepSizeUnderflowError,
    solve_ode,
)

# A smooth 5-dimensional linear benchmark with cosine forcing.
_A = np.diag([-1.0, -0.5, -2.0, -0.3, -1.5])
_B = np.array([0.3, -0.2, 0.5, 0.1, -0.4])
_Y0 = np.array([1.0, 2.0, -1.0, 0.5, 1.5])


def _f(t, y):
    return _A @ y + _B * np.cos(t)


def _exact(t):
    # Componentwise: y' = -a y + b cos t  =>
    # y = (y0 - b a/(a^2+1)) e^{-a t} + b (a cos t + sin t)/(a^2+1)
    a = -np.diag(_A)
    part = _B * (a * np.cos(t) + np.sin(t)) / (a**2 + 1.0)
    part0 = _B * a / (a**2 + 1.0)
    return (_Y0 - part0) * np.exp(-a * t) + part


def test_adaptive_meets_tolerance():
    sol = solve_ode(_f, 0.0, 2.0, _Y0, rel_tol=1e-8, abs_tol=1e-10)
    err = np.abs(sol(2.0) - _exact(2.0)).max()
    assert err < 1e-7


def test_adaptive_tightening_reduces_error():
    loose = solve_ode(_f, 0.0, 2.0, _Y0, rel_tol=1e-5, abs_tol=1e-7)
    tight = solve_ode(_f, 0.0, 2.0, _Y0, rel_tol=1e-10, abs_tol=1e-12)
    e_loose = np.abs(loose(2.0) - _exact(2.0)).max()
    e_tight = np.abs(tight(2.0) - _exact(2.0)).max()
    assert e_tight < e_loose / 10.0


def test_dense_output_interpolates_whole_range():
    sol = solve_ode(_f, 0.0, 2.0, _Y0, rel_tol=1e-8, abs_tol=1e-10)
    worst = max(
        np.abs(sol(t) - _exact(t)).max() for t in np.linspace(0.0, 2.0, 401)
    )
    assert worst < 1e-6


def test_dense_output_between_nodes_is_fourth_order():
    # One step of size h over [0, h]: loose tolerances accept it as
    # dt_init sets it.  The continuous extension's local error is O(h^5):
    # halving the step cuts the error at the midpoint by about 32 (36-39
    # here; cubic Hermite: 16, which measures 14-15), and it stays far
    # below the Hermite segment's on the same step (11-31 times here).
    def errors(h):
        sol = solve_ode(_f, 0.0, h, _Y0, rel_tol=1e3, abs_tol=1e3, dt_init=h)
        assert len(sol.ts) == 2
        hermite = DenseSolution(sol.ts, sol.ys, sol.fs, np.zeros_like(sol.r5))
        exact = _exact(0.5 * h)
        return [np.abs(d.eval_many([0.5 * h])[0] - exact).max() for d in (sol, hermite)]

    for h in (0.2, 0.1):
        (mid, hermite), (mid_half, _) = errors(h), errors(h / 2)
        assert mid / mid_half >= 16.0
        assert mid < hermite / 8.0


def test_dense_output_exact_at_nodes():
    sol = solve_ode(_f, 0.0, 2.0, _Y0)
    for k in range(len(sol.ts)):
        assert np.array_equal(sol(float(sol.ts[k])), sol.ys[k])


def test_dense_output_rejects_outside_range():
    sol = solve_ode(_f, 0.0, 2.0, _Y0)
    with pytest.raises(ValueError):
        sol(-0.001)
    with pytest.raises(ValueError):
        sol(2.001)


def test_eval_many_stacks_rows():
    sol = solve_ode(_f, 0.0, 2.0, _Y0)
    out = sol.eval_many([0.0, 1.0, 2.0])
    assert out.shape == (3, 5)
    assert np.array_equal(out[0], _Y0)


def test_eval_many_any_order_and_range_checked():
    sol = solve_ode(_f, 0.0, 2.0, _Y0)
    times = np.array([1.7, 0.0, 0.31, 2.0, 0.31])
    out = sol.eval_many(times)
    assert out.shape == (5, 5)
    for row, t in zip(out, times):
        assert np.array_equal(row, sol(float(t)))
    assert np.array_equal(out[3], sol.ys[-1])
    with pytest.raises(ValueError, match="outside"):
        sol.eval_many([0.5, 2.5])
    with pytest.raises(ValueError, match="outside"):
        sol.eval_many([float("nan")])


def test_final_node_is_exactly_t_end():
    sol = solve_ode(_f, 0.0, 2.0, _Y0)
    assert sol.t_end == 2.0


def test_zero_length_interval():
    sol = solve_ode(_f, 1.0, 1.0, _Y0)
    assert len(sol.ts) == 1
    assert np.array_equal(sol(1.0), _Y0)


def test_step_size_underflow_raises():
    with pytest.raises(StepSizeUnderflowError):
        solve_ode(_f, 0.0, 2.0, _Y0, dt_init=1e-300)


def test_non_finite_rhs_raises_its_own_error():
    def f(t, y):
        return np.where(t > 0.3, np.nan, -y)

    with pytest.raises(NonFiniteStateError) as exc:
        solve_ode(f, 0.0, 1.0, _Y0, dt_init=0.1)
    assert 0.0 < exc.value.t <= 0.3
    assert exc.value.step_index >= 1
    assert "non-finite" in str(exc.value)

    with pytest.raises(NonFiniteStateError) as exc:
        solve_ode(lambda t, y: np.full_like(y, np.nan), 0.0, 1.0, _Y0)
    assert exc.value.t == 0.0 and exc.value.step_index == 0


def test_monitor_sees_every_accepted_step():
    seen = []

    def monitor(t, y, step_index):
        seen.append((step_index, t))
        return y

    sol = solve_ode(_f, 0.0, 1.0, _Y0, monitor=monitor)
    assert [s[0] for s in seen] == list(range(len(sol.ts) - 1))
    assert seen[-1][1] == 1.0


def test_monitor_repair_is_committed():
    # Clamp the first component at 1.05; the recorded states must obey it,
    # the stored slope must be re-evaluated at the repaired state, and the
    # step into the repaired node must build its dense coefficients from
    # the repaired state and slope.
    cap = 1.05
    repairs = []

    def monitor(t, y, step_index):
        if y[0] > cap:
            repairs.append(step_index)
            y = y.copy()
            y[0] = cap
        return y

    def grower(t, y):
        return np.array([y[0]])  # exponential growth

    sol = solve_ode(grower, 0.0, 1.0, np.array([1.0]), monitor=monitor)
    assert sol.ys[:, 0].max() <= cap
    k = int(np.argmax(sol.ys[:, 0] >= cap))
    assert repairs[0] == k - 1
    assert sol.ys[k, 0] == cap and sol(float(sol.ts[k]))[0] == cap
    assert sol.fs[k, 0] == cap

    # The step's stages from its start, with the repaired slope as the last.
    t, y, h = sol.ts[k - 1], sol.ys[k - 1], sol.ts[k] - sol.ts[k - 1]
    stages = np.empty((7, 1))
    stages[0] = sol.fs[k - 1]
    for i in range(1, 6):
        stages[i] = grower(t + _DP_C[i] * h, y + h * (_DP_A[i, :i] @ stages[:i]))
    stages[6] = sol.fs[k]
    assert sol.r5[k - 1] == pytest.approx(h * (_DP_D @ stages), rel=1e-12)
    segment = np.linspace(t, sol.ts[k], 1001)
    assert sol.eval_many(segment)[:, 0].max() <= cap

    st = sol.stats
    assert st.n_rhs == 1 + 6 * (st.n_accepted + st.n_rejected) + len(repairs)


def test_run_statistics_count_what_the_solver_did():
    calls = []

    def f(t, y):
        calls.append(t)
        return _f(t, y)

    # A first step far too large forces rejections.
    sol = solve_ode(f, 0.0, 2.0, _Y0, dt_init=1.0)
    st = sol.stats
    steps = np.diff(sol.ts)
    assert st.n_rhs == len(calls) == 1 + 6 * (st.n_accepted + st.n_rejected)
    assert st.n_accepted == len(sol.ts) - 1 == len(sol.r5)
    assert st.n_rejected > 0
    assert st.h_min == pytest.approx(steps.min(), rel=1e-12)
    assert st.h_max == pytest.approx(steps.max(), rel=1e-12)
    assert solve_ode(_f, 1.0, 1.0, _Y0).stats == SolverStats(1, 0, 0, 0.0, 0.0)


def test_stage_floating_point_error_rejects_the_trial():
    # A stage state where f cannot be evaluated (it raises
    # FloatingPointError, as the kernel window does) rejects the trial, so
    # h shrinks and the run goes on.  n_rhs counts the calls made, the
    # raising ones too, so it falls short of 1 + 6 per trial.
    calls = []

    def f(t, y):
        calls.append(t)
        if np.abs(y).max() > 5.0:
            raise FloatingPointError("state out of range")
        return _f(t, y)

    sol = solve_ode(f, 0.0, 2.0, _Y0, dt_init=50.0)
    st = sol.stats
    assert st.n_rejected > 0
    assert st.n_rhs == len(calls) < 1 + 6 * (st.n_accepted + st.n_rejected)
    assert np.abs(sol(2.0) - _exact(2.0)).max() < 1e-7


def test_input_validation():
    with pytest.raises(ValueError):
        solve_ode(_f, 1.0, 0.0, _Y0)
    with pytest.raises(ValueError):
        solve_ode(_f, 0.0, 1.0, _Y0, rel_tol=0.0)


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol", "dt_init"])
@pytest.mark.parametrize("value", [0.0, math.nan, math.inf])
def test_step_controls_must_be_finite_and_positive(name, value):
    # Refused before the first step, as a setting error naming the argument:
    # a NaN is not a non-finite state, and an infinite tolerance accepts all.
    with pytest.raises(ValueError, match=f"{name} must be finite and strictly positive"):
        solve_ode(_f, 0.0, 1.0, _Y0, **{name: value})


def test_dense_solution_single_segment_formula():
    # Values and slopes of y = t^3 at t = 0, 1 with r5 = 0 give the cubic
    # Hermite segment, t^3 itself; y = t^4 needs the quartic term r5 = 1.
    ts = np.array([0.0, 1.0])
    cubic = DenseSolution(
        ts=ts, ys=np.array([[0.0], [1.0]]), fs=np.array([[0.0], [3.0]]),
        r5=np.zeros((1, 1)),
    )
    quartic = DenseSolution(
        ts=ts, ys=np.array([[0.0], [1.0]]), fs=np.array([[0.0], [4.0]]),
        r5=np.ones((1, 1)),
    )
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert cubic(t)[0] == pytest.approx(t**3, abs=1e-15)
        assert quartic(t)[0] == pytest.approx(t**4, abs=1e-15)


def test_rk45_integrates_quartic_forcing_exactly():
    # The 5th-order weights integrate y' = 5 t^4 exactly on every step,
    # whatever the step sizes; the embedded 4th-order pair would not.
    sol = solve_ode(lambda t, y: np.array([5.0 * t**4]), 0.0, 1.3, np.zeros(1))
    assert len(sol.ts) > 2
    assert sol.ys[:, 0] == pytest.approx(sol.ts**5, rel=1e-13, abs=1e-15)
