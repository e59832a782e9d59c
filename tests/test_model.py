"""Core formulas: competition potential, isolated growth, admissibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plantfield as pf

# Frozen reference values, computed independently with 50-digit arithmetic.
POTENTIAL_AT_01_02_05 = 0.17116523778307008
POTENTIAL_AT_03_01_00 = 0.036771521545203052
SELF_POTENTIAL_AT_02 = 0.23104906018664844
GROWTH_01_075_105_T2 = 0.58600913568322504
GROWTH_01_075_105_T07 = 0.28540699347950749
GROWTH_028_09_03_T5 = 0.6935801712876632


@pytest.fixture(scope="module")
def p():
    return pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=1.32)


def test_potential_matches_frozen_oracle(p):
    got = pf.competition_potential(p, 0.1, 0.2, 0.5)
    assert got == pytest.approx(POTENTIAL_AT_01_02_05, rel=1e-15)
    got = pf.competition_potential(p, 0.3, 0.1, 0.0)
    assert got == pytest.approx(POTENTIAL_AT_03_01_00, rel=1e-15)


def test_potential_self_value(p):
    # A plant against its own copy at distance zero: the tanh term is
    # exactly 1, leaving log(s/s_m) / (2 R_M).
    s = 0.2
    got = pf.competition_potential(p, s, s, 0.0)
    assert got == pytest.approx(SELF_POTENTIAL_AT_02, rel=1e-15)
    assert got == pytest.approx(math.log(s / p.s_m) / (2.0 * p.R_M), rel=1e-14)


def test_potential_log_form_agrees(p, rng):
    s = np.exp(rng.uniform(np.log(p.s_m), np.log(p.max_size), 200))
    sp = np.exp(rng.uniform(np.log(p.s_m), np.log(p.max_size), 200))
    d = rng.uniform(0.0, 3.0, 200)
    # The size-space definition, written out here, against the log form.
    direct = (
        np.log(sp / p.s_m)
        / (2.0 * p.R_M * (1.0 + (d / p.sigma_x) ** 2))
        * (1.0 + np.tanh(np.log(sp / s) / p.sigma_r))
    )
    logged = pf.log_potential(p, np.log(s / p.s_m), np.log(sp / p.s_m), d)
    assert np.max(np.abs(direct - logged)) < 1e-12
    assert np.array_equal(pf.competition_potential(p, s, sp, d), logged)


def test_potential_broadcasts_and_scalar_type(p):
    out = pf.competition_potential(p, 0.1, np.array([0.1, 0.2, 0.3]), 0.0)
    assert out.shape == (3,)
    assert isinstance(pf.competition_potential(p, 0.1, 0.2, 0.5), float)


def test_potential_rejects_nonpositive_sizes(p):
    with pytest.raises(ValueError):
        pf.competition_potential(p, 0.0, 0.2, 0.5)
    with pytest.raises(ValueError):
        pf.competition_potential(p, 0.1, -0.2, 0.5)


@settings(deadline=None, max_examples=200)
@given(
    r1=st.floats(1e-6, 3.0 - 1e-6),
    r2=st.floats(1e-6, 3.0 - 1e-6),
    d=st.floats(0.0, 10.0),
)
def test_potential_stays_in_unit_interval(r1, r2, d):
    p = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=1.32)
    s1 = p.s_m * math.exp(r1)
    s2 = p.s_m * math.exp(r2)
    c = pf.competition_potential(p, s1, s2, d)
    assert 0.0 <= c <= 1.0


def test_potential_monotonicity(p):
    # Farther neighbours press less; bigger neighbours press more; a
    # bigger self feels less pressure.
    base = pf.competition_potential(p, 0.1, 0.3, 0.5)
    assert pf.competition_potential(p, 0.1, 0.3, 1.0) < base
    assert pf.competition_potential(p, 0.1, 0.4, 0.5) > base
    assert pf.competition_potential(p, 0.2, 0.3, 0.5) < base


def test_growth_matches_frozen_oracle(p):
    assert pf.gompertz_closed_form(p, 0.1, 0.75, 1.05, 2.0) == pytest.approx(
        GROWTH_01_075_105_T2, rel=1e-15
    )
    assert pf.gompertz_closed_form(p, 0.1, 0.75, 1.05, 0.7) == pytest.approx(
        GROWTH_01_075_105_T07, rel=1e-15
    )
    assert pf.gompertz_closed_form(p, 0.28, 0.9, 0.3, 5.0) == pytest.approx(
        GROWTH_028_09_03_T5, rel=1e-15
    )
    # Every argument broadcasts: the three oracle values as one call.
    both = pf.gompertz_closed_form(
        p, [0.1, 0.1, 0.28], [0.75, 0.75, 0.9], [1.05, 1.05, 0.3], [2.0, 0.7, 5.0]
    )
    assert both == pytest.approx(
        [GROWTH_01_075_105_T2, GROWTH_01_075_105_T07, GROWTH_028_09_03_T5], rel=1e-15
    )
    with pytest.raises(ValueError, match="initial size"):
        pf.gompertz_closed_form(p, [0.1, 0.0], 0.75, 1.05, 2.0)


def test_growth_limits(p):
    assert pf.gompertz_closed_form(p, 0.1, 0.75, 1.05, 0.0) == pytest.approx(0.1, rel=1e-14)
    assert pf.gompertz_closed_form(p, 0.1, 0.75, 1.05, 200.0) == pytest.approx(0.75, rel=1e-12)
    assert pf.gompertz_closed_form(p, 0.1, 0.75, 0.0, 7.3) == pytest.approx(0.1, rel=1e-14)


def test_growth_matches_numeric_integration(p):
    S, gamma, s0 = 0.8, 0.7, 0.12

    def rhs(t, y):
        return np.array([gamma * y[0] * (math.log(S / p.s_m) - math.log(y[0] / p.s_m))])

    sol = pf.solve_ode(rhs, 0.0, 6.0, np.array([s0]), rel_tol=1e-11, abs_tol=1e-13)
    for t in (0.5, 1.7, 3.0, 6.0):
        assert sol(t)[0] == pytest.approx(
            pf.gompertz_closed_form(p, s0, S, gamma, t), rel=1e-8
        )


@settings(deadline=None, max_examples=100)
@given(
    s0=st.floats(0.06, 0.49),
    S=st.floats(0.5, 1.0),
    gamma=st.floats(0.01, 2.0),
    t=st.floats(0.0, 20.0),
)
def test_growth_stays_between_start_and_cap(s0, S, gamma, t):
    p = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=1.32)
    s = pf.gompertz_closed_form(p, s0, S, gamma, t)
    lo, hi = min(s0, S), max(s0, S)
    assert lo - 1e-12 <= s <= hi + 1e-12


def _validate(p, caps, rates, sizes0):
    """``validate_initial_config`` of the plants with these columns, all at
    the origin; the record refuses a negative or NaN rate itself."""
    state = pf.PopulationState(sizes0, np.zeros((len(caps), 2)), caps, rates)
    return pf.validate_initial_config(p, state)


def test_admissibility_accepts_valid_population(p):
    assert _validate(p, [0.75, 0.9], [1.0, 1.0], [0.1, 0.2]) is None


def test_admissibility_flags_each_violation(p):
    with pytest.raises(ValueError, match=r"plant 1: asymptotic"):
        _validate(p, [0.75, 1.5], [1.0, 1.0], [0.1, 0.1])
    with pytest.raises(ValueError, match=r"plant 0: growth rate"):
        _validate(p, [0.75, 0.75], [0.0, 1.0], [0.1, 0.1])
    with pytest.raises(ValueError, match=r"plant 1: initial size"):
        _validate(p, [0.75, 0.75], [1.0, 1.0], [0.1, 0.8])
    with pytest.raises(ValueError, match=r"plant 0: "):
        _validate(p, [0.75, 0.75], [1.0, 1.0], [0.05, 0.1])


def _first_violation(p, caps, rates, sizes0):
    """Per-plant reference: (index, reason keyword) of the first breach.

    A rate that is negative or NaN breaks the record's own rule, which is
    checked over all plants before the run's conditions."""
    for i, g in enumerate(rates):
        if not g >= 0.0:
            return i, "growth rate"
    for i, (S, g, s0) in enumerate(zip(caps, rates, sizes0)):
        if not p.s_m < S < p.max_size:
            return i, "asymptotic"
        if not g > 0.0:
            return i, "growth rate"
        if not p.s_m < s0 < S:
            return i, "initial size"
    return None, None


def test_admissibility_reports_first_offender_and_reason(p, rng):
    # Plant 1 breaks the rate and the size condition, plant 2 the cap: the
    # error names plant 1 and the rate, the earlier of its two breaches.
    with pytest.raises(ValueError, match=r"plant 1: growth rate"):
        _validate(
            p, [0.75, 0.75, 1.5], [1.0, 0.0, 1.0], [0.1, 0.9, 0.1]
        )
    with pytest.raises(ValueError, match=r"plant 1: growth rate not nonnegative"):
        _validate(p, [0.75, 1.5], [1.0, -1.0], [0.1, 2.0])
    with pytest.raises(ValueError, match=r"plant 1: growth rate"):
        _validate(p, [0.75, 0.75], [1.0, math.nan], [0.1, 0.1])
    # Random populations in which every condition fails now and then.
    for _ in range(300):
        n = int(rng.integers(2, 6))
        caps = rng.uniform(0.0, 1.2, n)
        rates = rng.uniform(-0.3, 1.0, n)
        sizes0 = rng.uniform(0.0, 1.0, n)
        index, keyword = _first_violation(p, caps, rates, sizes0)
        if index is None:
            assert _validate(p, caps, rates, sizes0) is None
        else:
            with pytest.raises(ValueError, match=rf"plant {index}: {keyword}"):
                _validate(p, caps, rates, sizes0)


def test_admissibility_raises_on_malformed_input(p):
    with pytest.raises(ValueError, match="must be"):
        _validate(p, [0.75], [1.0], [0.1, 0.2])
    with pytest.raises(ValueError, match="at least 2 individuals"):
        _validate(p, [0.75], [1.0], [0.1])


def test_params_validation():
    with pytest.raises(ValueError):
        pf.ModelParams(s_m=0.0, R_M=3.0, sigma_x=0.5, sigma_r=1.32)
    with pytest.raises(ValueError):
        pf.ModelParams(s_m=0.05, R_M=-1.0, sigma_x=0.5, sigma_r=1.32)
    p = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=1.32)
    assert p.max_size == pytest.approx(0.05 * math.exp(3.0), rel=1e-15)


def test_params_reject_sigma_r_below_r_m_over_600():
    # The competition kernel evaluates exp(2 r / sigma_r) over r in (0, R_M).
    with pytest.raises(ValueError, match=r"sigma_r=0\.004 .*R_M=3\.0"):
        pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=0.004)
    with pytest.raises(ValueError, match="R_M/sigma_r <= 600"):
        pf.ModelParams(s_m=0.05, R_M=60.0, sigma_x=0.5, sigma_r=0.0999)
    pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=3.0 / 600)
    pf.ModelParams(s_m=0.05, R_M=60.0, sigma_x=0.5, sigma_r=0.1)


def test_params_reject_sigma_x_with_unrepresentable_square():
    # The spatial kernel divides by sigma_x**2: at 1e-170 the square is 0
    # (diagonal 0/0), at 1e200 the float power overflows.
    for sigma_x in (1e-170, 1e-160, 1e160, 1e200):
        with pytest.raises(ValueError, match="sigma_x="):
            pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=sigma_x, sigma_r=1.32)
    # An infinite scale is refused by the finite-and-positive rule first.
    with pytest.raises(ValueError, match="sigma_x must be finite and strictly positive"):
        pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=math.inf, sigma_r=1.32)
    for sigma_x in (1.5e-154, 1e-6, 1e6, 1.3e154):
        pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=sigma_x, sigma_r=1.32)

