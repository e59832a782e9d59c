"""Initial-distribution sampling: surfaces, truncated normals, streams."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from scipy.stats import truncnorm

import plantfield as pf
from plantfield import initial
from plantfield.initial import _ndtr, _ndtri, _truncnorm_ppf, export_samples_csv

# Frozen surface values at landmark positions (50-digit arithmetic).
CAP_SURFACE_AT_PEAK = 0.96616617919084683
RATE_SURFACE_AT_PEAK = 1.8714314809252179
HALF_NORMAL_MEAN = 0.79788456080286536  # sqrt(2/pi)

_COLUMNS = ("s0", "x", "S", "gamma")


def test_cap_surface_landmarks(mu0_point):
    sp = mu0_point.S_surface
    at_peak, at_mid = pf.surface_eval(sp, np.array([[-1.0, 0.0], [0.0, 0.0]]))
    assert at_peak == pytest.approx(CAP_SURFACE_AT_PEAK, rel=1e-14)
    # At the midpoint both bumps cancel by symmetry.
    assert at_mid == pytest.approx(0.75, rel=1e-14)


def test_rate_surface_landmarks(mu0_point):
    sp = mu0_point.gamma_surface
    at_peak, at_mid = pf.surface_eval(sp, np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert at_peak == pytest.approx(RATE_SURFACE_AT_PEAK, rel=1e-14)
    assert at_mid == pytest.approx(1.05, rel=1e-14)


def test_surface_batch_rows_match_one_row_batches(mu0_point, rng):
    pts = rng.normal(size=(40, 2))
    batch = pf.surface_eval(mu0_point.S_surface, pts)
    rows = np.concatenate([pf.surface_eval(mu0_point.S_surface, x[None]) for x in pts])
    assert np.array_equal(batch, rows)


def test_surface_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="symmetric"):
        pf.SurfaceParams(
            offset=0.5, peak_value=1.0, trough_value=0.0,
            peak_center=np.zeros(2), trough_center=np.ones(2),
            curvature_peak=np.array([[1.0, 0.5], [0.0, 1.0]]),
            curvature_trough=eye,
        )
    with pytest.raises(ValueError, match="eigenvalues"):
        pf.SurfaceParams(
            offset=0.5, peak_value=1.0, trough_value=0.0,
            peak_center=np.zeros(2), trough_center=np.ones(2),
            curvature_peak=-eye, curvature_trough=eye,
        )
    with pytest.raises(ValueError, match="trough"):
        pf.SurfaceParams(
            offset=0.5, peak_value=0.4, trough_value=0.0,
            peak_center=np.zeros(2), trough_center=np.ones(2),
            curvature_peak=eye, curvature_trough=eye,
        )


def test_truncnorm_ppf_symmetric_interval():
    for u in (0.1, 0.25, 0.5, 0.9):
        a = _truncnorm_ppf(u, 0.0, 1.0, -2.0, 2.0)
        b = _truncnorm_ppf(1.0 - u, 0.0, 1.0, -2.0, 2.0)
        assert a == pytest.approx(-b, abs=1e-12)
    assert _truncnorm_ppf(0.5, 3.0, 0.7, 1.0, 5.0) == pytest.approx(3.0, abs=1e-12)


def test_truncnorm_against_rejection_oracle(rng):
    # Same law drawn two ways: inverse-CDF (implementation) versus plain
    # rejection sampling (oracle).  Means must agree within Monte-Carlo
    # error.
    mean, sd, lo, hi = 0.6, 0.25, 0.5, 1.0
    n = 40_000
    got = _truncnorm_ppf(rng.random(n), mean, sd, lo, hi)
    assert np.all((got >= lo) & (got <= hi))

    oracle_rng = np.random.default_rng(555)
    accepted = []
    while len(accepted) < n:
        draw = oracle_rng.normal(mean, sd, size=4 * n)
        accepted.extend(draw[(draw >= lo) & (draw <= hi)][: n - len(accepted)])
    oracle = np.asarray(accepted)

    se = math.hypot(got.std(), oracle.std()) / math.sqrt(n)
    assert abs(got.mean() - oracle.mean()) < 5.0 * se
    assert got.std() == pytest.approx(oracle.std(), rel=0.05)


def test_truncnorm_half_normal_mean(rng):
    n = 60_000
    got = _truncnorm_ppf(rng.random(n), 0.0, 1.0, 0.0, 30.0)
    se = got.std() / math.sqrt(n)
    assert abs(got.mean() - HALF_NORMAL_MEAN) < 4.0 * se


@pytest.mark.parametrize(
    "mean, sd, lo, hi",
    [
        (-1.0, 0.1, 0.5, 1.0),  # 15 sd below lo: the CDF at lo rounds to 1
        (-0.5, 0.1, 0.0, 2.0),  # a rate trough below zero
        (0.6, 0.25, 0.5, 1.0),  # lo below the mean: the lower-tail form
        (0.3, 0.1, 0.5, 1.0),
    ],
)
def test_truncnorm_ppf_matches_scipy_in_either_tail(mean, sd, lo, hi):
    u = np.array([1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9])
    want = truncnorm.ppf(u, (lo - mean) / sd, (hi - mean) / sd, loc=mean, scale=sd)
    got = _truncnorm_ppf(u, mean, sd, lo, hi)
    assert np.all((lo < got) & (got < hi))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


def _max_rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


# At the few-ulp floor both implementations round differently, not better:
# SciPy's ndtri reads 4.5e-16 where AS241 (also CPython's) reads 7.4e-16.
_ULP_FLOOR = 4 * np.finfo(float).eps


@pytest.mark.parametrize("lo, hi", [(-37.5, -8.0), (-8.0, 8.3)])
def test_ndtr_matches_mpmath(lo, hi):
    # Up to -37.5 the CDF is a normal float; SciPy 1.17.1 errs by 2.3e-13
    # (relative) on the deep lower tail and 1.0e-14 on [-8, 8].
    x = np.linspace(lo, hi, 1501)
    with mpmath.workdps(50):
        want = np.array([float(mpmath.ncdf(v)) for v in x.tolist()])
    ours, theirs = _max_rel_err(_ndtr(x), want), _max_rel_err(ndtr(x), want)
    assert ours <= max(theirs, _ULP_FLOOR), (ours, theirs)
    assert ours < 1e-15


def _ndtri_mpmath(p):
    """The quantile at the exact float p, by Newton steps at 50 digits."""
    with mpmath.workdps(50):
        p, x = mpmath.mpf(p), mpmath.mpf(float(ndtri(p)))
        for _ in range(5):
            x -= (mpmath.ncdf(x) - p) / mpmath.npdf(x)
        return float(x)


@pytest.mark.parametrize(
    "p",
    [
        np.geomspace(1e-300, 0.075, 1200),  # the lower tail, both rationals
        np.linspace(0.075, 0.925, 801),  # the centre
        1.0 - np.geomspace(1e-16, 0.075, 400),  # the upper tail
    ],
    ids=["lower", "centre", "upper"],
)
def test_ndtri_matches_mpmath(p):
    p = p[p != 0.5]
    want = np.array([_ndtri_mpmath(v) for v in p.tolist()])
    ours, theirs = _max_rel_err(_ndtri(p), want), _max_rel_err(ndtri(p), want)
    assert ours <= max(theirs, _ULP_FLOOR), (ours, theirs)


def test_ndtri_is_monotone():
    # Grids through every branch switch (|p - 1/2| = 0.425 and r = 5 on
    # both sides), each spaced wider than the rounding: at one-ulp spacing
    # of p, AS241's tail rationals can step back by one ulp.
    edges = [0.075, 0.925, math.exp(-25.0), -math.expm1(-25.0)]
    for p in [
        np.linspace(0.0, 1.0, 100_001),
        np.geomspace(1e-300, 0.5, 100_000),
        1.0 - np.geomspace(0.5, 1e-16, 10_000),
        *(e + max(1e-12 * min(e, 1.0 - e), 2 * np.spacing(e)) * np.arange(-2000, 2001)
          for e in edges),
    ]:
        assert np.all(np.diff(_ndtri(p)) >= 0.0), p[0]


def test_normal_cdf_and_quantile_edges():
    # Exact edges are handled, not computed through: no warning and no
    # floating-point error flag (underflow aside) may be raised.
    raised = {"divide": "raise", "over": "raise", "invalid": "raise"}
    with warnings.catch_warnings(), np.errstate(**raised):
        warnings.simplefilter("error")
        cdf = _ndtr(np.array([-np.inf, np.inf, np.nan, 0.0, -0.0, -40.0, 40.0]))
        quantile = _ndtri(np.array([0.0, 1.0, np.nan, 0.5, -0.1, 1.5]))
        scalars = (_ndtr(-np.inf), _ndtr(np.nan), _ndtri(0.0), _ndtri(1.0))
    np.testing.assert_array_equal(cdf, [0.0, 1.0, np.nan, 0.5, 0.5, 0.0, 1.0])
    np.testing.assert_array_equal(
        quantile, [-np.inf, np.inf, np.nan, 0.0, np.nan, np.nan]
    )
    np.testing.assert_array_equal(scalars, [0.0, np.nan, -np.inf, np.inf])


def test_truncnorm_ppf_keeps_a_bound_whose_cdf_underflows():
    # At -40 sd the CDF is 0, so u = 0 asks for the quantile at 0: -inf,
    # clipped to the bound.  Either end of a standardised interval.
    assert _truncnorm_ppf(0.0, 0.0, 1.0, -40.0, 0.0) == -40.0
    assert _truncnorm_ppf(1.0, 0.0, 1.0, 0.0, 40.0) == 40.0
    got = _truncnorm_ppf(np.array([0.0, 0.5]), np.array([0.0, 0.0]), 1.0, -40.0, 0.0)
    assert got[0] == -40.0 and -40.0 < got[1] < 0.0


def _truncnorm_ppf_mpmath(u, lo, hi):
    """The quantile u of N(0, 1) conditioned to [lo, hi], by Newton steps
    on the tail mass at 50 digits, from the exact floats given."""
    with mpmath.workdps(50):
        u, lo, hi = mpmath.mpf(u), mpmath.mpf(lo), mpmath.mpf(hi)
        tail = lambda z: mpmath.erfc(z / mpmath.sqrt(2)) / 2
        target = tail(lo) - u * (tail(lo) - tail(hi))
        z = lo
        for _ in range(60):
            z += (tail(z) - target) / mpmath.npdf(z)
        return float(z)


@pytest.mark.parametrize("lo", [30.0, 30.5, 38.4, 40.0, 55.0, 200.0, 1e4])
def test_truncnorm_ppf_far_tail_matches_mpmath(lo):
    # From 30 sd on, the tail mass is inverted in scaled form; past about
    # 38.5 sd it underflows, and every draw would be clipped to a bound.
    u = np.array([0.0, 1e-12, 0.1, 0.5, 0.9, 1.0 - 2.0**-53])
    for hi in (lo + 1e-6 / lo, lo + 0.01, lo + 0.5, lo + 3.0, lo + 1e3):
        want = [_truncnorm_ppf_mpmath(v, lo, hi) for v in u.tolist()]
        got = _truncnorm_ppf(u, 0.0, 1.0, lo, hi)
        np.testing.assert_allclose(got, want, rtol=_ULP_FLOOR, atol=0.0)


def _truncnorm_ppf_mpmath_bisect(u, lo, hi):
    """The quantile u of N(0, 1) conditioned to [lo, hi], by bisection on
    the tail mass at 50 digits, from the exact floats given: Newton steps
    from lo would take hundreds of steps to cross a wide interval."""
    with mpmath.workdps(50):
        u, lo, hi = mpmath.mpf(u), mpmath.mpf(lo), mpmath.mpf(hi)
        tail = lambda z: mpmath.erfc(z / mpmath.sqrt(2)) / 2
        target = tail(lo) - u * (tail(lo) - tail(hi))
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if tail(mid) > target else (lo, mid)
        return float((lo + hi) / 2)


@pytest.mark.parametrize(
    "lo, hi",
    [(0.5, 2.0), (1.0, 9.0), (3.0, 30.5), (7.0, 8.0), (29.0, 29.5), (12.0, 12.0 + 1e-6)],
)
def test_truncnorm_ppf_mirrored_tail_near_one_matches_mpmath(lo, hi):
    # Above the mean the upper tail is inverted; as u -> 1 its target mass
    # Q(hi) + (1 - u)(Q(lo) - Q(hi)) must not cancel, even when Q(lo) is
    # many orders above Q(hi).  u = 1 is the upper bound itself.
    u = np.array([0.9, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 2.0**-40, 1.0 - 2.0**-53])
    want = [_truncnorm_ppf_mpmath_bisect(v, lo, hi) for v in u.tolist()]
    got = _truncnorm_ppf(u, 0.0, 1.0, lo, hi)
    np.testing.assert_allclose(got, want, rtol=_ULP_FLOOR, atol=0.0)
    assert _truncnorm_ppf(1.0, 0.0, 1.0, lo, hi) == hi
    assert _truncnorm_ppf(1.0, 0.0, 1.0, 30.0, 30.5) == 30.5  # the far-tail branch


def test_sample_redraws_a_cap_on_its_bound(mu0_point, monkeypatch):
    # A flat cap surface 250 sd above S_lower: the CDF at the bound is 0 and
    # a first uniform of 0 puts plant 0 on the bound, so it is redrawn from
    # its own stream.
    flat = replace(mu0_point.S_surface, offset=0.75, peak_value=0.75, trough_value=0.75)
    cfg = replace(mu0_point, S_surface=flat, delta_S=0.001).with_seed(6)
    hi = cfg.params.max_size
    real = initial._stream

    class FirstUniformZero:
        def __init__(self, rng):
            self.rng = rng

        def random(self, n):
            u = self.rng.random(n)
            u[0] = 0.0
            return u

    def stream(seed, key):
        rng = real(seed, key)
        return FirstUniformZero(rng) if key == (initial._STREAM_S,) else rng

    plain = pf.sample_mu0(cfg, 8)
    monkeypatch.setattr(initial, "_stream", stream)
    patched = pf.sample_mu0(cfg, 8)
    assert _truncnorm_ppf(0.0, 0.75, 0.001, cfg.S_lower, hi) == cfg.S_lower
    redrawn = _truncnorm_ppf(real(6, (initial._STREAM_S, 0)).random(), 0.75, 0.001,
                             cfg.S_lower, hi)
    assert cfg.S_lower < redrawn < hi
    assert patched.S[0] == redrawn
    assert np.array_equal(patched.S[1:], plain.S[1:])
    assert np.array_equal(patched.gamma, plain.gamma)


def test_position_moments(mu0_point):
    pos = pf.sample_mu0(mu0_point.with_seed(101), 100_000).x
    L = mu0_point.L
    assert np.abs(pos.mean(axis=0)).max() < 0.02 * L
    cov = np.cov(pos.T)
    assert abs(cov[0, 0] - L**2) < 0.05 * L**2
    assert abs(cov[1, 1] - L**2) < 0.05 * L**2
    assert abs(cov[0, 1]) < 0.05 * L**2


def test_supports_are_respected(mu0_point, params):
    sample = pf.sample_mu0(mu0_point.with_seed(5), 5_000)
    S, g, s0 = sample.S, sample.gamma, sample.s0
    assert np.all((S > mu0_point.S_lower) & (S < params.max_size))
    assert np.all((g > 0.0) & (g <= mu0_point.gamma_max))
    assert np.all(s0 == 0.1)


def test_uniform_initial_size_law(mu0_uniform):
    s0 = pf.sample_mu0(mu0_uniform.with_seed(5), 5_000).s0
    assert np.all((s0 >= 0.1) & (s0 <= 0.3))
    assert abs(s0.mean() - 0.2) < 0.005
    assert s0.std() == pytest.approx((0.3 - 0.1) / math.sqrt(12.0), rel=0.05)


def test_caps_track_their_surface(mu0_point):
    sample = pf.sample_mu0(mu0_point.with_seed(77), 40_000)
    pos, S = sample.x, sample.S
    near_peak = np.linalg.norm(pos - np.array([-1.0, 0.0]), axis=1) < 0.5
    near_trough = np.linalg.norm(pos - np.array([1.0, 0.0]), axis=1) < 0.5
    assert near_peak.sum() > 200 and near_trough.sum() > 200
    assert S[near_peak].mean() > S[near_trough].mean() + 0.1


def test_sampling_is_deterministic(mu0_point):
    a = pf.sample_mu0(mu0_point.with_seed(9), 64)
    b = pf.sample_mu0(mu0_point.with_seed(9), 64)
    assert a.x.shape == (64, 2)
    for col in _COLUMNS:
        assert getattr(a, col).shape[0] == 64
        assert np.array_equal(getattr(a, col), getattr(b, col))
    c = pf.sample_mu0(mu0_point.with_seed(10), 64)
    assert not np.array_equal(a.x, c.x)


def test_larger_draw_extends_smaller(mu0_point, mu0_uniform):
    # The first k rows of a size-n draw are the size-k draw, bit for bit.
    for cfg in (mu0_point.with_seed(4), mu0_uniform.with_seed(4)):
        small = pf.sample_mu0(cfg, 30)
        large = pf.sample_mu0(cfg, 50)
        for col in _COLUMNS:
            assert np.array_equal(getattr(large, col)[:30], getattr(small, col))


def test_config_validation(params, mu0_point):
    with pytest.raises(ValueError, match="s0"):
        replace(mu0_point, s0=0.6)  # above the S truncation floor
    with pytest.raises(ValueError, match="support"):
        replace(mu0_point, s0_law="uniform", s0_min=0.2, s0_max=0.04)
    with pytest.raises(ValueError, match="s0_law"):
        replace(mu0_point, s0_law="gaussian")
    with pytest.raises(ValueError, match="seed"):
        mu0_point.with_seed(-1)


def test_samples_to_state_roundtrip(mu0_point):
    sample = pf.sample_mu0(mu0_point.with_seed(3), 12)
    state = pf.samples_to_state(sample)
    assert state.n == 12
    assert np.array_equal(state.sizes, sample.s0)
    assert np.array_equal(state.positions, sample.x)
    assert np.array_equal(state.caps, sample.S)
    assert np.array_equal(state.rates, sample.gamma)


def test_samples_csv_layout(mu0_point, tmp_path):
    sample = pf.sample_mu0(mu0_point.with_seed(3), 4)
    out = tmp_path / "samples.csv"
    export_samples_csv(sample, out, comments=["seed=3"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# seed=3"
    assert lines[1] == "id,s0,x1,x2,S,gamma"
    assert len(lines) == 6
    row = (sample.s0[1], *sample.x[1], sample.S[1], sample.gamma[1])
    assert lines[3] == ",".join(["1"] + [repr(float(v)) for v in row])
