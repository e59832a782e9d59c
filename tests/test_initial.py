"""Initial-distribution sampling: surfaces, truncated normals, streams."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import truncnorm

import plantfield as pf
from plantfield.initial import _truncnorm_ppf, export_samples_csv

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
