"""Coupled-population dynamics: competition index, integration, probes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.spatial.distance import cdist

import plantfield as pf
from conftest import one_plus_tanh
from oracles import competition_potential, gompertz_closed_form
from plantfield import population
from plantfield.population import (
    _BLOCK,
    _EXP_WINDOW,
    _RANK8_REACH,
    _cross_kernel,
    _kernel_block,
    _kernel_blocks,
    _sq_distances,
    export_trajectory_csv,
)
from plantfield.textio import format_value


@pytest.fixture(scope="module")
def p():
    return pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=1.32)


def _members(state, idx):
    """Plants ``idx`` of a population as a batch of probes."""
    return pf.PopulationState(
        state.sizes[idx], state.positions[idx], state.caps[idx], state.rates[idx]
    )


def _random_state(p, n, rng):
    # Drawn plant by plant: position, cap, rate; then all sizes.
    traits = np.array([
        [*rng.normal(size=2), rng.uniform(0.55, 0.95), rng.uniform(0.2, 1.8)]
        for _ in range(n)
    ])
    return pf.PopulationState(
        sizes=rng.uniform(0.08, 0.45, n),
        positions=traits[:, :2],
        caps=traits[:, 2],
        rates=traits[:, 3],
    )


def _c_index(p, state):
    """Competition index of every plant of ``state``: row 0 of a run of length 0."""
    return pf.integrate(p, state, pf.SolverConfig(t_end=0.0)).c_indices[0]


def test_competition_index_matches_double_loop(p, rng):
    state = _random_state(p, 5, rng)
    got = _c_index(p, state)
    pos = state.positions
    for i in range(5):
        acc = 0.0
        for j in range(5):
            if j == i:
                continue
            d = float(np.linalg.norm(pos[i] - pos[j]))
            acc += competition_potential(
                p, state.sizes[i], state.sizes[j], d
            )
        assert got[i] == pytest.approx(acc / 4.0, abs=1e-14)


def _fsum_row_sums(r, kernel, sigma_r, r_sources):
    """Brute-force row sums of r'_j k_ij (1 + tanh((r'_j - r_i)/sigma_r))."""
    src = r_sources.tolist()
    return np.array([
        math.fsum(
            r_j * k_ij * one_plus_tanh((r_j - r_i) / sigma_r)
            for r_j, k_ij in zip(src, k_row)
        )
        for r_i, k_row in zip(r.tolist(), kernel.tolist())
    ])


def _workspace(x, sigma_r):
    """The growth workspace of plants at x (N, 2) with sigma_x = 0.5.  Its
    row sums read only the positions, sigma_x and sigma_r, so the other
    columns are fillers and R_M is any that sigma_r admits."""
    ones = np.ones(x.shape[0])
    q = pf.ModelParams(s_m=0.05, R_M=min(3.0, 300.0 * sigma_r), sigma_x=0.5, sigma_r=sigma_r)
    return population._GrowthWorkspace(q, pf.PopulationState(0.1 * ones, x, ones, ones))


def _full_kernel(x, sigma_x, sources=None):
    """The whole (T, S) kernel matrix, as an oracle; sources default to x."""
    src = x if sources is None else sources
    return _kernel_block(x, src, sigma_x, np.empty((x.shape[0], src.shape[0])))


def _broadcast_row_sums(r, kernel, sigma_r, r_sources=None):
    """The row sums over a whole kernel matrix with e_i + e'_j formed by a
    broadcast ``np.add``, block by block and in the same order as
    ``_GrowthWorkspace.row_sums``: its results must match bit for bit, as
    must the rows of a ``_cross_kernel`` block that takes the exact
    kernel."""
    sym = r_sources is None
    src = r if sym else r_sources
    lo = min(r.min(initial=np.inf), src.min())
    hi = max(r.max(initial=-np.inf), src.max())
    scale = 2.0 / sigma_r
    mid = 0.5 * (float(lo) + float(hi))
    e = np.exp((r - mid) * scale)
    e_src = e if sym else np.exp((src - mid) * scale)
    v = 2.0 * e_src * src
    n_t = kernel.shape[0]
    out = np.zeros(n_t)
    for i0 in range(0, n_t, _BLOCK):
        i1 = min(i0 + _BLOCK, n_t)
        c0 = i0 if sym else 0
        w = np.add(e[i0:i1, None], e_src[c0:])
        np.divide(kernel[i0:i1, c0:], w, out=w)
        out[i0:i1] += w @ v[c0:]
        if sym and i1 < n_t:
            out[i1:] += v[i0:i1] @ w[:, i1 - i0 :]
    return out


def _cross_bound(x, x_src, sigma_x):
    """Relative bound on rank-8 cross sums against exact ones: 4 eps
    (1 + 4 m^2), m the largest |x - c|/sigma_x about the centre c of the
    bounding box of targets and sources, plus 4 eps for the oracle's own
    rounding.  The measured worst is about 1.3 eps (1 + 4 m^2)."""
    pts = np.concatenate([x, x_src])
    c = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
    m2 = np.max(np.sum(((pts - c) / sigma_x) ** 2, axis=1))
    return 4.0 * np.finfo(float).eps * (2.0 + 4.0 * m2)


# The admissible range of sigma_r for R_M = 3, from R_M/600 (the smallest
# ModelParams accepts) to well above the default 1.32.
_SIGMA_R_RANGE = [3.0 / 600, 0.02, 0.1, 0.3, 1.32, 10.0]


@pytest.mark.parametrize("sigma_r", _SIGMA_R_RANGE)
def test_pair_row_sums_match_double_loop(sigma_r, rng):
    # Small sigma_r saturates tanh((r_j - r_i)/sigma_r) and drives the
    # kernel's exp(2 (r - c)/sigma_r) to about e^+-300; the row sums must
    # stay exact there too.  The sizes cover one block, one block minus
    # and plus a row, and six 128-row blocks with a ragged last one, so
    # every path of the half-matrix (antisymmetric) evaluation runs.
    for n in (2, _BLOCK - 1, _BLOCK + 1, 700):
        r = rng.uniform(0.01, 2.99, n)
        x = rng.normal(size=(n, 2))
        ws = _workspace(x, sigma_r)
        got = ws.row_sums(r).copy()
        want = _fsum_row_sums(r, _full_kernel(x, 0.5), sigma_r, r)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert np.array_equal(ws.row_sums(r), got)


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 2 * _BLOCK + 9),
    sigma_r=st.floats(3.0 / 600, 10.0),
    spread=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_row_sums_match_double_loop_over_sizes_and_spreads(n, sigma_r, spread, seed):
    # Any size up to a ragged third block, so every remainder path of the
    # per-block BLAS matrix-vector products runs, any admissible sigma_r,
    # and log-sizes spread up to the edge of the exp window.  Repeat calls
    # give the same bits.
    rng = np.random.default_rng(seed)
    half = 0.5 * spread * _EXP_WINDOW * sigma_r * (1.0 - 1e-12)
    r = 0.01 + half + rng.uniform(-half, half, n)
    x = rng.normal(size=(n, 2))
    ws = _workspace(x, sigma_r)
    got = ws.row_sums(r).copy()
    want = _fsum_row_sums(r, _full_kernel(x, 0.5), sigma_r, r)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert np.array_equal(ws.row_sums(r), got)


@pytest.mark.parametrize("sigma_r", _SIGMA_R_RANGE)
def test_pair_row_sums_cross_case_match_double_loop(sigma_r, rng):
    # Targets against a different set of sources (T != S; T within one
    # block, or spanning a ragged second block), as the probes and the
    # training targets use.  The cross sums form their denominators as a
    # rank-8 product; at sigma_x = 0.5 and normal positions (max |u| about
    # 9) that costs far less than the fsum tolerance.
    s_n = 90
    for t_n in (40, _BLOCK + 22):
        r = rng.uniform(0.01, 2.99, t_n)
        r_src = rng.uniform(0.01, 2.99, s_n)
        x, x_src = rng.normal(size=(t_n, 2)), rng.normal(size=(s_n, 2))
        got = _cross_kernel(x, x_src, 0.5)(r, r_src, sigma_r)
        kernel = _full_kernel(x, 0.5, x_src)
        want = _fsum_row_sums(r, kernel, sigma_r, r_src)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        want = _broadcast_row_sums(r, kernel, sigma_r, r_src)
        assert got == pytest.approx(want, rel=_cross_bound(x, x_src, 0.5), abs=0.0)
        assert np.array_equal(_cross_kernel(x, x_src, 0.5)(r, r_src, sigma_r), got)


def test_pair_row_sums_raise_outside_exp_window(rng):
    # A log-size spread over 700 sigma_r would overflow exp; the kernel
    # names the problem instead of returning inf or NaN.
    r = np.array([0.0, 1.5, 3.0])
    x_pop = rng.normal(size=(3, 2))
    with pytest.raises(pf.KernelRangeError, match=r"spread 3 exceeds 700 \* sigma_r \(sigma_r=0\.004\)"):
        _workspace(x_pop, 0.004).row_sums(r)
    # The cross case spans targets and sources together; either side alone
    # would fit the window.
    x, x_src = rng.normal(size=(2, 2)), rng.normal(size=(1, 2))
    with pytest.raises(pf.KernelRangeError):
        _cross_kernel(x, x_src, 0.5)(r[:2], r[2:], 0.004)
    # At the edge of the window the same data gives finite sums.
    assert np.all(np.isfinite(_workspace(x_pop, 3.0 / 700).row_sums(r)))
    assert np.all(np.isfinite(_cross_kernel(x, x_src, 0.5)(r[:2], r[2:], 3.0 / 700)))
    # mc_potential cannot reach the window: it refuses sizes outside
    # (s_m, s_m e^{R_M}), whose log-sizes spread by less than R_M <= 600 sigma_r.
    # Here r = 0 is s_m itself and r = 3 lies above R_M = 2.4.
    q = pf.ModelParams(s_m=0.05, R_M=2.4, sigma_x=0.5, sigma_r=0.004)
    s, x = q.s_m * np.exp(r), rng.normal(size=(3, 2))
    with pytest.raises(ValueError, match=r"inadmissible probe 0: size outside"):
        pf.mc_potential(q, s[:2], x[:2], s[2:], x[2:])
    with pytest.raises(ValueError, match=r"inadmissible cloud atom 0: size outside"):
        pf.mc_potential(q, s[1:2], x[1:2], s[2:], x[2:])


def _kernel_by_definition(x, y, sigma_x):
    """1 / (1 + |x_i - y_j|^2 / sigma_x^2) from subtracted and squared coordinates."""
    return np.array([
        [
            1.0 / (1.0 + ((a0 - b0) ** 2 + (a1 - b1) ** 2) / sigma_x**2)
            for b0, b1 in y.tolist()
        ]
        for a0, a1 in x.tolist()
    ])


def test_spatial_kernel_matches_definition(rng):
    # Exact: the kernel is built from the same subtract/square/divide ops.
    # Rows 5 and 6 coincide with sources 1 and 2 (kernel exactly 1).
    scales = np.array([1e-6, 1e-3, 1.0, 10.0, 1e3, 1.0, 1.0])
    x = rng.normal(size=(7, 2)) * scales[:, None]
    y = rng.normal(size=(4, 2))
    x[5:7] = y[1:3]
    center = np.array([[0.3, -0.2]])
    for sigma_x in (1e-6, 0.7, 1e6):
        got = _full_kernel(x, sigma_x, y)
        assert got.shape == (7, 4)
        assert np.array_equal(got, _kernel_by_definition(x, y, sigma_x))
        assert got[5, 1] == got[6, 2] == 1.0
        sym = _full_kernel(x, sigma_x)
        assert np.array_equal(sym, _kernel_by_definition(x, x, sigma_x))
        assert np.array_equal(sym, sym.T)
        assert np.array_equal(np.diag(sym), np.ones(7))
        # The one-source call that feature_map makes for its spatial damping.
        one = _full_kernel(x, sigma_x, center)
        assert np.array_equal(one, _kernel_by_definition(x, center, sigma_x))
        # Row blocks hold the same values as the whole matrix.
        (half,) = _kernel_blocks(x, sigma_x)
        assert np.array_equal(half, sym)


def _cdist_kernel(x, y, sigma_x):
    """The kernel from SciPy's squared distances, divided, shifted and
    inverted in ``_kernel_block``'s order."""
    return np.reciprocal(1.0 + cdist(x, y, "sqeuclidean") / sigma_x**2)


def test_squared_distances_equal_scipy_cdist(rng):
    # The package forms dx^2 + dy^2 with NumPy and does not import
    # scipy.spatial; the bits must equal cdist's "sqeuclidean" for targets
    # and sources of different counts and at any scale.
    for scale in (1e-6, 1.0, 1e6):
        for t_n, s_n in ((1, 1), (7, 13), (_BLOCK, 300), (301, 40)):
            x = rng.normal(size=(t_n, 2)) * scale
            y = rng.normal(size=(s_n, 2)) * scale + rng.normal(size=2) * scale
            want = cdist(x, y, "sqeuclidean")
            assert np.array_equal(_sq_distances(x, y), want)
            out = np.empty((t_n, s_n))
            assert _sq_distances(x, y, out) is out
            assert np.array_equal(out, want)
    x, y = rng.normal(size=(_BLOCK + 5, 2)), rng.normal(size=(90, 2))
    for sigma_x in (1e-6, 0.5, 1e6):
        assert np.array_equal(_full_kernel(x, sigma_x, y), _cdist_kernel(x, y, sigma_x))
        for i0, k in zip(range(0, len(x), _BLOCK), _kernel_blocks(x, sigma_x)):
            assert np.array_equal(k, _cdist_kernel(x[i0 : i0 + _BLOCK], x[i0:], sigma_x))
    # Past _RANK8_REACH the cross sums take the exact kernel: bit for bit
    # the sums over cdist's kernel.
    sigma_x, sigma_r = 0.5, 1.32
    radius = 2.0 * _RANK8_REACH * sigma_x
    x_src, x = _cloud(rng, 90, 0.0, radius), _cloud(rng, 300, 0.0, radius)
    x_src[:2] = -radius / math.sqrt(2.0), radius / math.sqrt(2.0)
    r, r_src = rng.uniform(0.01, 2.99, 300), rng.uniform(0.01, 2.99, 90)
    got = _cross_kernel(x, x_src, sigma_x)(r, r_src, sigma_r)
    want = _broadcast_row_sums(r, _cdist_kernel(x, x_src, sigma_x), sigma_r, r_src)
    assert np.array_equal(got, want)


def test_population_kernel_blocks_are_contiguous_and_half_stored(rng):
    # A population stores about half its kernel: block [i0, i1) holds the
    # columns j >= i0 only, as one C-contiguous array, so a full N x N
    # kernel cannot come back unnoticed.
    for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 700):
        x = rng.normal(size=(n, 2))
        full = _full_kernel(x, 0.5)
        blocks = list(_kernel_blocks(x, 0.5))
        assert sum(k.size for k in blocks) <= n * (n + _BLOCK) / 2
        for i0, k in zip(range(0, n, _BLOCK), blocks, strict=True):
            assert k.flags.c_contiguous
            assert np.array_equal(k, full[i0 : i0 + _BLOCK, i0:])


@pytest.mark.parametrize("sigma_r", _SIGMA_R_RANGE)
def test_mc_potential_streams_the_stored_kernel(sigma_r, rng):
    # mc_potential builds no kernel block: its cloud averages must match
    # the double loop and the row sums over the stored whole kernel, for
    # no probe, one, a block and a row either side of it, and a ragged
    # third block.
    q = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=sigma_r)
    n_cloud = 150
    cloud_s = q.s_m * np.exp(rng.uniform(0.01, 2.99, n_cloud))
    cloud_x = rng.normal(size=(n_cloud, 2))
    r_cloud = np.log(cloud_s / q.s_m)
    for k in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300):
        s = q.s_m * np.exp(rng.uniform(0.01, 2.99, k))
        x = rng.normal(size=(k, 2))
        got = pf.mc_potential(q, s, x, cloud_s, cloud_x)
        r = np.log(s / q.s_m)
        assert got.shape == (k,)
        kernel = _full_kernel(x, q.sigma_x, cloud_x)
        norm = 2.0 * q.R_M * n_cloud
        want = _broadcast_row_sums(r, kernel, sigma_r, r_cloud) / norm
        bound = _cross_bound(x, cloud_x, q.sigma_x)
        assert got == pytest.approx(want, rel=bound, abs=0.0)
        want = _fsum_row_sums(r[:40], kernel[:40], sigma_r, r_cloud) / norm
        assert got[:40] == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sigma_r", _SIGMA_R_RANGE)
def test_pair_row_sums_equal_broadcast_add_oracle(sigma_r, rng):
    # e_i + e'_j as the exact rank-2 product gives the bits of a broadcast
    # np.add: the row sums over stored blocks equal the oracle's exactly,
    # for a population of one block, a block and a row either side of it
    # and a ragged sixth block.  Probes against other sources take the
    # rank-8 cross sums, which match the oracle within _cross_bound.
    for n in (2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 700):
        r = rng.uniform(0.01, 2.99, n)
        x = rng.normal(size=(n, 2))
        got = _workspace(x, sigma_r).row_sums(r)
        want = _broadcast_row_sums(r, _full_kernel(x, 0.5), sigma_r)
        assert np.array_equal(got, want)
    for t_n in (40, _BLOCK + 22):
        r, r_src = rng.uniform(0.01, 2.99, t_n), rng.uniform(0.01, 2.99, 90)
        x, x_src = rng.normal(size=(t_n, 2)), rng.normal(size=(90, 2))
        got = _cross_kernel(x, x_src, 0.5)(r, r_src, sigma_r)
        want = _broadcast_row_sums(r, _full_kernel(x, 0.5, x_src), sigma_r, r_src)
        assert got == pytest.approx(want, rel=_cross_bound(x, x_src, 0.5), abs=0.0)
    # A spread at the edge of the window, where e reaches about 1e+-304.
    n = _BLOCK + 1
    half = 0.5 * _EXP_WINDOW * sigma_r * (1.0 - 1e-12)
    r = 1.0 + rng.uniform(-half, half, n)
    r[:2] = 1.0 - half, 1.0 + half
    x = rng.normal(size=(n, 2))
    got = _workspace(x, sigma_r).row_sums(r)
    assert np.all(np.isfinite(got))
    want = _broadcast_row_sums(r, _full_kernel(x, 0.5), sigma_r)
    assert np.array_equal(got, want)
    t, s = slice(None, 40), slice(40, None)
    got = _cross_kernel(x[t], x[s], 0.5)(r[t], r[s], sigma_r)
    assert np.all(np.isfinite(got))
    want = _broadcast_row_sums(r[t], _full_kernel(x[t], 0.5, x[s]), sigma_r, r[s])
    # Rows below 1e-300 are sums of underflowed terms, with no digits to keep.
    assert got == pytest.approx(want, rel=_cross_bound(x[t], x[s], 0.5), abs=1e-300)


def _cloud(rng, n, centre, radius):
    """n points uniform in the square of half-diagonal ``radius`` about ``centre``."""
    return centre + rng.uniform(-1.0, 1.0, (n, 2)) * (radius / math.sqrt(2.0))


@pytest.mark.parametrize("sigma_x", [1e-6, 1e-4, 1e-2, 0.5, 1e2])
@pytest.mark.parametrize("sigma_r", _SIGMA_R_RANGE)
def test_cross_row_sums_match_exact_kernel_across_scales(sigma_r, sigma_x, rng):
    # Positions reach half, just under and twice _RANK8_REACH sigma_x from
    # the centre of their bounding box, far from the origin so the centring
    # matters.  Within the reach the rank-8 sums must meet _cross_bound;
    # past it every block takes the exact kernel and equals the oracle bit
    # for bit.  The first five targets duplicate sources (d = 0), and the
    # target counts cover no block, one row, a block and a row either side
    # of it, and a ragged third block.  The just-under reach also puts the
    # log-sizes at the edge of the exp window, where the rank-8 terms are
    # largest, up to (1 + 4 U^2) 2 e^700.
    centre = np.array([7.3, -2.1])
    for reach, spread in (
        (0.5, 2.0), (1.0 - 1e-9, _EXP_WINDOW * sigma_r * (1.0 - 1e-12)), (2.0, 2.0)
    ):
        radius = reach * _RANK8_REACH * sigma_x
        x_src = _cloud(rng, 90, centre, radius)
        x_src[:2] = centre - radius / math.sqrt(2.0), centre + radius / math.sqrt(2.0)
        base = 0.01 + 0.5 * spread
        r_src = base + rng.uniform(-0.5, 0.5, 90) * spread
        r_src[:2] = base - 0.5 * spread, base + 0.5 * spread
        for t_n in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300):
            x = _cloud(rng, t_n, centre, radius)
            r = base + rng.uniform(-0.5, 0.5, t_n) * spread
            x[:5], r[:5] = x_src[:t_n][:5], r_src[:t_n][:5]
            got = _cross_kernel(x, x_src, sigma_x)(r, r_src, sigma_r)
            kernel = _full_kernel(x, sigma_x, x_src)
            want = _broadcast_row_sums(r, kernel, sigma_r, r_src)
            if reach > 1.0:
                assert np.array_equal(got, want)
                continue
            bound = _cross_bound(x, x_src, sigma_x)
            assert bound < 4.0 * np.finfo(float).eps * (2.0 + 4.0 * _RANK8_REACH**2)
            assert got == pytest.approx(want, rel=bound, abs=1e-300)
            # The rank-8 branch ran: its last bits differ from the oracle's.
            assert t_n < 300 or not np.array_equal(got, want)
            want = _fsum_row_sums(r[:5], kernel[:5], sigma_r, r_src)
            assert got[:5] == pytest.approx(want, rel=bound + 1e-14, abs=1e-300)


def test_cross_row_sums_take_the_exact_kernel_per_block(rng):
    # Two targets of the third block lie 1.5 reaches out on either side, so
    # the bounding box keeps its centre: blocks 0 and 1 stay rank-8 and
    # block 2 alone takes the exact kernel, bit for bit.
    sigma_x, sigma_r = 0.5, 1.32
    radius = 0.5 * _RANK8_REACH * sigma_x
    x_src, x = _cloud(rng, 90, 0.0, radius), _cloud(rng, 300, 0.0, radius)
    x[[2 * _BLOCK, 2 * _BLOCK + 1], 0] = -3.0 * radius, 3.0 * radius
    r, r_src = rng.uniform(0.01, 2.99, 300), rng.uniform(0.01, 2.99, 90)
    got = _cross_kernel(x, x_src, sigma_x)(r, r_src, sigma_r)
    want = _broadcast_row_sums(r, _full_kernel(x, sigma_x, x_src), sigma_r, r_src)
    assert np.array_equal(got[2 * _BLOCK :], want[2 * _BLOCK :])
    assert not np.array_equal(got[: 2 * _BLOCK], want[: 2 * _BLOCK])
    assert got == pytest.approx(want, rel=_cross_bound(x, x_src, sigma_x), abs=0.0)


@settings(deadline=None, max_examples=80)
@given(
    sigma_x=st.floats(1e-6, 1e2),
    reach=st.floats(0.0, 1.0),
    sigma_r=st.floats(3.0 / 600, 10.0),
    spread=st.floats(0.0, 1.0),
    t_n=st.integers(1, _BLOCK + 12),
    s_n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_cross_row_sums_within_cancellation_bound(
    sigma_x, reach, sigma_r, spread, t_n, s_n, seed
):
    # Any positions within the reach, any scales and log-sizes inside the
    # exp window: the rank-8 sums meet eps (1 + 4 max|u|^2) up to a constant.
    rng = np.random.default_rng(seed)
    centre = rng.normal(size=2) * 10.0 * sigma_x
    radius = reach * _RANK8_REACH * sigma_x
    x, x_src = _cloud(rng, t_n, centre, radius), _cloud(rng, s_n, centre, radius)
    half = 0.5 * spread * _EXP_WINDOW * sigma_r * (1.0 - 1e-12)
    r = 0.01 + half + rng.uniform(-half, half, t_n)
    r_src = 0.01 + half + rng.uniform(-half, half, s_n)
    got = _cross_kernel(x, x_src, sigma_x)(r, r_src, sigma_r)
    want = _broadcast_row_sums(r, _full_kernel(x, sigma_x, x_src), sigma_r, r_src)
    assert got == pytest.approx(want, rel=_cross_bound(x, x_src, sigma_x), abs=1e-300)


@settings(deadline=None, max_examples=60)
@given(
    u=st.lists(st.floats(-700.0, 700.0), min_size=1, max_size=40),
    u_src=st.lists(st.floats(-700.0, 700.0), min_size=41, max_size=80),
    flip=st.booleans(),
)
def test_rank2_product_equals_add_bit_for_bit(u, u_src, flip):
    # [e_i, 1] [1; e'_j] makes two exact products (a multiply by 1) and one
    # rounded sum, so it equals e_i + e'_j exactly for any exponent the
    # window admits, laid out as _GrowthWorkspace lays it out (T != S).
    if flip:
        u, u_src = u_src, u
    q = np.empty((3, len(u)))
    q.fill(1.0)
    e = np.exp(np.array(u), out=q[1])
    right = np.empty((2, len(u_src)))
    right.fill(1.0)
    e_src = np.exp(np.array(u_src), out=right[1])
    got = np.matmul(q[1:].T, right)
    assert np.array_equal(got, np.add(e[:, None], e_src))


def _direct_row_sums(r, kernel, sigma_r):
    """The full-matrix kernel formula, without blocks or antisymmetry."""
    tanh = np.tanh((r[None, :] - r[:, None]) / sigma_r)
    return (r[None, :] * kernel * (1.0 + tanh)).sum(axis=1)


@pytest.mark.parametrize("n", [None, 300])
def test_trajectory_matches_direct_kernel(n, exp_config, default_run, monkeypatch):
    # The default run (50 plants, one block) and a 300-plant run (three
    # blocks, so the transposed half is used) must agree with the direct
    # kernel to 1e-12 relative.  Step sizes the error controller sets can
    # differ in the 11th digit; the snapshot values may not.
    if n is None:
        state0, traj, _ = default_run
        cfg = exp_config.solver
    else:
        state0 = pf.samples_to_state(pf.sample_mu0(exp_config.mu0, n))
        cfg = pf.SolverConfig(t_end=4.0)
        traj = pf.integrate(exp_config.params, state0, cfg)
    # The oracle ignores the workspace's blocks and rebuilds the whole
    # kernel from the positions.
    kernel = _full_kernel(state0.positions, exp_config.params.sigma_x)
    monkeypatch.setattr(
        population._GrowthWorkspace, "row_sums",
        lambda ws, r: _direct_row_sums(r, kernel, ws.params.sigma_r),
    )
    direct = pf.integrate(exp_config.params, state0, cfg)
    for got, want in zip(traj.sizes, direct.sizes):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert traj.c_indices == pytest.approx(
        direct.c_indices, rel=1e-12, abs=1e-15
    )


@pytest.mark.parametrize("sigma_r", [3.0 / 600, 1.32, 10.0])
def test_workspace_competition_and_growth_equal_the_formulas(sigma_r, rng, monkeypatch):
    # The workspace's competition index and r' equal the formulas written
    # out here bit for bit, over one block, a block and a row either side
    # of it and three blocks; the row sums come from the broadcast oracle,
    # which equals the workspace's.  Calls reuse the workspace's buffers,
    # so what a caller kept (the solver's node slopes, the snapshot C-index
    # rows) must not change under a later call.
    q = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=sigma_r)
    made = []

    class Recorded(population._GrowthWorkspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(population, "_GrowthWorkspace", Recorded)
    for n in (2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300):
        state = _random_state(q, n, rng)
        r = np.log(state.sizes / q.s_m)
        caps_log = np.log(state.caps / q.s_m)
        row = _broadcast_row_sums(r, _full_kernel(state.positions, q.sigma_x), sigma_r)
        c = np.maximum((row - r) / (2.0 * q.R_M * (n - 1)), 0.0)
        growth = state.rates * (caps_log * (1.0 - c) - r)
        traj = pf.integrate(q, state, pf.SolverConfig(t_end=1.0))
        (ws,) = made
        made.clear()
        fs, c_rows = traj.dense.fs.copy(), traj.c_indices.copy()
        assert ws.competition(r).tobytes() == c.tobytes()
        assert ws.rhs(0.0, r).tobytes() == growth.tobytes()
        ws.rhs(0.0, r[::-1].copy())
        assert traj.dense.fs.tobytes() == fs.tobytes()
        assert traj.c_indices.tobytes() == c_rows.tobytes()


@settings(deadline=None, max_examples=60)
@given(
    sigma_r=st.floats(0.01, 10.0),
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_competition_index_matches_potential_for_any_sigma_r(sigma_r, n, seed):
    p = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=0.5, sigma_r=sigma_r)
    state = _random_state(p, n, np.random.default_rng(seed))
    got = _c_index(p, state)
    pos = state.positions
    for i in range(n):
        want = sum(
            competition_potential(
                p, state.sizes[i], state.sizes[j],
                float(np.linalg.norm(pos[i] - pos[j])),
            )
            for j in range(n)
            if j != i
        ) / (n - 1)
        assert got[i] == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_tiny_sigma_x_decouples_every_plant(rng):
    # At sigma_x = 1e-6 the kernel is the identity up to about 1e-8, so
    # every plant grows as if it were alone.
    q = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=1e-6, sigma_r=1.32)
    state = _random_state(q, 6, rng)
    traj = pf.integrate(q, state, pf.SolverConfig(t_end=6.0))
    ref = gompertz_closed_form(
        q, state.sizes, state.caps, state.rates, traj.times[:, None]
    )
    assert traj.sizes == pytest.approx(ref, rel=1e-5)


def test_huge_sigma_x_makes_competition_distance_free(rng):
    # At sigma_x = 1e6 the kernel is 1 up to about 1e-12.
    q = pf.ModelParams(s_m=0.05, R_M=3.0, sigma_x=1e6, sigma_r=1.32)
    state = _random_state(q, 6, rng)
    got = _c_index(q, state)
    r = np.log(state.sizes / q.s_m).tolist()
    for i in range(6):
        want = math.fsum(
            r[j] / (2.0 * q.R_M) * one_plus_tanh((r[j] - r[i]) / q.sigma_r)
            for j in range(6)
            if j != i
        ) / 5
        assert got[i] == pytest.approx(want, rel=1e-10, abs=0.0)


def test_integrate_rejects_inadmissible(p):
    state = pf.PopulationState(
        sizes=np.array([0.1, 0.1]),
        positions=np.array([[0.0, 0.0], [1.0, 1.0]]),
        caps=np.array([0.75, 2.0]),  # plant 1's cap is too large
        rates=np.array([1.0, 1.0]),
    )
    with pytest.raises(ValueError, match=r"inadmissible plant 1: asymptotic"):
        pf.integrate(p, state, pf.SolverConfig(t_end=1.0))


def test_distant_pair_grows_as_if_isolated(p):
    state = pf.PopulationState(
        sizes=np.array([0.1, 0.12]),
        positions=np.array([[0.0, 0.0], [5.0e5, 0.0]]),
        caps=np.array([0.75, 0.9]),
        rates=np.array([1.05, 0.4]),
    )
    cfg = pf.SolverConfig(t_end=6.0)
    traj = pf.integrate(p, state, cfg)
    for k, t in enumerate(traj.times):
        for i in range(2):
            ref = gompertz_closed_form(
                p, state.sizes[i], state.caps[i], state.rates[i], float(t)
            )
            assert traj.sizes[k][i] == pytest.approx(ref, rel=1e-5)


def test_envelopes_bracket_every_plant(p, rng):
    state = _random_state(p, 8, rng)
    traj = pf.integrate(p, state, pf.SolverConfig(t_end=8.0))
    for k, t in enumerate(traj.times):
        for i in range(8):
            s0, S = state.sizes[i], state.caps[i]
            decay = math.exp(-state.rates[i] * float(t))
            lower = p.s_m * (s0 / p.s_m) ** decay
            upper = S * (s0 / S) ** decay
            s = traj.sizes[k][i]
            assert lower - 1e-9 <= s <= upper + 1e-9


def test_added_competitor_slows_growth(p):
    # Plants 0 and 1, then the same pair with a big plant added at the origin.
    trio_state = pf.PopulationState(
        sizes=np.full(3, 0.1),
        positions=np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]]),
        caps=np.array([0.75, 0.8, 1.0]),
        rates=np.array([1.0, 0.9, 1.5]),
    )
    pair_state = pf.PopulationState(
        sizes=trio_state.sizes[:2], positions=trio_state.positions[:2],
        caps=trio_state.caps[:2], rates=trio_state.rates[:2],
    )
    cfg = pf.SolverConfig(t_end=6.0)
    pair = pf.integrate(p, pair_state, cfg)
    trio = pf.integrate(p, trio_state, cfg)
    s_pair = pair.sizes[:, 0]
    s_trio = trio.sizes[:, 0]
    assert np.all(s_trio[1:] < s_pair[1:])


def test_growth_nearly_stalls_by_horizon(default_run, exp_config):
    _, traj, _ = default_run
    p = exp_config.params
    final = replace(traj.initial, sizes=traj.sizes[-1])
    c = traj.c_indices[-1]
    slopes = final.rates * final.sizes * (
        np.log(final.caps / p.s_m) * (1.0 - c) - np.log(final.sizes / p.s_m)
    )
    scale = np.max(final.rates * final.caps)
    assert np.max(np.abs(slopes)) < 0.05 * scale


def test_probe_reproduces_population_member(p, rng):
    state = _random_state(p, 8, rng)
    cfg = pf.SolverConfig(t_end=5.0)
    bg = pf.integrate(p, state, cfg)
    members = [0, 3, 7]
    probes = pf.empirical_flow(bg, _members(state, members), cfg)
    assert probes.shape == (len(cfg.snapshot_times), 3)
    member = bg.sizes[:, members]
    assert np.max(np.abs(probes - member) / member) < 1e-7


def test_probe_batch_matches_one_probe_batches(p, rng):
    # Probes do not feel one another, so K probes grown as one batch agree
    # with the same probes grown one by one up to the solver tolerance
    # (the batch shares one step sequence, so not bit for bit).
    state = _random_state(p, 8, rng)
    cfg = pf.SolverConfig(t_end=5.0)
    bg = pf.integrate(p, state, cfg)
    s0 = rng.uniform(0.08, 0.45, 6)
    x = rng.normal(size=(6, 2))
    S = rng.uniform(0.55, 0.95, 6)
    gamma = rng.uniform(0.2, 1.8, 6)
    probes = pf.PopulationState(s0, x, S, gamma)
    batch = pf.empirical_flow(bg, probes, cfg)
    for k in range(6):
        one = pf.empirical_flow(bg, _members(probes, [k]), cfg)
        assert one.shape == (len(cfg.snapshot_times), 1)
        assert np.max(np.abs(batch[:, k] - one[:, 0]) / one[:, 0]) < 1e-7


def test_probe_with_zero_rate_stays_put(p, rng):
    state = _random_state(p, 5, rng)
    cfg = pf.SolverConfig(t_end=4.0)
    bg = pf.integrate(p, state, cfg)
    probe = pf.empirical_flow(
        bg, pf.PopulationState([0.2], np.zeros((1, 2)), [0.75], [0.0]), cfg
    )
    assert np.max(np.abs(probe - 0.2)) < 1e-12


def test_probe_respects_coarse_size_bounds(p, rng):
    # A probe can leave (s_m, S) — its competition load is a raw average
    # that may be negative or exceed 1 — but stays inside the wide
    # population-derived band.
    state = _random_state(p, 6, rng)
    cfg = pf.SolverConfig(t_end=8.0)
    bg = pf.integrate(p, state, cfg)
    n = 6
    lo = p.s_m * math.exp(-2.0 * p.R_M / (2 * n - 3))
    hi = p.s_m * math.exp((6 * n - 5) * p.R_M / (2 * n - 3))
    # Drawn probe by probe: initial size, position, cap, rate.
    draws = np.array([
        [rng.uniform(0.08, 0.45), *rng.normal(size=2),
         rng.uniform(0.55, 0.95), rng.uniform(0.2, 1.8)]
        for _ in range(10)
    ])
    probes = pf.empirical_flow(
        bg, pf.PopulationState(draws[:, 0], draws[:, 1:3], draws[:, 3], draws[:, 4]), cfg
    )
    assert np.all(probes > lo)
    assert np.all(probes < hi)


def test_probe_horizon_cannot_exceed_background(p, rng):
    state = _random_state(p, 4, rng)
    bg = pf.integrate(p, state, pf.SolverConfig(t_end=2.0))
    with pytest.raises(ValueError, match="horizon"):
        pf.empirical_flow(bg, _members(state, [0]), pf.SolverConfig(t_end=3.0))


def test_probe_rejects_bad_initial_data(p, rng):
    # The first inadmissible probe of a batch is named by its index; a
    # negative or NaN rate is refused by the record itself.
    state = _random_state(p, 4, rng)
    bg = pf.integrate(p, state, pf.SolverConfig(t_end=2.0))
    cfg = pf.SolverConfig(t_end=1.0)
    members = _members(state, [0, 1, 2])
    cases = [
        ("sizes", 1, 0.04, "probe 1: initial size"),
        ("sizes", 2, p.s_m, "probe 2: initial size"),
        ("caps", 0, 1.5, "probe 0: asymptotic size"),
        ("caps", 2, p.s_m, "probe 2: asymptotic size"),
        ("caps", 1, p.max_size, "probe 1: asymptotic size"),
        ("rates", 1, -0.5, "plant 1: growth rate not nonnegative"),
        ("rates", 0, np.nan, "plant 0: growth rate not nonnegative"),
    ]
    for column, k, value, message in cases:
        bad = getattr(members, column).copy()
        bad[k] = value
        with pytest.raises(ValueError, match=message):
            pf.empirical_flow(bg, replace(members, **{column: bad}), cfg)


def test_snapshot_grid_default_and_explicit(p, rng):
    state = _random_state(p, 4, rng)
    traj = pf.integrate(p, state, pf.SolverConfig(t_end=3.0))
    assert np.allclose(traj.times, np.arange(0.0, 3.5, 0.5))
    # A spacing that does not divide t_end appends the end point.
    explicit = pf.integrate(p, state, pf.SolverConfig(t_end=3.0, snapshot_dt=2.0))
    assert np.array_equal(explicit.times, [0.0, 2.0, 3.0])


def test_sizes_at_interpolates_between_snapshots(p, rng):
    state = _random_state(p, 4, rng)
    traj = pf.integrate(p, state, pf.SolverConfig(t_end=3.0))
    mid = traj.sizes_at(1.23)
    assert mid.shape == (4,)
    assert np.all(mid > p.s_m)
    assert np.allclose(traj.sizes_at(0.0), state.sizes, rtol=1e-14)


@pytest.mark.parametrize("n", [6, 40])
def test_integrate_agrees_with_dop853_oracle(p, rng, n):
    # An independent integrator on the reference definition: the
    # potential summed pair by pair from ``log_potential``, self term zeroed.
    state = _random_state(p, n, rng)
    traj = pf.integrate(p, state, pf.SolverConfig(t_end=10.0))
    caps_log = np.log(state.caps / p.s_m)
    gaps = state.positions[:, None, :] - state.positions[None, :, :]
    dist = np.sqrt((gaps**2).sum(axis=2))

    def rhs(t, r):
        pot = pf.log_potential(p, r[:, None], r[None, :], dist)
        np.fill_diagonal(pot, 0.0)
        c = pot.sum(axis=1) / (n - 1)
        return state.rates * (caps_log * (1.0 - c) - r)

    ref = solve_ivp(
        rhs, (0.0, 10.0), np.log(state.sizes / p.s_m), method="DOP853",
        t_eval=traj.times, rtol=1e-12, atol=1e-14,
    )
    assert ref.success
    want = p.s_m * np.exp(ref.y.T)
    assert np.max(np.abs(traj.sizes - want) / want) < 1e-6


def _seeded_run(n, **overrides):
    """integrate on the seed-3 draw of the default config with ``overrides``."""
    ec = pf.build_experiment_config(pf.resolve_config({"seed": 3, **overrides}))
    state = pf.samples_to_state(pf.sample_mu0(ec.mu0, n))
    return ec, state


@pytest.mark.parametrize(
    "sigma_r, bound", [(1.32, 3.6e-7), (0.1, 1.4e-6)], ids=["1.32", "0.1"]
)
def test_dense_output_matches_tight_reference_between_nodes(sigma_r, bound):
    # Largest log-size error on a 2001-point grid (snapshots included)
    # against a rel_tol = 1e-13 run.  The bounds are what cubic Hermite
    # output with steps capped at 0.05 reached; the continuous extension
    # measures 9.8e-9 and 3.3e-7.
    ec, state = _seeded_run(50, **{"model.sigma_r": sigma_r})
    ref_cfg = replace(ec.solver, rel_tol=1e-13)
    ref = pf.integrate(ec.params, state, ref_cfg)
    traj = pf.integrate(ec.params, state, ec.solver)
    grid = np.union1d(np.linspace(0.0, 10.0, 2001), traj.times)
    err = np.abs(traj.dense.eval_many(grid) - ref.dense.eval_many(grid)).max()
    assert err < bound


def test_error_control_sets_the_steps_by_default(default_run):
    # The controller takes 56 steps here; a step cap of 0.05 would force 201.
    _, traj, _ = default_run
    stats = traj.dense.stats
    assert len(traj.dense.ts) - 1 == stats.n_accepted < 80


def test_snapshots_between_nodes_stay_below_the_caps():
    # At sigma_x = 1e-6 a plant feels no neighbour and creeps up to its cap;
    # late in a long run its gap falls below what the error control
    # resolves.  The interpolant then crosses the cap between nodes (by
    # 1.7e-8 here); snapshots must still satisfy s < S.
    ec, state = _seeded_run(50, **{"model.sigma_x": 1e-6, "solver.t_end": 40.0})
    traj = pf.integrate(ec.params, state, ec.solver)
    caps_log = np.log(state.caps / ec.params.s_m)
    grid = np.linspace(0.0, 40.0, 4001)
    fine = traj.dense.eval_many(grid)
    assert (fine - caps_log).max() > 0.0  # the interpolant does cross
    assert np.all(traj.sizes < state.caps)
    assert np.all(traj.sizes > ec.params.s_m)
    assert traj.n_clamped > 0
    # sizes_at applies the snapshot rows' projection.
    assert all(np.all(traj.sizes_at(t) < state.caps) for t in grid)
    for t, row in zip(traj.times, traj.sizes):
        assert np.array_equal(traj.sizes_at(t), row)


@pytest.mark.xfail(
    strict=True, raises=pf.IntegrationDivergedError,
    reason="a plant at its cap rings past the accepted-state band",
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stiff_admissible_run_stays_below_the_caps(seed):
    # Every input is admissible and the ODE keeps s < S.  With sigma_x tiny
    # each cap is the stable fixed point of r' = gamma (log(S/s_m) - r), and
    # at rates up to 40 the controller grows h gamma to the edge of the
    # DOPRI5 stability region: an accepted state overshoots its cap by
    # 4e-8 to 1.2e-7 (accepted steps 72-76), past the 1e-9 band.
    ec, state = _seeded_run(50, **{
        "seed": seed, "model.sigma_x": 1e-6, "mu0.gamma_max": 40.0,
        "mu0.gamma_surface.offset": 20.0, "mu0.gamma_surface.peak": 30.0,
        "mu0.gamma_surface.trough": 10.0,
    })
    traj = pf.integrate(ec.params, state, ec.solver)
    assert np.all(traj.sizes < state.caps)


def _push_plant_0(monkeypatch, cap_log, gap, step=None, row=None):
    """Patch integrate so plant 0 sits ``gap`` above its log-cap at accepted
    step ``step`` (as the monitor sees it) or in snapshot row ``row``."""
    solve, grow = population.solve_ode, population._grow

    def pushed(y):
        y = y.copy()
        y[0] = cap_log + gap
        return y

    def solve_pushed(rhs, t0, t_end, y0, *, monitor, **kw):
        def push(t, y, k):
            return monitor(t, pushed(y) if k == step else y, k)

        return solve(rhs, t0, t_end, y0, monitor=push, **kw)

    def grow_pushed(*args):
        dense, r_mat = grow(*args)
        if row is not None:
            r_mat = r_mat.copy()
            r_mat[row] = pushed(r_mat[row])
        return dense, r_mat

    monkeypatch.setattr(population, "solve_ode", solve_pushed)
    monkeypatch.setattr(population, "_grow", grow_pushed)


@pytest.mark.parametrize("gap, diverges", [(5e-10, False), (5e-9, True)])
def test_accepted_step_breach_beyond_roundoff_aborts(p, rng, monkeypatch, gap, diverges):
    # An accepted state is a node, so only roundoff may cross the cap:
    # 5e-9 aborts the run although the interpolant may cross by ~2.5e-8.
    state = _random_state(p, 4, rng)
    _push_plant_0(monkeypatch, math.log(state.caps[0] / p.s_m), gap, step=3)
    if diverges:
        with pytest.raises(pf.IntegrationDivergedError) as info:
            pf.integrate(p, state, pf.SolverConfig(t_end=3.0))
        assert (info.value.step_index, info.value.plant_index) == (3, 0)
        assert info.value.breach == pytest.approx(gap, rel=1e-6)
    else:
        traj = pf.integrate(p, state, pf.SolverConfig(t_end=3.0))
        assert traj.n_clamped == 1
        assert np.all(traj.sizes < state.caps)


@pytest.mark.parametrize("share, diverges", [(0.5, False), (2.0, True)])
def test_snapshot_breach_beyond_error_tolerance_aborts(p, rng, monkeypatch, share, diverges):
    # A snapshot row between nodes may cross the cap by the error
    # control's tolerance there, abs_tol + rel_tol log(S/s_m), no more.
    state = _random_state(p, 4, rng)
    cfg = pf.SolverConfig(t_end=3.0)
    cap_log = math.log(state.caps[0] / p.s_m)
    tol = cfg.abs_tol + cfg.rel_tol * cap_log
    _push_plant_0(monkeypatch, cap_log, share * tol, row=3)
    if diverges:
        with pytest.raises(pf.IntegrationDivergedError) as info:
            pf.integrate(p, state, cfg)
        assert info.value.plant_index == 0
        assert info.value.breach == pytest.approx(share * tol, rel=1e-6)
    else:
        traj = pf.integrate(p, state, cfg)
        assert traj.n_clamped == 1
        assert traj.sizes[3, 0] < state.caps[0]
        assert traj.sizes[3, 0] == pytest.approx(state.caps[0], rel=1e-15)


def test_diagnostics_shapes_and_counts(p, rng):
    state = _random_state(p, 5, rng)
    traj = pf.integrate(p, state, pf.SolverConfig(t_end=2.0))
    n_snap = len(traj.times)
    assert traj.c_indices.shape == (n_snap, 5)
    assert traj.sizes.shape == (n_snap, 5)
    assert traj.dense.stats.n_accepted == len(traj.dense.ts) - 1
    assert traj.n_clamped >= 0


def test_snapshot_measure_copies_state(p, rng):
    state = _random_state(p, 5, rng)
    meas = pf.snapshot_measure(state)
    assert meas.n == 5
    meas.sizes[0] = 99.0
    assert state.sizes[0] != 99.0


def test_population_state_rejects_malformed_columns(p, rng):
    good = _random_state(p, 3, rng)
    cols = dict(
        sizes=good.sizes, positions=good.positions, caps=good.caps, rates=good.rates
    )
    cases = [
        (dict(cols, sizes=good.sizes[:2]), "must be"),
        (dict(cols, sizes=good.sizes[0]), "must be"),
        (dict(cols, positions=np.zeros((3, 3))), "must be"),
        (dict(cols, positions=np.zeros((3, 1))), "must be"),
        (dict(cols, caps=good.caps[:2]), "must be"),
        ({name: col[:0] for name, col in cols.items()}, "n >= 1"),
        (dict(cols, caps=np.array([0.7, 0.0, 0.8])), "plant 1: asymptotic size not"),
        (dict(cols, rates=np.array([1.0, -0.1, 1.0])), "plant 1: growth rate not"),
        (dict(cols, rates=np.array([1.0, 1.0, np.nan])), "plant 2: growth rate not"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            pf.PopulationState(**kwargs)
    frozen = pf.PopulationState(**dict(cols, rates=np.zeros(3)))
    assert frozen.n == 3
    # One plant is a record (a probe batch of one), but not a population.
    one_plant = pf.PopulationState(**{name: col[:1] for name, col in cols.items()})
    assert one_plant.n == 1
    with pytest.raises(ValueError, match="at least 2 individuals"):
        pf.integrate(p, one_plant, pf.SolverConfig(t_end=1.0))


def test_trajectory_csv_layout(p, rng, tmp_path):
    state = _random_state(p, 3, rng)
    traj = pf.integrate(p, state, pf.SolverConfig(t_end=1.0))
    out = tmp_path / "traj.csv"
    export_trajectory_csv(traj, out, comments=["config_sha256=x seed=1"])
    lines = out.read_text().splitlines()
    assert lines[0] == "# config_sha256=x seed=1"
    assert lines[1] == "t,plant_id,s,x1,x2,S,gamma,C_index"
    assert len(lines) == 2 + 3 * len(traj.times)
    first = lines[2].split(",")
    assert first[0] == "0.0" and first[1] == "0"
    assert float(first[2]) == pytest.approx(state.sizes[0], rel=1e-15)
    # Row (snapshot k, plant i) in shortest round-trip form.
    k, i = len(traj.times) - 1, 2
    want = [
        float(traj.times[k]), i, float(traj.sizes[k, i]),
        *state.positions[i].tolist(), float(state.caps[i]),
        float(state.rates[i]), float(traj.c_indices[k, i]),
    ]
    assert lines[2 + 3 * k + i] == ",".join(map(repr, want))


def test_trajectory_csv_matches_per_cell_formatting(p, rng, tmp_path):
    # The trait cells are formatted once per plant and reused; the file must
    # equal formatting every cell of every row with format_value.
    state = _random_state(p, 4, rng)
    traj = pf.integrate(p, state, pf.SolverConfig(t_end=1.5))
    out = tmp_path / "traj.csv"
    export_trajectory_csv(traj, out, comments=["c"])
    lines = ["# c", "t,plant_id,s,x1,x2,S,gamma,C_index"]
    for k, t in enumerate(traj.times):
        for i in range(4):
            cells = (
                t, i, traj.sizes[k, i], *state.positions[i], state.caps[i],
                state.rates[i], traj.c_indices[k, i],
            )
            lines.append(",".join(format_value(v) for v in cells))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    # NumPy float scalars are floats too; they format like the Python float.
    assert format_value(traj.sizes[1, 0]) == repr(float(traj.sizes[1, 0]))
