"""Initial population distribution: trait surfaces and reproducible sampling.

Positions are planar Gaussians; the asymptotic size and the growth rate
of each plant are truncated Gaussians whose means follow two smooth
bump surfaces over the plane (a peak and a trough on a constant
offset).  Sampling is driven by a counter-based generator with one
sub-stream per coordinate, so drawing a larger population extends —
never reshuffles — a smaller one with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .model import ModelParams, _require_positive
from .population import PopulationState
from .textio import format_row, write_csv

__all__ = [
    "InteriorDrawError",
    "Mu0Config",
    "Sample",
    "SurfaceParams",
    "export_samples_csv",
    "sample_mu0",
    "samples_to_state",
    "surface_eval",
]

# Sub-stream identifiers, one per sampled coordinate.
_STREAM_X = 0
_STREAM_S = 1
_STREAM_GAMMA = 2
_STREAM_S0 = 3

_MAX_REDRAWS = 1000


@dataclass(frozen=True)
class SurfaceParams:
    """A bump surface: constant offset plus a Gaussian peak and trough.

    A value: the centres are kept as tuples of two floats and the
    curvatures as 2x2 tuples of tuples, so equal surfaces compare equal.
    """

    offset: float
    peak_value: float
    trough_value: float
    peak_center: tuple
    trough_center: tuple
    curvature_peak: tuple
    curvature_trough: tuple

    def __post_init__(self):
        for f in fields(self):
            value = np.asarray(getattr(self, f.name), dtype=float)
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{f.name} must be finite, got {value.tolist()!r}")
        object.__setattr__(self, "offset", float(self.offset))
        object.__setattr__(self, "peak_value", float(self.peak_value))
        object.__setattr__(self, "trough_value", float(self.trough_value))
        for name in ("peak_center", "trough_center"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (2,):
                raise ValueError(f"{name} must be a 2-vector")
            object.__setattr__(self, name, tuple(v.tolist()))
        for name in ("curvature_peak", "curvature_trough"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (2, 2):
                raise ValueError(f"{name} must be a 2x2 matrix")
            if not np.allclose(m, m.T, rtol=0.0, atol=1e-12):
                raise ValueError(f"{name} must be symmetric")
            if np.any(np.linalg.eigvalsh(m) <= 0.0):
                raise ValueError(f"{name} must have positive eigenvalues")
            object.__setattr__(self, name, tuple(map(tuple, m.tolist())))
        if not self.trough_value <= self.offset <= self.peak_value:
            raise ValueError(
                "surface values must satisfy trough <= offset <= peak"
            )


def surface_eval(sp: SurfaceParams, x) -> np.ndarray:
    """Evaluate the surface at positions (n, 2); shape (n,)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("positions must have shape (n, 2)")
    x, y = pts.T
    bumps = []
    for (cx, cy), ((a, b), (_, c)) in (
        (sp.peak_center, sp.curvature_peak), (sp.trough_center, sp.curvature_trough)
    ):
        u, v = x - cx, y - cy  # the quadratic form written out: 3x an einsum's speed
        bumps.append(np.exp(-0.5 * (u * (a * u + 2.0 * b * v) + c * v * v)))
    return (
        sp.offset
        + (sp.peak_value - sp.offset) * bumps[0]
        - (sp.offset - sp.trough_value) * bumps[1]
    )


@dataclass
class Mu0Config:
    """Law of one plant's initial data (s0, x, S, gamma)."""

    params: ModelParams
    seed: int
    L: float
    S_surface: SurfaceParams
    gamma_surface: SurfaceParams
    delta_S: float
    delta_gamma: float
    S_lower: float
    gamma_max: float
    s0_law: str = "point"
    s0: Optional[float] = None
    s0_min: Optional[float] = None
    s0_max: Optional[float] = None

    def __post_init__(self):
        self.seed = int(self.seed)
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        s0_given = {"s0": self.s0, "s0_min": self.s0_min, "s0_max": self.s0_max}
        _require_positive(
            "mu0.", L=self.L, delta_S=self.delta_S, delta_gamma=self.delta_gamma,
            gamma_max=self.gamma_max, S_lower=self.S_lower,
            **{name: v for name, v in s0_given.items() if v is not None},
        )
        s_m = self.params.s_m
        if not s_m < self.S_lower < self.params.max_size:
            raise ValueError(
                f"mu0.S_lower = {self.S_lower!r}, the lower truncation bound "
                f"for S, must lie strictly between the minimal size {s_m!r} "
                f"and the maximal size {self.params.max_size!r}"
            )
        if self.s0_law == "point":
            if self.s0 is None:
                raise ValueError("point law requires s0")
            if not s_m < self.s0 < self.S_lower:
                raise ValueError(
                    f"mu0.s0 = {self.s0!r} must lie strictly between the minimal "
                    f"size {s_m!r} and mu0.S_lower = {self.S_lower!r}"
                )
        elif self.s0_law == "uniform":
            if self.s0_min is None or self.s0_max is None:
                raise ValueError("uniform law requires s0_min and s0_max")
            if not (s_m < self.s0_min <= self.s0_max < self.S_lower):
                raise ValueError(
                    "the s0 support must lie strictly between the minimal "
                    "size and the lower truncation bound for S"
                )
        else:
            raise ValueError(f"unknown s0_law {self.s0_law!r}")

    @property
    def s0_support_max(self) -> float:
        """Largest possible initial size under this law."""
        return float(self.s0 if self.s0_law == "point" else self.s0_max)

    @property
    def s0_mid(self) -> float:
        """Representative initial size (midpoint of the support)."""
        if self.s0_law == "point":
            return float(self.s0)
        return 0.5 * (float(self.s0_min) + float(self.s0_max))

    def with_seed(self, seed: int) -> "Mu0Config":
        return replace(self, seed=int(seed))


@dataclass
class Sample:
    """Drawn plants as columns: s0 (n,), x (n, 2), S (n,) and gamma (n,)."""

    s0: np.ndarray
    x: np.ndarray
    S: np.ndarray
    gamma: np.ndarray


def _stream(seed: int, key: tuple) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    )


# The normal CDF is 0.5 erfc(|x|/sqrt 2), mirrored for x > 0.  Below z = 1
# erfc(z) is Python's ``math.erfc``; up to 9, exp(-z^2) P(z)/Q(z)
# of mpmath's ``libmp/math2.py`` (``_erfc_coeff_P``/``_Q``, BSD licence); past
# 9, where P/Q drifts (1e-15 at 10, 3e-13 at 26), the asymptotic series
# exp(-z^2) / (z sqrt(pi)) sum (-1)^n (2n - 1)!! / (2 z^2)^n.
_ERFC_ASYMPTOTIC = [(-1) ** n * math.prod(range(2 * n - 1, 0, -2))
                    for n in range(13, -1, -1)]
_ERFC_PQ = [  # P's 9 coefficients, then Q's 10, highest power first
    0.0004456025966156042, 0.006306595171071779, 0.045459713768411264,
    0.20924776504163753, 0.6627591169977078, 1.4695509105618425, 2.228043337739025,
    2.127530694629796, 1.0000000161203921, 0.0007898100383198042, 0.011178148899483546,
    0.08097014963904055, 0.37647108453729466, 1.2146026030046904, 2.7845640601891186,
    4.497147289449801, 4.901943560890324, 3.2559100272784893, 1.0,
]
# The quantile is Wichura's AS241 (Appl. Statist. 37, 1988), as CPython's
# ``statistics._normal_dist_inv_cdf``: a rational in 0.180625 - q^2 for
# |q| = |p - 1/2| <= 0.425, else in r - 1.6 for r = sqrt(-log(min(p, 1 - p)))
# up to 5 and in r - 5 beyond; numerators and denominators of degree 7.
_AS241 = np.reshape([
    2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
    13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665,
    5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
    5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0,
    0.0007745450142783414, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
    3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835,
    1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457,
    0.14810397642748008, 0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0,
    2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784,
    0.026532189526576124, 0.29656057182850487, 1.7848265399172913, 5.463784911164114,
    6.657904643501103, 2.0442631033899397e-15, 1.421511758316446e-07,
    1.8463183175100548e-05, 0.0007868691311456133, 0.014875361290850615,
    0.1369298809227358, 0.599832206555888, 1.0,
], (3, 2, 8)).tolist()


def _horner(coeffs, x):
    """The polynomial with ``coeffs``, highest power first, at ``x``."""
    y = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        y *= x
        y += c
    return y


def _ndtr(x):
    """Standard normal CDF, elementwise: within 1e-15 relative wherever the
    result is a normal float; 0 and 1 at -inf and inf, NaN for NaN."""
    x = np.asarray(x, dtype=float)
    a = np.minimum(np.abs(x.ravel()), 40.0)  # 1-d as in _ndtri; the CDF at -40 is 0
    z = a * math.sqrt(0.5)
    # exp(-a^2/2) with a = ah + (a - ah): ah^2/2 is exact for ah = k/16.
    ah = np.floor(16.0 * a) / 16.0
    g = np.exp(-0.5 * ah * ah) * np.exp(-0.5 * (a - ah) * (a + ah))
    zc = np.clip(z, 1.0, 9.0)  # most points; the others are overwritten
    half = 0.5 * g * _horner(_ERFC_PQ[:9], zc) / _horner(_ERFC_PQ[9:], zc)  # CDF at -a
    if (i := np.flatnonzero(z < 1.0)).size:  # few points: a loop beats a polynomial
        half[i] = [0.5 * math.erfc(v) for v in z[i].tolist()]
    if (i := np.flatnonzero(~(z < 9.0))).size:  # NaN too
        zf = z[i]
        s = g[i] * _horner(_ERFC_ASYMPTOTIC, 0.5 / (zf * zf))
        half[i] = s / (2.0 * math.sqrt(math.pi) * zf)
    return np.where(x.ravel() > 0.0, 1.0 - half, half).reshape(x.shape)


def _ndtri(p):
    """Standard normal quantile, elementwise (AS241, within 3.5 ulp);
    -inf and inf at p = 0 and 1, NaN for NaN or p outside [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = p.ravel() - 0.5  # 1-d, as arithmetic on 0-d arrays gives scalars
    r = 0.180625 - np.minimum(q * q, 0.25)  # p outside [0, 1] gives NaN below
    x = q * _horner(_AS241[0][0], r) / _horner(_AS241[0][1], r)  # tails overwritten
    if (i := np.flatnonzero(~(np.abs(q) <= 0.425))).size:
        pt = p.flat[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(-np.log(np.minimum(pt, 1.0 - pt)))  # inf at p = 0 or 1
        for sel, (num, den), shift in zip(
            (r <= 5.0, (5.0 < r) & (r < np.inf)), _AS241[1:], (1.6, 5.0)
        ):
            if (rs := r[sel] - shift).size:
                r[sel] = _horner(num, rs) / _horner(den, rs)
        x[i] = np.copysign(r, q[i])
    return x.reshape(p.shape)


# Standardised lower bound past which the upper tail is inverted in scaled
# form: the tail mass Q(z) underflows to 0 about 38.5 sd out.
_FAR_TAIL = 30.0


def _mills(z):
    """The Mills ratio Q(z)/phi(z) by the asymptotic series of ``_ndtr``,
    at full precision for z >= ``_FAR_TAIL``."""
    t = 1.0 / z
    return _horner(_ERFC_ASYMPTOTIC, t * t) * t


def _far_tail_quantile(u, z_lo, z_hi):
    """Quantile u < 1 of N(0, 1) conditioned to [z_lo, z_hi], for z_lo at
    or past ``_FAR_TAIL``, by Newton's method on the log of the scaled tail
    R(z) = Q(z)/phi(z_lo) = exp(-(z - z_lo)(z + z_lo)/2) M(z), M the Mills
    ratio.  The draw solves R(z) = R(z_lo) - u (R(z_lo) - R(z_hi)); the log
    of R falls with slope -1/M(z) and is concave, so Newton from z_lo
    lands past the root once and then falls to it quadratically."""
    m_lo = _mills(z_lo)

    def log_ratio(z):  # log R(z)/R(z_lo)
        return np.log(_mills(z) / m_lo) - 0.5 * (z - z_lo) * (z + z_lo)

    # Capped at z_lo + 40, the product in log_ratio cannot overflow; past
    # the cap R(z_hi)/R(z_lo) < e^-1200 rounds to 0 all the same.
    rho = np.exp(log_ratio(np.minimum(z_hi, z_lo + 40.0)))
    # log(1 - u (1 - rho)); 1 - u is exact from u = 1/2 on.
    target = np.where(
        u < 0.5, np.log1p(-u * (1.0 - rho)), np.log((1.0 - u) + u * rho)
    )
    z = z_lo
    for _ in range(6):
        z = z + _mills(z) * (log_ratio(z) - target)
    return z


def _truncnorm_ppf(u, mean, sd, lo, hi):
    """Inverse CDF of N(mean, sd^2) conditioned to [lo, hi], by one CDF call
    over both standardised bounds.  Where lo lies above the mean, it inverts
    the mirrored upper tail: the CDF rounds to 1 about 8 sd above the mean,
    which would clip every draw to a bound.  From ``_FAR_TAIL`` sd on, where
    the tail itself underflows, ``_far_tail_quantile`` draws every u < 1
    (u = 1 is the upper bound itself).  The mirrored target (1 - u) b + u a
    keeps full precision as u -> 1, where b - u (b - a) would cancel."""
    z = np.stack(np.broadcast_arrays((lo - mean) / sd, (hi - mean) / sd))
    upper = z[0] > 0.0
    a, b = _ndtr(np.where(upper, -z[::-1], z))
    p = np.where(upper, (1.0 - u) * b + u * a, a + u * (b - a))
    q = _ndtri(p)
    far = np.broadcast_to((z[0] >= _FAR_TAIL) & (u < 1.0), q.shape)
    if far.any():
        u_far, z_lo, z_hi = (np.broadcast_to(v, q.shape)[far] for v in (u, *z))
        q[far] = -_far_tail_quantile(u_far, z_lo, z_hi)
    x = mean + np.where(upper, -sd, sd) * q
    return np.clip(np.where(u < 1.0, x, hi), lo, hi)


class InteriorDrawError(ValueError):
    """A truncated law sits within rounding of a bound of its interval, so
    no draw lands strictly inside it: a configuration error."""


def _redraw(seed, stream_id, v, mean, sd, lo, hi, inside, keys):
    """Redraw in place each value of ``v`` that ``inside`` refuses, from a
    stream of its own index; ``keys`` names the settings that fix a law no
    redraw can leave."""
    for i in np.nonzero(~inside(v))[0]:
        rng = _stream(seed, (stream_id, int(i)))
        for _ in range(_MAX_REDRAWS):
            v[i] = _truncnorm_ppf(rng.random(), mean[i], sd, lo, hi)
            if inside(v[i]):
                break
        else:
            raise InteriorDrawError(
                f"could not draw an interior value in {_MAX_REDRAWS} attempts "
                f"(stream {stream_id}, index {i}): the normal law of mean "
                f"{float(mean[i])!r} and sd {sd!r} truncated to [{lo!r}, {hi!r}] "
                f"lies within rounding of a bound; change {keys}"
            )


def sample_mu0(cfg: Mu0Config, n: int) -> Sample:
    """Draw ``n`` i.i.d. plants from the initial law.

    Positions are N(0, L^2 I2); S and gamma are truncated normals
    centered on their surfaces at the drawn position; s0 follows the
    configured law.  The same (cfg, n) always produces bit-identical
    output, and increasing ``n`` extends the shorter draw: its rows are
    the first rows of the longer one.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    lo_S, hi_S = cfg.S_lower, cfg.params.max_size
    positions = cfg.L * _stream(cfg.seed, (_STREAM_X,)).standard_normal((n, 2))
    # S and gamma are the two rows of one inverse-CDF pass, each row with
    # its own stream, surface, spread and bounds.
    rows = ((_STREAM_S, cfg.S_surface), (_STREAM_GAMMA, cfg.gamma_surface))
    u = np.stack([_stream(cfg.seed, (k,)).random(n) for k, _ in rows])
    means = np.stack([surface_eval(sp, positions) for _, sp in rows])
    sd, lo, hi = np.array(
        [[cfg.delta_S, cfg.delta_gamma], [lo_S, 0.0], [hi_S, cfg.gamma_max]]
    )[..., None]
    S, gamma = _truncnorm_ppf(u, means, sd, lo, hi)
    # S must land strictly inside its truncation interval; gamma = 0 has
    # probability zero but is representable, and is redrawn too.
    _redraw(cfg.seed, _STREAM_S, S, means[0], cfg.delta_S, lo_S, hi_S,
            lambda v: (lo_S < v) & (v < hi_S), "mu0.delta_S or mu0.S_lower")
    _redraw(cfg.seed, _STREAM_GAMMA, gamma, means[1], cfg.delta_gamma, 0.0,
            cfg.gamma_max, lambda v: v > 0.0, "mu0.delta_gamma or mu0.gamma_surface")

    if cfg.s0_law == "point":
        s0 = np.full(n, float(cfg.s0))
    else:
        u0 = _stream(cfg.seed, (_STREAM_S0,)).random(n)
        s0 = cfg.s0_min + (cfg.s0_max - cfg.s0_min) * u0

    return Sample(s0=s0, x=positions, S=S, gamma=gamma)


def samples_to_state(sample: Sample) -> PopulationState:
    """Assemble drawn plants into a population at t = 0."""
    return PopulationState(
        sizes=sample.s0,
        positions=sample.x,
        caps=sample.S,
        rates=sample.gamma,
    )


def export_samples_csv(sample: Sample, path, comments=()) -> None:
    """Write one row per drawn plant: id,s0,x1,x2,S,gamma."""
    header = ["id", "s0", "x1", "x2", "S", "gamma"]
    x1, x2 = sample.x.T.tolist()
    rows = zip(
        range(len(sample.s0)),
        sample.s0.tolist(),
        x1,
        x2,
        sample.S.tolist(),
        sample.gamma.tolist(),
    )
    write_csv(path, header, map(format_row, rows), comments=comments)
