"""Initial population distribution: trait surfaces and reproducible sampling.

Positions are planar Gaussians; the asymptotic size and the growth rate
of each plant are truncated Gaussians whose means follow two smooth
bump surfaces over the plane (a peak and a trough on a constant
offset).  Sampling is driven by a counter-based generator with one
sub-stream per coordinate, so drawing a larger population extends —
never reshuffles — a smaller one with the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .model import ModelParams, _require_positive
from .population import PopulationState
from .textio import format_row, write_csv

__all__ = [
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
    d1 = pts - np.array(sp.peak_center)
    d2 = pts - np.array(sp.trough_center)
    q1 = np.einsum("ni,ij,nj->n", d1, np.array(sp.curvature_peak), d1)
    q2 = np.einsum("ni,ij,nj->n", d2, np.array(sp.curvature_trough), d2)
    return (
        sp.offset
        + (sp.peak_value - sp.offset) * np.exp(-0.5 * q1)
        - (sp.offset - sp.trough_value) * np.exp(-0.5 * q2)
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


def _truncnorm_ppf(u, mean, sd, lo, hi):
    """Inverse CDF of N(mean, sd^2) conditioned to [lo, hi]."""
    a = ndtr((lo - mean) / sd)
    b = ndtr((hi - mean) / sd)
    x = mean + sd * ndtri(a + u * (b - a))
    upper = a > 0.5
    if np.any(upper):
        # ndtr rounds to 1 about 8 sd above the mean, which would clip every
        # draw to the cap; the mirrored upper tail keeps its small CDF values.
        tail_lo, tail_hi = ndtr((mean - hi) / sd), ndtr((mean - lo) / sd)
        x = np.where(upper, mean - sd * ndtri(tail_hi - u * (tail_hi - tail_lo)), x)
    return np.clip(x, lo, hi)


def _redraw(seed, stream_id, i, mean, sd, lo, hi, accept):
    """Deterministic per-index redraw stream for boundary rejections."""
    rng = _stream(seed, (stream_id, int(i)))
    for _ in range(_MAX_REDRAWS):
        v = float(_truncnorm_ppf(rng.random(), mean, sd, lo, hi))
        if accept(v):
            return v
    raise RuntimeError(
        f"could not draw an interior value in {_MAX_REDRAWS} attempts "
        f"(stream {stream_id}, index {i})"
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
    params = cfg.params
    hi_S = params.max_size

    positions = cfg.L * _stream(cfg.seed, (_STREAM_X,)).standard_normal((n, 2))

    mean_S = surface_eval(cfg.S_surface, positions)
    u_S = _stream(cfg.seed, (_STREAM_S,)).random(n)
    S = _truncnorm_ppf(u_S, mean_S, cfg.delta_S, cfg.S_lower, hi_S)
    # S must land strictly inside its truncation interval.
    for i in np.nonzero(~((cfg.S_lower < S) & (S < hi_S)))[0]:
        S[i] = _redraw(
            cfg.seed, _STREAM_S, i, mean_S[i], cfg.delta_S, cfg.S_lower,
            hi_S, lambda v: cfg.S_lower < v < hi_S,
        )

    mean_g = surface_eval(cfg.gamma_surface, positions)
    u_g = _stream(cfg.seed, (_STREAM_GAMMA,)).random(n)
    gamma = _truncnorm_ppf(u_g, mean_g, cfg.delta_gamma, 0.0, cfg.gamma_max)
    # gamma = 0 has probability zero but is representable; redraw it.
    for i in np.nonzero(~(gamma > 0.0))[0]:
        gamma[i] = _redraw(
            cfg.seed, _STREAM_GAMMA, i, mean_g[i], cfg.delta_gamma, 0.0,
            cfg.gamma_max, lambda v: v > 0.0,
        )

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
