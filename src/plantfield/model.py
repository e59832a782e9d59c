"""Core growth-and-competition model.

Defines the global model constants, the reference definition of the
pairwise competition potential in log-size variables, the domain rule of
plant rows, and the admissibility check that the simulator requires before
integrating a population.

Sizes live in ``(s_m, s_m * exp(R_M))``; the log-size ``r = log(s / s_m)``
maps that interval onto ``(0, R_M)``.  The integrator works in log space,
while user-facing data is in linear sizes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "log_potential",
    "validate_initial_config",
]


def _require_positive(prefix: str = "", **values) -> None:
    """Raise ``ValueError`` for the first of ``values`` (name=value) that is
    not finite and strictly positive, naming it as ``prefix + name``."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:  # also false for NaN
            raise ValueError(
                f"{prefix}{name} must be finite and strictly positive, got {value!r}"
            )


def _require_population(name: str, n: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless the population size n >= 2."""
    if n < 2:
        raise ValueError(f"{name} = {n}: a population needs at least 2 individuals")


@dataclass(frozen=True)
class ModelParams:
    """Global constants shared by every formula of the model.

    Attributes
    ----------
    s_m:
        Minimal plant size; reference scale of all log-sizes.
    R_M:
        Log-size normalizer.  ``s_m * exp(R_M)`` is the hard upper size
        bound used everywhere downstream.
    sigma_x:
        Spatial decay scale of the competition potential.
    sigma_r:
        Relative-size sensitivity scale of the competition potential;
        at least ``R_M / 600``, so the exponents exp(2 (r - c)/sigma_r)
        of the array kernels in ``population`` stay finite.
    """

    s_m: float
    R_M: float
    sigma_x: float
    sigma_r: float

    def __post_init__(self) -> None:
        _require_positive(
            s_m=self.s_m, R_M=self.R_M, sigma_x=self.sigma_x, sigma_r=self.sigma_r
        )
        # The spatial kernel divides by sigma_x**2: a square that underflows
        # or overflows turns its diagonal into 0/0 or raises OverflowError.
        if not sys.float_info.min <= self.sigma_x * self.sigma_x <= sys.float_info.max:
            raise ValueError(
                f"sigma_x={self.sigma_x!r} is out of range; its square must be "
                "a finite normal float (about 1.5e-154 <= sigma_x <= 1.3e154)"
            )
        if self.R_M / self.sigma_r > 600.0:
            raise ValueError(
                f"sigma_r={self.sigma_r!r} is below R_M/600 (R_M={self.R_M!r}); "
                "the competition kernel needs R_M/sigma_r <= 600"
            )

    @property
    def max_size(self) -> float:
        """Hard upper size bound ``s_m * exp(R_M)``."""
        return self.s_m * math.exp(self.R_M)


def log_potential(params: ModelParams, r, r_prime, dist):
    """Competition potential in log-size variables ``r = log(s / s_m)``.

        C_r(r, r', d) = r' / (2 R_M (1 + d^2 / sigma_x^2))
                        * (1 + tanh((r' - r) / sigma_r))

    This is the reference definition of the potential.  Whole populations
    sum it with two array kernels in ``population``, both through the
    exact identity 1 + tanh((r' - r)/sigma_r) = 2 e'/(e + e'), e =
    exp(2 r/sigma_r).  ``_pair_row_sums`` (a population against itself)
    reads half-stored kernel blocks and forms e + e' as an exact rank-2
    product, bit-identical at any BLAS thread count.  ``_cross_kernel``
    (probes and training targets against other sources) builds no block:
    it forms each denominator as a rank-8 product of centred positions,
    within about eps (1 + 4 max|u|^2) relative of the exact sums, 4e-13
    at the reach past which it takes the exact blocks.
    """
    r = np.asarray(r, dtype=float)
    r_prime = np.asarray(r_prime, dtype=float)
    dist = np.asarray(dist, dtype=float)
    spatial = 1.0 + (dist / params.sigma_x) ** 2
    out = r_prime / (2.0 * params.R_M * spatial) * (1.0 + np.tanh((r_prime - r) / params.sigma_r))
    return out if out.ndim else float(out)


def _raise_first_offender(kind: str, checks) -> None:
    """Raise ``ValueError("inadmissible <kind> i: <reason>")`` for the first
    index i failing one of ``checks``, (reason, ok mask) pairs tried in order."""
    ok = np.stack([mask for _, mask in checks])
    offenders = np.flatnonzero(~ok.all(axis=0))
    if offenders.size:
        i = int(offenders[0])
        reason = checks[int(np.argmin(ok[:, i]))][0]
        raise ValueError(f"inadmissible {kind} {i}: {reason}")


def _domain_checks(params: ModelParams, **columns) -> list:
    """The model's domain of plant rows: per column (name=values), the
    ``_raise_first_offender`` check that its values lie in (s_m, s_m*exp(R_M)).
    Every entry point that takes plants applies it to their sizes and caps."""
    lo, hi = params.s_m, params.max_size
    return [
        (f"{name.replace('_', ' ')} outside (s_m, s_m*exp(R_M))", (lo < v) & (v < hi))
        for name, v in columns.items()
    ]


def validate_initial_config(params: ModelParams, state) -> None:
    """Check the admissibility hypotheses guaranteeing a global solution.

    Every plant of ``state`` (a ``population.PopulationState``, whose
    columns are already well shaped and finite) must satisfy
    ``s_m < S_i < s_m * exp(R_M)``, ``gamma_i > 0`` and
    ``s_m < s0_i < S_i``.  Under these conditions the coupled system has
    a unique global solution with ``s_m < s_i(t) < S_i`` and competition
    indices in ``[0, 1]`` for all time.  Raises ``ValueError`` naming the
    first violating plant and its first violated condition in the order
    above, and on a population smaller than 2 (the competition index
    divides by ``N - 1``).
    """
    caps, rates, sizes0 = state.caps, state.rates, state.sizes
    _require_population("N", state.n)
    cap_ok, size_ok = _domain_checks(params, asymptotic_size=caps, initial_size=sizes0)
    _raise_first_offender("plant", [
        cap_ok,
        ("growth rate not strictly positive", rates > 0.0),
        size_ok,
        ("initial size outside (s_m, S)", sizes0 < caps),
    ])
