"""Reference definitions that the tests hold the package against.

No package code calls these: each is the plain formula that an optimized
package path must reproduce, kept next to the tests that use it.
"""

import numpy as np

from plantfield.meanfield import _horizon_time, _potential_integral, _stage_values
from plantfield.model import ModelParams, log_potential


def competition_potential(params: ModelParams, s, s_prime, dist):
    """Competition potential exerted on a plant of size ``s`` by a neighbor
    of size ``s_prime`` at Euclidean distance ``dist``.

        C(s, s', d) = log(s'/s_m) / (2 R_M (1 + d^2 / sigma_x^2))
                      * (1 + tanh(log(s'/s) / sigma_r))

    The value lies in ``[0, 1]`` whenever both sizes lie in
    ``[s_m, s_m * exp(R_M)]``.  It decreases with distance, increases with
    the neighbor's size, and decreases with the plant's own size.
    Broadcasts over array arguments; evaluated as ``log_potential``
    at ``r = log(s/s_m)``, ``r' = log(s'/s_m)``.
    """
    s = np.asarray(s, dtype=float)
    s_prime = np.asarray(s_prime, dtype=float)
    if np.any(s <= 0.0) or np.any(s_prime <= 0.0):
        raise ValueError("sizes must be strictly positive")
    return log_potential(
        params, np.log(s / params.s_m), np.log(s_prime / params.s_m), dist
    )


def gompertz_closed_form(params: ModelParams, s0, S, gamma, t):
    """Exact solution of the isolated growth law
    ``ds/dt = gamma * s * (log(S/s_m) - log(s/s_m))`` with ``s(0) = s0``.

    In log-size variables the law is linear,
    ``dr/dt = gamma * (log(S/s_m) - r)``, giving

        s(t) = S * (s0 / S) ** exp(-gamma * t)

    which is evaluated here in log space for stability.  Broadcasts over
    all of ``s0``, ``S``, ``gamma`` and ``t``.
    """
    s0, S, gamma, t = (np.asarray(v, dtype=float) for v in (s0, S, gamma, t))
    if np.any(s0 <= 0.0):
        raise ValueError("initial size must be strictly positive")
    r0 = np.log(s0 / params.s_m)
    r_cap = np.log(S / params.s_m)
    r = r_cap + (r0 - r_cap) * np.exp(-gamma * t)
    out = params.s_m * np.exp(r)
    return out if out.ndim else float(out)


def reconstructed_potential_integral(model, t: float, atoms) -> np.ndarray:
    """Exponentially weighted sum of the stage potentials up to time t.

    Equals gamma * integral_0^t e^{gamma (tau - t)} C_stage(tau) dtau
    evaluated in closed form, where C_stage is the piecewise-constant
    potential at each atom's initial data; shape (n,).  Zero at t = 0
    and for gamma = 0 (the weight density vanishes identically).
    """
    t = _horizon_time(model, t)
    stage_vals = _stage_values(model.spec, model.stages, atoms)
    return _potential_integral(model.spec.dt, t, stage_vals, atoms.rates)
