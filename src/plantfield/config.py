"""Experiment configuration: flat key-value files with dotted sections.

A config file is plain text, one ``key = value`` per line, ``#``
comments allowed.  Keys use dotted prefixes (``model.s_m``,
``mu0.S_surface.peak``); unknown keys are rejected.  Every key has a
default, so an empty (or absent) file describes the reference
experiment: 50 plants, the standard parameter table, horizon 10.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .initial import Mu0Config, SurfaceParams
from .meanfield import TrainConfig, _from_fields
from .metrics import ZMetricWeights
from .model import ModelParams, _require_population
from .population import SolverConfig
from .textio import sha256_hex

__all__ = [
    "ConfigError",
    "DEFAULTS",
    "ExperimentConfig",
    "build_experiment_config",
    "canonical_config_text",
    "config_sha256",
    "load_config_file",
    "resolve_config",
]


class ConfigError(ValueError):
    """A configuration file or value is invalid."""


DEFAULTS: dict = {
    "seed": 0,
    "sim.n": 50,
    # Global model constants.
    "model.s_m": 0.05,
    "model.R_M": 3.0,
    "model.sigma_x": 0.5,
    "model.sigma_r": 1.32,
    # Initial distribution.
    "mu0.s0_law": "point",
    "mu0.s0": 0.1,
    "mu0.s0_min": 0.1,
    "mu0.s0_max": 0.3,
    "mu0.L": 1.0,
    "mu0.delta_S": 0.1,
    "mu0.delta_gamma": 0.1,
    "mu0.S_lower": 0.5,
    "mu0.gamma_max": 2.0,
    "mu0.S_surface.offset": 0.75,
    "mu0.S_surface.peak": 1.0,
    "mu0.S_surface.trough": 0.5,
    "mu0.S_surface.peak_x1": -1.0,
    "mu0.S_surface.peak_x2": 0.0,
    "mu0.S_surface.trough_x1": 1.0,
    "mu0.S_surface.trough_x2": 0.0,
    "mu0.S_surface.h1_11": 1.0,
    "mu0.S_surface.h1_12": 0.0,
    "mu0.S_surface.h1_22": 1.0,
    "mu0.S_surface.h2_11": 1.0,
    "mu0.S_surface.h2_12": 0.0,
    "mu0.S_surface.h2_22": 1.0,
    "mu0.gamma_surface.offset": 1.05,
    "mu0.gamma_surface.peak": 2.0,
    "mu0.gamma_surface.trough": 0.1,
    "mu0.gamma_surface.peak_x1": 0.0,
    "mu0.gamma_surface.peak_x2": 1.0,
    "mu0.gamma_surface.trough_x1": 0.0,
    "mu0.gamma_surface.trough_x2": -1.0,
    "mu0.gamma_surface.h1_11": 1.0,
    "mu0.gamma_surface.h1_12": 0.0,
    "mu0.gamma_surface.h1_22": 1.0,
    "mu0.gamma_surface.h2_11": 1.0,
    "mu0.gamma_surface.h2_12": 0.0,
    "mu0.gamma_surface.h2_22": 1.0,
    # Integrator.
    "solver.dt_init": 0.01,
    "solver.rel_tol": 1e-8,
    "solver.abs_tol": 1e-10,
    "solver.t_end": 10.0,
    "solver.snapshot_dt": 0.5,
    # Surrogate training (initial sizes uniform for training runs).
    "train.dt": 1.0,
    "train.T": 10.0,
    "train.N": 1000,
    "train.K": 1000,
    "train.d3": 5,
    "train.d5": 3,
    "train.s0_min": 0.1,
    "train.s0_max": 0.3,
    # Ground-metric scales (position spread and inverse max growth rate).
    "metric.ell": 1.0,
    "metric.tau_r": 0.5,
}


def _parse_value(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def load_config_file(path) -> dict:
    """Parse a key-value config file into a flat dict (not yet validated)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:  # missing, a directory, or unreadable
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = _parse_value(value)
    return out


def resolve_config(overrides: dict | None = None) -> dict:
    """Defaults merged with overrides; unknown keys and wrong types rejected."""
    flat = dict(DEFAULTS)
    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown configuration key {key!r}")
        default = DEFAULTS[key]
        if isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} expects an integer, got {value!r}")
        elif isinstance(default, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{key} expects a number, got {value!r}")
            value = float(value)
        elif isinstance(default, str):
            if not isinstance(value, str):
                raise ConfigError(f"{key} expects a string, got {value!r}")
        flat[key] = value
    return flat


def canonical_config_text(flat: dict) -> str:
    """Sorted ``key=value`` lines with round-trip value formatting."""
    lines = []
    for key in sorted(flat):
        v = flat[key]
        if isinstance(v, float):
            rendered = repr(v)
        else:
            rendered = str(v)
        lines.append(f"{key}={rendered}")
    return "\n".join(lines) + "\n"


def config_sha256(flat: dict) -> str:
    return sha256_hex(canonical_config_text(flat).encode("utf-8"))


@dataclass
class ExperimentConfig:
    """Typed view of one resolved configuration."""

    params: ModelParams
    mu0: Mu0Config
    mu0_train: Mu0Config  # ``mu0`` with s0 uniform on [train.s0_min, train.s0_max]
    solver: SolverConfig
    train: TrainConfig
    weights: ZMetricWeights
    seed: int
    n: int
    sha256: str


def _surface_from_flat(flat: dict, prefix: str) -> SurfaceParams:
    """The surface under ``prefix``; a rejected value names the section."""
    g = lambda name: flat[f"{prefix}.{name}"]
    try:
        return SurfaceParams(
            offset=g("offset"),
            peak_value=g("peak"),
            trough_value=g("trough"),
            peak_center=(g("peak_x1"), g("peak_x2")),
            trough_center=(g("trough_x1"), g("trough_x2")),
            curvature_peak=((g("h1_11"), g("h1_12")), (g("h1_12"), g("h1_22"))),
            curvature_trough=((g("h2_11"), g("h2_12")), (g("h2_12"), g("h2_22"))),
        )
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc


def _section(flat: dict, prefix: str) -> dict:
    """The keys under ``prefix.``, with the prefix stripped."""
    head = prefix + "."
    return {k[len(head):]: v for k, v in flat.items() if k.startswith(head)}


def build_experiment_config(flat: dict) -> ExperimentConfig:
    """Assemble the typed sub-configs from a resolved flat dict.

    Each record reads its section by field name (``model.*`` gives
    ``ModelParams``, ``mu0.*`` ``Mu0Config``, ``solver.*``
    ``SolverConfig``, ``train.*`` ``TrainConfig``, ``metric.*``
    ``ZMetricWeights``); the fields no key names are passed in, and
    ``train.s0_min`` and ``train.s0_max`` bound ``mu0_train``'s s0.
    """
    try:
        params = _from_fields(ModelParams, _section(flat, "model"))
        mu0 = _from_fields(
            Mu0Config, _section(flat, "mu0"), params=params, seed=flat["seed"],
            S_surface=_surface_from_flat(flat, "mu0.S_surface"),
            gamma_surface=_surface_from_flat(flat, "mu0.gamma_surface"),
        )
        solver = _from_fields(SolverConfig, _section(flat, "solver"))
        train = _from_fields(TrainConfig, _section(flat, "train"))
        lo, hi = flat["train.s0_min"], flat["train.s0_max"]
        try:
            mu0_train = replace(mu0, s0_law="uniform", s0_min=lo, s0_max=hi)
        except ValueError as exc:
            raise ConfigError(
                f"train.s0_min = {lo!r}, train.s0_max = {hi!r}: {exc}"
            ) from exc
        weights = _from_fields(
            ZMetricWeights, _section(flat, "metric"), s_m=params.s_m
        )
        _require_population("sim.n", flat["sim.n"])
    except ConfigError:
        raise
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        params=params,
        mu0=mu0,
        mu0_train=mu0_train,
        solver=solver,
        train=train,
        weights=weights,
        seed=int(flat["seed"]),
        n=int(flat["sim.n"]),
        sha256=config_sha256(flat),
    )
