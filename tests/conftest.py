"""Shared fixtures: default configuration and the two expensive runs
(the 50-plant reference simulation and the full-size surrogate training)
are built once per session and reused by unit and acceptance tests."""

import math
import time

import numpy as np
import pytest

import plantfield as pf
from plantfield.config import build_experiment_config, resolve_config


def one_plus_tanh(x: float) -> float:
    """1 + tanh(x) as 2 / (1 + e^{-2x}), with no cancellation at large negative x.

    For x < 0 it is written 2 e^{2x} / (1 + e^{2x}), so that no exponent is
    positive: e^{-2x} overflows once x < -355 (sigma_r = R_M/600 reaches -600).
    """
    if x >= 0.0:
        return 2.0 / (1.0 + math.exp(-2.0 * x))
    e = math.exp(2.0 * x)
    return 2.0 * e / (1.0 + e)


@pytest.fixture(scope="session")
def exp_config():
    """The fully resolved default experiment configuration."""
    return build_experiment_config(resolve_config({}))


@pytest.fixture(scope="session")
def params(exp_config):
    return exp_config.params


@pytest.fixture(scope="session")
def mu0_point(exp_config):
    return exp_config.mu0


@pytest.fixture(scope="session")
def mu0_uniform(exp_config):
    """The initial law used for training: uniform initial sizes."""
    return exp_config.mu0_train


@pytest.fixture(scope="session")
def default_run(exp_config):
    """Default 50-plant run over [0, 10]; returns (state0, trajectory, seconds)."""
    samples = pf.sample_mu0(exp_config.mu0, exp_config.n)
    state0 = pf.samples_to_state(samples)
    tic = time.perf_counter()
    traj = pf.integrate(exp_config.params, state0, exp_config.solver)
    elapsed = time.perf_counter() - tic
    return state0, traj, elapsed


@pytest.fixture(scope="session")
def trained_model(exp_config, mu0_uniform):
    """Full-size surrogate training run; returns (model, seconds)."""
    tic = time.perf_counter()
    model = pf.train(
        mu0_uniform,
        pf.TrainConfig(dt=1.0, T=10.0, N=1000, K=1000, d3=5, d5=3),
        seed=0,
    )
    elapsed = time.perf_counter() - tic
    return model, elapsed


@pytest.fixture(scope="session")
def tiny_model(mu0_uniform):
    """A cheap 3-stage model for structural tests."""
    cfg = pf.TrainConfig(dt=1.0, T=3.0, N=200, K=200, d3=3, d5=2)
    return pf.train(mu0_uniform, cfg, seed=7)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
