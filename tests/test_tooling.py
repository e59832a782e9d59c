"""The benchmark's tracer (``perfbench/spans.py``) wraps package functions
by name in the modules that call them.  Installing and removing its
wrappers once here makes a renamed or dropped hooked name fail the test
suite, not only a traced benchmark run."""

import importlib.util
from pathlib import Path

import plantfield
from plantfield import (
    cli,
    config,
    initial,
    meanfield,
    metrics,
    model,
    population,
    solver,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_hooks_resolve_and_restore():
    spans = _load_perfbench("spans")
    hooked = [
        (cli, "main"),
        (cli, "sample_mu0"),
        (cli, "load_model"),
        (meanfield, "flow_eval_many"),
        (meanfield, "mc_potential"),
        (meanfield, "stage_potential_eval"),
        (metrics, "_stage_values"),
        (metrics, "empirical_flow"),
        (metrics, "snapshot_measure"),
        (population, "validate_initial_config"),
        (initial, "write_csv"),
    ]
    before = [owner.__dict__[name] for owner, name in hooked]
    with spans.patched(spans.Tracer()):
        for (owner, name), original in zip(hooked, before):
            assert owner.__dict__[name] is not original, name
    for (owner, name), original in zip(hooked, before):
        assert owner.__dict__[name] is original, name


def test_package_root_reexports_each_module_once():
    # With star imports, a name exported by two modules would silently
    # take the later module's object.
    modules = (config, initial, meanfield, metrics, model, population, solver)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(plantfield.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(plantfield, name) is getattr(module, name), name


def test_benchmark_step_accounting_matches_the_solver():
    # The tracer infers rejected steps from the RHS call pattern
    # 1 + 6 (accepted + rejected) + repairs; a large first step makes the
    # controller reject some, so both terms are exercised.
    spans = _load_perfbench("spans")
    ec = config.build_experiment_config(config.resolve_config({"seed": 1}))
    state = initial.samples_to_state(initial.sample_mu0(ec.mu0, 8))
    cfg = population.SolverConfig(t_end=10.0, dt_init=2.0)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        traj = population.integrate(ec.params, state, cfg)
    counts = tracer.counts
    assert counts["step_count_mismatch"] == 0
    assert counts["accepted"] == traj.dense.stats.n_accepted
    assert counts["rejected"] > 0


def test_benchmark_tracer_counts_training_pairs():
    # The tracer's mc_potential wrapper unpacks the call's five positional
    # arguments; each of the 2 stages draws a training and a testing set of
    # K probes against the N-atom cloud.
    spans = _load_perfbench("spans")
    ec = config.build_experiment_config(config.resolve_config({"seed": 1}))
    n = k = 20
    tracer = spans.Tracer()
    with spans.patched(tracer):
        meanfield.train(
            ec.mu0, meanfield.TrainConfig(dt=1.0, T=2.0, N=n, K=k, d3=2, d5=1), seed=1
        )
    assert tracer.counts["mc_pairs"] == 2 * k * n * 2


def test_benchmark_checks_accept_a_package_distances_csv(
    tiny_model, exp_config, tmp_path
):
    # The benchmark's output checks restate the matching cap and read the
    # distance columns by name; a renamed column or a moved cap must fail
    # here too.  One rung lies on each side of the cap.
    checks = _load_perfbench("checks")
    cap = metrics.DEFAULT_MATCHING_CAP
    assert checks.MATCHING_CAP == cap
    reports = metrics.convergence_experiment(
        tiny_model, [5, cap + 1], population.SolverConfig(t_end=1.0),
        seed=0, weights=exp_config.weights,
    )
    out = tmp_path / "distances.csv"
    metrics.export_distances_csv(reports, out)
    assert checks.distances_invariants(out) == []
