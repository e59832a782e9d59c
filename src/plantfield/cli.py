"""Batch command-line front-end.

Four subcommands cover the full workflow: ``simulate`` runs a finite
population and writes its trajectories, ``train-meanfield`` fits the
stagewise surrogate, ``converge`` measures the distance between finite
runs and the surrogate over growing N, and ``potential-dump`` tabulates
the surrogate flow against the trait surfaces on a position grid.

Every output is deterministic for a fixed seed and carries a header
with the resolved-config hash.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    build_experiment_config,
    load_config_file,
    resolve_config,
)
from .initial import sample_mu0, samples_to_state, surface_eval
from .meanfield import (
    export_r2_csv,
    flow_eval_many,
    load_model,  # noqa: F401  (perfbench/spans.py wraps cli.load_model by name)
    load_model_dict,
    model_from_dict,
    save_model,
    train,
)
from .metrics import _n_ladder, convergence_experiment, export_distances_csv
from .model import _domain_checks, _raise_first_offender
from .population import (
    IntegrationDivergedError,
    PopulationState,
    export_trajectory_csv,
    integrate,
)
from .solver import NonFiniteStateError, StepSizeUnderflowError
from .textio import format_row, write_csv, write_json

__all__ = ["main"]

# steps^2 points.  The whole-grid surfaces and domain check peak near 100
# bytes per point; the flow runs on chunks of _FLOW_CHUNK points.
_MAX_GRID_STEPS = 1000
_FLOW_CHUNK = 4096  # grid points per surrogate flow evaluation, a multiple of 8


def _experiment(args) -> ExperimentConfig:
    """The typed config of a run: defaults, then ``--config``, then the
    ``--n`` and ``--seed`` flags of the commands that have them."""
    overrides = load_config_file(args.config) if args.config else {}
    flat = resolve_config(overrides)
    if getattr(args, "n", None) is not None:
        flat["sim.n"] = args.n
    if getattr(args, "seed", None) is not None:
        flat["seed"] = args.seed
    return build_experiment_config(flat)


def _stamp(sha256: str, seed: int) -> str:
    """The comment line that heads every CSV output."""
    return f"config_sha256={sha256} seed={seed}"


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    ec = _experiment(args)
    out = _out_dir(args)
    header = _stamp(ec.sha256, ec.seed)

    state0 = samples_to_state(sample_mu0(ec.mu0, ec.n))
    traj = integrate(ec.params, state0, ec.solver)

    export_trajectory_csv(traj, out / "trajectory.csv", comments=[header])
    lo_s, hi_s = traj.sizes.min(axis=1), traj.sizes.max(axis=1)
    c = traj.c_indices
    lo_c, hi_c = c.min(axis=1), c.max(axis=1)
    doc = {
        "command": "simulate",
        "config_sha256": ec.sha256,
        "seed": ec.seed,
        "n": ec.n,
        "t_end": ec.solver.t_end,
        "n_accepted_steps": traj.dense.stats.n_accepted,
        "n_clamped": traj.n_clamped,
        "min_size": float(lo_s.min()),
        "max_size": float(hi_s.max()),
        "min_c_index": float(lo_c.min()),
        "max_c_index": float(hi_c.max()),
        "snapshots": [
            {
                "t": float(traj.times[k]),
                "min_size": float(lo_s[k]),
                "max_size": float(hi_s[k]),
                "min_c_index": float(lo_c[k]),
                "max_c_index": float(hi_c[k]),
            }
            for k in range(len(traj.times))
        ],
    }
    write_json(out / "diagnostics.json", doc)
    return 0


def cmd_train_meanfield(args) -> int:
    ec = _experiment(args)
    out = _out_dir(args)
    header = _stamp(ec.sha256, ec.seed)

    model = train(ec.mu0_train, ec.train, ec.seed)
    save_model(model, out / "model.json", config_sha256=ec.sha256)
    export_r2_csv(model, out / "r2.csv", comments=[header])
    return 0


def _parse_n_list(text: str) -> list:
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"invalid n-list {text!r}") from exc
    if not values:
        raise ConfigError("n-list is empty")
    try:
        return _n_ladder(values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load_model_checked(path):
    try:
        mdict = load_model_dict(path)
        return model_from_dict(mdict), mdict
    except OSError as exc:  # missing, a directory, or unreadable
        raise ConfigError(f"cannot read model file {path}: {exc.strerror}") from exc
    # JSONDecodeError and UnicodeDecodeError are ValueErrors; a field of the
    # wrong type raises TypeError.
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid model file {path}: {exc}") from exc


def cmd_converge(args) -> int:
    ec = _experiment(args)
    out = _out_dir(args)
    header = _stamp(ec.sha256, ec.seed)

    n_list = _parse_n_list(args.n_list)
    model, _ = _load_model_checked(args.model)

    try:
        solver = replace(ec.solver, t_end=model.T)
    except ValueError as exc:
        raise ConfigError(
            f"solver.snapshot_dt = {ec.solver.snapshot_dt!r} gives no grid over "
            f"the model horizon T = {model.T!r}: {exc}"
        ) from exc

    reports = convergence_experiment(
        model,
        n_list,
        solver,
        seed=ec.seed,
        weights=replace(ec.weights, s_m=model.params.s_m),
        self_comparison=args.self_comparison,
    )
    export_distances_csv(reports, out / "distances.csv", comments=[header])
    return 0


def _parse_grid(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ConfigError(
            "grid must be 'x1min,x1max,x2min,x2max,steps' (5 fields)"
        )
    try:
        x1min, x1max, x2min, x2max = bounds = [float(p) for p in parts[:4]]
        steps = int(parts[4])
    except ValueError as exc:
        raise ConfigError(f"invalid grid {text!r}") from exc
    if not np.all(np.isfinite(bounds)):
        raise ConfigError(f"grid bounds must be finite, got {text!r}")
    if not 0 <= steps <= _MAX_GRID_STEPS:
        raise ConfigError(f"grid steps must lie in [0, {_MAX_GRID_STEPS}], got {steps}")
    if x1min > x1max or x2min > x2max:
        raise ConfigError("grid bounds must satisfy min <= max")
    return x1min, x1max, x2min, x2max, steps


def cmd_potential_dump(args) -> int:
    model, mdict = _load_model_checked(args.model)
    out = _out_dir(args)
    sha = mdict.get("config_sha256") or "unknown"
    header = _stamp(sha, model.seed)
    x1min, x1max, x2min, x2max, steps = _parse_grid(args.grid)

    columns = ["x1", "x2", "S_bar", "gamma_bar", "s_inf", "extrapolated"]
    if steps == 0:
        write_csv(out / "potential_surface.csv", columns, [], comments=[header])
        return 0

    ax1 = np.linspace(x1min, x1max, steps)
    ax2 = np.linspace(x2min, x2max, steps)
    pts = np.column_stack([np.repeat(ax1, steps), np.tile(ax2, steps)])
    mu0, params = model.mu0_cfg, model.params
    caps = surface_eval(mu0.S_surface, pts)
    rates = surface_eval(mu0.gamma_surface, pts)
    # The flow's domain: a cap at or below s_m grows an atom below s_m.
    try:
        _raise_first_offender("grid point", [
            *_domain_checks(params, asymptotic_size=caps),
            ("growth rate not nonnegative", rates >= 0.0),
        ])
    except ValueError as exc:
        raise ConfigError(
            f"the model's trait surfaces leave the flow's domain: {exc} "
            "(grid point i is the CSV's data row i, from 0)"
        ) from exc
    s0 = np.full(_FLOW_CHUNK, mu0.s0_mid)

    def rows():
        # The flow builds each stage's feature matrix over its points, so it
        # runs on chunks.  One OpenBLAS thread groups the rows of F @ beta by
        # eights, so chunks of a multiple of 8 rows keep the one-shot bits.
        for c0 in range(0, pts.shape[0], _FLOW_CHUNK):
            c = slice(c0, c0 + _FLOW_CHUNK)
            xy = pts[c]
            grid = PopulationState(s0[: xy.shape[0]], xy, caps[c], rates[c])
            s_inf = flow_eval_many(model, model.T, grid)
            # Positions beyond twice the spread were essentially unseen in training.
            extrapolated = (xy**2).sum(axis=1) > (2.0 * mu0.L) ** 2
            yield from zip(
                xy[:, 0].tolist(),
                xy[:, 1].tolist(),
                caps[c].tolist(),
                rates[c].tolist(),
                s_inf.tolist(),
                extrapolated.astype(int).tolist(),
            )

    write_csv(
        out / "potential_surface.csv", columns, map(format_row, rows()), comments=[header]
    )
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="plantfield",
        description=(
            "Simulate competing plant populations, train the mean-field "
            "surrogate, and diagnose convergence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one finite population")
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--n", type=int, help="population size override")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-meanfield", help="fit the stage surrogate")
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train_meanfield)

    p = sub.add_parser("converge", help="distance trend over population sizes")
    p.add_argument("--config", help="key-value config file")
    p.add_argument("--model", required=True, help="trained model JSON")
    p.add_argument(
        "--n-list", default="50,100,200,400", help="comma-separated sizes"
    )
    p.add_argument(
        "--self-comparison",
        action="store_true",
        help="compare each run against itself (all distances zero)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser(
        "potential-dump", help="tabulate the surrogate flow on a grid"
    )
    p.add_argument("--model", required=True, help="trained model JSON")
    p.add_argument(
        "--grid", required=True, help="x1min,x1max,x2min,x2max,steps"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_potential_dump)
    return parser


def _join_grid_value(argv):
    """Let ``--grid -2,2,-2,2,5`` parse: join the pair with '=' so the
    leading dash of a negative bound is not read as an option prefix."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok == "--grid":
            val = next(it, None)
            out.append(tok if val is None else f"--grid={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_join_grid_value(argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (
        IntegrationDivergedError,
        NonFiniteStateError,
        StepSizeUnderflowError,
        FloatingPointError,
        OverflowError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
