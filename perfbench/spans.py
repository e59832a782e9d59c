"""Outside-in tracing of one benchmark pass.

The package is traced from outside: ``patched`` swaps public functions
for timing wrappers in the namespaces that call them (the package binds
names with ``from .x import y``, so ``population.solve_ode`` and
``solver.solve_ode`` are different bindings), and restores them on exit.
Each call becomes a span (name, parent, start, end) kept in flat arrays
in memory; counters that need arguments or return values (pairs
evaluated, steps accepted, rows written) are added at the same
boundaries.  Self time is a span's duration minus the union of its
children's intervals.

Span names are ``<module>.<function>``; the module part names the layer.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "cli",
    "config",
    "initial",
    "model",
    "solver",
    "population",
    "meanfield",
    "metrics",
    "textio",
)


class Tracer:
    """Spans and counters of the calls made while patched."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def clear(self) -> None:
        """Drop recorded spans and counters (the arrays are reused in place)."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self._stack[1:] = []
        self.counts.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> str | None:
        """Name of the innermost open span."""
        idx = self._stack[-1]
        return None if idx < 0 else self.names[self.name_id[idx]]

    def wrap(self, name: str, fn):
        """``fn`` recording one span named ``name`` per call."""
        nid = self._id(name)
        ids, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def arrays(self) -> dict:
        """The spans as NumPy arrays plus the name table."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging children are never subtracted twice or beyond the parent.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.shape[0])
    kids = np.nonzero(parent >= 0)[0]
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur, lo, hi = -1, 0.0, 0.0
    for i, p, s, e in zip(
        order.tolist(),
        parent[order].tolist(),
        start[order].tolist(),
        end[order].tolist(),
    ):
        s = max(s, start[p])
        e = min(e, end[p])
        if e <= s:
            continue
        if p != cur:
            if cur >= 0:
                covered[cur] += hi - lo
            cur, lo, hi = p, s, e
        elif s > hi:
            covered[cur] += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if cur >= 0:
        covered[cur] += hi - lo
    return (end - start) - covered


# --------------------------------------------------------------------------
# Wrappers that also count.


def _solve_ode(tracer: Tracer, fn):
    """``solve_ode`` plus its RHS and monitor callables, with step counts.

    Step counts come from the returned dense solution and the number of
    RHS calls: the adaptive pair makes 1 + 6 (accepted + rejected) calls,
    plus one per accepted state the monitor repaired.
    """
    span = tracer.wrap("solver.solve_ode", fn)
    counts = tracer.counts

    def solve_ode(f, t0, t_end, y0, **kwargs):
        probe = tracer.current() == "population.empirical_flow"
        n = int(np.size(y0))
        calls = [0, 0]  # rhs, repairs

        def rhs(t, y):
            calls[0] += 1
            return f(t, y)

        monitor = kwargs.get("monitor")
        if monitor is not None:

            def checked(t, y, step_index):
                fixed = monitor(t, y, step_index)
                if fixed is not y and not np.array_equal(fixed, y):
                    calls[1] += 1
                return fixed

            kwargs["monitor"] = tracer.wrap("population.monitor", checked)
        name = "population.probe_rhs" if probe else "population.rhs"
        dense = span(f=tracer.wrap(name, rhs), t0=t0, t_end=t_end, y0=y0, **kwargs)

        accepted = len(dense.ts) - 1
        rhs_calls, repairs = calls
        counts["accepted"] += accepted
        counts["rhs_calls"] += rhs_calls
        if kwargs.get("method", "rk45-adaptive") == "rk45-adaptive" and accepted:
            tried, rest = divmod(rhs_calls - 1 - repairs, 6)
            counts["rejected"] += tried - accepted
            counts["step_count_mismatch"] += rest != 0
        max_step = kwargs.get("max_step")
        if max_step is not None and accepted:
            steps = np.diff(dense.ts)
            counts["capped"] += int(
                np.sum(np.abs(steps - max_step) <= 1e-9 * max_step)
            )
        if not probe:
            counts["pairs"] += rhs_calls * n * n
            # Computed, not measured: the N x N kernel read once per RHS
            # call plus the log-size, rate and cap vectors.
            counts["rhs_bytes"] += rhs_calls * 8 * (n * n + 3 * n)
        return dense

    return solve_ode


def _empirical_flow(tracer: Tracer, fn):
    """Probe solves, flagging probes that duplicate a population member.

    A probe duplicates a member when its traits are the member's and its
    initial size equals the member's size in the background's first
    snapshot (taken at t = 0) to roundoff.
    """
    span = tracer.wrap("population.empirical_flow", fn)
    members = {}

    def key(traits):
        return (*map(float, traits.x), float(traits.S), float(traits.gamma))

    def empirical_flow(params, background, probe_s0, probe_traits, cfg):
        if id(background) not in members:
            first = background.states[0]
            members.clear()
            members[id(background)] = (
                background,
                {key(tr): float(s) for s, tr in zip(first.sizes, first.traits)}
                if first.t == 0.0
                else {},
            )
        s_member = members[id(background)][1].get(key(probe_traits))
        tracer.counts["probe_redundant"] += s_member is not None and abs(
            s_member - probe_s0
        ) <= 1e-12 * abs(probe_s0)
        return span(params, background, probe_s0, probe_traits, cfg)

    return empirical_flow


def _counting(tracer: Tracer, name: str, fn, counter: str, measure):
    """Span plus ``counts[counter] += measure(*args, **kwargs)``."""
    span = tracer.wrap(name, fn)

    def counted(*args, **kwargs):
        tracer.counts[counter] += measure(*args, **kwargs)
        return span(*args, **kwargs)

    return counted


def _write_csv(tracer: Tracer, fn):
    span = tracer.wrap("textio.write_csv", fn)

    def write_csv(path, header, rows, comments=()):
        def counted():
            for row in rows:
                tracer.counts["rows"] += 1
                yield row

        out = span(path, header, counted(), comments=comments)
        tracer.counts["bytes"] += os.path.getsize(path)
        return out

    return write_csv


@contextmanager
def patched(tracer: Tracer):
    """Install the tracing wrappers for the duration of the block."""
    from plantfield import (
        cli,
        initial,
        meanfield,
        metrics,
        population,
        solver,
    )

    def plain(name):
        return lambda fn: tracer.wrap(name, fn)

    def counting(name, counter, measure):
        return lambda fn: _counting(tracer, name, fn, counter, measure)

    table = [
        (cli, "main", plain("cli.main")),
        (cli, "load_config_file", plain("config.build")),
        (cli, "resolve_config", plain("config.build")),
        (cli, "build_experiment_config", plain("config.build")),
        (population, "validate_initial_config", plain("model.validate_initial_config")),
        (population, "solve_ode", lambda fn: _solve_ode(tracer, fn)),
        (solver.DenseSolution, "__call__", plain("solver.dense")),
        (cli, "integrate", plain("population.integrate")),
        (metrics, "integrate", plain("population.integrate")),
        (metrics, "empirical_flow", lambda fn: _empirical_flow(tracer, fn)),
        (metrics, "snapshot_measure", plain("population.snapshot_measure")),
        (cli, "export_trajectory_csv", plain("population.export_trajectory")),
        (cli, "samples_to_state", plain("initial.samples_to_state")),
        (metrics, "samples_to_state", plain("initial.samples_to_state")),
        (cli, "train", plain("meanfield.train")),
        (meanfield, "mc_potential", counting(
            "meanfield.mc_potential", "mc_pairs",
            lambda p, s, x, cs, cx: np.size(s) * np.size(cs),
        )),
        (meanfield, "fit_stage", plain("meanfield.fit_stage")),
        (meanfield, "stage_potential_eval", plain("meanfield.stage_eval")),
        (meanfield, "flow_eval_many", plain("meanfield.flow_eval_many")),
        (metrics, "flow_eval_many", plain("meanfield.flow_eval_many")),
        (cli, "flow_eval_many", plain("meanfield.flow_eval_many")),
        (metrics, "_stage_values", plain("meanfield.stage_values")),
        (cli, "save_model", plain("meanfield.save_model")),
        (cli, "load_model", plain("meanfield.load_model")),
        (cli, "load_model_dict", plain("meanfield.load_model")),
        (cli, "export_r2_csv", plain("meanfield.export_r2")),
        (cli, "convergence_experiment", plain("metrics.convergence")),
        (cli, "export_distances_csv", plain("metrics.export_distances")),
        (metrics, "w1_matching", counting(
            "metrics.w1_matching", "atoms", lambda a, *_, **__: a.n,
        )),
        (metrics, "w1_sorted_1d", plain("metrics.w1_sorted")),
        (metrics, "bound_coefficients", plain("metrics.bound")),
    ]
    sample = counting("initial.sample_mu0", "samples", lambda cfg, n: n)
    table += [(m, "sample_mu0", sample) for m in (cli, meanfield, metrics)]
    table += [
        (m, "write_csv", lambda fn: _write_csv(tracer, fn))
        for m in (cli, initial, population, meanfield, metrics)
    ]

    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in table]
    try:
        for owner, attr, make in table:
            setattr(owner, attr, make(owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# Per-layer metrics of one traced pass.


def pass_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self times of the recorded pass."""
    a = tracer.arrays()
    names = a["names"]
    nid = a["name_id"]
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])
    n_names = len(names)
    calls = np.bincount(nid, minlength=n_names)
    total = np.bincount(nid, weights=dur, minlength=n_names)
    selfs = np.bincount(nid, weights=own, minlength=n_names)
    index = {str(n): i for i, n in enumerate(names)}

    def cnt(name):
        return int(calls[index[name]]) if name in index else 0

    def tot(name):
        return float(total[index[name]]) if name in index else 0.0

    def slf(name):
        return float(selfs[index[name]]) if name in index else 0.0

    c = tracer.counts
    acc, rej = c["accepted"], c["rejected"]
    steps = acc + rej
    probes = cnt("population.empirical_flow")
    pairs = c["pairs"]
    m = {
        "population.rhs_evals": cnt("population.rhs"),
        "population.rhs_s": tot("population.rhs"),
        "population.pair_evals": pairs,
        "population.ns_per_pair": tot("population.rhs") / pairs * 1e9 if pairs else 0.0,
        "population.computed_mb": c["rhs_bytes"] / 1e6,
        "population.integrate.calls": cnt("population.integrate"),
        "population.probe_solves": probes,
        "population.probe_s": tot("population.empirical_flow"),
        "population.probe_redundant_frac": c["probe_redundant"] / probes if probes else 0.0,
        "solver.solve_ode.calls": cnt("solver.solve_ode"),
        "solver.accepted_steps": acc,
        "solver.rejected_steps": rej,
        "solver.accept_ratio": acc / steps if steps else 0.0,
        "solver.max_step_capped_frac": c["capped"] / acc if acc else 0.0,
        "solver.self_s": slf("solver.solve_ode"),
        "solver.overhead_us_per_step": slf("solver.solve_ode") / steps * 1e6 if steps else 0.0,
        "solver.dense_evals": cnt("solver.dense"),
        "solver.dense_s": tot("solver.dense"),
        "meanfield.mc_potential.s": tot("meanfield.mc_potential"),
        "meanfield.mc_pairs": c["mc_pairs"],
        "meanfield.fit_stage.calls": cnt("meanfield.fit_stage"),
        "meanfield.fit_stage.s": tot("meanfield.fit_stage"),
        "meanfield.stage_eval.s": tot("meanfield.stage_eval"),
        "meanfield.flow_eval_many.calls": cnt("meanfield.flow_eval_many"),
        "meanfield.flow_eval_many.s": tot("meanfield.flow_eval_many"),
        "meanfield.train.self_s": slf("meanfield.train"),
        "initial.sample_mu0.calls": cnt("initial.sample_mu0"),
        "initial.samples": c["samples"],
        "initial.sample_mu0.s": tot("initial.sample_mu0"),
        "metrics.w1_matching.calls": cnt("metrics.w1_matching"),
        "metrics.w1_matching.atoms": c["atoms"],
        "metrics.w1_matching.s": tot("metrics.w1_matching"),
        "metrics.w1_sorted.s": tot("metrics.w1_sorted"),
        "metrics.bound.s": tot("metrics.bound"),
        "metrics.convergence.self_s": slf("metrics.convergence"),
        "textio.rows": c["rows"],
        "textio.bytes": c["bytes"],
        "textio.write_s": tot("textio.write_csv"),
        "config.build_s": tot("config.build"),
        "cli.self_s": slf("cli.main"),
    }
    layers = {layer: 0.0 for layer in LAYERS}
    by_name = {}
    for name, i in index.items():
        if not calls[i]:
            continue
        layers[name.split(".", 1)[0]] += float(selfs[i])
        by_name[name] = {
            "calls": int(calls[i]),
            "total_s": float(total[i]),
            "self_s": float(selfs[i]),
        }
    detail = {
        "layers_self_s": layers,
        "spans": by_name,
        "step_count_mismatches": int(c["step_count_mismatch"]),
    }
    return m, detail


UNITS = {
    "population.rhs_evals": "count",
    "population.rhs_s": "s",
    "population.pair_evals": "count",
    "population.ns_per_pair": "ns",
    "population.computed_mb": "MB",
    "population.integrate.calls": "count",
    "population.probe_solves": "count",
    "population.probe_s": "s",
    "population.probe_redundant_frac": "ratio",
    "solver.solve_ode.calls": "count",
    "solver.accepted_steps": "count",
    "solver.rejected_steps": "count",
    "solver.accept_ratio": "ratio",
    "solver.max_step_capped_frac": "ratio",
    "solver.self_s": "s",
    "solver.overhead_us_per_step": "us",
    "solver.dense_evals": "count",
    "solver.dense_s": "s",
    "meanfield.mc_potential.s": "s",
    "meanfield.mc_pairs": "count",
    "meanfield.fit_stage.calls": "count",
    "meanfield.fit_stage.s": "s",
    "meanfield.stage_eval.s": "s",
    "meanfield.flow_eval_many.calls": "count",
    "meanfield.flow_eval_many.s": "s",
    "meanfield.train.self_s": "s",
    "initial.sample_mu0.calls": "count",
    "initial.samples": "count",
    "initial.sample_mu0.s": "s",
    "metrics.w1_matching.calls": "count",
    "metrics.w1_matching.atoms": "count",
    "metrics.w1_matching.s": "s",
    "metrics.w1_sorted.s": "s",
    "metrics.bound.s": "s",
    "metrics.convergence.self_s": "s",
    "textio.rows": "count",
    "textio.bytes": "bytes",
    "textio.write_s": "s",
    "config.build_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
