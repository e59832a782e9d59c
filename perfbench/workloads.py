"""The benchmark's workloads, each driven through ``plantfield.cli.main``.

A workload turns the benchmark seed into inputs (CLI arguments and
config files), sets itself up, runs one pass at a time, and checks the
outputs of each pass.  Inputs come from a pool of ``INPUT_SEEDS`` package
seeds (``seed % INPUT_SEEDS``) so that every input has reference outputs
in ``refs/``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import checks

INPUT_SEEDS = 8
REFS = Path(__file__).resolve().parent / "refs"


def _main(argv) -> None:
    from plantfield import cli

    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"plantfield {argv[0]} exited with code {rc}")


def _fresh(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def _write_config(path: Path, entries: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    return path


class Workload:
    """One workload on one input seed, working below ``work``."""

    name = ""
    why = ""

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = int(seed) % INPUT_SEEDS
        self._refs = None

    # Subclasses define these.
    def setup(self, where: Path) -> list:
        """Prepare inputs and warm up; returns problems found."""
        raise NotImplementedError

    def run_pass(self, out: Path) -> None:
        raise NotImplementedError

    def digests(self, out: Path) -> dict:
        """Reference arrays of a pass's outputs, keyed by reference name."""
        raise NotImplementedError

    def invariants(self, out: Path) -> list:
        raise NotImplementedError

    def items(self, out: Path) -> int:
        raise NotImplementedError

    def stamp_file(self, out: Path) -> Path:
        """An output whose header carries the config hash and seed."""
        raise NotImplementedError

    def extra_determinism(self, out: Path) -> list:
        """Same-seed identity check for runs that make a single pass."""
        return []

    # Shared.
    def references(self) -> dict:
        if self._refs is None:
            with np.load(REFS / f"{self.name}.npz") as z:
                self._refs = {k: z[k] for k in z.files}
        return self._refs

    def check(self, out: Path) -> list:
        """Invariant and reference problems of one pass's outputs."""
        problems = self.invariants(out)
        refs = self.references()
        for ref_name, digest in self.digests(out).items():
            ref = {
                k.split("/", 1)[1]: v
                for k, v in refs.items()
                if k.split("/", 1)[0] == ref_name
            }
            if not ref:
                problems.append(f"no reference for {ref_name}")
            problems += checks.compare(digest, ref, ref_name)
        return problems


def _s_m() -> float:
    from plantfield.config import DEFAULTS

    return float(DEFAULTS["model.s_m"])


class _Simulate(Workload):
    n = 0
    runs = 1

    def _seeds(self):
        return [self.seed + j for j in range(self.runs)]

    def setup(self, where: Path) -> list:
        # Warm up on a full 50-plant run and, at the pass's own N, on a
        # short horizon, so that first-touch costs of the N x N arrays are
        # paid here rather than in the first pass.
        _main(["simulate", "--n", 50, "--seed", self.seed, "--out", where / "warm"])
        if self.n != 50:
            short = _write_config(where / "short.cfg", {"solver.t_end": 1.0})
            _main([
                "simulate", "--config", short, "--n", self.n, "--seed", self.seed,
                "--out", where / "warm-n",
            ])
        return []

    def run_pass(self, out: Path) -> None:
        for s in self._seeds():
            _main(["simulate", "--n", self.n, "--seed", s, "--out", out / f"seed{s}"])

    def digests(self, out: Path) -> dict:
        return {
            f"seed{s}": checks.trajectory_digest(out / f"seed{s}" / "trajectory.csv")
            for s in self._seeds()
        }

    def invariants(self, out: Path) -> list:
        s_m = _s_m()
        problems = []
        for s in self._seeds():
            problems += checks.trajectory_invariants(
                out / f"seed{s}" / "trajectory.csv", s_m
            )
        return problems

    def items(self, out: Path) -> int:
        total = 0
        for s in self._seeds():
            doc = json.loads((out / f"seed{s}" / "diagnostics.json").read_text())
            total += doc["n"] * doc["n_accepted_steps"]
        return total

    def stamp_file(self, out: Path) -> Path:
        return out / f"seed{self.seed}" / "trajectory.csv"


class SimulateN800(_Simulate):
    name = "simulate-n800"
    why = (
        "one 800-plant simulate: the O(N^2) pairwise RHS takes ~95% of the "
        "pass, so kernel work shows here; no mean-field code runs"
    )
    n = 800


class SimulateN50x32(_Simulate):
    name = "simulate-n50x32"
    why = (
        "32 simulates of 50 plants: same population/solver path in the "
        "per-call overhead regime, where fixed per-RHS and per-step costs show"
    )
    n = 50
    runs = 32


class TrainDefault(Workload):
    name = "train-default"
    why = (
        "one train-meanfield at the defaults (N=K=1000, 10 stages): "
        "Monte-Carlo targets and stage fits, no ODE solve and no population"
    )

    def setup(self, where: Path) -> list:
        self.config = _write_config(where / "train.cfg", {"seed": self.seed})
        warm = _write_config(where / "warm.cfg", {"seed": self.seed, "train.T": 2.0})
        _main(["train-meanfield", "--config", warm, "--out", where / "warm"])
        return []

    def run_pass(self, out: Path) -> None:
        _main(["train-meanfield", "--config", self.config, "--out", out])

    def digests(self, out: Path) -> dict:
        return {f"seed{self.seed}": checks.train_digest(out)}

    def invariants(self, out: Path) -> list:
        return checks.r2_invariants(out / "r2.csv")

    def items(self, out: Path) -> int:
        from plantfield.config import DEFAULTS

        _, r2 = checks.read_csv(out / "r2.csv")
        return 2 * int(DEFAULTS["train.K"]) * r2.shape[0]

    def stamp_file(self, out: Path) -> Path:
        return out / "r2.csv"


class ConvergeLadder(Workload):
    name = "converge-ladder"
    why = (
        "converge over N=50,100,200 on the 21-point grid against a model "
        "trained in set-up: ~96% of the pass is scalar probe ODE solves"
    )
    n_list = "50,100,200"

    def setup(self, where: Path) -> list:
        self.config = _write_config(where / "run.cfg", {"seed": self.seed})
        _main(["train-meanfield", "--config", self.config, "--out", where / "model"])
        model = (where / "model" / "model.json").read_bytes()
        problems = []
        if getattr(self, "model", None) is not None:
            if self.model.read_bytes() != model:
                problems.append("set-up trainings on one seed differ in bytes")
        self.model = where / "model" / "model.json"
        return problems

    def _argv(self, n_list, out):
        return [
            "converge", "--config", self.config, "--model", self.model,
            "--n-list", n_list, "--out", out,
        ]

    def run_pass(self, out: Path) -> None:
        _main(self._argv(self.n_list, out))

    def digests(self, out: Path) -> dict:
        return {f"seed{self.seed}": checks.distances_digest(out / "distances.csv")}

    def invariants(self, out: Path) -> list:
        return checks.distances_invariants(out / "distances.csv")

    def items(self, out: Path) -> int:
        header, rows = checks.read_csv(out / "distances.csv")
        return int(rows[:, header.index("N")].sum())

    def stamp_file(self, out: Path) -> Path:
        return out / "distances.csv"

    def extra_determinism(self, out: Path) -> list:
        """Re-run the smallest rung alone; its rows must match byte for byte.

        Populations are drawn nestedly and each rung is computed on its
        own, so ``--n-list 50`` reproduces the N=50 rows of the ladder.
        """
        smallest = self.n_list.split(",")[0]
        again = _fresh(self.work / "determinism")
        _main(self._argv(smallest, again))
        ladder = (out / "distances.csv").read_text().splitlines()
        rung = (again / "distances.csv").read_text().splitlines()
        expected = ladder[:2] + [
            ln for ln in ladder[2:] if ln.split(",")[0] == smallest
        ]
        shutil.rmtree(again)
        if rung != expected:
            return [f"--n-list {smallest} differs from the ladder's N={smallest} rows"]
        return []


WORKLOADS = {
    w.name: w for w in (SimulateN800, SimulateN50x32, TrainDefault, ConvergeLadder)
}
