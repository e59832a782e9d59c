"""Tests of the benchmark's own arithmetic and output checks.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import spans

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def test_self_time_nested_spans():
    # root [0, 10] > child [2, 5] > grandchild [3, 4]
    own = spans.self_times([0.0, 2.0, 3.0], [10.0, 5.0, 4.0], [-1, 0, 1])
    np.testing.assert_allclose(own, [7.0, 2.0, 1.0])


def test_self_time_back_to_back_spans():
    # Children [1, 3] and [3, 6] touch; together they cover 5 of 10.
    own = spans.self_times([0.0, 1.0, 3.0], [10.0, 3.0, 6.0], [-1, 0, 0])
    np.testing.assert_allclose(own, [5.0, 2.0, 3.0])


def test_self_time_takes_union_of_overlapping_and_overhanging_children():
    # Children [1, 4] and [2, 6] overlap (union 5); [8, 12] overhangs the
    # parent and counts only up to its end; [20, 21] lies outside it.
    own = spans.self_times(
        [0.0, 1.0, 2.0, 8.0, 20.0],
        [10.0, 4.0, 6.0, 12.0, 21.0],
        [-1, 0, 0, 0, 0],
    )
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_self_time_children_listed_out_of_order():
    own = spans.self_times([0.0, 6.0, 1.0], [10.0, 9.0, 2.0], [-1, 0, 0])
    assert own[0] == pytest.approx(6.0)


def test_tracer_records_nesting_and_partitions_root_time():
    tr = spans.Tracer()

    def leaf(x):
        return x + 1

    wrapped_leaf = tr.wrap("population.rhs", leaf)

    def outer(n):
        return sum(wrapped_leaf(i) for i in range(n))

    wrapped_outer = tr.wrap("solver.solve_ode", outer)
    assert wrapped_outer(3) == 6
    wrapped_outer(2)
    a = tr.arrays()
    names = [str(a["names"][i]) for i in a["name_id"]]
    assert names == ["solver.solve_ode"] + ["population.rhs"] * 3 + [
        "solver.solve_ode"
    ] + ["population.rhs"] * 2
    assert a["parent"].tolist() == [-1, 0, 0, 0, -1, 4, 4]
    own = spans.self_times(a["start"], a["end"], a["parent"])
    roots = a["parent"] < 0
    total = float(np.sum((a["end"] - a["start"])[roots]))
    assert float(own.sum()) == pytest.approx(total, rel=1e-12)
    assert np.all(own >= 0.0)
    tr.clear()
    assert len(tr.start) == 0 and tr.current() is None


def test_compare_tolerance():
    ref = {"v": np.array([1.0, 2.0, 0.5]), "m": np.array([[1.0, 1e-17], [3.0, 2.0]])}
    same = {k: v.copy() for k, v in ref.items()}
    assert checks.compare(same, ref, "x") == []
    shifted = {k: v * (1.0 + 1e-8) for k, v in ref.items()}
    assert checks.compare(shifted, ref, "x") == []
    perturbed = {k: v * (1.0 + 1e-5) for k, v in ref.items()}
    assert len(checks.compare(perturbed, ref, "x")) == 2
    one = {k: v.copy() for k, v in ref.items()}
    one["v"][2] *= 1.0 + 1e-5  # 5e-6 of the column's largest value
    assert len(checks.compare(one, ref, "x")) == 1
    nan = {k: v.copy() for k, v in ref.items()}
    nan["v"][0] = np.nan
    assert checks.compare(nan, ref, "x") == ["x/v: NaN pattern differs"]


def test_failed_check_counts_as_failed_pass(tmp_path):
    import run

    class Stub:
        """Writes 1.0, then 1.0 shifted by 1e-5, then 1.0 again."""

        shifts = [0.0, 1e-5, 0.0]

        def run_pass(self, out):
            (out / "v.txt").write_text(repr(1.0 + self.shifts.pop(0)))

        def check(self, out):
            got = {"v": np.array([float((out / "v.txt").read_text())])}
            return checks.compare(got, {"v": np.array([1.0])}, "stub")

        def items(self, out):
            return 1

    stub, tracer = Stub(), spans.Tracer()
    passes = [
        run._one_pass(stub, _mkdir(tmp_path / f"p{k}"), tracer, traced=False)
        for k in range(3)
    ]
    assert [bool(p["problems"]) for p in passes] == [False, True, False]
    metrics = run._end_to_end(passes, passes, setup_s=[1.0])
    assert metrics["ok_frac"][0] == pytest.approx(2 / 3)


def _rewrite_column(path: Path, column: str, factor: float) -> None:
    lines = path.read_text().splitlines(keepends=True)
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    col = lines[body[0]].strip().split(",").index(column)
    for i in body[1:]:
        cells = lines[i].rstrip("\n").split(",")
        cells[col] = repr(float(cells[col]) * factor)
        lines[i] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def test_trajectory_invariants_catch_out_of_band_values(tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_text(
        "# stamp\nt,plant_id,s,x1,x2,S,gamma,C_index\n"
        "0.0,0,0.1,0.0,0.0,0.6,1.0,0.2\n"
        "0.0,1,0.7,0.0,0.0,0.6,1.0,1.5\n"
    )
    problems = checks.trajectory_invariants(path, s_m=0.05)
    assert len(problems) == 2


def test_output_check_fires_on_perturbed_pass(tmp_path):
    """A real pass passes its check; the same output shifted by 1e-5 fails."""
    from workloads import SimulateN50x32, TrainDefault

    sim = SimulateN50x32(tmp_path / "sim", seed=0)
    sim.setup(_mkdir(tmp_path / "sim-setup"))
    out = _mkdir(tmp_path / "sim-out")
    sim.run_pass(out)
    assert sim.check(out) == []
    _rewrite_column(out / "seed0" / "trajectory.csv", "s", 1.0 + 1e-5)
    problems = sim.check(out)
    assert problems and all("seed0/" in p for p in problems)

    train = TrainDefault(tmp_path / "train", seed=0)
    train.setup(_mkdir(tmp_path / "train-setup"))
    out = _mkdir(tmp_path / "train-out")
    train.run_pass(out)
    assert train.check(out) == []
    _rewrite_column(out / "r2.csv", "r2_test", 1.0 - 1e-5)
    assert any("seed0/r2" in p for p in train.check(out))


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True)
    return path
