"""Output checks for benchmark passes.

Every pass is checked three ways: the invariants the package promises
(sizes inside ``(s_m, S)``, shading indices in ``[0, 1]``, finite
distances, training quality above the acceptance floor), agreement with
reference outputs recorded at the commit that introduced the benchmark,
and byte identity with the previous pass on the same inputs.

The reference tolerance is ``REL_TOL`` of the largest magnitude in the
compared column.  It sits far above the solver's ``rel_tol = 1e-8`` so
that accuracy-neutral rewrites (shifts of 1e-11 to 1e-8) pass, and far
below errors of the class of a broken kernel approximation (percent
level).  This module depends only on NumPy, so it can be tested without
the package.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REL_TOL = 1e-6

# Acceptance criterion 05: held-out R^2 floor of every stage, and of stage 0.
R2_FLOOR = 0.95
R2_FLOOR_FIRST = 0.97

# Beyond this many atoms the package skips the exact assignment and
# writes NaN for ``w1_full``.
MATCHING_CAP = 512

# Snapshot indices of a trajectory whose per-plant values are kept in a
# reference; every snapshot is covered by its column sums.
_SNAPSHOT_PICKS = (0, 10, 20)


def read_csv(path) -> tuple[list, np.ndarray]:
    """Header and numeric rows of a package CSV (``#`` comment lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    header = lines[0].strip().split(",")
    rows = np.array(
        [[float(v) for v in ln.split(",")] for ln in lines[1:]], dtype=float
    ).reshape(len(lines) - 1, len(header))
    return header, rows


def header_stamp(path) -> str:
    """The ``config_sha256=... seed=...`` comment of a package output."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    return first[2:].strip() if first.startswith("# ") else ""


def tree_digest(directory) -> str:
    """sha256 over the names and bytes of every file below ``directory``."""
    h = hashlib.sha256()
    root = Path(directory)
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def _column(header, rows, name):
    return rows[:, header.index(name)]


# --------------------------------------------------------------------------
# Digests: the arrays a reference stores and a pass is compared on.


def trajectory_digest(path) -> dict:
    """Reference arrays of one ``trajectory.csv``."""
    header, rows = read_csv(path)
    t = _column(header, rows, "t")
    times = np.unique(t)
    n = rows.shape[0] // times.size
    if n * times.size != rows.shape[0]:
        raise ValueError(f"{path}: {rows.shape[0]} rows are not times x plants")
    grid = rows.reshape(times.size, n, len(header))
    picks = [k for k in _SNAPSHOT_PICKS if k < times.size]
    col = {name: i for i, name in enumerate(header)}
    return {
        "t": times,
        "static": grid[0][:, [col["x1"], col["x2"], col["S"], col["gamma"]]],
        "s": grid[picks][:, :, col["s"]],
        "C": grid[picks][:, :, col["C_index"]],
        "s_sum": grid[:, :, col["s"]].sum(axis=1),
        "C_sum": grid[:, :, col["C_index"]].sum(axis=1),
    }


def train_digest(out_dir) -> dict:
    """Reference arrays of one ``train-meanfield`` output directory."""
    _, r2 = read_csv(Path(out_dir) / "r2.csv")
    with open(Path(out_dir) / "model.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    beta = np.array([st["beta"] for st in doc["stages"]], dtype=float)
    return {"r2": r2, "beta": beta}


def distances_digest(path) -> dict:
    """Reference arrays of one ``distances.csv``."""
    _, rows = read_csv(path)
    return {"rows": rows}


# Reference arrays compared row by row (each row its own scale) instead of
# column by column: stage coefficients differ in magnitude between stages.
_ROW_SCALED = {"beta"}


def compare(digest: dict, reference: dict, label: str) -> list:
    """Problems found comparing a digest with its reference; empty if none."""
    problems = []
    for key, ref in reference.items():
        ref = np.asarray(ref, dtype=float)
        got = np.asarray(digest.get(key), dtype=float)
        if got.shape != ref.shape:
            problems.append(f"{label}/{key}: shape {got.shape} != {ref.shape}")
            continue
        nan_ref = np.isnan(ref)
        if not np.array_equal(nan_ref, np.isnan(got)):
            problems.append(f"{label}/{key}: NaN pattern differs")
            continue
        if ref.size == 0:
            continue
        axis = 1 if key in _ROW_SCALED else 0
        mag = np.where(nan_ref, 0.0, np.abs(ref))
        scale = mag.max(axis=axis, keepdims=True) if ref.ndim > 1 else mag.max()
        err = np.where(nan_ref, 0.0, np.abs(got - ref))
        limit = REL_TOL * scale
        bad = err > limit
        if np.any(bad):
            rel = float(np.max(err / np.where(scale > 0.0, scale, 1.0)))
            problems.append(
                f"{label}/{key}: {int(bad.sum())} values off reference, "
                f"worst {rel:.2e} of column scale (limit {REL_TOL:.0e})"
            )
    return problems


# --------------------------------------------------------------------------
# Invariants.


def trajectory_invariants(path, s_m: float) -> list:
    """``s_m < s < S`` and ``C_index`` in ``[0, 1]`` on every row."""
    header, rows = read_csv(path)
    s = _column(header, rows, "s")
    cap = _column(header, rows, "S")
    c = _column(header, rows, "C_index")
    problems = []
    if rows.shape[0] == 0:
        problems.append(f"{path}: no rows")
    bad_s = int(np.sum(~((s_m < s) & (s < cap))))
    if bad_s:
        problems.append(f"{path}: {bad_s} sizes outside (s_m, S)")
    bad_c = int(np.sum(~((c >= 0.0) & (c <= 1.0))))
    if bad_c:
        problems.append(f"{path}: {bad_c} C_index values outside [0, 1]")
    return problems


def distances_invariants(path) -> list:
    """Finite distances; ``w1_full`` is NaN exactly when N exceeds the cap."""
    header, rows = read_csv(path)
    problems = []
    if rows.shape[0] == 0:
        problems.append(f"{path}: no rows")
    n = _column(header, rows, "N")
    for name in ("t", "w1_size", "flow_gap", "bound_value"):
        if not np.all(np.isfinite(_column(header, rows, name))):
            problems.append(f"{path}: non-finite {name}")
    w1_full = _column(header, rows, "w1_full")
    expect_nan = n > MATCHING_CAP
    if not np.array_equal(np.isnan(w1_full), expect_nan):
        problems.append(f"{path}: w1_full is NaN other than exactly where N > {MATCHING_CAP}")
    if not np.all(np.isfinite(w1_full[~expect_nan])):
        problems.append(f"{path}: non-finite w1_full")
    return problems


def r2_invariants(path) -> list:
    """Held-out R^2 at or above the acceptance floor on every stage."""
    header, rows = read_csv(path)
    r2 = _column(header, rows, "r2_test")
    problems = []
    if r2.size == 0:
        problems.append(f"{path}: no stages")
    elif not (np.all(r2 >= R2_FLOOR) and r2[0] >= R2_FLOOR_FIRST):
        problems.append(
            f"{path}: r2_test {np.round(r2, 4).tolist()} below floor "
            f"{R2_FLOOR} (first stage {R2_FLOOR_FIRST})"
        )
    return problems
