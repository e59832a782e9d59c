"""Record the reference outputs the benchmark checks every pass against.

Run from the root of a source checkout, at the commit whose outputs are
the reference::

    python3 perfbench/record_refs.py [workload ...]

For each workload and each input seed of the pool it runs one pass,
checks the invariants, and stores the pass's digests in
``perfbench/refs/<workload>.npz``.  Per-plant trajectory values are
stored as float32, whose rounding (6e-8 relative) sits well inside the
comparison tolerance.
"""

from __future__ import annotations

import sys
from pathlib import Path

import run  # first: fixes the BLAS thread count before NumPy is imported

import numpy as np

from workloads import INPUT_SEEDS, REFS, WORKLOADS, _fresh

_FLOAT32 = {"static", "s", "C"}


def record(name: str) -> None:
    work = _fresh(run.OUT / "record" / name)
    stored: dict = {}
    for seed in range(INPUT_SEEDS):
        wl = WORKLOADS[name](work, seed)
        wl.setup(_fresh(work / "setup"))
        out = _fresh(work / f"seed-{seed}")
        wl.run_pass(out)
        problems = wl.invariants(out)
        if problems:
            raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
        for ref_name, digest in wl.digests(out).items():
            for key, value in digest.items():
                value = np.asarray(value, dtype=float)
                if key in _FLOAT32:
                    value = value.astype(np.float32)
                full = f"{ref_name}/{key}"
                if full in stored and not np.array_equal(stored[full], value):
                    raise SystemExit(f"{name}: {full} differs between passes")
                stored[full] = value
        print(f"{name} seed {seed}: {len(stored)} arrays", flush=True)
    REFS.mkdir(exist_ok=True)
    np.savez_compressed(REFS / f"{name}.npz", **stored)


def main(argv) -> int:
    run._import_package(Path.cwd())
    for name in argv or list(WORKLOADS):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
