"""plantfield benchmark: one client, one workload pass at a time.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload simulate-n800 --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the current directory and driven
only through ``plantfield.cli.main``, in a closed loop: the next pass
starts when the previous one has finished.  The run sets the workload up
``SETUPS`` times (``setup_s`` is the median), then makes passes until the
next one would end after ``--seconds``.  Every pass's outputs are checked
(see ``checks.py``); a pass that raises, exits nonzero or fails a check
counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes (see ``spans.py``) and reports the per-layer
metrics; it also writes the layer breakdown and the spans of the last
traced pass under ``.bench_out/``.  The last line of standard
output is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# BLAS threads: at most the cores this process may use, and at most two,
# fixed before NumPy is first imported.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(NPROC, 2)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, _fresh  # noqa: E402

SETUPS = 3
OUT = Path(".bench_out")


def _import_package(root: Path):
    """Import ``plantfield`` from ``root/src``, refusing any other copy."""
    pkg = root / "src" / "plantfield"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {pkg}")
    sys.path.insert(0, str(root / "src"))
    import plantfield

    if Path(plantfield.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported {plantfield.__file__}, not {pkg}")
    return plantfield


def _reset_peak_rss() -> bool:
    """Reset this process's resident high-water mark (Linux); False if refused."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _git_sha(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_record(root: Path, wl, stamp: str) -> dict:
    """Where the numbers came from: code, inputs, machine and libraries."""
    import scipy

    h = hashlib.sha256()
    lines = 0
    for p in sorted((root / "src" / "plantfield").glob("*.py")):
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    fields = dict(kv.split("=", 1) for kv in stamp.split() if "=" in kv)
    return {
        "workload": wl.name,
        "input_seed": wl.seed,
        "config_sha256": fields.get("config_sha256"),
        "package_seed": fields.get("seed"),
        "git_sha": _git_sha(root),
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _setups(wl, work: Path):
    times, problems = [], []
    for i in range(SETUPS):
        where = _fresh(work / f"setup-{i}")
        t0 = time.perf_counter()
        problems += wl.setup(where)
        times.append(time.perf_counter() - t0)
    return times, problems


def _one_pass(wl, out: Path, tracer, traced: bool) -> dict:
    """Run, time and check one pass."""
    problems = []
    gc.collect()
    rss_reset = _reset_peak_rss()
    t0 = time.perf_counter()
    try:
        if traced:
            tracer.clear()
            with spans.patched(tracer):
                wl.run_pass(out)
        else:
            wl.run_pass(out)
    except Exception as exc:  # a failed pass is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        problems.append(f"pass raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    rss = _peak_rss_mb()
    layer = spans.pass_metrics(tracer) if traced else None
    items, digest = 0, None
    if not problems:
        try:
            problems += wl.check(out)
            items = wl.items(out)
            digest = checks.tree_digest(out)
        except Exception as exc:  # missing or malformed output
            traceback.print_exc(file=sys.stderr)
            problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
    return {
        "traced": traced, "wall": wall, "rss": rss, "rss_reset": rss_reset,
        "items": items, "digest": digest, "problems": problems,
        "layer": layer, "out": out,
    }


def _measure(wl, work: Path, seconds: float, trace: bool, tracer) -> list:
    """Passes until the next would end after ``seconds``.

    With tracing, plain and traced passes alternate, starting plain, and
    at least one traced pass is made.  Every pass after the first must
    match its output bytes.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p = _one_pass(wl, _fresh(work / f"pass-{len(passes)}"), tracer, traced)
        if passes:
            first = passes[0]["digest"]
            if None not in (first, p["digest"]) and first != p["digest"]:
                p["problems"].append("outputs differ in bytes from the first pass")
            shutil.rmtree(passes[-1]["out"])
        passes.append(p)
        elapsed = time.perf_counter() - start
        estimate = _median([q["wall"] for q in passes])
        if (not trace or len(passes) > 1) and elapsed + estimate > seconds:
            break
    if len(passes) == 1 and not passes[0]["problems"]:
        passes[0]["problems"] += wl.extra_determinism(passes[0]["out"])
    return passes


def _end_to_end(passes, plain, setup_s) -> dict:
    attempted = len(passes)
    failed = sum(1 for p in passes if p["problems"])
    return {
        "wall_s": (_median([p["wall"] for p in plain]), "s"),
        "items_per_s": (_median([p["items"] / p["wall"] for p in plain]), "1/s"),
        "setup_s": (_median(setup_s), "s"),
        "peak_rss_mb": (_median([p["rss"] for p in plain]), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }


def _per_layer(passes, plain):
    """Per-layer metrics (median over traced passes) and the layer breakdown."""
    traced = [p for p in passes if p["traced"]]
    untraced_wall = _median([p["wall"] for p in plain])
    traced_wall = _median([p["wall"] for p in traced])
    metrics = {}
    for name, unit in spans.UNITS.items():
        if name == "trace.overhead_s":
            value = traced_wall - untraced_wall
        else:
            value = _median([p["layer"][0][name] for p in traced])
        metrics[name] = (value, unit)

    detail = dict(traced[-1]["layer"][1])
    layers = {
        layer: _median([p["layer"][1]["layers_self_s"][layer] for p in traced])
        for layer in spans.LAYERS
    }
    detail["layers_self_s"] = layers
    attributed = sum(layers.values())
    base = untraced_wall or float("nan")
    table = [
        f"medians: untraced wall {untraced_wall:.4f} s, traced wall "
        f"{traced_wall:.4f} s; layer self times sum to {attributed:.4f} s "
        f"({attributed / base:.1%} of untraced wall)"
    ]
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        table.append(f"  {layer:<11} {s:9.4f} s  {s / base:6.1%}")
    summary = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "attributed_s": attributed,
        "table": table,
        **detail,
    }
    return metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_package(root)
    work = _fresh(OUT / args.workload)
    wl = WORKLOADS[args.workload](work, args.seed)
    tracer = spans.Tracer()

    setup_s, setup_problems = _setups(wl, work)
    passes = _measure(wl, work, args.seconds, bool(args.trace), tracer)
    passes[0]["problems"][:0] = setup_problems
    for k, p in enumerate(passes):
        for problem in p["problems"]:
            print(f"pass {k} check failed: {problem}", file=sys.stderr)

    ok = [p for p in passes if not p["problems"]]
    plain = [p for p in ok if not p["traced"]] or [
        p for p in passes if not p["traced"]
    ]
    last = passes[-1]
    stamp = "" if last["problems"] else checks.header_stamp(wl.stamp_file(last["out"]))
    record = _run_record(root, wl, stamp)
    record.update(
        seconds=args.seconds,
        passes=len(passes),
        pass_walls_s=[round(p["wall"], 4) for p in passes],
        setup_walls_s=[round(t, 4) for t in setup_s],
        rss_reset=all(p["rss_reset"] for p in passes),
    )

    if args.trace:
        metrics, summary = _per_layer(passes, plain)
        (OUT / f"{wl.name}-trace.json").write_text(
            json.dumps({"record": record, **summary}, indent=1) + "\n"
        )
        np.savez_compressed(OUT / f"{wl.name}-spans.npz", **tracer.arrays())
        print("\n".join(summary["table"]))
    else:
        metrics = _end_to_end(passes, plain, setup_s)
        walls = [p["wall"] for p in plain]
        print(
            f"{wl.name}: wall_s median of {len(walls)} passes "
            f"{metrics['wall_s'][0]:.4f} (min {min(walls):.4f}, max "
            f"{max(walls):.4f}); setup_s median of {SETUPS} "
            f"{metrics['setup_s'][0]:.4f}"
        )
    print("record: " + json.dumps(record, sort_keys=True))
    failed = len(passes) - len(ok)
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{wl.name}-result.json").write_text(
        json.dumps({"record": record, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
