"""Deterministic text output helpers.

All CSV and JSON emitted by this package goes through these functions so
that identical inputs produce byte-identical files: floats are written
with ``repr`` (shortest round-trip form), rows keep a fixed column
order, and line endings are always ``\\n``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Iterator, Sequence

__all__ = [
    "format_floats",
    "format_row",
    "format_value",
    "sha256_hex",
    "write_csv",
    "write_json",
]


def format_value(v) -> str:
    """Render one CSV cell: shortest round-trip form for floats."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, float):
        # float() drops a subclass such as np.float64, whose repr differs.
        return repr(float(v))
    # other numpy scalars land here; convert through item() when available
    item = getattr(v, "item", None)
    if item is not None:
        return format_value(item())
    return str(v)


def format_floats(values: Iterable[float]) -> Iterator[str]:
    """``format_value`` over Python floats (such as ``ndarray.tolist()``),
    without its per-cell type dispatch."""
    return map(repr, values)


def format_row(cells: Sequence) -> str:
    """One CSV line, without its newline: each cell as ``format_value``."""
    return ",".join(map(format_value, cells))


def write_csv(
    path,
    header: Sequence[str],
    lines: Iterable[str],
    comments: Sequence[str] = (),
) -> None:
    """Write a CSV file: optional leading ``#`` comment lines, the header,
    then one rendered row (see ``format_row``) per item of ``lines``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def write_json(path, doc) -> None:
    """Write ``doc`` as canonical JSON: sorted keys, one-space indent."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def sha256_hex(data: bytes) -> str:
    """Hex digest of ``data``."""
    return hashlib.sha256(data).hexdigest()
