"""Snapshot and report serialization.

Field snapshots are a one-line JSON header (dim, points_per_axis, extent,
epsilon, time) followed by the raw little-endian float64 block, row-major.
Diagnostics tables are CSV whose columns are the fields of
:class:`~acflow.diagnostics.DiagnosticsRecord`, in their order.  All floats are
written with repr-stable formatting so reruns are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, fields
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .diagnostics import DiagnosticsRecord
from .grid import Grid, ScalarField

__all__ = [
    "FieldFileError",
    "write_field",
    "read_field",
    "write_diagnostics_csv",
    "write_json",
]


class FieldFileError(ValueError):
    """A file that holds no field snapshot: missing or unreadable, a malformed
    header, a value block of the wrong size, or values a field rejects."""


def _fmt(x: Any) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_field(field: ScalarField, path: str | Path) -> None:
    header = {
        "dim": field.grid.dim,
        "points_per_axis": field.grid.points,
        "extent": field.grid.extent,
        "epsilon": field.epsilon,
        "time": field.time,
    }
    blob = field.values.astype("<f8").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


def read_field(path: str | Path) -> ScalarField:
    """The field of a :func:`write_field` snapshot; a file that holds none
    raises :class:`FieldFileError`."""
    keys = ("dim", "points_per_axis", "extent", "epsilon", "time")
    try:
        with open(path, "rb") as fh:
            header, blob = json.loads(fh.readline().decode("utf-8")), fh.read()
        if not (isinstance(header, dict) and set(keys) <= header.keys()):
            raise ValueError(f"its header is not a JSON object with the keys {', '.join(keys)}")
        grid = Grid(dim=header["dim"], extent=header["extent"], points=header["points_per_axis"])
        values = np.frombuffer(blob, dtype="<f8").reshape(grid.shape)
        return ScalarField(grid=grid, values=values, epsilon=header["epsilon"],
                           time=header["time"])
    except (OSError, ValueError, RecursionError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise FieldFileError(f"cannot read field {path}: {reason}") from None


def write_diagnostics_csv(records: Iterable[DiagnosticsRecord], path: str | Path) -> None:
    """One column per field of :class:`DiagnosticsRecord`, in its order."""
    columns = [f.name for f in fields(DiagnosticsRecord)]
    write_table_csv(columns, map(astuple, records), path)


def write_table_csv(columns: Sequence[str], rows: Iterable[Sequence[Any]], path: str | Path) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_graph_csv(graph, path: str | Path) -> None:
    """Level-set graph rows: t, base coordinates, height, valid flag."""
    columns = ["t"] + [f"x{i + 1}" for i in range(graph.base.dim)] + ["h", "valid"]
    axis = graph.base.axis()
    rows = []
    for ti, t in enumerate(graph.times):
        for idx in np.ndindex(graph.heights.shape[1:]):
            coords = [axis[i] for i in idx]
            rows.append([t, *coords, graph.heights[(ti, *idx)], int(graph.valid[(ti, *idx)])])
    write_table_csv(columns, rows, path)


def _strict_json(x: Any) -> Any:
    """``x`` with each non-finite float as the string ``"inf"``, ``"-inf"`` or
    ``"nan"``, which ``float()`` reads back: JSON has no such numbers."""
    if isinstance(x, float) and not math.isfinite(x):
        return repr(float(x))
    if isinstance(x, Mapping):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    return x


def write_json(payload: Mapping[str, Any], path: str | Path) -> None:
    """``payload`` as indented JSON, keys sorted, tuples written as lists and
    non-finite floats as strings (see :func:`_strict_json`)."""
    Path(path).write_text(
        json.dumps(_strict_json(payload), indent=2, sort_keys=True, allow_nan=False) + "\n",
        encoding="utf-8",
    )
