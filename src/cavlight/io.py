"""Stable file formats for field maps, tables, and reports.

All floating values are serialized with 9 significant digits; outputs
carry a provenance block (config hash, tool version, seed) and no
timestamps, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np

from . import __version__
from .bounds import ScalingTable
from .fieldmap import FieldMap

CSV_COLUMNS = ("xi", "eta", "zeta", "h00", "h11", "h22", "h33", "h23", "dcx", "dcy", "dcz", "err")


def fmt(value: float) -> str:
    return format(float(value), ".9g")


def round9(value: float) -> float:
    return float(fmt(value))


def config_hash(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def provenance_block(config_dict: dict | None, seed: int) -> dict[str, Any]:
    return {
        "tool": "cavlight",
        "version": __version__,
        "config_sha256": config_hash(config_dict) if config_dict is not None else None,
        "seed": int(seed),
    }


def _fieldmap_rows(field: FieldMap):
    pts = field.grid.points()
    shape = field.grid.shape
    cols = []
    for name in CSV_COLUMNS[3:-1]:
        arr = field.components.get(name)
        if arr is None:
            arr = np.zeros(shape)
        cols.append(arr.reshape(-1))
    cols.append(field.errors.reshape(-1))
    return pts, cols


def fieldmap_to_csv(field: FieldMap, provenance: dict) -> str:
    lines = [f"# {key}: {value}" for key, value in sorted(provenance.items())]
    lines += [f"# units: {field.units}", ",".join(CSV_COLUMNS)]
    pts, cols = _fieldmap_rows(field)
    for i in range(len(pts)):
        row = [fmt(pts[i, 0]), fmt(pts[i, 1]), fmt(pts[i, 2])]
        row += [fmt(col[i]) for col in cols]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def fieldmap_to_json(field: FieldMap, provenance: dict) -> str:
    pts, cols = _fieldmap_rows(field)
    payload: dict[str, Any] = {
        "provenance": provenance,
        "units": field.units,
        "grid": {
            "xi": list(field.grid.xi),
            "eta": list(field.grid.eta),
            "zeta": list(field.grid.zeta),
        },
        "converged": bool(field.all_converged),
    }
    for j, name in enumerate(("xi", "eta", "zeta")):
        payload[name] = [round9(v) for v in pts[:, j]]
    for name, col in zip(CSV_COLUMNS[3:], cols):
        payload[name] = [round9(v) for v in col]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def table_to_json(table: ScalingTable, provenance: dict) -> str:
    entries = {}
    for key, cell in table.entries().items():
        if cell is None:
            entries[key] = None
        else:
            entries[key] = {k: round9(v) for k, v in cell.items()}
    payload = {"provenance": provenance, "entries": entries}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def table_to_text(table: ScalingTable) -> str:
    rows = []
    header = f"{'entry':<20}{'delta_c/c':>14}{'n_opt':>14}"
    rows.append(header)
    rows.append("-" * len(header))
    for key, cell in table.entries().items():
        if cell is None:
            rows.append(f"{key:<20}{'absent':>14}{'':>14}")
            continue
        n_opt = fmt(cell["n_opt"]) if "n_opt" in cell else ""
        rows.append(f"{key:<20}{fmt(cell['delta_c']):>14}{n_opt:>14}")
    return "\n".join(rows) + "\n"
