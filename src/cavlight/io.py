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

# every field map is in units of the amplitude P
UNITS = "per-P"
CSV_COLUMNS = ("xi", "eta", "zeta", "h00", "h11", "h22", "h33", "h23", "dcx", "dcy", "dcz", "err")


def fmt(value: float) -> str:
    return format(float(value), ".9g")


def round9(value: float) -> float:
    return float(fmt(value))


def dump_json(payload: dict) -> str:
    """The one JSON layout of every file output: indented, keys sorted."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
    cols = [field.components[name].reshape(-1) for name in CSV_COLUMNS[3:-1]]
    cols.append(field.errors.reshape(-1))
    return field.grid.points(), cols


def fieldmap_to_csv(field: FieldMap, provenance: dict) -> str:
    lines = [f"# {key}: {value}" for key, value in sorted(provenance.items())]
    lines += [f"# units: {UNITS}", ",".join(CSV_COLUMNS)]
    pts, cols = _fieldmap_rows(field)
    # one % per row; "%.9g" gives the same text as fmt, value for value
    template = ",".join(["%.9g"] * len(CSV_COLUMNS))
    rows = np.column_stack([pts, *cols]).tolist()
    lines += [template % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


def fieldmap_to_json(field: FieldMap, provenance: dict) -> str:
    pts, cols = _fieldmap_rows(field)
    payload: dict[str, Any] = {
        "provenance": provenance,
        "units": UNITS,
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
    return dump_json(payload)


def table_to_json(table: ScalingTable, provenance: dict) -> str:
    entries = {}
    for key, cell in table.entries().items():
        if cell is None:
            entries[key] = None
        else:
            entries[key] = {k: round9(v) for k, v in cell.items()}
    return dump_json({"provenance": provenance, "entries": entries})


def _text_row(entry: str, delta_c: str, n_opt: str) -> str:
    # a value takes at most 16 characters ("-1.23456789e-300"), and two
    # spaces always separate the columns
    return f"{entry:<20}  {delta_c:>16}  {n_opt:>16}".rstrip()


def table_to_text(table: ScalingTable) -> str:
    header = _text_row("entry", "delta_c/c", "n_opt")
    rows = [header, "-" * len(header)]
    for key, cell in table.entries().items():
        if cell is None:
            rows.append(_text_row(key, "absent", ""))
            continue
        n_opt = fmt(cell["n_opt"]) if "n_opt" in cell else ""
        rows.append(_text_row(key, fmt(cell["delta_c"]), n_opt))
    return "\n".join(rows) + "\n"
