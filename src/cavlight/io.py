"""Stable file formats for field maps, tables, and reports.

All floating values are serialized with 9 significant digits: every
output goes through dump_json or dump_csv, which round each float they
write.  Outputs carry a provenance block (config hash, tool version,
seed) and no timestamps, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any

from . import __version__
from .bounds import ScalingTable

if TYPE_CHECKING:  # both import numpy, which the closed-form commands never load
    import numpy as np

    from .fieldmap import FieldMap

# every field map is in units of the amplitude P
UNITS = "per-P"
CSV_COLUMNS = ("xi", "eta", "zeta", "h00", "h11", "h22", "h33", "h23", "dcx", "dcy", "dcz", "err")


def fmt(value: float) -> str:
    return format(float(value), ".9g")


def round9(value: float) -> float:
    return float(fmt(value))


def _rounded(value):
    """value with every float in its dicts, lists and tuples at 9 digits."""
    # floats first: a map's JSON holds over a million of them
    if isinstance(value, float):
        return round9(value)
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        # a map's columns repeat most values, so each distinct float is rounded
        # once; 0.0 == -0.0 as keys, so zeros keep their own rounding
        memo = {}
        out = []
        for v in value:
            if isinstance(v, float) and v:
                if v not in memo:
                    memo[v] = round9(v)
                out.append(memo[v])
            else:
                out.append(_rounded(v))
        return out
    return value


def dump_json(payload: dict) -> str:
    """The one JSON layout of every output: floats at 9 digits, indented, keys sorted."""
    return json.dumps(_rounded(payload), indent=2, sort_keys=True) + "\n"


def dump_csv(blocks, columns, rows) -> str:
    """The one CSV layout of every output: each of ``blocks`` as sorted
    ``# key: value`` lines, floats at 9 digits, then ``columns`` and the rows."""
    lines = [f"# {key}: {_rounded(value)}" for block in blocks for key, value in sorted(block.items())]
    lines.append(",".join(columns))
    # one % per row; "%.9g" gives the same text as fmt, value for value
    template = ",".join(["%.9g"] * len(columns))
    lines += [template % tuple(row) for row in rows]
    return "\n".join(lines) + "\n"


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


def _fieldmap_columns(field: FieldMap) -> list[np.ndarray]:
    """The CSV_COLUMNS of a map, one flat array each."""
    comps = [field.components[name].reshape(-1) for name in CSV_COLUMNS[3:-1]]
    return [*field.grid.points().T, *comps, field.errors.reshape(-1)]


def fieldmap_to_csv(field: FieldMap, provenance: dict) -> str:
    rows = zip(*(col.tolist() for col in _fieldmap_columns(field)))
    return dump_csv([provenance, {"units": UNITS}], CSV_COLUMNS, rows)


def fieldmap_to_json(field: FieldMap, provenance: dict) -> str:
    columns = {name: col.tolist() for name, col in zip(CSV_COLUMNS, _fieldmap_columns(field))}
    grid = {"xi": field.grid.xi, "eta": field.grid.eta, "zeta": field.grid.zeta}
    head = {"provenance": provenance, "units": UNITS, "grid": grid, "converged": field.all_converged}
    return dump_json({**head, **columns})


def table_to_json(table: ScalingTable, provenance: dict) -> str:
    return dump_json({"provenance": provenance, "entries": table.entries()})


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
