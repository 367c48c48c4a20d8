"""Stable file formats for field maps, tables, and reports.

All floating values are serialized with 9 significant digits: every
output goes through dump_json or dump_csv, which round each float they
write.  Outputs carry a provenance block (config hash, tool version,
seed) and no timestamps, so identical runs produce byte-identical files.

A field map is written as a stream: fieldmap_chunks yields its CSV or
JSON text a few thousand rows at a time, in the layout dump_csv and
dump_json give, and formats each distinct float of a column once.
hashlib, and with it OpenSSL, is loaded by the first config_hash call,
so a field map without a config never loads it.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import TYPE_CHECKING, Any

from . import __version__

if TYPE_CHECKING:  # names used only in annotations; numpy and fieldmap never load on the closed-form commands
    import numpy as np

    from .bounds import ScalingTable
    from .fieldmap import FieldMap

# every field map is in units of the amplitude P
UNITS = "per-P"
CSV_COLUMNS = ("xi", "eta", "zeta", "h00", "h11", "h22", "h33", "h23", "dcx", "dcy", "dcz", "err")
# rows (CSV) or array items (JSON) per chunk of a streamed output
_CHUNK_ROWS = 8192


def fmt(value: float) -> str:
    return format(float(value), ".9g")


def round9(value: float) -> float:
    return float(fmt(value))


def _rounded(value):
    """value with every float in its dicts, lists and tuples at 9 digits."""
    if isinstance(value, float):
        return round9(value)
    if isinstance(value, dict):
        return {key: _rounded(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def dump_json(payload: dict) -> str:
    """The one JSON layout of every output: floats at 9 digits, indented, keys sorted."""
    return json.dumps(_rounded(payload), indent=2, sort_keys=True) + "\n"


def _csv_chunks(blocks, columns, rows):
    """dump_csv's text in chunks: the comment blocks and the header, then
    _CHUNK_ROWS rows at a time.  Each row is a sequence of cells already
    written as text."""
    lines = [f"# {key}: {_rounded(value)}" for block in blocks for key, value in sorted(block.items())]
    yield "\n".join([*lines, ",".join(columns)]) + "\n"
    rows = map(",".join, rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield "\n".join(chunk) + "\n"


def dump_csv(blocks, columns, rows) -> str:
    """The one CSV layout of every output: each of ``blocks`` as sorted
    ``# key: value`` lines, floats at 9 digits, then ``columns`` and the rows."""
    return "".join(_csv_chunks(blocks, columns, (map(fmt, row) for row in rows)))


def _json_chunks(head: dict, columns: dict):
    """dump_json({**head, **columns}) in chunks, for ``columns`` that map
    each key to a non-empty array of its items already written as JSON text.
    The head entries go through dump_json one at a time."""
    yield "{\n"
    for i, key in enumerate(sorted({**head, **columns})):
        sep = ",\n" if i else ""
        if key in head:
            # dump_json({key: v}) is "{\n" + the entry + "\n}\n"
            yield sep + dump_json({key: head[key]})[2:-3]
            continue
        items = columns[key]
        yield f"{sep}  {json.dumps(key)}: [\n    "
        for start in range(0, len(items), _CHUNK_ROWS):
            yield (",\n    " if start else "") + ",\n    ".join(items[start:start + _CHUNK_ROWS].tolist())
        yield "\n  ]"
    yield "\n}\n"


def config_hash(config_dict: dict) -> str:
    # imported here: hashlib loads OpenSSL, which a map without a config never needs
    import hashlib
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def provenance_block(config_dict: dict | None, seed: int) -> dict[str, Any]:
    return {
        "tool": "cavlight",
        "version": __version__,
        "config_sha256": config_hash(config_dict) if config_dict is not None else None,
        "seed": int(seed),
    }


def _texts(column: np.ndarray, text) -> np.ndarray:
    """text(v) for every float of ``column``, as an object array of str.
    text is called once per distinct bit pattern, so +0.0 and -0.0 stay apart."""
    import numpy as np  # loaded already: the map holds numpy arrays
    bits, inverse = np.unique(np.asarray(column, dtype=float).view(np.uint64), return_inverse=True)
    return np.array([text(v) for v in bits.view(float).tolist()], dtype=object)[inverse]


def fieldmap_chunks(field: FieldMap, provenance: dict, form: str):
    """The map as text in chunks: ``form`` "csv" joins to fieldmap_to_csv,
    "json" to fieldmap_to_json.  Every float is formatted here, before the
    first chunk is taken."""
    comps = [field.components[name].reshape(-1) for name in CSV_COLUMNS[3:-1]]
    columns = dict(zip(CSV_COLUMNS, [*field.grid.points().T, *comps, field.errors.reshape(-1)]))
    if form == "csv":
        cells = [_texts(col, fmt).tolist() for col in columns.values()]
        return _csv_chunks([provenance, {"units": UNITS}], CSV_COLUMNS, zip(*cells))
    grid = {"xi": field.grid.xi, "eta": field.grid.eta, "zeta": field.grid.zeta}
    head = {"provenance": provenance, "units": UNITS, "grid": grid, "converged": field.all_converged}
    return _json_chunks(head, {name: _texts(col, lambda v: json.dumps(round9(v))) for name, col in columns.items()})


def fieldmap_to_csv(field: FieldMap, provenance: dict) -> str:
    return "".join(fieldmap_chunks(field, provenance, "csv"))


def fieldmap_to_json(field: FieldMap, provenance: dict) -> str:
    return "".join(fieldmap_chunks(field, provenance, "json"))


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
