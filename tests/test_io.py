"""Tests for stable serialization of field maps and tables."""

import json
import math

import numpy as np
import pytest

from cavlight.bounds import table1
from cavlight.fieldmap import FieldMap, GridSpec
from cavlight.io import (
    CSV_COLUMNS,
    config_hash,
    fieldmap_to_csv,
    fieldmap_to_json,
    fmt,
    provenance_block,
    round9,
    table_to_json,
    table_to_text,
)
from cavlight.physical import ExperimentConfig

DEFAULT = ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4)


def parse_fieldmap_csv(text: str):
    """Parse a field-map CSV back into (header, rows-array)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = tuple(lines[0].split(","))
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, data


def _tiny_field():
    grid = GridSpec(xi=(1.0, 2.0, 2), eta=(1.5, 1.5, 1), zeta=(0.5, 1.5, 2))
    shape = grid.shape
    comp = {
        name: np.full(shape, i + 0.25)
        for i, name in enumerate(("h00", "h11", "h22", "h33", "h23", "dcx", "dcy", "dcz"))
    }
    return FieldMap(
        grid=grid,
        components=comp,
        errors=np.full(shape, 1e-7),
        converged=np.ones(shape, dtype=bool),
    )


def test_fmt_nine_significant_digits():
    assert fmt(math.pi) == "3.14159265"
    assert fmt(1.0) == "1"
    assert round9(round9(math.pi)) == round9(math.pi)


def test_config_hash_is_key_order_independent():
    a = config_hash({"x": 1, "y": 2.5})
    b = config_hash({"y": 2.5, "x": 1})
    assert a == b
    assert a != config_hash({"x": 1, "y": 2.6})


def test_provenance_block_has_no_timestamp():
    prov = provenance_block({"cavity_length_m": 1000.0}, seed=42)
    assert prov["tool"] == "cavlight"
    assert prov["seed"] == 42
    assert not any("time" in k or "date" in k for k in prov)
    assert provenance_block(None, 7)["config_sha256"] is None


def test_fieldmap_csv_header_and_roundtrip():
    field = _tiny_field()
    text = fieldmap_to_csv(field, provenance_block(None, 42))
    header, data = parse_fieldmap_csv(text)
    assert header == CSV_COLUMNS
    assert data.shape == (4, len(CSV_COLUMNS))
    # coordinates are xi-major
    assert data[0, 0] == 1.0 and data[-1, 0] == 2.0
    assert np.allclose(data[:, 3], 0.25)  # h00 column
    assert np.allclose(data[:, -1], 1e-7)  # err column


def test_fieldmap_json_structure():
    field = _tiny_field()
    payload = json.loads(fieldmap_to_json(field, provenance_block(None, 42)))
    assert payload["units"] == "per-P"
    assert payload["converged"] is True
    assert len(payload["h00"]) == 4
    assert payload["grid"]["xi"] == [1.0, 2.0, 2]


def test_table_serialization():
    table = table1(DEFAULT.lossless())
    payload = json.loads(table_to_json(table, provenance_block(None, 42)))
    assert payload["entries"]["optimal_lossy"] is None
    assert payload["entries"]["optimal_lossless"]["delta_c"] == pytest.approx(
        6.44792465e-39, rel=1e-6
    )
    text = table_to_text(table)
    assert "optimal_lossless" in text
    assert "absent" in text  # lossy rows without a finesse


def test_serialization_is_deterministic():
    field = _tiny_field()
    prov = provenance_block({"cavity_length_m": 1.0, "wavelength_m": 1e-6}, 42)
    assert fieldmap_to_csv(field, prov) == fieldmap_to_csv(field, prov)
    assert fieldmap_to_json(field, prov) == fieldmap_to_json(field, prov)
