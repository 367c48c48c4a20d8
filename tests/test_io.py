"""Tests for stable serialization of field maps and tables."""

import json
import math

import numpy as np
import pytest

from cavlight import io
from cavlight.bounds import table1
from cavlight.fieldmap import FieldMap, GridSpec
from cavlight.fields import metric_grid
from cavlight.greens import QuadratureSpec
from cavlight.io import (
    CSV_COLUMNS,
    config_hash,
    dump_csv,
    dump_json,
    fieldmap_chunks,
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


def test_dump_json_rounds_every_float():
    # through dicts, lists and tuples; ints, bools, strings and None unchanged
    payload = {"b": [math.pi, (2, True, None)], "a": {"x": 1 / 3, "s": "text"}}
    assert json.loads(dump_json(payload)) == {"a": {"s": "text", "x": 0.333333333}, "b": [3.14159265, [2, True, None]]}
    assert dump_json({"v": 2.5}) == '{\n  "v": 2.5\n}\n'


def test_dump_json_rounds_repeated_values_as_each_alone():
    # the text must match the per-value rule for repeats, zeros of either
    # sign, NaN, infinities and equal values of other types
    nan = math.nan
    values = [0.0, -0.0, 0.0, nan, nan, math.inf, -math.inf, 1 / 3, 1 / 3, np.float64(1 / 3), 1, 1.0, True,
              1.0000000001, 1.0000000004, -0.0, (-0.0, 2 / 3, 2 / 3), float("nan"), math.pi]
    per_value = [[round9(x) for x in v] if isinstance(v, tuple) else round9(v) if isinstance(v, float) else v
                 for v in values]
    text = dump_json({"v": values})
    assert text == json.dumps({"v": per_value}, indent=2, sort_keys=True) + "\n"
    assert [line.strip() for line in text.splitlines()[2:5]] == ["0.0,", "-0.0,", "0.0,"]


def test_dump_csv_layout():
    # each block sorted on its own, block floats rounded, one row per tuple
    rows = [(1 / 3, 2), (np.float64(1e-300), -0.0)]
    text = dump_csv([{"b": math.pi, "a": None}, {"units": "per-P"}], ("x", "y"), rows)
    assert text == "# a: None\n# b: 3.14159265\n# units: per-P\nx,y\n0.333333333,2\n1e-300,-0\n"


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


def test_fieldmap_csv_rows_match_fmt():
    # the row-at-a-time writer against fmt applied value by value
    field = _tiny_field()
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1.7976931348623157e308]
    rng = np.random.default_rng(3)
    values = np.concatenate([special, rng.standard_normal(28) * 10.0 ** rng.integers(-300, 300, 28)])
    values = values.reshape(9, *field.grid.shape)
    field = field._replace(components=dict(zip(CSV_COLUMNS[3:-1], values)), errors=values[-1])
    text = fieldmap_to_csv(field, provenance_block(None, 42))
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
    cols = [field.components[name].reshape(-1) for name in CSV_COLUMNS[3:-1]] + [field.errors.reshape(-1)]
    expected = [
        ",".join([fmt(v) for v in pt] + [fmt(col[i]) for col in cols])
        for i, pt in enumerate(field.grid.points())
    ]
    assert rows == expected


def test_fieldmap_json_structure():
    field = _tiny_field()
    payload = json.loads(fieldmap_to_json(field, provenance_block(None, 42)))
    assert payload["units"] == "per-P"
    assert payload["converged"] is True
    assert len(payload["h00"]) == 4
    assert payload["grid"]["xi"] == [1.0, 2.0, 2]


def _special_field():
    # zeros of both signs, a tiny and a ten-digit value, values printed with
    # exponents, NaN and infinities, repeated across columns
    grid = GridSpec(xi=(1.0, 2.0, 2), eta=(1.5, 1.5, 1), zeta=(0.5, 1.5, 3))
    values = [0.0, -0.0, 1e-300, 1234567890.0, -2.5e-7, 6.02214076e23, 1.5e-5, -0.0, 0.1 + 0.2,
              math.nan, math.inf, -math.inf, 123456789012.0, 1e-300]
    columns = np.resize(values, (9, *grid.shape))
    comps = dict(zip(CSV_COLUMNS[3:-1], columns))
    return FieldMap(grid=grid, components=comps, errors=columns[-1], converged=np.ones(grid.shape, dtype=bool))


def _default_range(count):
    return GridSpec(*[(-math.pi, 2.0 * math.pi, count)] * 3)


def _expected_csv(field, prov):
    """The one-string CSV layout: comment lines, header, one %.9g row per node."""
    cols = [*field.grid.points().T, *(field.components[n].reshape(-1) for n in CSV_COLUMNS[3:-1]),
            field.errors.reshape(-1)]
    lines = [f"# {key}: {value}" for key, value in sorted(prov.items())] + [f"# units: {io.UNITS}"]
    lines.append(",".join(CSV_COLUMNS))
    lines += [",".join("%.9g" % v for v in row) for row in zip(*(c.tolist() for c in cols))]
    return "\n".join(lines) + "\n", cols


def _expected_json(field, prov):
    """The one-string JSON layout: json.dumps of the whole payload, every float at 9 digits."""
    _, cols = _expected_csv(field, prov)

    def rounded(axis):
        return [round9(v) if isinstance(v, float) else v for v in axis]

    payload = {
        "provenance": prov,
        "units": io.UNITS,
        "grid": {"xi": rounded(field.grid.xi), "eta": rounded(field.grid.eta), "zeta": rounded(field.grid.zeta)},
        "converged": field.all_converged,
        **{name: [round9(v) for v in col.tolist()] for name, col in zip(CSV_COLUMNS, cols)},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def stream_fields():
    # the default range and tolerance, as field-map --grid 10 and --grid 24 --slice xi=1.5 draw them
    axis = (-math.pi, 2.0 * math.pi, 24)
    return {
        "default-range": metric_grid(_default_range(10), threads=1),
        "slice": metric_grid(GridSpec((1.5, 1.5, 1), axis, axis), threads=1),
        "large-m": metric_grid(_default_range(6), QuadratureSpec(rel_tol=1e-4), big_m=1000, threads=1),
        "special": _special_field(),
    }


@pytest.mark.parametrize("chunk_rows", [7, io._CHUNK_ROWS])
@pytest.mark.parametrize("name", ["default-range", "slice", "large-m", "special"])
def test_streamed_map_matches_the_one_string_layout(stream_fields, monkeypatch, name, chunk_rows):
    # the chunks join to exactly the text one json.dumps or one row format per
    # value gives, whatever the chunk size
    monkeypatch.setattr(io, "_CHUNK_ROWS", chunk_rows)
    field = stream_fields[name]
    prov = provenance_block({"cavity_length_m": 1.0, "wavelength_m": 1e-6}, 42)
    for form, expected in [("csv", _expected_csv(field, prov)[0]), ("json", _expected_json(field, prov))]:
        chunks = list(fieldmap_chunks(field, prov, form))
        assert "".join(chunks) == expected
        assert len(chunks) > field.errors.size // chunk_rows
    assert fieldmap_to_csv(field, prov) == _expected_csv(field, prov)[0]
    assert fieldmap_to_json(field, prov) == _expected_json(field, prov)


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


def test_table_text_columns_stay_apart():
    # L = 1 m and lambda = 0.5 m give values of 14 characters, such as
    # 1.10920189e+45, which once touched the column before them
    with pytest.warns(UserWarning):
        table = table1(ExperimentConfig(cavity_length=1.0, wavelength=0.5))
    lines = table_to_text(table).splitlines()[2:]
    assert len(lines) == len(table.entries())
    for line, (key, cell) in zip(lines, table.entries().items()):
        words = line.split()
        assert words[0] == key
        if cell is None:
            assert words[1:] == ["absent"]
            continue
        assert float(words[1]) == round9(cell["delta_c"])
        assert words[2:] == ([fmt(cell["n_opt"])] if "n_opt" in cell else [])


def test_serialization_is_deterministic():
    field = _tiny_field()
    prov = provenance_block({"cavity_length_m": 1.0, "wavelength_m": 1e-6}, 42)
    assert fieldmap_to_csv(field, prov) == fieldmap_to_csv(field, prov)
    assert fieldmap_to_json(field, prov) == fieldmap_to_json(field, prov)
