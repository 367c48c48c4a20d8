"""Tests for the command-line interface: exit codes, formats, determinism."""

import json
import math
import subprocess
import sys

import pytest

from cavlight.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REGIME,
    main,
)
from cavlight.greens import kernel
from cavlight.io import CSV_COLUMNS


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {"cavity_length_m": 1000.0, "wavelength_m": 500e-9, "finesse": 1e4}
        )
    )
    return str(path)


def test_missing_required_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"cavity_length_m": 1000.0}))
    assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG
    assert "wavelength_m" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"cavity_length_m": 1.0, "wavelength_m": 1e-6, "color": "red"})
    )
    assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG
    assert "color" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG


def test_bad_mode_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"cavity_length_m": 1.0, "wavelength_m": 1e-6, "mode": [0, 0, 5]})
    )
    assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "overrides, command",
    [
        ({"cavity_length_m": True}, ["bounds"]),
        ({"wavelength_m": True}, ["bounds"]),
        ({"finesse": True}, ["bounds"]),
        ({"measurement_time_s": True}, ["bounds"]),
        ({"mode": [0, 1, True]}, ["bounds"]),
        ({"cavity_length_m": math.nan}, ["bounds"]),
        ({"wavelength_m": math.inf}, ["bounds"]),
        ({"finesse": math.nan}, ["bounds"]),
        ({"measurement_time_s": math.inf}, ["bounds"]),
        # a config mode below fields.MIN_LARGE_M
        ({"mode": [0, 1, 3]}, ["field-map", "--mode", "01m", "--grid", "2"]),
    ],
)
def test_bool_non_finite_or_out_of_range_config_exits_2(tmp_path, capsys, overrides, command):
    path = tmp_path / "bad.json"
    # json.dumps writes NaN and Infinity, which json.load accepts
    path.write_text(json.dumps({"cavity_length_m": 1000.0, "wavelength_m": 500e-9, **overrides}))
    assert main([*command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_bad_time_convention_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"cavity_length_m": 1.0, "wavelength_m": 1e-6, "lossy_time_convention": "bogus"}
        )
    )
    assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG


def test_bounds_json_output(config_path, tmp_path):
    out = tmp_path / "table.json"
    assert main(["bounds", "--config", config_path, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    entries = payload["entries"]
    assert set(entries) == {
        "optimal_lossless",
        "optimal_lossy",
        "coherent_lossless",
        "coherent_lossy",
        "ng00",
        "ac_eq3",
        "ac_eq5",
    }
    assert entries["optimal_lossy"]["delta_c"] == pytest.approx(6.44792465e-41, rel=1e-6)
    assert payload["provenance"]["tool"] == "cavlight"


def test_bounds_text_output(config_path, capsys):
    assert main(["bounds", "--config", config_path, "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "optimal_lossless" in out


def test_kernel_command(capsys):
    assert main(["kernel", "1.5707963", "1.5707963", "0.0"]) == EXIT_OK
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(kernel(1.5707963, 1.5707963, 0.0), rel=1e-8)


def test_kernel_singular_exit_code(capsys):
    assert main(["kernel", "0.5", "0.0", "0.0"]) == 4
    assert "singular" in capsys.readouterr().err


def test_field_map_slice_csv(tmp_path):
    # the 9x9 slice crosses the mid-planes eta = pi/2 and zeta = pi/2,
    # where h23 vanishes by symmetry
    for grid, xi, tolerance, nodes in [("3", "1.5", "1e-4", 9), ("9x9", "1.0", "1e-6", 81)]:
        out = tmp_path / f"slice-{grid}.csv"
        code = main(
            [
                "field-map",
                "--grid",
                grid,
                "--slice",
                f"xi={xi}",
                "--tolerance",
                tolerance,
                "--threads",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        rows = [ln for ln in lines if not ln.startswith("#")]
        assert rows[0] == ",".join(CSV_COLUMNS)
        assert len(rows) == 1 + nodes
        assert any("units" in c for c in comments)
        # the pinned axis is constant
        assert all(float(r.split(",")[0]) == float(xi) for r in rows[1:])


def test_field_map_01m_requires_m(tmp_path, capsys):
    assert main(["field-map", "--mode", "01m", "--grid", "2"]) == EXIT_CONFIG


def test_field_map_01m_with_big_m(tmp_path):
    out = tmp_path / "m.csv"
    code = main(
        [
            "field-map",
            "--mode",
            "01m",
            "--big-m",
            "64",
            "--grid",
            "2",
            "--slice",
            "zeta=1.5707963267948966",
            "--tolerance",
            "1e-3",
            "--threads",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    header, *rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    cols = header.split(",")
    for row in rows:
        vals = dict(zip(cols, (float(v) for v in row.split(","))))
        assert vals["dcz"] == pytest.approx(2.0 * vals["dcx"], rel=1e-12)
        assert vals["h11"] == 0.0 and vals["h23"] == 0.0
        # the slice is folded across eta = pi/2, and h23 must not become -0
        assert "-0" not in row.split(",")


def test_bad_grid_spec_exits_2(capsys):
    assert main(["field-map", "--grid", "2x3"]) == EXIT_CONFIG
    assert main(["field-map", "--grid", "2", "--slice", "w=1"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "args",
    [
        ["--grid", "abc"],
        ["--grid", "0"],
        ["--grid", "3", "--tolerance", "0"],
        ["--grid", "3", "--slice", "xi=foo"],
        ["--grid", "3", "--threads", "-1"],
        ["--mode", "01m", "--big-m", "3", "--grid", "2"],
    ],
)
def test_field_map_bad_arguments_exit_2(args, capsys):
    assert main(["field-map", *args]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize(
    "args",
    [
        ["frequency-shift", "--n", "1e20", "--tolerance", "0"],
        ["frequency-shift", "--n", "-1"],
        ["frequency-shift", "--n", "nan"],
        ["frequency-shift", "--n", "inf"],
        ["validate", "--n", "-1"],
        ["validate", "--n", "nan"],
        ["tradeoff", "--points", "0"],
        ["tradeoff", "--points", "-1"],
        ["tradeoff", "--decades", "nan"],
        ["tradeoff", "--decades", "inf"],
        ["tradeoff", "--decades", "0"],
    ],
)
def test_bad_photon_number_or_tolerance_exits_2(config_path, args, capsys):
    assert main([*args, "--config", config_path]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


def test_validate_strict_exit_code(config_path, tmp_path):
    # an absurd photon number violates the weak-field regime
    assert main(["validate", "--config", config_path, "--n", "1e80"]) == EXIT_OK
    assert (
        main(["validate", "--config", config_path, "--n", "1e80", "--strict"])
        == EXIT_REGIME
    )
    assert (
        main(["validate", "--config", config_path, "--n", "100", "--strict"]) == EXIT_OK
    )


def test_validate_json_payload(config_path, tmp_path):
    out = tmp_path / "v.json"
    main(["validate", "--config", config_path, "--n", "100", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["weak_field_ok"] is True
    assert payload["min_cavity_length_m"] > 0


def test_frequency_shift_rigid_rods_is_zero(config_path, tmp_path):
    out = tmp_path / "s.json"
    code = main(
        [
            "frequency-shift",
            "--config",
            config_path,
            "--n",
            "1e20",
            "--convention",
            "rigid-rods",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["delta_omega_over_omega"] == 0.0


def test_frequency_shift_light_signal(config_path, tmp_path):
    out = tmp_path / "s.json"
    code = main(
        ["frequency-shift", "--config", config_path, "--n", "1e20", "--out", str(out)]
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["delta_omega_over_omega"] > 0


def test_tradeoff_solution_and_sweep(config_path, tmp_path):
    out = tmp_path / "t.json"
    code = main(
        [
            "tradeoff",
            "--config",
            config_path,
            "--state",
            "coherent",
            "--formula",
            "exact",
            "--points",
            "11",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["solution"]["method"] == "root-find"
    assert len(payload["curves"]["n"]) == 11
    # the sweep brackets the crossing: noise dominates at small n,
    # back-action at large n
    q = payload["curves"]["qcrb"]
    b = payload["curves"]["backaction_abs"]
    assert q[0] > b[0] and q[-1] < b[-1]


def test_installed_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "cavlight.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cavlight" in proc.stdout


def test_import_does_not_load_scipy():
    # start-up guard: the package and its CLI need numpy only
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, cavlight, cavlight.cli; print('scipy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
