"""Tests for the command-line interface: exit codes, formats, determinism."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavlight import __version__
from cavlight.bounds import ProbeKind, optimal_tradeoff
from cavlight.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_QUADRATURE,
    EXIT_REGIME,
    _log_sweep,
    main,
)
from cavlight.greens import kernel
from cavlight.io import CSV_COLUMNS, config_hash, fmt, round9
from cavlight.physical import ExperimentConfig, validate_regime
from cavlight.resonance import frequency_shift


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


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{}", b'{"cavity_length_m": 1' + b"0" * 5000 + b', "wavelength_m": 1e-6}', b"[1]"],
    ids=["bad-utf8", "integer-too-long", "not-an-object"],
)
def test_unreadable_config_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


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
        # M = round(2L/lambda) overflows
        ({"cavity_length_m": 1e308}, ["field-map", "--mode", "01m", "--grid", "2"]),
        # an integer beyond float range
        ({"cavity_length_m": 10**400}, ["bounds"]),
    ],
)
def test_bool_non_finite_or_out_of_range_config_exits_2(tmp_path, capsys, overrides, command):
    path = tmp_path / "bad.json"
    # json.dumps writes NaN and Infinity, which json.load accepts
    path.write_text(json.dumps({"cavity_length_m": 1000.0, "wavelength_m": 500e-9, **overrides}))
    assert main([*command, "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


# a finite positive float drawn log-uniformly from the subnormals to 1e308
_positive = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
_configs = st.fixed_dictionaries(
    {"cavity_length_m": _positive, "wavelength_m": _positive},
    optional={
        "finesse": _positive,
        "measurement_time_s": _positive,
        "mode": st.integers(1, 2**1100).map(lambda m: [0, 1, m]),
        "lossy_time_convention": st.sampled_from(["pi", "caption"]),
    },
)
_COMMANDS = (
    ["bounds"],
    ["tradeoff"],
    ["tradeoff", "--state", "coherent"],
    ["tradeoff", "--state", "coherent", "--formula", "exact"],
)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy would print these on stderr
@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw=_configs, n=st.one_of(st.just(0.0), _positive))
# with L = 1 m and lambda = 1e-6 m, a storage time of 1e-300 s underflows
# 2*tau*kappa*M and one of 1e300 s overflows tau; the tiny cavity solves,
# with its exact n_opt ~ 2.85e-3 below one photon; the huge one has
# M = 2e306, whose norm overflows; the next keeps tau finite but overflows
# c*T; the sub-Planck cavity keeps n*kappa*M finite but overflows the
# frequency shift
@example(raw={"cavity_length_m": 1.0, "wavelength_m": 1e-6, "measurement_time_s": 1e-300}, n=1e20)
@example(raw={"cavity_length_m": 1.0, "wavelength_m": 1e-6, "measurement_time_s": 1e300}, n=1e20)
@example(raw={"cavity_length_m": 1e-30, "wavelength_m": 1e-36}, n=1e20)
@example(raw={"cavity_length_m": 1e300, "wavelength_m": 1e-6}, n=1e20)
@example(raw={"cavity_length_m": 10.0, "wavelength_m": 1e-6, "mode": [0, 1, 1], "measurement_time_s": 1e300}, n=1e20)
@example(raw={"cavity_length_m": 1e-100, "wavelength_m": 1e-106}, n=1e171)
def test_closed_form_commands_exit_cleanly_across_float_range(tmp_path_factory, raw, n):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(raw))
    # frequency-shift is cheap here: its line average is in closed form and cached
    for command in (*_COMMANDS, ["validate", "--n", repr(n), "--strict"], ["frequency-shift", "--n", repr(n)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command, "--config", str(path)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_REGIME), (command, code)
        if code == EXIT_CONFIG:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error:"), (command, lines)
        assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue(), command


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


def test_kernel_json_output(capsys):
    # the one indented, key-sorted layout, the echoed coordinates at 9 digits
    assert main(["kernel", "1.23456789012", "0.7", "0.3", "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    expected = {"eta": 0.7, "value": round9(kernel(1.23456789012, 0.7, 0.3)), "xi": 1.23456789, "zeta": 0.3}
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "point",
    [["nan", "1", "1"], ["inf", "1", "1"], ["1e308", "1e308", "1e308"], ["1", "2", "1.5e6"]],
    ids=["nan", "inf", "overflow", "beyond-max-coordinate"],
)
def test_kernel_bad_point_exits_2(point, capsys):
    assert main(["kernel", *point]) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "finite" in err[0]
    assert captured.out == ""


def test_field_map_far_slice_exits_2(capsys):
    # the axis range is finite, but the kernel would overflow there
    assert main(["field-map", "--grid", "3", "--slice", "xi=1e308"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert captured.out == ""


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
        # M * h_tilde would leave float range, or M itself would
        ["--mode", "01m", "--big-m", str(10**306 + 1), "--grid", "2"],
        ["--mode", "01m", "--big-m", str(10**308), "--grid", "2"],
        ["--mode", "01m", "--big-m", str(10**310), "--grid", "2"],
        # --big-m without --mode 01m would be ignored
        ["--grid", "3", "--big-m", "1000"],
        # every node would pass at its first estimate
        ["--grid", "2", "--tolerance", "inf"],
        ["--grid", "2", "--tolerance", "1e300"],
    ],
)
def test_field_map_bad_arguments_exit_2(args, capsys):
    assert main(["field-map", *args]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize(
    "args",
    [
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
        # the sweep would reach n = 0
        ["tradeoff", "--decades", "400"],
    ],
)
def test_bad_photon_number_or_tolerance_exits_2(config_path, args, capsys):
    assert main([*args, "--config", config_path]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")


@pytest.mark.parametrize(
    "args",
    [["bounds"], ["field-map", "--grid", "2"], ["field-map", "--grid", "2", "--format", "json"]],
    ids=["bounds", "field-map", "field-map-json"],
)
def test_unwritable_out_exits_2(config_path, tmp_path, args, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main([*args, "--config", config_path, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: cannot write {out}:")
    assert not out.parent.exists()


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


def test_validate_text_output(config_path, capsys):
    for n, verdict in (("100", "all checks passed"), ("1e80", "REGIME VIOLATION")):
        assert main(["validate", "--config", config_path, "--n", n, "--format", "text"]) == EXIT_OK
        report = validate_regime(ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4), float(n))
        assert capsys.readouterr().out.splitlines() == [*report.messages, verdict]


def test_frequency_shift_text_output(config_path, capsys):
    assert main(["frequency-shift", "--config", config_path, "--n", "1e20", "--format", "text"]) == EXIT_OK
    shift = frequency_shift(ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4), 1e20)
    assert capsys.readouterr().out == f"delta_omega/omega = {fmt(shift)}\n"


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats(v)
    elif isinstance(value, list):
        for v in value:
            yield from _floats(v)


def test_every_json_float_is_written_at_9_digits(config_path, capsys):
    # input echoes included: photons, the kernel's coordinates, the map's grid
    commands = [
        ["bounds", "--config", config_path],
        ["tradeoff", "--config", config_path, "--points", "5"],
        ["frequency-shift", "--config", config_path, "--n", "1.234567890123e20"],
        ["validate", "--config", config_path, "--n", "1.234567890123e20"],
        ["kernel", "1.23456789012", "0.7", "0.3", "--format", "json"],
        ["field-map", "--grid", "2", "--format", "json"],
        ["field-map", "--mode", "01m", "--big-m", "1000", "--grid", "2", "--format", "json"],
    ]
    for args in commands:
        assert main(args) == EXIT_OK
        values = list(_floats(json.loads(capsys.readouterr().out)))
        assert values, args
        assert [round9(v) for v in values] == values, args


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
    assert len(payload["curves"]["n"]) == 11
    # the sweep brackets the crossing: noise dominates at small n,
    # back-action at large n
    q = payload["curves"]["qcrb"]
    b = payload["curves"]["backaction_abs"]
    assert q[0] > b[0] and q[-1] < b[-1]


@pytest.mark.parametrize("points", [1, 2, 3, 7, 101, 1000])
def test_tradeoff_sweep_is_logspace_to_one_ulp(points):
    # the sweep takes np.logspace's exponents; 10**x may differ from
    # numpy's power by one ulp, which no 9-digit output has shown
    rng = np.random.default_rng(points)
    for centre, half in zip(rng.uniform(-40.0, 40.0, 50), rng.uniform(1e-3, 30.0, 50)):
        lo, hi = centre - half, centre + half
        sweep = _log_sweep(lo, hi, points)
        assert len(sweep) == points and sweep[0] == 10.0**lo and sweep[-1] == 10.0 ** (hi if points > 1 else lo)
        ulps = np.abs(np.array(sweep).view(np.int64) - np.logspace(lo, hi, points).view(np.int64))
        assert ulps.max() <= 1


def test_tradeoff_csv_header(config_path, capsys):
    # provenance lines sorted, then solution lines sorted, then the columns
    assert main(["tradeoff", "--config", config_path, "--format", "csv", "--points", "3"]) == EXIT_OK
    header = capsys.readouterr().out.splitlines()[:9]
    with open(config_path) as fh:
        sha = config_hash(json.load(fh))
    sol = optimal_tradeoff(ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4), ProbeKind.OPTIMAL)
    assert header == [
        f"# config_sha256: {sha}",
        "# seed: 42",
        "# tool: cavlight",
        f"# version: {__version__}",
        f"# delta_c_min: {round9(sol.delta_c_min)}",
        "# formula: None",
        f"# n_opt: {round9(sol.n_opt)}",
        "# state: optimal",
        "n,qcrb,backaction_abs",
    ]


def _run_cli(tmp_path, raw, args):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return subprocess.run(
        [sys.executable, "-m", "cavlight.cli", *args, "--config", str(path)],
        capture_output=True,
        text=True,
    )


# in-process runs cannot show what a shell sees, because pytest records
# warnings itself; lambda/L = 0.5 sets off the wavelength warning
@pytest.mark.parametrize(
    "raw, args",
    [
        ({"cavity_length_m": 1.0, "wavelength_m": 0.5, "measurement_time_s": 1e-300}, ["bounds"]),
        ({"cavity_length_m": 1e300, "wavelength_m": 1e-6}, ["frequency-shift", "--n", "1e20"]),
        ({"cavity_length_m": 1e308, "wavelength_m": 1e-6}, ["field-map", "--mode", "01m", "--grid", "2"]),
        ({"cavity_length_m": 1.0, "wavelength_m": 1e-6}, ["field-map", "--mode", "01m", "--big-m", str(10**308)]),
        (
            {"cavity_length_m": 10.0, "wavelength_m": 1e-6, "mode": [0, 1, 1], "measurement_time_s": 1e300},
            ["tradeoff", "--state", "coherent", "--formula", "exact"],
        ),
    ],
)
def test_exit_2_prints_one_stderr_line_from_a_shell(tmp_path, raw, args):
    proc = _run_cli(tmp_path, raw, args)
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert proc.stdout == ""


def test_warning_printed_as_one_line_on_success(tmp_path):
    proc = _run_cli(tmp_path, {"cavity_length_m": 1.0, "wavelength_m": 0.5}, ["bounds"])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr.splitlines() == [
        "warning: wavelength is not small compared to the cavity length; "
        "the high-index mode picture may not apply"
    ]


def test_installed_entry_point_version():
    proc = subprocess.run(
        [sys.executable, "-m", "cavlight.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "cavlight" in proc.stdout


def test_import_does_not_load_scipy():
    # start-up guard: nothing in the package or its CLI needs scipy
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


@pytest.mark.parametrize(
    "args, code",
    [
        (["-c", "import cavlight"], EXIT_OK),
        (["bounds"], EXIT_OK),
        (["tradeoff"], EXIT_OK),
        (["tradeoff", "--state", "coherent", "--formula", "exact"], EXIT_OK),
        (["validate", "--n", "1e25"], EXIT_OK),
        (["frequency-shift", "--n", "1e20", "--transverse", "center"], EXIT_OK),
        (["frequency-shift", "--n", "1e20", "--transverse", "average"], EXIT_OK),
        (["kernel", "1.1", "0.7", "2.2"], EXIT_OK),
        (["kernel", "0.5", "0", "0"], EXIT_QUADRATURE),
        (["kernel", "nan", "1", "1"], EXIT_CONFIG),
    ],
    ids=[
        "import", "bounds", "tradeoff", "tradeoff-coherent-exact", "validate", "frequency-shift-center",
        "frequency-shift-average", "kernel", "kernel-singular", "kernel-bad-point",
    ],
)
def test_closed_form_paths_do_not_load_numpy(args, code, config_path):
    # start-up guard: numpy is most of the start-up of these fast paths, and
    # dataclasses, with the inspect it loads, took ~12 ms of the rest
    if args[0] != "-c":
        args = ["-m", "cavlight.cli", *args, *([] if args[0] == "kernel" else ["--config", config_path])]
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "cavlight" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    assert not {"dataclasses", "inspect"} & set(imported)


def test_field_map_loads_no_dataclasses(tmp_path):
    # start-up guard: the map's seven records were dataclasses, and
    # dataclasses brought inspect; numpy 2 may still load inspect itself
    args = ["-m", "cavlight.cli", "field-map", "--grid", "2", "--out", str(tmp_path / "map.csv")]
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names = [line.split("|")[-1] for line in proc.stderr.splitlines() if line.startswith("import time:")]
    depth = [len(name) - len(name.lstrip()) for name in names]
    names = [name.strip() for name in names]
    assert "cavlight.fields" in names and "dataclasses" not in names
    for i in (i for i, name in enumerate(names) if name == "inspect"):
        # -X importtime lists a module before the one that imported it, one level out
        importer = next(names[j] for j in range(i + 1, len(names)) if depth[j] < depth[i])
        assert importer.split(".")[0] == "numpy"


def test_public_names_resolve_to_their_modules():
    import cavlight

    for name in cavlight.__all__:
        obj = getattr(cavlight, name)
        if name != "__version__":
            assert obj.__module__.startswith("cavlight.")
            assert getattr(sys.modules[obj.__module__], name) is obj
    assert {"ModeIndices", "LengthConvention", "metric_grid", "table1"} <= set(cavlight.__all__)
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        cavlight.not_a_name


def test_import_does_not_load_the_process_pool():
    # start-up guard: concurrent.futures.process loads only when a map
    # starts a pool, not with every CLI call
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, cavlight, cavlight.cli; print('concurrent.futures.process' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("form", ["csv", "json"])
def test_field_map_writes_the_same_bytes_to_stdout_and_out(tmp_path, form):
    # 22^3 nodes stream as more than one chunk of rows
    args = [sys.executable, "-m", "cavlight.cli", "field-map", "--grid", "22", "--tolerance", "1e-3",
            "--format", form]
    out = tmp_path / f"map.{form}"
    to_file = subprocess.run([*args, "--out", str(out)], capture_output=True)
    to_stdout = subprocess.run(args, capture_output=True)
    assert to_file.returncode == to_stdout.returncode == EXIT_OK, to_stdout.stderr
    assert to_file.stdout == b"" and to_stdout.stdout == out.read_bytes()
    assert out.stat().st_size > 22**3 * 100


def test_field_map_without_config_does_not_load_hashlib(tmp_path):
    # hashlib loads OpenSSL; only a config's hash needs it
    code = (
        "import sys; from cavlight.cli import main; "
        "code = main(['field-map', '--grid', '2', '--out', '/dev/null']); print(code, 'hashlib' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    raw = {"cavity_length_m": 1000.0, "wavelength_m": 500e-9, "finesse": 1e4}
    proc = _run_cli(tmp_path, raw, ["bounds"])
    assert proc.returncode == EXIT_OK, proc.stderr
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    assert json.loads(proc.stdout)["provenance"]["config_sha256"] == hashlib.sha256(canonical).hexdigest()


def test_field_map_does_not_load_numpy_polynomial():
    # start-up guard: the quadrature's Gauss rule comes from closedform, so
    # a map loads numpy but not numpy.polynomial
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cavlight.cli", "field-map", "--grid", "2", "--out", "/dev/null"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "numpy" in imported and "cavlight.greens" in imported
    assert not [name for name in imported if name.startswith("numpy.polynomial")]
