"""One table over every public numeric parameter and every numeric CLI option.

Each parameter is fed NaN, +-inf, True, "1", a negative value, 0 and 1e308.
A value must either raise a ValueError whose message names the parameter, or,
where the docstring documents it, give a value.  The CLI must exit 2 with one
``config error:`` line that names the option.
"""

import ast
import contextlib
import io
import json
import math
import pathlib
import warnings

import pytest

import cavlight
from cavlight.bounds import ProbeKind, ProbeState, backaction, qcrb
from cavlight.cli import EXIT_CONFIG, main
from cavlight.fieldmap import GridSpec
from cavlight.fields import SRC_UNIT, g_integrals, metric_011, metric_01M, metric_grid
from cavlight.greens import QuadratureSpec, SourceFunction, convolve_point, kernel
from cavlight.physical import DimensionlessParams, ExperimentConfig, ModeIndices, validate_regime
from cavlight.resonance import frequency_shift

VALUES = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "bool": True,
    "str": "1",
    "negative": -1.0,
    "zero": 0.0,
    "1e308": 1e308,
}
# mode (0, 1, 1) keeps n*kappa*M and the frequency shift finite up to n = 1e308
CONFIG = ExperimentConfig(cavity_length=1.0, wavelength=1e-6, mode=ModeIndices(0, 1, 1))
LOOSE = QuadratureSpec(rel_tol=1e-3)
COORDINATE = "evaluation points"  # the one point rule names the points, not each coordinate
PROBE = ProbeState(ProbeKind.OPTIMAL, 1.0)
FAR = GridSpec((5.0, 5.0, 1), (5.0, 5.0, 1), (5.0, 5.0, 1))

# (public name, parameter, call, name in the message, values that give a value)
LIBRARY = [
    ("DimensionlessParams", "kappa", lambda v: DimensionlessParams(v, 1, 1.0), "kappa", {"1e308"}),
    ("DimensionlessParams", "mode_index", lambda v: DimensionlessParams(1e-70, v, 1.0), "M", set()),
    # tau may be inf: the regime checks and the frequency shift do not read it
    ("DimensionlessParams", "tau", lambda v: DimensionlessParams(1e-70, 1, v), "tau", {"inf", "1e308"}),
    ("ExperimentConfig", "cavity_length", lambda v: ExperimentConfig(v, 1e-6), "cavity length", {"1e308"}),
    ("ExperimentConfig", "wavelength", lambda v: ExperimentConfig(1.0, v), "wavelength", {"1e308"}),
    ("ExperimentConfig", "finesse", lambda v: ExperimentConfig(1.0, 1e-6, finesse=v), "finesse", {"1e308"}),
    (
        "ExperimentConfig", "measurement_time_override",
        lambda v: ExperimentConfig(1.0, 1e-6, measurement_time_override=v), "measurement time", {"1e308"},
    ),
    # 0.0 is a float, not an index
    ("ModeIndices", "l_x", lambda v: ModeIndices(v, 1, 1), "mode index l_x", set()),
    ("ModeIndices", "l_z", lambda v: ModeIndices(1, 1, v), "mode index l_z", set()),
    ("validate_regime", "n", lambda v: validate_regime(CONFIG, v), "photon number", {"zero", "1e308"}),
    ("ProbeState", "n", lambda v: ProbeState(ProbeKind.OPTIMAL, v), "photon number", {"1e308"}),
    ("qcrb", "tau", lambda v: qcrb(PROBE, v), "tau", {"1e308"}),
    ("backaction", "n", lambda v: backaction(v, 1, 1e-70), "photon number", {"zero", "1e308"}),
    ("backaction", "big_m", lambda v: backaction(1.0, v, 1e-70), "M", set()),
    ("backaction", "kappa", lambda v: backaction(1.0, 1, v), "kappa", {"1e308"}),
    ("QuadratureSpec", "rel_tol", lambda v: QuadratureSpec(rel_tol=v), "tolerance", set()),
    ("QuadratureSpec", "max_depth", lambda v: QuadratureSpec(max_depth=v), "max depth", set()),
    ("QuadratureSpec", "panel_order", lambda v: QuadratureSpec(panel_order=v), "panel order", set()),
    ("SourceFunction", "basis", lambda v: SourceFunction(None, "x", (1, v, 0, 0, 0)), "source 'x'",
     {"negative", "zero", "1e308"}),
    ("convolve_point", "point", lambda v: convolve_point(SRC_UNIT, (v, 1.0, 1.0), LOOSE), COORDINATE, {"negative", "zero"}),
    ("kernel", "xi", lambda v: kernel(v, 1.0, 1.0), COORDINATE, {"negative", "zero"}),
    ("GridSpec", "start", lambda v: GridSpec(xi=(v, 2.0, 1)), "xi axis start", {"negative", "zero"}),
    ("GridSpec", "stop", lambda v: GridSpec(xi=(-2.0, v, 3)), "xi axis stop", {"negative", "zero"}),
    ("GridSpec", "count", lambda v: GridSpec(xi=(0.0, 1.0, v)), "xi axis count", set()),
    ("g_integrals", "point", lambda v: g_integrals((1.0, v, 1.0), LOOSE), COORDINATE, {"negative", "zero"}),
    ("metric_011", "point", lambda v: metric_011((1.0, 1.0, v), LOOSE), COORDINATE, {"negative", "zero"}),
    ("metric_01M", "big_m", lambda v: metric_01M((5.0, 5.0, 5.0), v, LOOSE), "M", set()),
    ("metric_grid", "big_m", lambda v: metric_grid(FAR, LOOSE, big_m=v, threads=1), "M", set()),
    ("metric_grid", "threads", lambda v: metric_grid(FAR, LOOSE, threads=v), "threads", set()),
    ("frequency_shift", "n", lambda v: frequency_shift(CONFIG, v), "photon number", {"zero", "1e308"}),
]

# public names with no numeric parameter of their own, each with its reason
EXEMPT = {
    "CODATA": "an instance, not a callable",
    "PhysicalConstants": "no function takes one: every formula reads CODATA",
    "LengthConvention": "an enum",
    "TimeConvention": "an enum",
    "ProbeKind": "an enum",
    "CoherentFormula": "an enum",
    "ValidityReport": "an output record that validate_regime builds",
    "TradeoffSolution": "an output record that optimal_tradeoff builds",
    "ScalingTable": "an output record that table1 builds",
    "MetricPerturbation": "an output record that the metric functions build",
    "FieldMap": "an output record that metric_grid builds from its arrays",
    "derive_params": "takes only an ExperimentConfig",
    "storage_time": "takes only an ExperimentConfig",
    "comparison_bounds": "takes only an ExperimentConfig",
    "table1": "takes only an ExperimentConfig",
    "optimal_tradeoff": "takes a checked record and two enums",
    "StressTensor": "takes no parameter",
    "stress_components_011": "takes no parameter",
    "laplacian_residual": "takes only a FieldMap",
    "lightspeed_field": "takes only a MetricPerturbation",
}


def test_table_covers_every_public_name():
    public = {name for names in cavlight._PUBLIC.values() for name in names}
    covered = {row[0] for row in LIBRARY}
    assert covered.isdisjoint(EXEMPT)
    assert covered | set(EXEMPT) == public


def test_every_public_name_has_a_caller():
    # a public name that only its own tests call is API that nothing uses:
    # each must be read, as a name, an attribute or an import, by the
    # library outside __init__, by the benchmark or by the acceptance suite
    root = pathlib.Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "cavlight").glob("*.py") if p.name != "__init__.py"]
    files += [*(root / "perfbench").glob("*.py"), root / "tests" / "test_acceptance.py"]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    public = {name for names in cavlight._PUBLIC.values() for name in names}
    assert sorted(public - used) == []


def _outcome(call, value):
    """The error message, or None when the call gives a value."""
    with warnings.catch_warnings():
        # a large wavelength warns, and that is not what is checked here
        warnings.simplefilter("ignore", UserWarning)
        try:
            call(value)
        except ValueError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("public, param, call, named, accepted", LIBRARY, ids=[f"{r[0]}-{r[1]}" for r in LIBRARY])
def test_library_parameter_table(public, param, call, named, accepted):
    wrong = []
    for key, value in VALUES.items():
        message = _outcome(call, value)
        if key in accepted and message is not None:
            wrong.append(f"{key}: refused with {message!r}")
        elif key not in accepted and (message is None or named not in message):
            wrong.append(f"{key}: {'accepted' if message is None else repr(message)}")
    assert not wrong, wrong


CLI_EXEMPT = {
    "--seed": "only recorded in the provenance block, so any integer is valid",
    "int and float options": "argparse refuses a string that its type cannot parse, with exit 2 and its usage",
}
# (option, command line with {} for the value, names in the message, values that run)
CLI = [
    ("--points", ["tradeoff", "--points={}"], ("--points",), {"str"}),
    ("--decades", ["tradeoff", "--decades={}"], ("--decades",), {"str"}),
    ("validate --n", ["validate", "--n={}"], ("photon number",), {"str", "zero", "1e308"}),
    ("frequency-shift --n", ["frequency-shift", "--n={}"], ("photon number",), {"str", "zero", "1e308"}),
    ("--tolerance", ["field-map", "--grid", "2", "--tolerance={}"], ("tolerance",), set()),
    ("--threads", ["field-map", "--grid", "2", "--threads={}"], ("threads",), {"str", "zero"}),
    ("--big-m", ["field-map", "--grid", "2", "--mode", "01m", "--big-m={}"], ("M",), set()),
    ("--grid", ["field-map", "--grid={}"], ("--grid", "xi axis count"), {"str"}),
    ("--slice", ["field-map", "--grid", "2", "--slice", "xi={}"], ("--slice", "xi axis start"),
     {"str", "negative", "zero"}),
    ("kernel xi", ["kernel", "--", "{}", "1", "1"], (COORDINATE,), {"str", "negative", "zero"}),
]
CLI_TEXT = {"nan": "nan", "inf": "inf", "-inf": "-inf", "bool": "True", "str": "1", "negative": "-1", "zero": "0",
            "1e308": "1e308"}


@pytest.mark.parametrize("option, argv, named, accepted", CLI, ids=[row[0] for row in CLI])
def test_cli_option_table(tmp_path, option, argv, named, accepted):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cavity_length_m": 1.0, "wavelength_m": 1e-6, "mode": [0, 1, 1]}))
    wrong = []
    for key, text in CLI_TEXT.items():
        args = [a.format(text) for a in argv]
        if args[0] != "kernel":
            args += ["--config", str(config)] if args[0] != "field-map" else ["--out", str(tmp_path / "map.csv")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # the int and float options' exemption
                code = exc.code
                if code == EXIT_CONFIG and "invalid" in err.getvalue() and key not in accepted:
                    continue
        lines = err.getvalue().splitlines()
        if key in accepted:
            if code == EXIT_CONFIG:
                wrong.append(f"{key}: refused with {lines}")
        elif code != EXIT_CONFIG or len(lines) != 1 or not lines[0].startswith("config error:"):
            wrong.append(f"{key}: exit {code}, {lines}")
        elif not any(name in lines[0] for name in named):
            wrong.append(f"{key}: {lines[0]!r} names none of {named}")
    assert not wrong, wrong


@pytest.mark.parametrize("transverse", [["x"], {"center": 1}, "corner"], ids=["list", "dict", "unknown"])
def test_frequency_shift_refuses_a_bad_transverse_option(transverse):
    # an unhashable option once reached line_average_epsilon's lru_cache,
    # which raised TypeError: unhashable type
    with pytest.raises(ValueError, match="^unknown transverse option "):
        frequency_shift(CONFIG, 1.0, transverse=transverse)
