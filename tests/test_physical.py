"""Tests for constants, configuration, and derived dimensionless parameters."""

import inspect
import math
import re
import warnings

import pytest

from cavlight.bounds import CoherentFormula, ProbeKind, ProbeState
from cavlight.fieldmap import GridSpec
from cavlight.greens import QuadratureSpec, SourceFunction
from cavlight.physical import (
    CODATA,
    DimensionlessParams,
    ExperimentConfig,
    ModeIndices,
    TimeConvention,
    derive_params,
    mode_frequency,
    storage_time,
    validate_regime,
)


DEFAULT = ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4)


def test_planck_length_derived():
    # sqrt(hbar G / c^3) with CODATA 2018 values
    assert CODATA.planck_length == pytest.approx(1.616255e-35, rel=1e-5)


def test_nonlinear_qed_length_scale():
    # hbar^(3/4) e^(1/2) eps0^(-1/4) / (m_e c^(5/4)), about 2.1e-13 m
    assert CODATA.nonlinear_qed_length_scale == pytest.approx(2.12e-13, rel=0.02)


def test_constants_are_frozen():
    with pytest.raises(Exception):
        CODATA.c = 1.0


def test_mode_indices_validation():
    with pytest.raises(ValueError):
        ModeIndices(0, 0, 5)  # two zero indices
    with pytest.raises(ValueError):
        ModeIndices(-1, 1, 1)


@pytest.mark.parametrize("l_z", [True, 2.5, math.nan, math.inf, "3"], ids=["bool", "float", "nan", "inf", "str"])
def test_mode_indices_must_be_integers(l_z):
    with pytest.raises(ValueError, match=re.escape(f"mode index l_z must be an integer in [0, inf), got {l_z!r}")):
        ModeIndices(0, 1, l_z)


def test_records_are_named_tuples():
    mode = ModeIndices(0, 1, 2)
    assert mode == (0, 1, 2) and list(mode) == [0, 1, 2]
    assert repr(mode) == "ModeIndices(l_x=0, l_y=1, l_z=2)"
    for record, name in [(mode, "l_z"), (DEFAULT, "finesse"), (derive_params(DEFAULT), "tau"), (CODATA, "c")]:
        with pytest.raises(AttributeError):
            setattr(record, name, 3)


# each record, a valid value, and a field with a bad value and its message
RECORDS = [
    (ModeIndices(0, 1, 2), "l_z", True, "mode index l_z must be an integer in [0, inf), got True"),
    (DEFAULT, "cavity_length", -1.0, "cavity length must be a number in (0, inf), got -1.0"),
    (derive_params(DEFAULT), "mode_index", 1.5, "M must be an integer in [1, 1.79769e+308], got 1.5"),
    (ProbeState(ProbeKind.OPTIMAL, 1.0), "n", "1", "photon number must be a number in (0, inf), got '1'"),
    # the map's records were dataclasses, checked only by their constructor
    (QuadratureSpec(), "max_depth", 53, "max depth must be an integer in [1, 52], got 53"),
    (
        SourceFunction(None, "x", (1, 0, 0, 0, 0)), "basis", (1, 0),
        "source 'x' needs a function or rows of five reals, got (1, 0)",
    ),
    (GridSpec(), "xi", (1.0, 2.0, True), "xi axis count must be an integer in [1, inf), got True"),
]


@pytest.mark.parametrize("record, field, value, message", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_records_check_every_way_they_are_built(record, field, value, message):
    # _replace and _make once built a record around its checks
    cls = type(record)
    fields = record._asdict()
    fields[field] = value
    for build in (lambda: cls(**fields), lambda: cls._make(fields.values()), lambda: record._replace(**{field: value})):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    assert list(inspect.signature(cls).parameters) == list(cls._fields)
    assert cls._make(record) == record and record._replace() == record


def test_records_keep_plain_numbers():
    import numpy as np

    mode = ModeIndices(np.int64(0), 1, np.int32(2))
    assert mode == (0, 1, 2) and all(type(l) is int for l in mode)
    config = ExperimentConfig(cavity_length=1000, wavelength=np.float32(5e-7))
    assert type(config.cavity_length) is float and type(config.wavelength) is float


def test_config_refuses_a_convention_or_mode_of_another_type():
    # the str "pi" once ran as the caption convention: 3.34e-4 s, not 1.06e-4 s
    with pytest.raises(ValueError, match=re.escape("time convention must be a TimeConvention, got 'pi'")):
        ExperimentConfig(1.0, 5e-7, finesse=1e5, time_convention="pi")
    pi = ExperimentConfig(1.0, 5e-7, finesse=1e5, time_convention=TimeConvention.PI)
    assert storage_time(pi) == pytest.approx(1e5 / (math.pi * CODATA.c), rel=1e-15)
    # a plain tuple once failed later in derive_params with an AttributeError
    with pytest.raises(ValueError, match=re.escape("mode must be a ModeIndices, got (0, 0, 3)")):
        ExperimentConfig(1.0, 5e-7, mode=(0, 0, 3))
    for kind, formula, message in [
        ("optimal", CoherentFormula.EXACT, "kind must be a ProbeKind, got 'optimal'"),
        (ProbeKind.COHERENT, "exact", "coherent formula must be a CoherentFormula, got 'exact'"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            ProbeState(kind, 1.0, formula)


def test_mode_frequency():
    mode = ModeIndices(0, 1, 1)
    assert mode_frequency(mode, 2.0, 3e8) == pytest.approx(3e8 * math.pi / 2.0 * math.sqrt(2.0))
    with pytest.raises(ValueError):
        mode_frequency(mode, 0.0, 3e8)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(cavity_length=-1.0, wavelength=500e-9)
    with pytest.raises(ValueError):
        ExperimentConfig(cavity_length=1.0, wavelength=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(cavity_length=1.0, wavelength=1e-6, finesse=-3.0)
    with pytest.raises(ValueError):
        ExperimentConfig(cavity_length=1.0, wavelength=1e-6, measurement_time_override=0.0)


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("cavity_length", True, "cavity length must be a number in (0, inf), got True"),
        ("cavity_length", math.nan, "cavity length must be a number in (0, inf), got nan"),
        ("wavelength", False, "wavelength must be a number in (0, inf), got False"),
        ("wavelength", math.nan, "wavelength must be a number in (0, inf), got nan"),
        # a NaN finesse once gave derive_params a silent NaN tau
        ("finesse", math.nan, "finesse must be a number in (0, inf), got nan"),
        ("finesse", True, "finesse must be a number in (0, inf), got True"),
        ("measurement_time_override", math.nan, "measurement time must be a number in (0, inf), got nan"),
        ("measurement_time_override", True, "measurement time must be a number in (0, inf), got True"),
    ],
    ids=["bool-length", "nan-length", "bool-wavelength", "nan-wavelength", "nan-finesse", "bool-finesse",
         "nan-time", "bool-time"],
)
def test_config_refuses_nan_and_bool(key, value, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        ExperimentConfig(**{"cavity_length": 1000.0, "wavelength": 500e-9, key: value})


def test_large_wavelength_ratio_warns():
    with pytest.warns(UserWarning):
        ExperimentConfig(cavity_length=1.0, wavelength=0.5)


def test_resolved_mode_rounds_to_wavelength():
    config = ExperimentConfig(cavity_length=1000.0, wavelength=500e-9)
    mode = config.resolved_mode
    assert (mode.l_x, mode.l_y) == (0, 1)
    assert mode.l_z == round(2 * 1000.0 / 500e-9) == 4_000_000_000


def test_explicit_mode_wins():
    config = ExperimentConfig(
        cavity_length=1000.0, wavelength=500e-9, mode=ModeIndices(0, 1, 128)
    )
    assert config.resolved_mode.l_z == 128


def test_lossless_copy_drops_finesse():
    assert DEFAULT.finesse == 1e4
    assert DEFAULT.lossless().finesse is None
    assert DEFAULT.lossless().cavity_length == DEFAULT.cavity_length


def test_lossless_copy_does_not_warn_again():
    with pytest.warns(UserWarning) as caught:
        config = ExperimentConfig(cavity_length=1.0, wavelength=0.5, finesse=10.0)
        lossless = config.lossless()
    assert len(caught) == 1
    assert lossless == (1.0, 0.5, None, None, None, TimeConvention.CAPTION)


def test_storage_time_conventions():
    length, c = 1000.0, CODATA.c
    lossless = ExperimentConfig(cavity_length=length, wavelength=500e-9)
    assert storage_time(lossless) == pytest.approx(length / c)

    caption = ExperimentConfig(cavity_length=length, wavelength=500e-9, finesse=1e4)
    assert caption.time_convention is TimeConvention.CAPTION
    assert storage_time(caption) == pytest.approx(length * 1e4 / c)

    pi_conv = ExperimentConfig(
        cavity_length=length,
        wavelength=500e-9,
        finesse=1e4,
        time_convention=TimeConvention.PI,
    )
    assert storage_time(pi_conv) == pytest.approx(length * 1e4 / (math.pi * c))

    override = ExperimentConfig(
        cavity_length=length, wavelength=500e-9, finesse=1e4, measurement_time_override=2.5
    )
    assert storage_time(override) == 2.5


def test_derive_params_relations():
    params = derive_params(DEFAULT)
    length = DEFAULT.cavity_length
    mode = DEFAULT.resolved_mode
    assert params.kappa == pytest.approx((CODATA.planck_length / length) ** 2, rel=1e-12)
    assert params.mode_index == mode.l_z
    omega = CODATA.c * math.pi / length * mode.index_norm
    assert params.tau == pytest.approx(omega * storage_time(DEFAULT), rel=1e-12)
    assert params.amplitude(1.0) == pytest.approx(4.0 * params.kappa / math.pi, rel=1e-12)
    # amplitude is linear in n
    assert params.amplitude(3.0) == pytest.approx(3.0 * params.amplitude(1.0), rel=1e-15)


def test_derive_params_rejects_values_outside_float_range():
    for config in [
        # M = 2e306, whose squared norm overflows
        ExperimentConfig(cavity_length=1e300, wavelength=1e-6),
        # 2L/lambda overflows before it is rounded
        ExperimentConfig(cavity_length=1e300, wavelength=1e-10),
        ExperimentConfig(cavity_length=1.0, wavelength=1e-6, mode=ModeIndices(0, 1, 10**200)),
        # (l_Pl/L)^2 overflows
        ExperimentConfig(cavity_length=1e-200, wavelength=1e-205),
    ]:
        with pytest.raises(ValueError, match="float range"):
            derive_params(config)


def test_invalid_dimensionless_params():
    with pytest.raises(ValueError):
        DimensionlessParams(kappa=-1.0, mode_index=1, tau=1.0)
    with pytest.raises(ValueError):
        DimensionlessParams(kappa=1.0, mode_index=0, tau=1.0)
    # NaN fails no <= test, and a bool is not a mode index
    for kappa, mode_index, tau, message in [
        (math.nan, 1, 1.0, "kappa must be a number in (0, inf), got nan"),
        (1.0, 1, math.nan, "tau must be a number in (0, inf], got nan"),
        (1.0, True, 1.0, "M must be an integer in [1, 1.79769e+308], got True"),
        (1.0, math.nan, 1.0, "M must be an integer in [1, 1.79769e+308], got nan"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            DimensionlessParams(kappa=kappa, mode_index=mode_index, tau=tau)


def test_validate_regime_weak_field_flag():
    params = derive_params(DEFAULT)
    n_edge = 0.1 / (params.kappa * params.mode_index)
    ok = validate_regime(DEFAULT, 0.5 * n_edge)
    bad = validate_regime(DEFAULT, 2.0 * n_edge)
    assert ok.weak_field_ok and not bad.weak_field_ok
    assert bad.weak_field_margin == pytest.approx(0.2, rel=1e-9)
    assert not bad.all_ok
    assert any("VIOLATION" in m for m in bad.messages)


def test_validate_regime_qed_scaling():
    report1 = validate_regime(DEFAULT, 1e10)
    report2 = validate_regime(DEFAULT, 16e10)
    # minimum length grows as (n M)^(1/4): factor 16 in n doubles it
    assert report2.min_cavity_length == pytest.approx(2.0 * report1.min_cavity_length, rel=1e-9)
    assert report1.wavelength_vs_planck_ok


def test_validate_regime_rejects_negative_n():
    with pytest.raises(ValueError):
        validate_regime(DEFAULT, -1.0)


def test_validate_regime_rejects_n_times_m_outside_float_range():
    # n is a finite photon number, but n*M (M = 4e9) overflows
    with pytest.raises(ValueError, match="outside float range"):
        validate_regime(DEFAULT, 1e308)


@pytest.mark.parametrize("n", [math.nan, math.inf, True])
def test_validate_regime_rejects_non_photon_number(n):
    with pytest.raises(ValueError, match="photon number"):
        validate_regime(DEFAULT, n)

