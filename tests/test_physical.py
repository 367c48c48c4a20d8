"""Tests for constants, configuration, and derived dimensionless parameters."""

import math
import warnings

import pytest

from cavlight.physical import (
    CODATA,
    DimensionlessParams,
    ExperimentConfig,
    TimeConvention,
    derive_params,
    storage_time,
    validate_regime,
)
from cavlight.modes import ModeIndices


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


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(cavity_length=-1.0, wavelength=500e-9)
    with pytest.raises(ValueError):
        ExperimentConfig(cavity_length=1.0, wavelength=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(cavity_length=1.0, wavelength=1e-6, finesse=-3.0)
    with pytest.raises(ValueError):
        ExperimentConfig(cavity_length=1.0, wavelength=1e-6, measurement_time_override=0.0)


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
    assert params.p_coefficient == pytest.approx(4.0 * params.kappa / math.pi, rel=1e-12)
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
        DimensionlessParams(kappa=-1.0, mode_index=1, tau=1.0, p_coefficient=1.0)
    with pytest.raises(ValueError):
        DimensionlessParams(kappa=1.0, mode_index=0, tau=1.0, p_coefficient=1.0)


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

