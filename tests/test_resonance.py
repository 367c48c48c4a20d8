"""Tests for the global cavity resonance shift."""

import concurrent.futures
import math

import pytest

from cavlight import greens
from cavlight.greens import QuadratureSpec, convolve_point
from cavlight.fields import SRC_UNIT
from cavlight.modes import ModeIndices
from cavlight.physical import ExperimentConfig, derive_params
from cavlight.resonance import (
    LengthConvention,
    epsilon_point,
    frequency_shift,
    line_average_epsilon,
)

PI = math.pi
CENTER = (PI / 2, PI / 2, PI / 2)

# frozen line averages of epsilon at default quadrature settings
LINE_AVG_CENTER = 43.282995541762325
LINE_AVG_CROSS = 37.15540523924205

CONFIG = ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4)


def test_epsilon_point_is_twice_unit_convolution():
    r = epsilon_point(CENTER)
    u = convolve_point(SRC_UNIT, CENTER)
    assert r.value == pytest.approx(2.0 * u.value, rel=1e-15)
    assert r.error == pytest.approx(2.0 * u.error, rel=1e-15)


def test_line_average_center_frozen():
    assert line_average_epsilon() == pytest.approx(LINE_AVG_CENTER, rel=1e-6)


def test_line_average_cross_section_frozen():
    avg = line_average_epsilon(transverse="average")
    assert avg == pytest.approx(LINE_AVG_CROSS, rel=1e-6)
    # averaging over the cross-section dilutes the on-axis maximum
    assert avg < line_average_epsilon()


def test_line_average_runs_serially(monkeypatch):
    # frequency-shift has no worker option, so the average starts no pool
    # even when its predicted work would pay for one
    def no_pool(*args, **kwargs):
        raise AssertionError("line_average_epsilon started a process pool")

    monkeypatch.setattr(greens, "_POOL_COST", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert line_average_epsilon(QuadratureSpec(rel_tol=1e-3), transverse="average") > 0.0


def test_line_average_rejects_unknown_option():
    with pytest.raises(ValueError):
        line_average_epsilon(transverse="corner")


def test_frequency_shift_sign_and_conventions():
    shift = frequency_shift(CONFIG, 1e20)
    assert shift > 0.0
    assert frequency_shift(CONFIG, 1e20, convention=LengthConvention.RIGID_RODS) == 0.0
    assert frequency_shift(CONFIG, 0.0) == 0.0
    with pytest.raises(ValueError):
        frequency_shift(CONFIG, -1.0)


def test_frequency_shift_linear_in_n():
    a = frequency_shift(CONFIG, 1e20)
    b = frequency_shift(CONFIG, 2e20)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_frequency_shift_linear_in_mode_index():
    base = ExperimentConfig(
        cavity_length=1000.0, wavelength=500e-9, mode=ModeIndices(0, 1, 10**6)
    )
    doubled = ExperimentConfig(
        cavity_length=1000.0, wavelength=500e-9, mode=ModeIndices(0, 1, 2 * 10**6)
    )
    a = frequency_shift(base, 1e20)
    b = frequency_shift(doubled, 1e20)
    assert b == pytest.approx(2.0 * a, rel=1e-9)


def test_frequency_shift_magnitude():
    # shift = (2 n kappa M / pi) * line-average
    params = derive_params(CONFIG)
    n = 1e20
    expected = 0.5 * params.amplitude(n) * params.mode_index * LINE_AVG_CENTER
    assert frequency_shift(CONFIG, n) == pytest.approx(expected, rel=1e-6)
