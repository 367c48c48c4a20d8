"""Tests for the dimensionless stress-tensor components."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cavlight import fields, modes
from cavlight.bounds import backaction
from cavlight.modes import (
    MAX_LARGE_M,
    MIN_LARGE_M,
    ROW_LARGE_M,
    ROWS_011,
    StressTensor,
    evaluate_row,
    f1,
    f2,
    f3,
    f3_tilde,
    stress_components_011,
    stress_components_01M,
)

PI = math.pi

angles = st.floats(min_value=0.0, max_value=PI, allow_nan=False)

# the paper's f1..f4 and f3_tilde with the (011) component (mu, nu) each is,
# written out here rather than read from modes' rows
PAPER_011 = {
    "f1": ((0, 0), lambda eta, zeta: 2.0 - np.cos(2.0 * eta) - np.cos(2.0 * zeta)),
    "f2": ((1, 1), lambda eta, zeta: np.cos(2.0 * eta) + np.cos(2.0 * zeta) - 2.0 * np.cos(2.0 * eta) * np.cos(2.0 * zeta)),
    "f3": ((2, 2), lambda eta, zeta: 1.0 - 2.0 * np.cos(2.0 * zeta) + np.cos(2.0 * zeta) * np.cos(2.0 * eta)),
    "f3_tilde": ((3, 3), lambda eta, zeta: 1.0 - 2.0 * np.cos(2.0 * eta) + np.cos(2.0 * eta) * np.cos(2.0 * zeta)),
    "f4": ((2, 3), lambda eta, zeta: np.sin(2.0 * eta) * np.sin(2.0 * zeta)),
}


@given(angles, angles)
def test_stress_011_matches_the_paper(eta, zeta):
    t = stress_components_011()
    for name, ((mu, nu), formula) in PAPER_011.items():
        expected = formula(eta, zeta)
        assert getattr(modes, name)(eta, zeta) == pytest.approx(expected, abs=1e-14)
        assert t.component(mu, nu, eta, zeta) == pytest.approx(expected, abs=1e-14)
    # every other component vanishes
    sourced = {key for key, _ in PAPER_011.values()}
    for mu in range(4):
        for nu in range(mu, 4):
            if (mu, nu) not in sourced:
                assert t.component(mu, nu, eta, zeta) == 0.0


@given(angles, angles)
def test_trace_identity_f1(eta, zeta):
    # t00 = t11 + t22 + t33 pointwise (trace-free stress)
    assert f1(eta, zeta) == pytest.approx(
        f2(eta, zeta) + f3(eta, zeta) + f3_tilde(eta, zeta), abs=1e-12
    )


@given(angles, angles)
def test_f3_tilde_is_swapped_f3(eta, zeta):
    assert f3_tilde(eta, zeta) == f3(zeta, eta)


def test_stress_011_components_and_symmetry():
    t = stress_components_011()
    eta, zeta = 0.7, 2.1
    assert t.component(0, 0, eta, zeta) == pytest.approx(PAPER_011["f1"][1](eta, zeta))
    assert t.component(2, 3, eta, zeta) == pytest.approx(PAPER_011["f4"][1](eta, zeta))
    assert t.component(3, 2, eta, zeta) == t.component(2, 3, eta, zeta)
    # components not sourced by the mode vanish
    assert t.component(0, 1, eta, zeta) == 0.0
    assert t.component(1, 2, eta, zeta) == 0.0
    with pytest.raises(ValueError):
        t.component(4, 0, eta, zeta)


def test_stress_011_trace_free_on_grid():
    t = stress_components_011()
    g = np.linspace(0.0, PI, 33)
    eta, zeta = np.meshgrid(g, g, indexing="ij")
    assert np.max(np.abs(t.trace(eta, zeta))) < 1e-12


def test_stress_011_divergence_free_interior():
    t = stress_components_011()
    g = np.linspace(0.05, PI - 0.05, 29)
    eta, zeta = np.meshgrid(g, g, indexing="ij")
    div = t.divergence(eta, zeta)
    assert np.max(np.abs(div)) < 1e-12


@pytest.mark.parametrize("big_m", [None, 128], ids=["011", "01M"])
def test_stress_01M_divergence_matches_finite_differences(big_m):
    # d_j t^{ij} by central differences of component(), and nothing depends
    # on xi.  In the (011) mode the rows' partials cancel; in the large-M
    # form t22 carries the only partial that does not vanish
    t = StressTensor(big_m)
    g = np.linspace(0.1, PI - 0.1, 13)
    eta, zeta = np.meshgrid(g, g, indexing="ij")
    h = 1e-6
    fd = [
        (t.component(i, 2, eta + h, zeta) - t.component(i, 2, eta - h, zeta)) / (2.0 * h)
        + (t.component(i, 3, eta, zeta + h) - t.component(i, 3, eta, zeta - h)) / (2.0 * h)
        for i in (1, 2, 3)
    ]
    div = t.divergence(eta, zeta)
    assert big_m is None or np.max(np.abs(div[1])) > 1.0
    np.testing.assert_allclose(div, fd, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("row", [*ROWS_011.values(), ROW_LARGE_M], ids=[*map(str, ROWS_011), "large-M"])
def test_row_partials_match_finite_differences(row):
    g = np.linspace(0.1, PI - 0.1, 13)
    eta, zeta = np.meshgrid(g, g, indexing="ij")
    h = 1e-6
    d_eta = (evaluate_row(row, eta + h, zeta) - evaluate_row(row, eta - h, zeta)) / (2.0 * h)
    d_zeta = (evaluate_row(row, eta, zeta + h) - evaluate_row(row, eta, zeta - h)) / (2.0 * h)
    np.testing.assert_allclose(evaluate_row(row, eta, zeta, 0), d_eta, rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(evaluate_row(row, eta, zeta, 1), d_zeta, rtol=0.0, atol=1e-8)


def test_fields_integrate_the_rows():
    # the maps integrate the very rows that StressTensor, and so criteria 3
    # and 5, read; each f-name is its source's row
    for src, row in zip(fields.G_SOURCES, ROWS_011.values(), strict=True):
        assert src.basis is row
        assert getattr(modes, src.label).args == (row,)
    assert all(a is b for a, b in zip(fields._SRC_G.basis, ROWS_011.values(), strict=True))
    assert fields.SRC_LARGE_M.basis is ROW_LARGE_M


def test_stress_kind_validation():
    with pytest.raises(ValueError):
        stress_components_01M(1)


def test_stress_01M_warns_for_small_m():
    import warnings

    with pytest.warns(UserWarning):
        stress_components_01M(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stress_components_01M(128)


def test_stress_01M_components():
    t = stress_components_01M(128)
    eta = np.linspace(0.1, PI - 0.1, 17)
    zeta = np.linspace(0.1, PI - 0.1, 17)
    base = 4.0 * np.sin(eta) ** 2
    assert np.allclose(t.component(0, 0, eta, zeta), base, atol=1e-14)
    assert np.allclose(t.component(3, 3, eta, zeta), base, atol=1e-14)
    osc = base * np.cos(2.0 * 128 * zeta)
    assert np.allclose(t.component(1, 1, eta, zeta), osc, atol=1e-12)
    assert np.allclose(t.component(2, 2, eta, zeta), -osc, atol=1e-12)
    assert np.max(np.abs(t.component(2, 3, eta, zeta))) == 0.0
    assert np.max(np.abs(t.trace(eta, zeta))) < 1e-12


@pytest.mark.parametrize("big_m", [8.5, 2.5, 2, 7, MAX_LARGE_M + 1], ids=["8.5", "2.5", "2", "7", "above"])
def test_one_large_m_rule(big_m):
    # metric_01M(p, 8.5) once returned 285.3 and StressTensor took 2 and 2.5
    message = f"^{re.escape(f'M must be an integer in [8, 1e+306], got {big_m!r}')}$"
    for call in (StressTensor, lambda m: fields.metric_01M((5.0, 5.0, 5.0), m)):
        with pytest.raises(ValueError, match=message):
            call(big_m)
    assert fields.MIN_LARGE_M is MIN_LARGE_M and fields.MAX_LARGE_M is MAX_LARGE_M


def test_large_m_rule_warns_on_every_path():
    with pytest.warns(UserWarning, match="large-M form used with M=16"):
        fields.metric_01M((5.0, 5.0, 5.0), 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert StressTensor(np.int64(64)).big_m == 64


def test_mode_index_m_is_an_integer():
    # backaction(1.0, 1.5, 1.0) once returned -1.5
    for big_m in (1.5, 2.0, 10**400):
        with pytest.raises(ValueError, match=re.escape(f"M must be an integer in [1, 1.79769e+308], got {big_m!r}")):
            backaction(1.0, big_m, 1.0)
    assert backaction(1.0, np.int64(3), 1.0) == -3.0
