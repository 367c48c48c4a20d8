"""Tests for estimation bounds, back-action, and the trade-off solver."""

import math
import re

import numpy as np
import pytest

from cavlight.bounds import (
    CoherentFormula,
    ProbeKind,
    ProbeState,
    backaction,
    comparison_bounds,
    optimal_tradeoff,
    qcrb,
    table1,
)
from cavlight.physical import CODATA, DimensionlessParams, ExperimentConfig, derive_params

DEFAULT = ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4)

# frozen trade-off solutions for the default configuration
# (lossless T = L/c, lossy T = L F / c)
FROZEN = {
    "optimal_lossless": {"n_opt": 6.17078175e27, "delta_c": 6.44792465e-39},
    "optimal_lossy": {"n_opt": 6.17078175e25, "delta_c": 6.44792465e-41},
    "coherent_lossless": {"n_opt": 1.13184489e37, "delta_c": 1.18267845e-29},
    "coherent_lossy": {"n_opt": 2.43848590e34, "delta_c": 2.54800347e-32},
}


def test_probe_state_validation():
    with pytest.raises(ValueError):
        ProbeState(ProbeKind.OPTIMAL, 0.0)
    with pytest.raises(ValueError):
        ProbeState(ProbeKind.COHERENT, -2.0)
    # one photon-number rule with validate_regime and frequency_shift, plus n > 0
    for n in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match="photon number"):
            ProbeState(ProbeKind.OPTIMAL, n)


def test_qcrb_optimal_state():
    state = ProbeState(ProbeKind.OPTIMAL, 100.0)
    assert qcrb(state, 5.0) == pytest.approx(1.0 / (2.0 * 5.0 * 100.0), rel=1e-15)
    with pytest.raises(ValueError):
        qcrb(state, 0.0)


def test_qcrb_refuses_a_bool_tau():
    # True once passed as tau = 1
    with pytest.raises(ValueError, match="tau must be a number"):
        qcrb(ProbeState(ProbeKind.OPTIMAL, 1.0), True)


def test_qcrb_coherent_asymptotic():
    state = ProbeState(ProbeKind.COHERENT, 100.0)
    assert qcrb(state, 5.0) == pytest.approx(1.0 / (2.0 * 5.0 * 10.0), rel=1e-15)


def test_qcrb_coherent_exact_at_multiples_of_pi():
    # sin(tau) = sin(2 tau) = 0, so the exact Fisher information reduces
    # to n tau^2 and the exact bound equals the asymptote
    for k in (1, 2, 5):
        tau = k * math.pi
        for n in (10.0, 1e4):
            exact = qcrb(ProbeState(ProbeKind.COHERENT, n, CoherentFormula.EXACT), tau)
            asym = qcrb(ProbeState(ProbeKind.COHERENT, n), tau)
            assert exact == pytest.approx(asym, rel=1e-12)


def test_qcrb_coherent_exact_approaches_asymptote():
    tau = 1e4
    for n in (10.0, 1e4):
        exact = qcrb(ProbeState(ProbeKind.COHERENT, n, CoherentFormula.EXACT), tau)
        asym = qcrb(ProbeState(ProbeKind.COHERENT, n), tau)
        assert exact == pytest.approx(asym, rel=1e-3)


def test_backaction_sign_and_linearity():
    kappa = 1e-76
    assert backaction(10.0, 4, kappa) == pytest.approx(-4e-75, rel=1e-15)
    assert backaction(20.0, 4, kappa) == pytest.approx(2 * backaction(10.0, 4, kappa), rel=1e-15)
    with pytest.raises(ValueError):
        backaction(-1.0, 4, kappa)
    with pytest.raises(ValueError):
        backaction(1.0, 0, kappa)
    for n in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match="photon number"):
            backaction(n, 1, kappa)
    for big_m in (math.nan, math.inf, True):
        with pytest.raises(ValueError, match=re.escape(f"M must be an integer in [1, 1.79769e+308], got {big_m!r}")):
            backaction(1.0, big_m, kappa)
    # a non-positive kappa would flip the sign, and True would run as 1
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0, -1e-70, True):
        with pytest.raises(ValueError, match=re.escape(f"kappa must be a number in (0, inf), got {bad!r}")):
            backaction(1.0, 1, bad)
    # -kappa*n*M overflows
    with pytest.raises(ValueError, match="outside float range"):
        backaction(1e300, 10**10, 1.0)


def test_optimal_tradeoff_closed_form_balance():
    params = derive_params(DEFAULT)
    sol = optimal_tradeoff(params, ProbeKind.OPTIMAL)
    # noise equals back-action magnitude at the solution
    noise = qcrb(ProbeState(ProbeKind.OPTIMAL, sol.n_opt), params.tau)
    assert noise == pytest.approx(abs(backaction(sol.n_opt, params.mode_index, params.kappa)), rel=1e-12)
    assert sol.n_opt == pytest.approx((2.0 * params.tau * params.kappa * params.mode_index) ** -0.5, rel=1e-12)


def test_coherent_tradeoff_exact_vs_asymptotic():
    sol_a = optimal_tradeoff(DEFAULT, ProbeKind.COHERENT, CoherentFormula.ASYMPTOTIC)
    sol_e = optimal_tradeoff(DEFAULT, ProbeKind.COHERENT, CoherentFormula.EXACT)
    # at tau ~ 1e10 the exact solution is indistinguishable from the asymptote
    assert sol_e.n_opt == pytest.approx(sol_a.n_opt, rel=1e-3)
    assert sol_e.delta_c_min == pytest.approx(sol_a.delta_c_min, rel=1e-3)
    params = derive_params(DEFAULT)
    noise = qcrb(ProbeState(ProbeKind.COHERENT, sol_e.n_opt, CoherentFormula.EXACT), params.tau)
    assert noise == pytest.approx(abs(backaction(sol_e.n_opt, params.mode_index, params.kappa)), rel=1e-6)


@pytest.mark.parametrize(
    "measurement_time, n_opt, delta_c",
    [
        # frozen at the 9 significant digits the CLI prints
        pytest.param(3e-16, 9.35911152e41, 4.88972453e-22, id="3e-16"),
        pytest.param(1e-15, 6.49016953e41, 3.3908284e-22, id="1e-15"),
    ],
)
def test_coherent_exact_root_balances_noise_and_backaction(measurement_time, n_opt, delta_c):
    # tau ~ 0.57 and ~ 1.9, where the exact n_opt differs from the
    # asymptote by 34% and 2%, so the cubic's B term does real work
    config = ExperimentConfig(
        cavity_length=1.0, wavelength=1e-6, measurement_time_override=measurement_time
    )
    sol = optimal_tradeoff(config, ProbeKind.COHERENT, CoherentFormula.EXACT)
    asym = optimal_tradeoff(config, ProbeKind.COHERENT, CoherentFormula.ASYMPTOTIC)
    assert abs(sol.n_opt / asym.n_opt - 1.0) > 0.01
    assert sol.n_opt == pytest.approx(n_opt, rel=1e-8)
    assert sol.delta_c_min == pytest.approx(delta_c, rel=1e-8)
    params = derive_params(config)
    noise = qcrb(ProbeState(ProbeKind.COHERENT, sol.n_opt, CoherentFormula.EXACT), params.tau)
    assert abs(math.log(noise / abs(backaction(sol.n_opt, params.mode_index, params.kappa)))) <= 1e-12


def test_tradeoff_outside_float_range_raises_value_error():
    # 2*tau*kappa*M underflows to 0 and overflows to inf
    for kappa, tau in [(1e-300, 1e-300), (1e300, 1e300)]:
        params = DimensionlessParams(kappa=kappa, mode_index=1, tau=tau)
        for kind, formula in [
            (ProbeKind.OPTIMAL, CoherentFormula.ASYMPTOTIC),
            (ProbeKind.COHERENT, CoherentFormula.ASYMPTOTIC),
            (ProbeKind.COHERENT, CoherentFormula.EXACT),
        ]:
            with pytest.raises(ValueError, match="float range"):
                optimal_tradeoff(params, kind, formula)
    # 2*tau*kappa*M is finite, but the exact coherent variance n*A + B is not:
    # A overflows with tau^2 and rounds to 0 with it
    for kappa, tau in [(1e-300, 1e200), (1e300, 1e-170)]:
        params = DimensionlessParams(kappa=kappa, mode_index=1, tau=tau)
        with pytest.raises(ValueError, match="variance is outside float range"):
            optimal_tradeoff(params, ProbeKind.COHERENT, CoherentFormula.EXACT)
    # tau * n underflows, so the bound itself would be infinite
    with pytest.raises(ValueError, match="float range"):
        qcrb(ProbeState(ProbeKind.OPTIMAL, 1e-300), 1e-30)
    # 2*tau overflows, so sin(2*tau) in the exact coherent formula has no value
    with pytest.raises(ValueError, match="outside float range"):
        qcrb(ProbeState(ProbeKind.COHERENT, 1.0, CoherentFormula.EXACT), 1.3e308)


def test_table1_frozen_values():
    table = table1(DEFAULT)
    entries = table.entries()
    for key, expected in FROZEN.items():
        cell = entries[key]
        assert cell["n_opt"] == pytest.approx(expected["n_opt"], rel=1e-4)
        assert cell["delta_c"] == pytest.approx(expected["delta_c"], rel=1e-4)


def test_table1_without_finesse_has_no_lossy_entries():
    table = table1(DEFAULT.lossless())
    entries = table.entries()
    assert entries["optimal_lossy"] is None
    assert entries["coherent_lossy"] is None
    assert entries["optimal_lossless"] is not None


def test_table1_entry_keys():
    keys = set(table1(DEFAULT).entries())
    assert keys == {
        "optimal_lossless",
        "optimal_lossy",
        "coherent_lossless",
        "coherent_lossy",
        "ng00",
        "ac_eq3",
        "ac_eq5",
    }


def test_comparison_bounds_formulas():
    bounds = comparison_bounds(DEFAULT)
    l_pl = CODATA.planck_length
    length = DEFAULT.cavity_length
    ct = CODATA.c * (length * DEFAULT.finesse / CODATA.c)
    assert bounds.ng00 == pytest.approx((l_pl / length) ** (2.0 / 3.0), rel=1e-12)
    assert bounds.ac_eq3 == pytest.approx(math.sqrt(l_pl * ct) / length, rel=1e-12)
    assert bounds.ac_eq5 == pytest.approx((l_pl**2 * ct) ** (1.0 / 3.0) / length, rel=1e-12)


def test_optimal_beats_coherent():
    rng = np.random.default_rng(42)
    for _ in range(25):
        length = 10.0 ** rng.uniform(0, 4)
        wavelength = 10.0 ** rng.uniform(-7, -5)
        finesse = 10.0 ** rng.uniform(2, 6)
        config = ExperimentConfig(
            cavity_length=length, wavelength=wavelength, finesse=finesse
        )
        opt = optimal_tradeoff(config, ProbeKind.OPTIMAL)
        coh = optimal_tradeoff(config, ProbeKind.COHERENT)
        assert opt.delta_c_min <= coh.delta_c_min


def test_coherent_exact_root_below_one_photon():
    # every probe answers any positive n_opt; here the exact coherent one
    # sits below one photon, where a bisection from 1 photon up found none
    params = DimensionlessParams(kappa=1.0, mode_index=1, tau=1.0)
    sol = optimal_tradeoff(params, ProbeKind.COHERENT, CoherentFormula.EXACT)
    assert sol.n_opt == pytest.approx(0.416183730, rel=1e-9)
    noise = qcrb(ProbeState(ProbeKind.COHERENT, sol.n_opt, CoherentFormula.EXACT), params.tau)
    assert abs(math.log(noise / abs(backaction(sol.n_opt, 1, 1.0)))) <= 1e-12
