"""An independent check of the closed-form quantum bounds in a truncated Fock space.

The probe is an oscillator H(omega) = p^2/2 + omega^2 x^2/2 whose frequency
carries c, prepared at omega = 1 and left to evolve for a phase tau.  Its
pure-state quantum Fisher information for ln(omega) is
F = 4 (<d psi|d psi> - |<psi|d psi>|^2) (Braunstein & Caves, PRL 72, 3439,
1994), with the derivative taken here by a central difference and the
evolution by diagonalising H(omega e^{+-h}).  F = 4 Var G for the generator
G = tau (n + 1/2) + (e^{-i tau} sin(tau) a^2 + h.c.)/2, and qcrb is 1/sqrt(F).
"""

import math

import numpy as np
import pytest

from cavlight.bounds import CoherentFormula, ProbeKind, ProbeState, backaction, qcrb
from cavlight.physical import ExperimentConfig, derive_params
from cavlight.resonance import frequency_shift, line_average_epsilon


def _evolve(state, omega, tau):
    size = len(state)
    a = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    x = (a + a.T) / math.sqrt(2.0)
    p = 1j * (a.T - a) / math.sqrt(2.0)
    # only the last diagonal entry of x @ x and p @ p feels the truncation
    h = 0.5 * (p @ p).real + 0.5 * omega**2 * (x @ x)
    energies, vectors = np.linalg.eigh(h)
    return vectors @ (np.exp(-1j * energies * tau) * (vectors.T @ state))


def fock_qfi(state, tau, n):
    """F for ln(omega) after phase tau; the step shrinks as tau*n grows,
    since the central difference errs by about (h*tau*n)^2/6."""
    h = 1e-4 / (tau * (n + 1.0))
    psi = _evolve(state, 1.0, tau)
    dpsi = (_evolve(state, math.exp(h), tau) - _evolve(state, math.exp(-h), tau)) / (2.0 * h)
    return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(psi, dpsi)) ** 2)


def coherent_state(n):
    """|sqrt(n)> in a Fock space of n + 12 sqrt(n) + 40 levels."""
    amplitudes = [math.exp(-0.5 * n)]
    for k in range(1, int(n + 12.0 * math.sqrt(n) + 40.0)):
        amplitudes.append(amplitudes[-1] * math.sqrt(n / k))
    return np.array(amplitudes)


def optimal_state(n):
    """(|0> + |2n>)/sqrt(2), of mean photon number n."""
    state = np.zeros(2 * n + 40)
    state[0] = state[2 * n] = math.sqrt(0.5)
    return state


def test_coherent_exact_qcrb_matches_the_fock_space_qfi():
    rng = np.random.default_rng(13)
    for n, tau in zip(rng.uniform(0.5, 20.0, 50), rng.uniform(0.05, 30.0, 50)):
        exact = qcrb(ProbeState(ProbeKind.COHERENT, n, CoherentFormula.EXACT), tau)
        assert exact * math.sqrt(fock_qfi(coherent_state(n), tau, n)) == pytest.approx(1.0, rel=1e-6), (n, tau)


def _full_variance(n, tau):
    # Var G of (|0> + |2n>)/sqrt(2) once 2n >= 6, when a^2 links no two of its levels
    return tau**2 * n**2 + math.sin(tau) ** 2 * (n**2 + n / 2 + 0.5)


@pytest.mark.parametrize("n", [3, 5, 10])
@pytest.mark.parametrize("tau", [0.3, 0.7, 2.0, 50.0])
def test_optimal_probe_full_variance(n, tau):
    assert fock_qfi(optimal_state(n), tau, n) / 4.0 == pytest.approx(_full_variance(n, tau), rel=1e-6)


@pytest.mark.parametrize(
    "n, tau, gap",
    [
        # 2n >= 6: sqrt(Var G)/(tau*n) from the variance above
        (3, 0.3, 1.4785103),
        (3, 50.0, 1.0000168),
        # 2n = 4, where a^2 also links |0> and |4> through |2>
        (2, 0.3, 1.6060689),
        (2, 50.0, 1.0000226),
    ],
)
def test_optimal_qcrb_is_the_pure_phase_form(n, tau, gap):
    # qcrb(OPTIMAL) keeps only the tau*n part of G, so it sits above the full
    # model's 1/sqrt(F) by a gap that closes as tau grows
    bound = qcrb(ProbeState(ProbeKind.OPTIMAL, float(n)), tau)
    assert bound == 0.5 / (tau * n)
    assert bound * math.sqrt(fock_qfi(optimal_state(n), tau, n)) == pytest.approx(gap, rel=1e-7)


@pytest.mark.parametrize("transverse", ["center", "average"])
def test_frequency_shift_is_the_backaction_times_the_line_average(transverse):
    # the trade-off balances noise against the bare kappa*n*M; the resonance
    # shift carries the geometric factor (2/pi)<epsilon> on top of it
    config = ExperimentConfig(cavity_length=1000.0, wavelength=500e-9, finesse=1e4)
    params = derive_params(config)
    for n in (1.0, 1e20, 3.7e30):
        ratio = frequency_shift(config, n, transverse=transverse) / abs(backaction(n, params.mode_index, params.kappa))
        assert ratio == pytest.approx(2.0 / math.pi * line_average_epsilon(transverse), rel=1e-14)
