"""Quantum estimation bounds, gravitational back-action, and their trade-off.

The quantum Cramer-Rao bound on delta_c/c falls with photon number
while the metric perturbation caused by the stored light grows linearly
with it; the crossing fixes the optimal photon number and the smallest
uncertainty achievable in principle.  The summary-table generator also
evaluates three quantum-gravity length-fluctuation predictions for
comparison.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from .physical import CODATA, DimensionlessParams, ExperimentConfig, derive_params, storage_time
from .physical import check_count, check_instance, check_real, checked_record


class ProbeKind(Enum):
    OPTIMAL = "optimal"      # (|0> + |2n>)/sqrt(2)
    COHERENT = "coherent"


class CoherentFormula(Enum):
    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


@checked_record
class ProbeState(NamedTuple):
    """A probe of n photons, n in (0, inf) and kept as a float; ``kind`` is
    a ProbeKind and ``coherent_formula`` a CoherentFormula."""

    kind: ProbeKind
    n: float
    coherent_formula: CoherentFormula = CoherentFormula.ASYMPTOTIC

    def _checked(self):
        kind, n, formula = self
        check_instance(kind, ProbeKind, "kind")
        check_instance(formula, CoherentFormula, "coherent formula")
        return kind, check_real(n, "photon number", gt=0), formula


def qcrb(state: ProbeState, tau: float) -> float:
    """Minimal delta_c/c of a single measurement after phase tau in (0, inf).

    The bound is 1/sqrt(F), F = 4 Var G for the generator G = tau*(n + 1/2) +
    (e^{-i tau} sin(tau) a^2 + h.c.)/2 of d/d ln c: the coherent exact form
    takes its full variance n*A + B, the asymptotic form tau^2*n.  OPTIMAL is
    the pure-phase form tau*n, which keeps only the tau*n part of G.
    """
    tau = check_real(tau, "tau", gt=0)
    n = state.n
    # root_f = sqrt(F)/2 for the quantum Fisher information F
    if state.kind is ProbeKind.OPTIMAL:
        root_f = tau * n
    elif state.coherent_formula is CoherentFormula.ASYMPTOTIC:
        root_f = tau * math.sqrt(n)
    else:
        a, b = _variance_terms(tau)
        root_f = math.sqrt(n * a + b)
    if not 0.0 < root_f < math.inf or 0.5 / root_f == math.inf:
        raise ValueError(f"delta_c/c at n={n:.3g}, tau={tau:.3g} is outside float range")
    return 0.5 / root_f


def _variance_terms(tau: float) -> tuple[float, float]:
    """A and B of the coherent probe's Var G = n*A + B: A = |tau + e^{-i tau}
    sin(tau)|^2 and B = sin(tau)^2/2; A is NaN once 2*tau overflows."""
    s = math.sin(tau)
    # sin of an infinite 2*tau raises; NaN falls to the callers' range checks
    s2 = math.sin(2.0 * tau) if 2.0 * tau < math.inf else math.nan
    return tau * (tau + s2) + s * s, 0.5 * s * s


def backaction(n: float, big_m: int, kappa: float) -> float:
    """Signed light-speed modification -kappa*n*M caused by the probe, for
    n in [0, inf), an integer M within [1, float max] and kappa in (0, inf)."""
    n = check_real(n, "photon number", ge=0)
    big_m = check_count(big_m, "M", 1, sys.float_info.max)
    kappa = check_real(kappa, "kappa", gt=0)
    shift = -kappa * n * big_m
    if shift == -math.inf:
        raise ValueError(f"back-action at n={n:.3g} is outside float range")
    return shift


class TradeoffSolution(NamedTuple):
    """Photon number at which quantum noise equals the back-action."""

    n_opt: float
    delta_c_min: float


def optimal_tradeoff(
    config: ExperimentConfig | DimensionlessParams,
    state_kind: ProbeKind,
    coherent_formula: CoherentFormula = CoherentFormula.ASYMPTOTIC,
) -> TradeoffSolution:
    """Solve qcrb(n) = |backaction(n)| for n, each probe in closed form.

    Any positive n_opt is an answer, below one photon too.  Raises
    ValueError when tau, kappa*M or their product leaves float range, or
    when the bound at n_opt does.
    """
    params = config if isinstance(config, DimensionlessParams) else derive_params(config)
    tau = params.tau
    km = params.kappa * params.mode_index
    scale = 2.0 * (tau * km)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"2*tau*kappa*M is outside float range for tau = {tau:.3g}, kappa*M = {km:.3g}")

    if state_kind is ProbeKind.OPTIMAL:
        n_opt = scale**-0.5
    elif coherent_formula is CoherentFormula.ASYMPTOTIC:
        n_opt = scale ** (-2.0 / 3.0)
    else:
        n_opt = _coherent_exact_root(tau, scale)
    return TradeoffSolution(n_opt, qcrb(ProbeState(state_kind, n_opt, coherent_formula), tau))


def _coherent_exact_root(tau: float, scale: float) -> float:
    """The one positive root of the cubic n^3*A + n^2*B = 1/(4 kappa^2 M^2),
    where 1/(2 sqrt(n*A + B)) meets kappa*M*n, with scale = 2*tau*kappa*M."""
    a, b = _variance_terms(tau)
    if not 0.0 < a < math.inf:
        raise ValueError(f"the exact coherent variance is outside float range for tau = {tau:.3g}")
    # n = n0*x turns the cubic into x^3 + beta*x^2 - 1 = 0; n0 never builds
    # kappa^2 M^2, and A/tau^2 lies in [0.66, 4]
    n0 = scale ** (-2.0 / 3.0) * (a / (tau * tau)) ** (-1.0 / 3.0)
    beta = b / a / n0
    # f(x) = x^3 + beta*x^2 - 1 is convex and increasing for x > 0 and both
    # starts have f > 0, so Newton falls monotonically onto the root and
    # stops when rounding no longer lets a step lower x
    x = 1.0 if beta <= 1.0 else beta**-0.5
    while (x_next := x - (x * x * (x + beta) - 1.0) / (x * (3.0 * x + 2.0 * beta))) < x:
        x = x_next
    return n0 * x


class ComparisonBounds(NamedTuple):
    """delta_L/L of three quantum-gravity fluctuation predictions."""

    ng00: float       # (l_Pl/L)^(2/3)
    ac_eq3: float     # (l_QG*c*T)^(1/2)/L
    ac_eq5: float     # (l_QG^2*c*T)^(1/3)/L


def comparison_bounds(config: ExperimentConfig) -> ComparisonBounds:
    """Evaluate the comparison predictions with l_QG = l_Pl and T from the
    storage time."""
    l_pl = CODATA.planck_length
    length = config.cavity_length
    t = storage_time(config)
    ct = CODATA.c * t
    if ct == math.inf:
        raise ValueError(f"c*T is outside float range for T = {t:.3g} s")
    return ComparisonBounds(
        ng00=(l_pl / length) ** (2.0 / 3.0),
        ac_eq3=math.sqrt(l_pl * ct) / length,
        ac_eq5=(l_pl**2 * ct) ** (1.0 / 3.0) / length,
    )


class ScalingTable(NamedTuple):
    """Trade-off solutions for both probes and cavity types, plus the
    comparison bounds; entries are None when the config lacks a finesse."""

    optimal_lossless: TradeoffSolution
    coherent_lossless: TradeoffSolution
    optimal_lossy: TradeoffSolution | None
    coherent_lossy: TradeoffSolution | None
    comparisons: ComparisonBounds

    def entries(self) -> dict[str, dict[str, float] | None]:
        def cell(sol: TradeoffSolution | None):
            if sol is None:
                return None
            return {"delta_c": sol.delta_c_min, "n_opt": sol.n_opt}

        return {
            "optimal_lossless": cell(self.optimal_lossless),
            "optimal_lossy": cell(self.optimal_lossy),
            "coherent_lossless": cell(self.coherent_lossless),
            "coherent_lossy": cell(self.coherent_lossy),
            "ng00": {"delta_c": self.comparisons.ng00},
            "ac_eq3": {"delta_c": self.comparisons.ac_eq3},
            "ac_eq5": {"delta_c": self.comparisons.ac_eq5},
        }


def table1(config: ExperimentConfig) -> ScalingTable:
    """Assemble the scaling table for one configuration."""
    lossless = config.lossless()
    opt_lo = coh_lo = None
    if config.finesse is not None:
        opt_lo = optimal_tradeoff(config, ProbeKind.OPTIMAL)
        coh_lo = optimal_tradeoff(config, ProbeKind.COHERENT)
    return ScalingTable(
        optimal_lossless=optimal_tradeoff(lossless, ProbeKind.OPTIMAL),
        coherent_lossless=optimal_tradeoff(lossless, ProbeKind.COHERENT),
        optimal_lossy=opt_lo,
        coherent_lossy=coh_lo,
        comparisons=comparison_bounds(config),
    )
