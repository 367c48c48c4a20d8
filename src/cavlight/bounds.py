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
from dataclasses import dataclass
from enum import Enum

from .physical import CODATA, DimensionlessParams, ExperimentConfig, derive_params, storage_time


class ProbeKind(Enum):
    OPTIMAL = "optimal"      # (|0> + |2n>)/sqrt(2)
    COHERENT = "coherent"


class CoherentFormula(Enum):
    EXACT = "exact"
    ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class ProbeState:
    kind: ProbeKind
    n: float
    coherent_formula: CoherentFormula = CoherentFormula.ASYMPTOTIC

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("photon number must be positive")


def qcrb(state: ProbeState, tau: float) -> float:
    """Minimal delta_c/c of a single measurement after phase tau."""
    if tau <= 0:
        raise ValueError("no information at zero evolution time")
    n = state.n
    # root_f = sqrt(F)/2 for the quantum Fisher information F, and the
    # bound is 1/sqrt(F)
    if state.kind is ProbeKind.OPTIMAL:
        root_f = tau * n
    elif state.coherent_formula is CoherentFormula.ASYMPTOTIC:
        root_f = tau * math.sqrt(n)
    else:
        s = math.sin(tau)
        root_f = math.sqrt(abs((0.5 + n) * s * s + n * tau * (tau + math.sin(2.0 * tau))))
    if not 0.0 < root_f < math.inf or 0.5 / root_f == math.inf:
        raise ValueError(f"delta_c/c at n={n:.3g}, tau={tau:.3g} is outside float range")
    return 0.5 / root_f


def backaction(n: float, big_m: int, kappa: float) -> float:
    """Signed light-speed modification -kappa*n*M caused by the probe."""
    if n < 0 or big_m < 1:
        raise ValueError("need n >= 0 and M >= 1")
    shift = -kappa * n * big_m
    if shift == -math.inf:
        raise ValueError(f"back-action at n={n:.3g} is outside float range")
    return shift


@dataclass(frozen=True)
class TradeoffSolution:
    """Photon number at which quantum noise equals the back-action."""

    n_opt: float
    delta_c_min: float
    method: str  # "closed-form" or "root-find"


ROOT_BRACKET_DECADES = (0.0, 60.0)


def optimal_tradeoff(
    config: ExperimentConfig | DimensionlessParams,
    state_kind: ProbeKind,
    coherent_formula: CoherentFormula = CoherentFormula.ASYMPTOTIC,
) -> TradeoffSolution:
    """Solve qcrb(n) = |backaction(n)| for n.

    Optimal and coherent-asymptotic probes admit closed forms; the
    coherent exact formula is solved by bisection in log10(n).  Raises
    ValueError when tau, kappa*M or their product leaves float range, or
    when the exact root lies outside the bracket.
    """
    params = config if isinstance(config, DimensionlessParams) else derive_params(config)
    tau = params.tau
    km = params.kappa * params.mode_index
    scale = 2.0 * (tau * km)
    if not 0.0 < scale < math.inf:
        raise ValueError(f"2*tau*kappa*M is outside float range for tau = {tau:.3g}, kappa*M = {km:.3g}")

    if state_kind is ProbeKind.OPTIMAL:
        n_opt, method = scale**-0.5, "closed-form"
    elif coherent_formula is CoherentFormula.ASYMPTOTIC:
        n_opt, method = scale ** (-2.0 / 3.0), "closed-form"
    else:
        n_opt, method = _coherent_exact_root(tau, km), "root-find"
    return TradeoffSolution(n_opt, qcrb(ProbeState(state_kind, n_opt, coherent_formula), tau), method)


def _coherent_exact_root(tau: float, km: float) -> float:
    def gap(log_n: float) -> float:
        n = 10.0**log_n
        state = ProbeState(ProbeKind.COHERENT, n, CoherentFormula.EXACT)
        return math.log(qcrb(state, tau)) - math.log(km * n)

    lo, hi = ROOT_BRACKET_DECADES
    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo <= 0 or g_hi >= 0:
        raise ValueError(
            f"root bracket failed: gap({lo})={g_lo:.3g}, gap({hi})={g_hi:.3g}"
        )
    # The Fisher information grows with n and the back-action linearly,
    # so the gap falls strictly with log n and bisection keeps the root.
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 10.0 ** (0.5 * (lo + hi))


@dataclass(frozen=True)
class ComparisonBounds:
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


@dataclass(frozen=True)
class ScalingTable:
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
