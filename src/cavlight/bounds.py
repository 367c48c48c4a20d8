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

from .physical import (
    CODATA,
    DimensionlessParams,
    ExperimentConfig,
    PhysicalConstants,
    derive_params,
    storage_time,
)


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
    if state.kind is ProbeKind.OPTIMAL:
        return 1.0 / (2.0 * tau * n)
    if state.coherent_formula is CoherentFormula.ASYMPTOTIC:
        return 1.0 / (2.0 * tau * math.sqrt(n))
    s = math.sin(tau)
    fisher = (0.5 + n) * s * s + n * tau * (tau + math.sin(2.0 * tau))
    return 0.5 / math.sqrt(abs(fisher))


def backaction(n: float, big_m: int, kappa: float) -> float:
    """Signed light-speed modification -kappa*n*M caused by the probe."""
    if n < 0 or big_m < 1:
        raise ValueError("need n >= 0 and M >= 1")
    return -kappa * n * big_m


@dataclass(frozen=True)
class TradeoffSolution:
    """Photon number at which quantum noise equals the back-action."""

    state_kind: ProbeKind
    coherent_formula: CoherentFormula | None
    n_opt: float
    delta_c_min: float
    tau: float
    kappa: float
    mode_index: int
    method: str  # "closed-form" or "root-find"
    qcrb_at_solution: float
    backaction_at_solution: float


ROOT_BRACKET_DECADES = (0.0, 60.0)


def optimal_tradeoff(
    config: ExperimentConfig | DimensionlessParams,
    state_kind: ProbeKind,
    coherent_formula: CoherentFormula = CoherentFormula.ASYMPTOTIC,
    constants: PhysicalConstants = CODATA,
) -> TradeoffSolution:
    """Solve qcrb(n) = |backaction(n)| for n.

    Optimal and coherent-asymptotic probes admit closed forms; the
    coherent exact formula is solved by bisection in log10(n).
    """
    params = config if isinstance(config, DimensionlessParams) else derive_params(config, constants)
    tau, kappa, big_m = params.tau, params.kappa, params.mode_index
    km = kappa * big_m

    if state_kind is ProbeKind.OPTIMAL:
        n_opt = (2.0 * tau * km) ** -0.5
        return TradeoffSolution(
            state_kind,
            None,
            n_opt,
            1.0 / (2.0 * tau * n_opt),
            tau,
            kappa,
            big_m,
            "closed-form",
            1.0 / (2.0 * tau * n_opt),
            -km * n_opt,
        )
    if coherent_formula is CoherentFormula.ASYMPTOTIC:
        n_opt = (2.0 * tau * km) ** (-2.0 / 3.0)
        return TradeoffSolution(
            state_kind,
            coherent_formula,
            n_opt,
            1.0 / (2.0 * tau * math.sqrt(n_opt)),
            tau,
            kappa,
            big_m,
            "closed-form",
            1.0 / (2.0 * tau * math.sqrt(n_opt)),
            -km * n_opt,
        )

    def gap(log_n: float) -> float:
        n = 10.0**log_n
        return math.log(qcrb(ProbeState(state_kind, n, coherent_formula), tau)) - math.log(km * n)

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
    n_opt = 10.0 ** (0.5 * (lo + hi))
    q = qcrb(ProbeState(state_kind, n_opt, coherent_formula), tau)
    return TradeoffSolution(
        state_kind,
        coherent_formula,
        n_opt,
        q,
        tau,
        kappa,
        big_m,
        "root-find",
        q,
        -km * n_opt,
    )


@dataclass(frozen=True)
class ComparisonBounds:
    """delta_L/L of three quantum-gravity fluctuation predictions."""

    ng00: float       # (l_Pl/L)^(2/3)
    ac_eq3: float     # (l_QG*c*T)^(1/2)/L
    ac_eq5: float     # (l_QG^2*c*T)^(1/3)/L


def comparison_bounds(
    config: ExperimentConfig,
    l_qg: float | None = None,
    constants: PhysicalConstants = CODATA,
) -> ComparisonBounds:
    """Evaluate the comparison predictions with T from the storage time."""
    l_pl = constants.planck_length
    l_qg = l_pl if l_qg is None else l_qg
    length = config.cavity_length
    ct = constants.c * storage_time(config, constants)
    return ComparisonBounds(
        ng00=(l_pl / length) ** (2.0 / 3.0),
        ac_eq3=math.sqrt(l_qg * ct) / length,
        ac_eq5=(l_qg**2 * ct) ** (1.0 / 3.0) / length,
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
    config: ExperimentConfig

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


def table1(config: ExperimentConfig, constants: PhysicalConstants = CODATA) -> ScalingTable:
    """Assemble the scaling table for one configuration."""
    lossless = config.lossless()
    opt_ll = optimal_tradeoff(lossless, ProbeKind.OPTIMAL, constants=constants)
    coh_ll = optimal_tradeoff(lossless, ProbeKind.COHERENT, constants=constants)
    opt_lo = coh_lo = None
    if config.finesse is not None:
        opt_lo = optimal_tradeoff(config, ProbeKind.OPTIMAL, constants=constants)
        coh_lo = optimal_tradeoff(config, ProbeKind.COHERENT, constants=constants)
    return ScalingTable(
        optimal_lossless=opt_ll,
        coherent_lossless=coh_ll,
        optimal_lossy=opt_lo,
        coherent_lossy=coh_lo,
        comparisons=comparison_bounds(config, constants=constants),
        config=config,
    )
