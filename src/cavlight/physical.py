"""Physical constants, cavity modes, experiment configuration, and dimensionless parameters.

Everything downstream works with the dimensionless set (kappa, M, tau,
P) derived here from the lab-frame configuration.  All constants are
CODATA 2018; the Planck length is derived, never hard-coded.
"""

from __future__ import annotations

import math
import warnings
from enum import Enum
from typing import NamedTuple

# Weak-field flag threshold on n*kappa*M (the dimensionless perturbation
# amplitude, which must be well below one).
WEAK_FIELD_THRESHOLD = 0.1

# lambda/L above this triggers a geometry warning (the high-index mode
# picture assumes lambda much smaller than the cavity).
WAVELENGTH_RATIO_WARN = 1e-2

# Factor by which the wavelength must exceed the Planck length for the
# classical-field description of the probe to be unquestionable.
WAVELENGTH_PLANCK_FACTOR = 1e6


class PhysicalConstants(NamedTuple):
    """CODATA 2018 constants in SI units."""

    c: float = 299792458.0
    G: float = 6.67430e-11
    hbar: float = 1.054571817e-34
    vacuum_permittivity: float = 8.8541878128e-12
    electron_mass: float = 9.1093837015e-31
    elementary_charge: float = 1.602176634e-19

    @property
    def planck_length(self) -> float:
        """sqrt(hbar*G/c^3), about 1.62e-35 m."""
        return math.sqrt(self.hbar * self.G / self.c**3)

    @property
    def nonlinear_qed_length_scale(self) -> float:
        """Length scale of the vacuum-nonlinearity bound, about 2.1e-13 m.

        hbar^(3/4) e^(1/2) eps0^(-1/4) m_e^(-1) c^(-5/4); the minimum
        cavity size for linear electrodynamics is this times (n*M)^(1/4).
        """
        return (
            self.hbar**0.75
            * self.elementary_charge**0.5
            * self.vacuum_permittivity**-0.25
            / self.electron_mass
            * self.c**-1.25
        )


CODATA = PhysicalConstants()


def _check_positive(value, name: str) -> None:
    """Raise ValueError unless value is a positive number; NaN and a bool are not."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not value > 0:
        raise ValueError(f"{name} must be positive")


class _ModeIndices(NamedTuple):
    l_x: int
    l_y: int
    l_z: int


class ModeIndices(_ModeIndices):
    """Wave-vector indices (l_x, l_y, l_z) of a box mode.

    Each index is an integer, not a bool.  At most one index may be zero
    (and not all), otherwise the mode function vanishes identically.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        ls = tuple(self)
        # an int or a numpy integer, which have __index__; a bool has it too
        if any(isinstance(l, bool) or not hasattr(type(l), "__index__") for l in ls):
            raise ValueError(f"mode indices must be integers, got {ls}")
        if any(l < 0 for l in ls):
            raise ValueError(f"mode indices must be non-negative, got {ls}")
        n_zero = sum(1 for l in ls if l == 0)
        if n_zero > 1:
            raise ValueError(f"at most one mode index may be zero, got {ls}")
        return self

    @property
    def index_norm(self) -> float:
        """sqrt(l_x^2 + l_y^2 + l_z^2)."""
        return math.sqrt(self.l_x**2 + self.l_y**2 + self.l_z**2)


def mode_frequency(mode: ModeIndices, length: float, c: float) -> float:
    """Angular frequency Omega = c*|k| with k_i = l_i*pi/L."""
    if length <= 0:
        raise ValueError("cavity length must be positive")
    return c * math.pi / length * mode.index_norm


class TimeConvention(Enum):
    """Photon storage time for a lossy cavity of finesse F."""

    PI = "pi"            # T = L*F/(pi*c)
    CAPTION = "caption"  # T = L*F/c


class LengthConvention(Enum):
    LIGHT_SIGNAL = "light-signal"
    RIGID_RODS = "rigid-rods"


class _ExperimentConfig(NamedTuple):
    cavity_length: float
    wavelength: float
    finesse: float | None = None
    measurement_time_override: float | None = None
    mode: ModeIndices | None = None
    time_convention: TimeConvention = TimeConvention.CAPTION


class ExperimentConfig(_ExperimentConfig):
    """Cavity geometry, optical wavelength and loss model of one scenario.

    ``finesse`` of None means a lossless cavity (storage time L/c unless
    overridden).  ``mode`` of None selects (0, 1, M) with M = round(2L/lambda)
    so that the mode frequency matches the stated wavelength.  Lengths,
    finesse and time are positive numbers; NaN and a bool are refused.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_positive(self.cavity_length, "cavity length")
        _check_positive(self.wavelength, "wavelength")
        if self.finesse is not None:
            _check_positive(self.finesse, "finesse")
        if self.measurement_time_override is not None:
            _check_positive(self.measurement_time_override, "measurement time")
        if self.wavelength / self.cavity_length >= WAVELENGTH_RATIO_WARN:
            warnings.warn(
                "wavelength is not small compared to the cavity length; "
                "the high-index mode picture may not apply",
                stacklevel=2,
            )
        return self

    @property
    def resolved_mode(self) -> ModeIndices:
        if self.mode is not None:
            return self.mode
        big_m = max(1, round(2.0 * self.cavity_length / self.wavelength))
        return ModeIndices(0, 1, big_m)

    def lossless(self) -> ExperimentConfig:
        """Copy with the finesse removed, not checked again: it does not warn twice."""
        return self._replace(finesse=None)


class _DimensionlessParams(NamedTuple):
    kappa: float
    mode_index: int
    tau: float


class DimensionlessParams(_DimensionlessParams):
    """Dimensionless inputs of every downstream formula.  kappa and tau
    are positive and M >= 1; NaN and a bool M are refused."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        kappa, mode_index, tau = self
        # NaN fails every comparison
        if isinstance(mode_index, bool) or not (kappa > 0 and tau > 0 and mode_index >= 1):
            raise ValueError("invalid dimensionless parameters")
        return self

    def amplitude(self, n: float) -> float:
        """P = 4*n*kappa/pi for n photons."""
        return n * (4.0 * self.kappa / math.pi)


def storage_time(config: ExperimentConfig) -> float:
    """Photon storage / measurement time in seconds."""
    if config.measurement_time_override is not None:
        return config.measurement_time_override
    if config.finesse is None:
        return config.cavity_length / CODATA.c
    if config.time_convention is TimeConvention.PI:
        return config.cavity_length * config.finesse / (math.pi * CODATA.c)
    return config.cavity_length * config.finesse / CODATA.c


def derive_params(config: ExperimentConfig) -> DimensionlessParams:
    """Derive (kappa, M, tau) from a configuration.

    Raises ValueError when the mode index or kappa leaves float range.
    """
    try:
        mode = config.resolved_mode
        omega = mode_frequency(mode, config.cavity_length, CODATA.c)
        kappa = (CODATA.planck_length / config.cavity_length) ** 2
    except OverflowError as exc:
        raise ValueError(f"mode index or kappa is outside float range: {exc}") from exc
    return DimensionlessParams(
        kappa=kappa,
        mode_index=mode.l_z,
        tau=omega * storage_time(config),
    )


class ValidityReport(NamedTuple):
    """Advisory regime checks; violations never raise, the CLI decides."""

    weak_field_ok: bool
    weak_field_margin: float
    nonlinear_qed_ok: bool
    min_cavity_length: float
    wavelength_vs_planck_ok: bool
    messages: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        return self.weak_field_ok and self.nonlinear_qed_ok and self.wavelength_vs_planck_ok


def check_photon_number(n: float) -> None:
    """Raise ValueError unless n is a finite non-negative photon number;
    a bool is not one."""
    if isinstance(n, bool) or not (math.isfinite(n) and n >= 0):
        raise ValueError(f"photon number must be finite and non-negative, got {n}")


def validate_regime(config: ExperimentConfig, n: float) -> ValidityReport:
    """Check that n photons in this cavity stay in the weak-field,
    linear-electrodynamics regime."""
    check_photon_number(n)
    params = derive_params(config)
    margin = n * params.kappa * params.mode_index
    weak_ok = margin < WEAK_FIELD_THRESHOLD
    min_length = CODATA.nonlinear_qed_length_scale * (n * params.mode_index) ** 0.25
    if not (math.isfinite(margin) and math.isfinite(min_length)):
        raise ValueError(f"n*kappa*M or n*M is outside float range for n = {n:.3g}")
    qed_ok = config.cavity_length > min_length
    planck_ok = config.wavelength > WAVELENGTH_PLANCK_FACTOR * CODATA.planck_length

    messages = [
        f"weak-field amplitude n*kappa*M = {margin:.3e} "
        f"({'ok' if weak_ok else 'VIOLATION'}; threshold {WEAK_FIELD_THRESHOLD})",
        f"minimum cavity length for linear electrodynamics: {min_length:.3e} m "
        f"vs L = {config.cavity_length:.3e} m ({'ok' if qed_ok else 'VIOLATION'})",
        f"wavelength vs Planck length: {config.wavelength:.3e} m "
        f"({'ok' if planck_ok else 'VIOLATION'})",
    ]
    return ValidityReport(
        weak_field_ok=weak_ok,
        weak_field_margin=margin,
        nonlinear_qed_ok=qed_ok,
        min_cavity_length=min_length,
        wavelength_vs_planck_ok=planck_ok,
        messages=tuple(messages),
    )
