"""Physical constants, cavity modes, experiment configuration, and dimensionless parameters.

Everything downstream works with the dimensionless set (kappa, M, tau,
P) derived here from the lab-frame configuration.  All constants are
CODATA 2018; the Planck length is derived, never hard-coded.
"""

from __future__ import annotations

import math
import sys
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


def _not_a_number(x) -> bool:
    # a bool is an int, a numpy str has __float__, and so has a numpy bool, which is no bool
    return isinstance(x, (bool, str, bytes)) or getattr(getattr(x, "dtype", None), "kind", None) == "b"


def check_real(x, name: str, *, gt=-math.inf, ge=None, lt=math.inf, le=None) -> float:
    """x as a float; ValueError naming it unless x is a real number (an int,
    a float or a numpy number; not a bool, a str or an int beyond float
    range) above gt, or at least ge, and below lt, or at most le."""
    try:
        # float() would parse a str and take a bool as 0 or 1
        v = math.nan if _not_a_number(x) else type(x).__float__(x)
    except (AttributeError, TypeError, ValueError, OverflowError):
        v = math.nan
    # NaN fails every comparison
    if (v > gt if ge is None else v >= ge) and (v < lt if le is None else v <= le):
        return v
    lo = f"({gt:g}" if ge is None else f"[{ge:g}"
    hi = f"{lt:g})" if le is None else f"{le:g}]"
    raise ValueError(f"{name} must be a number in {lo}, {hi}, got {x!r}")


def check_count(x, name: str, lo: int = 0, hi: float = math.inf) -> int:
    """x as an int; ValueError naming it unless x is an integer (an int or
    a numpy integer; not a bool, a float or a str) with lo <= x <= hi."""
    try:
        v = None if _not_a_number(x) else type(x).__index__(x)
    except (AttributeError, TypeError):
        v = None
    if v is not None and lo <= v <= hi:
        return v
    raise ValueError(f"{name} must be an integer in [{lo:g}, {hi:g}{')' if hi == math.inf else ']'}, got {x!r}")


def check_instance(x, cls: type, name: str):
    """x, unless it is not a cls: then ValueError naming it."""
    if not isinstance(x, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {x!r}")
    return x


def checked_record(cls):
    """Class decorator for a NamedTuple whose ``_checked`` returns its field
    values checked and made plain (a float for a real, an int for a count).
    The constructor, ``_make`` and so ``_replace`` build the record from
    them, and ``inspect.signature`` still shows the fields."""
    fields_new = cls.__new__

    def __new__(cls, *args, **kwargs):
        return tuple.__new__(cls, fields_new(cls, *args, **kwargs)._checked())

    __new__.__wrapped__ = fields_new
    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


@checked_record
class ModeIndices(NamedTuple):
    """Wave-vector indices (l_x, l_y, l_z) of a box mode: non-negative
    integers (check_count), kept as ints, of which at most one is zero, as
    otherwise the mode function vanishes identically."""

    l_x: int
    l_y: int
    l_z: int

    def _checked(self):
        ls = tuple(check_count(l, f"mode index {name}") for name, l in zip(self._fields, self))
        if ls.count(0) > 1:
            raise ValueError(f"at most one mode index may be zero, got {ls}")
        return ls

    @property
    def index_norm(self) -> float:
        """sqrt(l_x^2 + l_y^2 + l_z^2)."""
        return math.sqrt(self.l_x**2 + self.l_y**2 + self.l_z**2)


def mode_frequency(mode: ModeIndices, length: float, c: float) -> float:
    """Angular frequency Omega = c*|k| with k_i = l_i*pi/L."""
    return c * math.pi / check_real(length, "cavity length", gt=0) * mode.index_norm


class TimeConvention(Enum):
    """Photon storage time for a lossy cavity of finesse F."""

    PI = "pi"            # T = L*F/(pi*c)
    CAPTION = "caption"  # T = L*F/c


class LengthConvention(Enum):
    LIGHT_SIGNAL = "light-signal"
    RIGID_RODS = "rigid-rods"


@checked_record
class ExperimentConfig(NamedTuple):
    """Cavity geometry, optical wavelength and loss model of one scenario.

    ``finesse`` of None means a lossless cavity (storage time L/c unless
    overridden).  ``mode`` of None selects (0, 1, M) with M = round(2L/lambda)
    so that the mode frequency matches the stated wavelength.  Lengths,
    finesse and time are finite positive numbers (check_real), kept as
    floats; ``mode`` is None or a ModeIndices, and ``time_convention`` a
    TimeConvention.  A wavelength of 1% of the length or more warns.
    """

    cavity_length: float
    wavelength: float
    finesse: float | None = None
    measurement_time_override: float | None = None
    mode: ModeIndices | None = None
    time_convention: TimeConvention = TimeConvention.CAPTION

    def _checked(self):
        length, wavelength, finesse, time, mode, convention = self
        length = check_real(length, "cavity length", gt=0)
        wavelength = check_real(wavelength, "wavelength", gt=0)
        finesse = None if finesse is None else check_real(finesse, "finesse", gt=0)
        time = None if time is None else check_real(time, "measurement time", gt=0)
        if mode is not None:
            check_instance(mode, ModeIndices, "mode")
        check_instance(convention, TimeConvention, "time convention")
        if wavelength / length >= WAVELENGTH_RATIO_WARN:
            warnings.warn(
                "wavelength is not small compared to the cavity length; "
                "the high-index mode picture may not apply",
                stacklevel=3,
            )
        return length, wavelength, finesse, time, mode, convention

    @property
    def resolved_mode(self) -> ModeIndices:
        if self.mode is not None:
            return self.mode
        big_m = max(1, round(2.0 * self.cavity_length / self.wavelength))
        return ModeIndices(0, 1, big_m)

    def lossless(self) -> ExperimentConfig:
        """Copy with the finesse removed; it does not warn a second time."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return self._replace(finesse=None)


@checked_record
class DimensionlessParams(NamedTuple):
    """Dimensionless inputs of every downstream formula: kappa in (0, inf),
    the integer M within [1, float max] and tau in (0, inf].  tau may be
    inf, a phase that overflows; the trade-off refuses it, while the regime
    checks and the frequency shift do not read it."""

    kappa: float
    mode_index: int
    tau: float

    def _checked(self):
        kappa, mode_index, tau = self
        kappa = check_real(kappa, "kappa", gt=0)
        return kappa, check_count(mode_index, "M", 1, sys.float_info.max), check_real(tau, "tau", gt=0, le=math.inf)

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


def validate_regime(config: ExperimentConfig, n: float) -> ValidityReport:
    """Check that n photons in this cavity stay in the weak-field,
    linear-electrodynamics regime."""
    n = check_real(n, "photon number", ge=0)
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
