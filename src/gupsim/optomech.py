"""Statistical model of the cavity-oscillator interaction.

Covers optical damping and spring in the small-detuning (probe) regime,
radiation-pressure cooling bookkeeping, re-thermalization toward the bath,
motional-sideband weights, and the coherent excitation response. The cooling
beam's operating point (n_bar, Gamma_eff) is treated as a configured target
rather than derived from a full quantum model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import DEFAULT_CONSTANTS, TWO_PI, MechanicalMode, PhysicalConstants, purity
from .errors import (
    ExcitationTooStrong,
    InvalidDamping,
    NegativeOccupancy,
    OutsideLinearRegime,
    RatioUndefined,
)

# calibration anchor of the coherent response: -60 dB excitation-to-cooling
# power ratio maps to |alpha|^2 = 35 phonons
REFERENCE_EXCITATION_DB = -60.0
REFERENCE_ALPHA_SQ = 35.0
MAX_EXCITATION_DB = -30.0


@dataclass(frozen=True)
class OpticalCavity:
    """Optical cavity parameters (angular units, rad/s)."""

    kappa: float = TWO_PI * 2.1e6
    probe_detuning: float = 0.0
    cool_detuning: float = -TWO_PI * 700e3
    coupling_rate: float = 7.0e5   # effective, per beam; sets the probe spring strength

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("cavity linewidth must be positive")


@dataclass(frozen=True)
class CooledState:
    """Operating point of the optically cooled oscillator."""

    n_bar: float            # mean phonon occupancy
    gamma_eff: float        # rad/s, effective linewidth
    omega_eff: float        # rad/s, effective resonance
    alpha: complex = 0j     # coherent amplitude, phonon units

    def __post_init__(self):
        if self.n_bar < 0:
            raise NegativeOccupancy(f"n_bar must be >= 0, got {self.n_bar}")
        if self.gamma_eff <= 0 or self.omega_eff <= 0:
            raise ValueError("gamma_eff and omega_eff must be positive")

    @property
    def alpha_sq(self) -> float:
        return abs(self.alpha) ** 2

    @property
    def purity(self) -> float:
        return purity(self.n_bar)


def spring_damping_slope(cavity: OpticalCavity, mode: MechanicalMode) -> float:
    """Dimensionless ratio Gamma_opt / delta_Omega_m in the small-detuning regime:
    2*kappa*Omega_m / [(kappa/2)^2 - Omega_m^2]."""
    return 2.0 * cavity.kappa * mode.omega_m / (
        (cavity.kappa / 2.0) ** 2 - mode.omega_m ** 2)


def optical_damping_and_spring(cavity: OpticalCavity, mode: MechanicalMode,
                               detuning: float) -> tuple[float, float]:
    """Optical damping Gamma_opt and frequency shift delta_Omega_m for a beam at small detuning.

    Valid for |detuning| <= 0.2*kappa. Both scale linearly with detuning and with
    the coupling power (coupling_rate squared), and the pair satisfies
    Gamma_opt = delta_Omega_m * 2*kappa*Omega_m/[(kappa/2)^2 - Omega_m^2]
    identically by construction.
    """
    if abs(detuning) > 0.2 * cavity.kappa:
        raise OutsideLinearRegime(
            f"|detuning|={abs(detuning):.3e} rad/s exceeds 0.2*kappa={0.2 * cavity.kappa:.3e}")
    denom = ((cavity.kappa / 2.0) ** 2 + mode.omega_m ** 2) ** 2
    d_omega = 2.0 * cavity.coupling_rate ** 2 * detuning * (
        (cavity.kappa / 2.0) ** 2 - mode.omega_m ** 2) / denom
    gamma_opt = d_omega * spring_damping_slope(cavity, mode)
    return gamma_opt, d_omega


def cooled_occupancy(mode: MechanicalMode, gamma_eff: float, n_backaction: float = 0.0,
                     const: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Cooled occupancy: residual bath contribution n_th*Gamma_m/Gamma_eff plus back-action."""
    if gamma_eff < mode.gamma_m:
        raise InvalidDamping(
            f"gamma_eff={gamma_eff:.3e} below mechanical damping {mode.gamma_m:.3e}")
    return mode.thermal_occupancy(const) * mode.gamma_m / gamma_eff + n_backaction


def rethermalize(n0: float, mode: MechanicalMode, t: float,
                 const: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Occupancy at time t after cooling switch-off.

    Exact exponential relaxation toward the bath occupancy:
    n(t) = n0*exp(-Gamma_m t) + n_th*(1 - exp(-Gamma_m t)).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    decay = math.exp(-mode.gamma_m * t)
    return n0 * decay + mode.thermal_occupancy(const) * (1.0 - decay)


def rethermalization_rate(mode: MechanicalMode,
                          const: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Short-time phonon arrival rate k_B*T/(hbar*Q), in phonons per second."""
    return const.k_B * mode.T_bath / (const.hbar * mode.quality_factor)


def sideband_weights(n_bar: float) -> tuple[float, float]:
    """Stokes and anti-Stokes sideband weights (n_bar + 1, n_bar)."""
    if n_bar < 0:
        raise NegativeOccupancy(f"n_bar must be >= 0, got {n_bar}")
    return n_bar + 1.0, n_bar


def sideband_ratio(n_bar: float) -> float:
    """Stokes/anti-Stokes area ratio R = (n_bar + 1)/n_bar; the quantum thermometer."""
    if n_bar < 0:
        raise NegativeOccupancy(f"n_bar must be >= 0, got {n_bar}")
    if n_bar == 0:
        raise RatioUndefined("sideband ratio undefined at n_bar = 0")
    return (n_bar + 1.0) / n_bar


def occupancy_from_ratio(ratio: float) -> float:
    """Inverse thermometry n_bar = 1/(R - 1)."""
    if ratio <= 1.0:
        raise RatioUndefined(f"ratio must exceed 1, got {ratio}")
    return 1.0 / (ratio - 1.0)


def coherent_amplitude(excitation_power_ratio_db: float) -> float:
    """|alpha|^2 produced by the modulation tone at the given power ratio (dB).

    Linear in excitation power, anchored at -60 dB -> |alpha|^2 = 35. Above
    -30 dB the coherent-peak pedestal dominates the noise and the unitary
    picture breaks down, so such requests are refused.
    """
    if excitation_power_ratio_db > MAX_EXCITATION_DB:
        raise ExcitationTooStrong(
            f"{excitation_power_ratio_db} dB above the {MAX_EXCITATION_DB} dB limit")
    return REFERENCE_ALPHA_SQ * 10.0 ** (
        (excitation_power_ratio_db - REFERENCE_EXCITATION_DB) / 10.0)


def operating_report(state: CooledState) -> dict:
    """Key-value export of the operating point."""
    return {
        "n_bar": state.n_bar,
        "gamma_eff_rad_s": state.gamma_eff,
        "gamma_eff_hz": state.gamma_eff / TWO_PI,
        "omega_eff_rad_s": state.omega_eff,
        "omega_eff_hz": state.omega_eff / TWO_PI,
        "alpha_sq": state.alpha_sq,
        "purity": state.purity,
    }

