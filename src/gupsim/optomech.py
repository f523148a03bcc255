"""Statistical model of the cavity-oscillator interaction.

Covers optical damping and spring in the small-detuning (probe) regime and
the short-time re-thermalization rate after cooling switch-off. The cooled
operating point (n_bar, Gamma_eff, |alpha|^2) is a configured target rather
than derived from a full quantum model; the sideband thermometer that measures
n_bar = 1/(R - 1) is `detection.LorentzianPairFit.occupancy`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import HBAR, K_B, TWO_PI, MechanicalMode
from .errors import NegativeOccupancy, OutsideLinearRegime


@dataclass(frozen=True)
class OpticalCavity:
    """Optical cavity parameters (angular units, rad/s)."""

    kappa: float = TWO_PI * 2.1e6
    probe_detuning: float = 0.0
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
    alpha_sq: float = 0.0   # |alpha|^2, coherent amplitude squared, phonon units

    def __post_init__(self):
        if self.n_bar < 0:
            raise NegativeOccupancy(f"n_bar must be >= 0, got {self.n_bar}")
        if self.gamma_eff <= 0 or self.omega_eff <= 0:
            raise ValueError("gamma_eff and omega_eff must be positive")
        if self.alpha_sq < 0:
            raise ValueError(f"alpha_sq must be >= 0, got {self.alpha_sq}")


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


def rethermalization_rate(mode: MechanicalMode) -> float:
    """Short-time phonon arrival rate k_B*T/(hbar*Q), in phonons per second."""
    return K_B * mode.T_bath / (HBAR * mode.quality_factor)

