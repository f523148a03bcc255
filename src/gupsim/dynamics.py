"""Classical phase-space dynamics of an oscillator with a deformed position-momentum bracket.

The deformation multiplies the canonical bracket by (1 + beta_tilde * p**2), which
turns the harmonic Hamilton equations into

    dx/dt = (1 + beta_tilde * p**2) * p / m
    dp/dt = -(1 + beta_tilde * p**2) * m * omega_m**2 * x

The energy ellipse is unchanged; only the traversal speed depends on momentum,
which produces an amplitude-dependent oscillation frequency and odd-harmonic
distortion of x(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, NegativeOccupancy, NonFinite, StepTooLarge

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants used throughout (SI units)."""

    hbar: float = 1.054571817e-34   # J s
    k_B: float = 1.380649e-23       # J/K
    L_p: float = 1.6e-35            # m, Planck length

    def __post_init__(self):
        if self.hbar <= 0 or self.k_B <= 0 or self.L_p <= 0:
            raise ValueError("physical constants must be strictly positive")


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class DeformationParams:
    """Strength of the commutator deformation.

    beta0 is the dimensionless parameter under test; beta_tilde = beta0*(L_p/hbar)**2
    is the momentum-squared-scaled form that enters the equations of motion
    (units s^2 kg^-2 m^-2). beta0 = 0 recovers standard mechanics.
    """

    beta0: float = 0.0
    constants: PhysicalConstants = DEFAULT_CONSTANTS

    def __post_init__(self):
        if self.beta0 < 0:
            raise ValueError(f"beta0 must be >= 0, got {self.beta0}")

    @property
    def beta_tilde(self) -> float:
        c = self.constants
        return self.beta0 * (c.L_p / c.hbar) ** 2

    @property
    def min_position_uncertainty(self) -> float:
        """Minimal position uncertainty sqrt(beta0)*L_p implied by the deformation."""
        return math.sqrt(self.beta0) * self.constants.L_p

    @classmethod
    def from_beta_tilde(cls, beta_tilde: float,
                        constants: PhysicalConstants = DEFAULT_CONSTANTS) -> "DeformationParams":
        return cls(beta0=beta_tilde * (constants.hbar / constants.L_p) ** 2,
                   constants=constants)


@dataclass(frozen=True)
class MechanicalMode:
    """A single mechanical mode: resonance, damping, mass and bath temperature."""

    omega_m: float      # rad/s
    gamma_m: float      # rad/s
    mass: float         # kg
    T_bath: float       # K

    def __post_init__(self):
        if self.omega_m <= 0 or self.gamma_m <= 0 or self.mass <= 0 or self.T_bath <= 0:
            raise ValueError("mode parameters must be strictly positive")

    @property
    def quality_factor(self) -> float:
        return self.omega_m / self.gamma_m

    @property
    def period(self) -> float:
        return TWO_PI / self.omega_m

    def thermal_occupancy(self, const: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
        """Bose occupation of the bath at the mode frequency."""
        x = const.hbar * self.omega_m / (const.k_B * self.T_bath)
        return 1.0 / math.expm1(x)

    def x_zpf(self, const: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
        return math.sqrt(const.hbar / (2.0 * self.mass * self.omega_m))

    def p_zpf(self, const: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
        return math.sqrt(const.hbar * self.mass * self.omega_m / 2.0)


@dataclass(frozen=True)
class PhaseState:
    """A point (x, p) in phase space at time t (SI units)."""

    x: float
    p: float
    t: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.p) and math.isfinite(self.t)):
            raise ValueError("phase-space components must be finite")

    def quadratures(self, mode: MechanicalMode,
                    const: PhysicalConstants = DEFAULT_CONSTANTS) -> tuple[float, float]:
        """Dimensionless quadratures X = x/(sqrt(2) x_zpf), Y = p/(sqrt(2) p_zpf)."""
        return (self.x / (math.sqrt(2.0) * mode.x_zpf(const)),
                self.p / (math.sqrt(2.0) * mode.p_zpf(const)))

    def energy(self, mode: MechanicalMode) -> float:
        return self.p ** 2 / (2.0 * mode.mass) + 0.5 * mode.mass * mode.omega_m ** 2 * self.x ** 2


@dataclass(frozen=True)
class SinusoidalDrive:
    """External force F0*cos(omega*t + phase) applied to dp/dt."""

    amplitude: float    # N
    omega: float        # rad/s
    phase: float = 0.0


@dataclass
class Trajectory:
    """Sampled phase-space trajectory. Immutable after creation by convention."""

    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    mode: MechanicalMode
    deformation: DeformationParams
    dt: float
    damping: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, i: int) -> PhaseState:
        return PhaseState(x=float(self.x[i]), p=float(self.p[i]), t=float(self.t[i]))

    def energies(self) -> np.ndarray:
        m, w = self.mode.mass, self.mode.omega_m
        return self.p ** 2 / (2.0 * m) + 0.5 * m * w ** 2 * self.x ** 2


def deformed_factor(state: PhaseState, d: DeformationParams) -> float:
    """Bracket deformation factor 1 + beta_tilde * p**2 at the given state."""
    return 1.0 + d.beta_tilde * state.p ** 2


def equations_of_motion(state: PhaseState, mode: MechanicalMode,
                        d: DeformationParams) -> tuple[float, float]:
    """Deformed-bracket Hamilton equations (dx/dt, dp/dt) for the undamped oscillator.

    Both equations carry the common factor (1 + beta_tilde p^2), so the standard
    energy p^2/2m + m omega^2 x^2/2 is conserved exactly; only the speed along
    the energy ellipse changes.
    """
    g = 1.0 + d.beta_tilde * state.p ** 2
    xdot = g * state.p / mode.mass
    pdot = -g * mode.mass * mode.omega_m ** 2 * state.x
    return xdot, pdot


def integrate_trajectory(s0: PhaseState, mode: MechanicalMode, d: DeformationParams,
                         dt: float, n_steps: int, damping: float = 0.0,
                         drive: SinusoidalDrive | None = None,
                         store_every: int = 1) -> Trajectory:
    """Fixed-step RK4 integration of the deformed equations plus -damping*p and optional drive.

    Parameters
    ----------
    dt : time step, must satisfy dt <= T/50 (T the undeformed period).
    n_steps : number of RK4 steps (>= 1).
    damping : momentum decay rate gamma; the amplitude envelope decays as exp(-gamma t/2).
    drive : optional sinusoidal force on dp/dt.
    store_every : keep one sample every `store_every` steps (plus the initial state).

    The stored trajectory always includes the initial state; non-finite blow-up
    raises NonFinite. Accuracy note: RK4 loses energy at a relative rate of about
    (omega dt)^6/72 per step, so long-horizon energy checks need a finer step
    than the dt = T/200 default used for millisecond-scale runs.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if store_every < 1:
        raise ValueError("store_every must be >= 1")
    dt_max = TWO_PI / (50.0 * mode.omega_m)
    if dt > dt_max:
        raise StepTooLarge(f"dt={dt:.3e} s exceeds resolution guard {dt_max:.3e} s")

    m = mode.mass
    k = m * mode.omega_m ** 2
    bt = d.beta_tilde
    gam = damping
    if drive is not None:
        f0, wd, phd = drive.amplitude, drive.omega, drive.phase
    else:
        f0 = wd = phd = 0.0

    n_kept = n_steps // store_every + 1
    xs = np.empty(n_kept)
    ps = np.empty(n_kept)
    ts = np.empty(n_kept)
    xs[0], ps[0], ts[0] = s0.x, s0.p, s0.t

    x, p, t0 = s0.x, s0.p, s0.t
    half = 0.5 * dt
    sixth = dt / 6.0
    j = 1
    isfinite = math.isfinite
    cos = math.cos
    for i in range(n_steps):
        t = t0 + i * dt
        # k1
        g = 1.0 + bt * p * p
        k1x = g * p / m
        k1p = -g * k * x - gam * p + (f0 * cos(wd * t + phd) if f0 else 0.0)
        # k2
        xm = x + half * k1x
        pm = p + half * k1p
        g = 1.0 + bt * pm * pm
        k2x = g * pm / m
        k2p = -g * k * xm - gam * pm + (f0 * cos(wd * (t + half) + phd) if f0 else 0.0)
        # k3
        xm = x + half * k2x
        pm = p + half * k2p
        g = 1.0 + bt * pm * pm
        k3x = g * pm / m
        k3p = -g * k * xm - gam * pm + (f0 * cos(wd * (t + half) + phd) if f0 else 0.0)
        # k4
        xm = x + dt * k3x
        pm = p + dt * k3p
        g = 1.0 + bt * pm * pm
        k4x = g * pm / m
        k4p = -g * k * xm - gam * pm + (f0 * cos(wd * (t + dt) + phd) if f0 else 0.0)

        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        p += sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
        if (i + 1) % store_every == 0:
            if not (isfinite(x) and isfinite(p)):
                raise NonFinite(f"state diverged at step {i + 1}")
            xs[j] = x
            ps[j] = p
            ts[j] = t0 + (i + 1) * dt
            j += 1
    if not (isfinite(x) and isfinite(p)):
        raise NonFinite("state diverged")

    return Trajectory(t=ts[:j], x=xs[:j], p=ps[:j], mode=mode, deformation=d,
                      dt=dt, damping=damping,
                      metadata={"n_steps": n_steps, "store_every": store_every})


def frequency_vs_amplitude(mode: MechanicalMode, d: DeformationParams, A: float,
                           max_epsilon: float | None = None) -> float:
    """Angular oscillation frequency of the undamped deformed oscillator at amplitude A.

    A is the displacement half-peak amplitude on the energy ellipse (momentum
    amplitude m*omega_m*A). The orbit is the standard ellipse; parametrizing it
    by the angle theta gives dtheta/dt = omega_m*(1 + eps*sin^2 theta) with
    eps = beta_tilde*m^2*omega_m^2*A^2, and the period integral
    closes to 2*pi/(omega_m*sqrt(1+eps)).  Hence

        omega(A) = omega_m * sqrt(1 + eps).

    This closed form is validated against zero-crossing timing of the RK4
    integrator (see tests); pass max_epsilon to enforce the perturbative-regime
    guard used by the deformation-bound pipeline.
    """
    if A < 0:
        raise ValueError("amplitude must be >= 0")
    eps = d.beta_tilde * (mode.mass * mode.omega_m * A) ** 2
    if max_epsilon is not None and eps > max_epsilon:
        raise ValueError(
            f"eps={eps:.3g} exceeds perturbative-regime guard {max_epsilon:.3g}")
    return mode.omega_m * math.sqrt(1.0 + eps)


def measure_period_zero_crossings(traj: Trajectory, min_crossings: int = 8) -> float:
    """Oscillation period from linearly interpolated upward zero crossings of x(t).

    Uses the time between the first and last upward crossing divided by the
    number of whole cycles, which averages interpolation error over the span.
    """
    x = traj.x
    t = traj.t
    s = x >= 0.0
    up = np.where(~s[:-1] & s[1:])[0]
    if up.size < min_crossings:
        raise InsufficientData(
            f"only {up.size} upward zero crossings, need >= {min_crossings}")
    x0 = x[up]
    x1 = x[up + 1]
    tc = t[up] + (t[up + 1] - t[up]) * (-x0) / (x1 - x0)
    return (tc[-1] - tc[0]) / (up.size - 1)


def _fit_tone(t: np.ndarray, y: np.ndarray, f: float) -> float:
    """Least-squares amplitude of a tone at frequency f (Hz) in y(t)."""
    w = TWO_PI * f
    basis = np.column_stack([np.cos(w * t), np.sin(w * t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(math.hypot(coef[0], coef[1]))


def third_harmonic_fraction(traj: Trajectory, min_periods: int = 32) -> float:
    """Ratio of the x(t) spectral amplitude at 3*f0 to the fundamental at f0.

    The fundamental is located by zero-crossing timing, removed by a linear
    least-squares fit, and the residual is projected onto the third harmonic.
    Removing the fundamental first keeps spectral leakage out of the small
    third-harmonic estimate. Requires a steady-amplitude trajectory spanning
    at least `min_periods` periods.
    """
    period = measure_period_zero_crossings(traj)
    span = traj.t[-1] - traj.t[0]
    if span < min_periods * period:
        raise InsufficientData(
            f"trajectory spans {span / period:.1f} periods, need >= {min_periods}")
    f0 = 1.0 / period
    t = traj.t - traj.t[0]
    w0 = TWO_PI * f0
    basis = np.column_stack([np.cos(w0 * t), np.sin(w0 * t), np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(basis, traj.x, rcond=None)
    fundamental = float(math.hypot(coef[0], coef[1]))
    residual = traj.x - basis @ coef
    third = _fit_tone(t, residual, 3.0 * f0)
    return third / fundamental


def purity(n_bar: float) -> float:
    """State purity 1/(1 + 2*n_bar) of a thermal oscillator state."""
    if n_bar < 0:
        raise NegativeOccupancy(f"n_bar must be >= 0, got {n_bar}")
    return 1.0 / (1.0 + 2.0 * n_bar)
