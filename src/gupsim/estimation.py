"""Ring-down and transient-shift estimation, ensemble statistics, deformation bound.

The free decay after pump switch-off appears in the lock-in quadratures as two
counter-rotating lines with a common exponential envelope:

    X = A exp(-t/tau) { cos[2 pi t (f_lo - f_m) + phi]
                        + B cos[2 pi t (f_hi + f_m) + phi + dphi] }
    Y = A exp(-t/tau) { sin[2 pi t (f_lo - f_m) + phi]
                        - B sin[2 pi t (f_hi + f_m) + phi + dphi] }

with f_lo = 8 kHz and f_hi = 16 kHz for the default detection settings and
f_m the mechanical offset from the excitation tone. A rapidly decaying early
frequency shift delta_f(t) perturbs the quadratures at first order by
dQ/d(f_m t) * (delta_f0 * t + c), which is fitted linearly on the residuals
of the extrapolated late-window model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import QuadratureRecord
from .dynamics import DEFAULT_CONSTANTS, TWO_PI, MechanicalMode, PhysicalConstants
from .errors import (
    BaseFitInvalid,
    DegenerateSpan,
    FitDiverged,
    TooFewSamples,
    UncalibratedCampaign,
    WindowOutOfRange,
    WindowOverlap,
)
from .leastsq import damped_gauss_newton
from .optomech import CooledState

DEFAULT_BASE_WINDOW = (1e-4, 1e-3)      # s, late fit window
DEFAULT_EARLY_WINDOW = (0.0, 50e-6)     # s, high-purity window


def ringdown_model(t, A, tau, f_m, phi, B, dphi,
                   f_lower=8000.0, f_upper=16000.0):
    """Evaluate the two-line decay model; returns (X, Y)."""
    return _decay_model(t, A, 1.0 / tau, f_m, phi, B, dphi, f_lower, f_upper)


def _decay_model(t, A, rate, f_m, phi, B, dphi, f_lower, f_upper):
    """The two-line model with the envelope decay rate 1/tau as parameter."""
    env = A * np.exp(-t * rate)
    th1 = TWO_PI * t * (f_lower - f_m) + phi
    th2 = TWO_PI * t * (f_upper + f_m) + phi + dphi
    X = env * (np.cos(th1) + B * np.cos(th2))
    Y = env * (np.sin(th1) - B * np.sin(th2))
    return X, Y


@dataclass
class RingdownFit:
    """Six-parameter joint fit of the two lock-in quadratures."""

    A: float
    tau: float
    f_m: float
    phi: float
    B: float
    delta_phi: float
    covariance: np.ndarray
    window: tuple[float, float]
    f_lower: float = 8000.0
    f_upper: float = 16000.0
    residual_std: float = 0.0
    converged: bool = True
    iterations: int = 0

    @property
    def gamma_eff(self) -> float:
        """Effective energy decay rate 2/tau (rad/s); negative when anti-damped."""
        return 2.0 / self.tau

    @property
    def gamma_eff_hz(self) -> float:
        return self.gamma_eff / TWO_PI

    @property
    def errors(self) -> np.ndarray:
        return np.sqrt(np.abs(np.diag(self.covariance)))

    @property
    def gamma_eff_hz_err(self) -> float:
        # |d(2/tau)/dtau| = 2/tau^2
        return 2.0 * self.errors[1] / (self.tau ** 2 * TWO_PI)

    @property
    def f_m_err(self) -> float:
        return float(self.errors[2])

    def params(self) -> np.ndarray:
        return np.array([self.A, self.tau, self.f_m, self.phi, self.B, self.delta_phi])

    def evaluate(self, t):
        return ringdown_model(t, self.A, self.tau, self.f_m, self.phi,
                              self.B, self.delta_phi, self.f_lower, self.f_upper)

    def phase_derivative(self, t):
        """dX/d(f_m t) and dY/d(f_m t) along the fitted model."""
        X, Y = self.evaluate(t)
        return TWO_PI * Y, -TWO_PI * X


def _ringdown_residual_jacobian(t, x_data, y_data, f_lower, f_upper, fix_B):
    """Builders for the stacked residual/Jacobian of the joint quadrature fit.

    The fitted envelope parameter is the decay rate k = 1/tau, not tau. An
    undamped record (k = 0) is then an ordinary point that the fit can cross.
    In tau it is the asymptote |tau| -> inf, where the tau column of the
    Jacobian vanishes and a fit can stall short of the optimum.
    """

    def unpack(theta):
        if fix_B:
            A, k, f_m, phi = theta
            return A, k, f_m, phi, 0.0, 0.0
        return tuple(theta)

    def residual(theta):
        A, k, f_m, phi, B, dphi = unpack(theta)
        X, Y = _decay_model(t, A, k, f_m, phi, B, dphi, f_lower, f_upper)
        return np.concatenate([X - x_data, Y - y_data])

    def jacobian(theta):
        A, k, f_m, phi, B, dphi = unpack(theta)
        env = np.exp(-t * k)
        th1 = TWO_PI * t * (f_lower - f_m) + phi
        th2 = TWO_PI * t * (f_upper + f_m) + phi + dphi
        c1, s1 = np.cos(th1), np.sin(th1)
        c2, s2 = np.cos(th2), np.sin(th2)
        X = A * env * (c1 + B * c2)
        Y = A * env * (s1 - B * s2)
        n = t.size
        p = 4 if fix_B else 6
        J = np.empty((2 * n, p))
        J[:n, 0] = env * (c1 + B * c2)
        J[n:, 0] = env * (s1 - B * s2)
        J[:n, 1] = -t * X
        J[n:, 1] = -t * Y
        J[:n, 2] = TWO_PI * t * Y
        J[n:, 2] = -TWO_PI * t * X
        J[:n, 3] = A * env * (-s1 - B * s2)
        J[n:, 3] = A * env * (c1 - B * c2)
        if not fix_B:
            J[:n, 4] = A * env * c2
            J[n:, 4] = -A * env * s2
            J[:n, 5] = -A * env * B * s2
            J[n:, 5] = -A * env * B * c2
        return J

    return residual, jacobian


def _initial_guess(t, x_data, y_data, f_lower, f_upper):
    """FFT peak + log-envelope heuristic for (A, 1/tau, f_m, phi, B, dphi)."""
    z = x_data + 1j * y_data
    n = t.size
    dt = t[1] - t[0]
    # envelope: |z|^2 smoothed over the beat period between the two lines
    beat = f_lower + f_upper
    k = max(int(round(1.0 / (beat * dt))), 1)
    w = np.abs(z) ** 2
    if k > 1 and n > 3 * k:
        kern = np.ones(k) / k
        w = np.convolve(w, kern, mode="valid")
        tw = t[: w.size] + 0.5 * k * dt
    else:
        tw = t
    w = np.maximum(w, 1e-300)
    slope, _ = np.polyfit(tw, np.log(w), 1)
    rate0 = -0.5 * slope

    win = np.hanning(n)
    spec = np.fft.fft(z * win)
    freqs = np.fft.fftfreq(n, dt)
    pos = freqs > 0
    neg = freqs < 0
    i1 = np.argmax(np.abs(spec[pos]))
    i2 = np.argmax(np.abs(spec[neg]))
    f1 = freqs[pos][i1]
    f2 = -freqs[neg][i2]
    a1 = np.abs(spec[pos])[i1]
    a2 = np.abs(spec[neg])[i2]
    fm_candidates = np.array([f_lower - f1, f2 - f_upper])
    weights = np.array([a1, a2])
    f_m0 = float(np.sum(fm_candidates * weights) / np.sum(weights))

    # with (1/tau, f_m) pinned the model is linear in the quadrature amplitudes
    amp = _linear_amplitudes(t, x_data, y_data, rate0, f_m0, f_lower, f_upper)
    return np.array([amp[0], rate0, f_m0, amp[1], amp[2], amp[3]])


def _linear_amplitudes(t, x_data, y_data, rate, f_m, f_lower, f_upper):
    """Solve for (A, phi, B, dphi) given (1/tau, f_m); the model is linear in
    a1 = A cos phi, b1 = A sin phi, a2 = AB cos(phi+dphi), b2 = AB sin(phi+dphi)."""
    env = np.exp(-t * rate)
    w1 = TWO_PI * (f_lower - f_m) * t
    w2 = TWO_PI * (f_upper + f_m) * t
    c1, s1 = np.cos(w1) * env, np.sin(w1) * env
    c2, s2 = np.cos(w2) * env, np.sin(w2) * env
    zeros = np.zeros_like(t)
    Gx = np.column_stack([c1, -s1, c2, -s2])
    Gy = np.column_stack([s1, c1, -s2, -c2])
    G = np.vstack([Gx, Gy])
    rhs = np.concatenate([x_data, y_data])
    coef, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    a1, b1, a2, b2 = coef
    A = math.hypot(a1, b1)
    phi = math.atan2(b1, a1)
    AB = math.hypot(a2, b2)
    B = AB / A if A > 0 else 0.0
    dphi = math.atan2(b2, a2) - phi
    dphi = (dphi + math.pi) % TWO_PI - math.pi
    return A, phi, B, dphi


def fit_ringdown(rec: QuadratureRecord, window: tuple[float, float] = DEFAULT_BASE_WINDOW,
                 f_lower: float = 8000.0, f_upper: float = 16000.0,
                 fix_B: bool = False, initial: np.ndarray | None = None) -> RingdownFit:
    """Joint nonlinear least squares of both quadratures over the given window.

    Damped Gauss-Newton from an FFT-peak / log-envelope initial guess, or from
    `initial` = (A, tau, f_m, phi, B, dphi). The solver works on 1/tau; the
    covariance, from the Jacobian at the optimum, is carried over to tau.
    Raises WindowOutOfRange if the window does not lie inside the record and
    FitDiverged if the solver fails from every initial-guess candidate.
    """
    t_rec = rec.times
    if window[0] < t_rec[0] - 1e-12 or window[1] > t_rec[-1] + rec.x_quad.dt + 1e-12:
        raise WindowOutOfRange(
            f"window {window} outside record [{t_rec[0]:.4g}, {t_rec[-1]:.4g}]")
    sub = rec.window(*window)
    t = sub.times
    x_data = sub.x_quad.samples
    y_data = sub.y_quad.samples

    if initial is None:
        theta0 = _initial_guess(t, x_data, y_data, f_lower, f_upper)
    else:
        theta0 = np.array(initial, dtype=float)
        theta0[1] = 1.0 / theta0[1]
    residual, jacobian = _ringdown_residual_jacobian(
        t, x_data, y_data, f_lower, f_upper, fix_B)

    candidates = [theta0]
    # fallbacks: f_m from each line alone, then a fresh linear-amplitude solve
    for fm_alt in (theta0[2] + 1.0, theta0[2] - 1.0, 0.0):
        amp = _linear_amplitudes(t, x_data, y_data, theta0[1], fm_alt, f_lower, f_upper)
        candidates.append(np.array([amp[0], theta0[1], fm_alt, amp[1], amp[2], amp[3]]))

    last_exc = None
    for cand in candidates:
        start = cand[:4] if fix_B else cand
        try:
            res = damped_gauss_newton(residual, jacobian, start)
        except FitDiverged as exc:
            last_exc = exc
            continue
        if res.converged:
            break
    else:
        raise last_exc or FitDiverged("ring-down fit did not converge")

    if fix_B:
        A, k, f_m, phi = res.params
        B = 0.0
        dphi = 0.0
        cov = np.zeros((6, 6))
        cov[:4, :4] = res.covariance
    else:
        A, k, f_m, phi, B, dphi = res.params
        cov = res.covariance
    tau = 1.0 / k
    dparams = np.ones(6)
    dparams[1] = -tau ** 2      # d tau / d(1/tau)
    cov = cov * np.outer(dparams, dparams)
    # canonicalize: positive amplitude pair, wrapped phases
    if A < 0:
        A, phi = -A, phi + math.pi
    if B < 0:
        B, dphi = -B, dphi + math.pi
    phi = (phi + math.pi) % TWO_PI - math.pi
    dphi = (dphi + math.pi) % TWO_PI - math.pi
    return RingdownFit(A=float(A), tau=float(tau), f_m=float(f_m), phi=float(phi),
                       B=float(B), delta_phi=float(dphi), covariance=cov,
                       window=window, f_lower=f_lower, f_upper=f_upper,
                       residual_std=res.residual_std, converged=res.converged,
                       iterations=res.iterations)


# --- transient frequency shift -----------------------------------------------

@dataclass
class ShiftFit:
    """Early-window transient-shift fit: residuals against dQ/d(f_m t)*(delta_f0*t + c)."""

    delta_fm0: float            # Hz
    c: float                    # dimensionless phase-offset parameter
    covariance: np.ndarray      # 2x2
    window: tuple[float, float]
    quadrature: str = "X"
    n_points: int = 0

    @property
    def delta_fm0_err(self) -> float:
        return math.sqrt(abs(self.covariance[0, 0]))

    @property
    def c_err(self) -> float:
        return math.sqrt(abs(self.covariance[1, 1]))


def fit_transient_shift(rec: QuadratureRecord, base: RingdownFit,
                        early_window: tuple[float, float] = DEFAULT_EARLY_WINDOW
                        ) -> tuple[ShiftFit, ShiftFit]:
    """Fit the early-time residual frequency shift on each quadrature.

    Extrapolates the late-window model into the early window, subtracts it
    from the data, and fits the residuals linearly to
    dQ/d(f_m t) * (delta_f0 * t + c). Returns (X fit, Y fit).
    """
    if not base.converged or not math.isfinite(base.A) or base.A == 0:
        raise BaseFitInvalid("base ring-down fit unusable")
    if early_window[1] > base.window[0]:
        raise WindowOverlap(
            f"early window {early_window} must precede base window {base.window}")
    t_rec = rec.times
    if early_window[0] < t_rec[0] - 1e-12 or early_window[1] > t_rec[-1] + 1e-12:
        raise WindowOutOfRange(f"early window {early_window} outside record")
    sub = rec.window(*early_window)
    t = sub.times
    x_model, y_model = base.evaluate(t)
    dx_du, dy_du = base.phase_derivative(t)

    fits = []
    for name, data, model, deriv in (("X", sub.x_quad.samples, x_model, dx_du),
                                     ("Y", sub.y_quad.samples, y_model, dy_du)):
        resid = data - model
        G = np.column_stack([deriv * t, deriv])
        gtg = G.T @ G
        if np.linalg.cond(gtg) > 1e14:
            raise BaseFitInvalid(f"degenerate shift regressors on {name}")
        coef, rss, *_ = np.linalg.lstsq(G, resid, rcond=None)
        r = resid - G @ coef
        dof = max(t.size - 2, 1)
        sigma2 = float(r @ r) / dof
        cov = sigma2 * np.linalg.inv(gtg)
        fits.append(ShiftFit(delta_fm0=float(coef[0]), c=float(coef[1]),
                             covariance=cov, window=early_window,
                             quadrature=name, n_points=t.size))
    return fits[0], fits[1]


# --- ensemble statistics ------------------------------------------------------

@dataclass
class ShiftStatistics:
    """Sample statistics of a set of transient-shift estimates."""

    mean: float
    std: float
    n_samples: int
    histogram: tuple[np.ndarray, np.ndarray]    # (counts, bin_edges)
    quadrature: str = ""

    @property
    def standard_error(self) -> float:
        return self.std / math.sqrt(self.n_samples)

    @property
    def z_score(self) -> float:
        if self.std == 0:
            return 0.0 if self.mean == 0 else math.inf
        return self.mean / self.standard_error

    @property
    def p_null(self) -> float:
        """Two-sided z-test p-value for compatibility with a null shift."""
        if not math.isfinite(self.z_score):
            return 0.0
        return math.erfc(abs(self.z_score) / math.sqrt(2.0))

    def null_compatible(self, n_sigma: float = 2.0) -> bool:
        return abs(self.z_score) <= n_sigma


def aggregate_shifts(fits: list[ShiftFit], bins: int = 20) -> ShiftStatistics:
    """Mean, sample standard deviation and histogram of delta_f0 estimates."""
    if len(fits) < 2:
        raise TooFewSamples(f"need >= 2 shift fits, got {len(fits)}")
    values = np.array([f.delta_fm0 for f in fits])
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    span = 4.0 * std if std > 0 else max(abs(mean), 1.0)
    if span < 4.0 * bins * np.spacing(abs(mean) + 1.0):
        # std below the float resolution of mean: bins would degenerate
        span = max(abs(mean), 1.0)
    counts, edges = np.histogram(values, bins=bins,
                                 range=(mean - span, mean + span))
    quad = fits[0].quadrature if fits else ""
    return ShiftStatistics(mean=mean, std=std, n_samples=len(values),
                           histogram=(counts, edges), quadrature=quad)


# --- width vs shift (optical spring line) -------------------------------------

@dataclass
class WidthShiftScan:
    slope: float                # d(Gamma_eff/2pi)/d(f_m), dimensionless
    offset: float               # Hz
    slope_err: float
    offset_err: float
    points: list[tuple[float, float, float]]    # (f_m Hz, width Hz, width err Hz)


def width_vs_shift_scan(fits: list[RingdownFit], weighted: bool = True) -> WidthShiftScan:
    """Linear regression of the effective width against the frequency shift.

    The small-detuning optical spring/damping relation predicts the slope
    2*kappa*Omega_m/[(kappa/2)^2 - Omega_m^2]; the offset is left free.
    Points are strongly heteroscedastic (fast-decaying records estimate the
    width far better than slow ones), so the default is an inverse-variance
    weighted fit using each point's reported width error.
    """
    if len(fits) < 2:
        raise DegenerateSpan(f"need >= 2 fits, got {len(fits)}")
    fm = np.array([f.f_m for f in fits])
    width = np.array([f.gamma_eff_hz for f in fits])
    werr = np.array([f.gamma_eff_hz_err for f in fits])
    span = fm.max() - fm.min()
    if span <= 1e-9 * max(abs(fm).max(), 1.0):
        raise DegenerateSpan("all fits at a single detuning")
    if weighted:
        floor = max(1e-3 * float(np.median(np.abs(width))), 1e-12)
        w = 1.0 / np.maximum(werr, floor)
    else:
        w = np.ones_like(width)
    G = np.column_stack([fm, np.ones_like(fm)]) * w[:, None]
    rhs = width * w
    coef, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    r = rhs - G @ coef
    dof = max(fm.size - 2, 1)
    sigma2 = float(r @ r) / dof
    cov = sigma2 * np.linalg.inv(G.T @ G)
    pts = [(float(a), float(b), float(c)) for a, b, c in zip(fm, width, werr)]
    return WidthShiftScan(slope=float(coef[0]), offset=float(coef[1]),
                          slope_err=math.sqrt(abs(cov[0, 0])),
                          offset_err=math.sqrt(abs(cov[1, 1])), points=pts)


def select_null_width(fits: list[RingdownFit], max_width_hz: float = 1.0
                      ) -> list[RingdownFit]:
    """Series selection: keep fits whose effective width is null within max_width_hz."""
    return [f for f in fits if abs(f.gamma_eff_hz) < max_width_hz]


# --- deformation-parameter bound ----------------------------------------------

AMPLITUDE_CONVENTION = "mean-square-displacement"


@dataclass
class BetaBound:
    """Upper limit on the deformation parameter beta0.

    The amplitude convention is declared, not derived: A^2 = 2*x_zpf^2*
    (2|alpha|^2 + 2 n_bar + 1), i.e. the squared half-peak amplitude of a
    sinusoid with the oscillator's total mean-square displacement (coherent +
    thermal + zero point). The shift limit maps through the closed-form
    frequency law delta_f/f = eps/2 with eps = beta_tilde m^2 Omega^2 A^2.
    """

    beta0_limit: float
    beta_tilde_limit: float
    epsilon_max: float
    delta_f_max: float          # Hz
    amplitude_sq: float         # m^2
    convention: str = AMPLITUDE_CONVENTION
    degenerate: bool = False


def beta_bound(stats: ShiftStatistics, operating: CooledState, mode: MechanicalMode,
               d_units: PhysicalConstants = DEFAULT_CONSTANTS,
               alpha_sq: float | None = None, max_epsilon: float = 0.1) -> BetaBound:
    """Convert null-shift statistics into an upper limit on beta0.

    delta_f_max = |mean| + 2*std/sqrt(n); eps_max = 2*delta_f_max/(Omega_m/2pi);
    beta0 = eps_max * hbar^2 / (L_p^2 m^2 Omega_m^2 A^2).
    """
    if alpha_sq is None:
        alpha_sq = operating.alpha_sq
    if not (alpha_sq > 0 and math.isfinite(alpha_sq)):
        raise UncalibratedCampaign(f"invalid coherent amplitude |alpha|^2 = {alpha_sq}")
    if stats.n_samples < 2:
        raise UncalibratedCampaign("statistics from fewer than 2 samples")
    delta_f_max = abs(stats.mean) + 2.0 * stats.standard_error
    f_mech = mode.omega_m / TWO_PI
    eps_max = 2.0 * delta_f_max / f_mech
    if eps_max > max_epsilon:
        raise ValueError(
            f"eps_max={eps_max:.3g} outside the perturbative regime (> {max_epsilon})")
    x_zpf = mode.x_zpf(d_units)
    amp_sq = 2.0 * x_zpf ** 2 * (2.0 * alpha_sq + 2.0 * operating.n_bar + 1.0)
    beta_tilde = eps_max / ((mode.mass * mode.omega_m) ** 2 * amp_sq)
    beta0 = beta_tilde * (d_units.hbar / d_units.L_p) ** 2
    return BetaBound(beta0_limit=beta0, beta_tilde_limit=beta_tilde,
                     epsilon_max=eps_max, delta_f_max=delta_f_max,
                     amplitude_sq=amp_sq,
                     degenerate=(delta_f_max == 0.0))
