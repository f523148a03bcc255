"""Ring-down and transient-shift estimation, ensemble statistics, deformation bound.

The free decay after pump switch-off appears in the lock-in quadratures as two
counter-rotating lines with a common exponential envelope:

    X = A exp(-t/tau) { cos[2 pi t (f_lo - f_m) + phi]
                        + B cos[2 pi t (f_hi + f_m) + phi + dphi] }
    Y = A exp(-t/tau) { sin[2 pi t (f_lo - f_m) + phi]
                        - B sin[2 pi t (f_hi + f_m) + phi + dphi] }

with f_lo and f_hi the lock-in frequencies of the two lines at f_m = 0
(`DetectionConfig.line_offsets`: 8 and 16 kHz for the default detection
settings) and f_m the mechanical offset from the excitation tone. A rapidly
decaying early frequency shift delta_f(t) perturbs the quadratures at first
order by dQ/d(f_m t) * (delta_f0 * t + c), which is fitted linearly on the
residuals of the extrapolated late-window model.

The model is linear in the amplitudes of its two lines. The late-window fit
therefore solves by Gauss-Newton for (1/tau, f_m) alone, and solves for the
amplitudes by least squares at every step (variable projection).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .detection import QuadratureRecord
from .dynamics import TWO_PI, DeformationParams, MechanicalMode, beta_tilde_for_epsilon
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
HISTOGRAM_BINS = 20                     # bins of a shift histogram
NULL_SIGMA = 2.0                        # null-compatibility threshold, standard errors
MAX_EPSILON = 0.1                       # largest eps_max a bound accepts


def ringdown_model(t, A, tau, f_m, phi, B, dphi,
                   f_lower=8000.0, f_upper=16000.0):
    """Evaluate the two-line decay model; returns (X, Y)."""
    env = A * np.exp(-t * (1.0 / tau))
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

    def evaluate(self, t):
        return ringdown_model(t, self.A, self.tau, self.f_m, self.phi,
                              self.B, self.delta_phi, self.f_lower, self.f_upper)


def _ringdown_jacobian(t, A, k, f_m, phi, B, dphi, f_lower, f_upper):
    """Jacobian of the model in (A, 1/tau, f_m, phi, B, dphi) at one point.

    In z = X + iY the model is m = A (u1 + B u2), with the lines
    u1 = exp(-k t + i(w1 t + phi)) and u2 = exp(-k t - i(w2 t + phi + dphi)),
    k = 1/tau. The fit works in k rather than tau, so that an undamped record
    (k = 0) is an ordinary point and not the asymptote |tau| -> inf. The rows
    interleave X and Y.
    """
    u1 = np.exp(t * complex(-k, TWO_PI * (f_lower - f_m)) + 1j * phi)
    u2 = np.exp(t * complex(-k, -TWO_PI * (f_upper + f_m)) - 1j * (phi + dphi))
    m = A * (u1 + B * u2)
    J = np.array([u1 + B * u2, -t * m, (-TWO_PI * 1j) * t * m,
                  1j * A * (u1 - B * u2), A * u2, -1j * A * B * u2])
    return J.view(float).T


def _projected_residual_jacobian(t, x_data, y_data, f_lower, f_upper):
    """Builders for the joint quadrature fit in theta = (1/tau, f_m) alone.

    In z = X + iY the model is alpha e1 + beta e2, with the lines
    e1 = exp(-t/tau + i w1 t) and e2 = exp(-t/tau - i w2 t), and the complex
    amplitudes alpha = A exp(i phi) and beta = AB exp(-i(phi + dphi)). The
    real basis of the four amplitudes, env * [cos w1, -sin w1, cos w2, -sin w2]
    stacked over X and Y, is (e1, i e1, e2, -i e2), so its QR is the complex
    QR of (e1, e2), here by Gram-Schmidt. By variable projection (Golub and
    Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)) the residual is the data's
    projection onto the basis minus the data. The Jacobian is Kaufman's
    (BIT 15, 49 (1975)): the projector onto the complement of the basis,
    applied to the model's derivatives in 1/tau and f_m, -t * model and the
    model turned by 2 pi t. The residual and the Jacobian at one point share
    its QR. Their rows interleave X and Y. Returns (residual, jacobian,
    amplitudes), the last giving (alpha, beta) at a point.
    """
    z = x_data + 1j * y_data
    last = {"theta": None}

    def project(theta):
        if np.array_equal(last["theta"], theta):
            return last
        k, f_m = theta
        e1 = np.exp(t * complex(-k, TWO_PI * (f_lower - f_m)))
        e2 = np.exp(t * complex(-k, -TWO_PI * (f_upper + f_m)))
        r11 = math.sqrt(np.vdot(e1, e1).real)
        q1 = e1 / r11
        r12 = np.vdot(q1, e2)
        q2 = e2 - r12 * q1
        r22 = math.sqrt(np.vdot(q2, q2).real)
        q2 /= r22
        c1, c2 = np.vdot(q1, z), np.vdot(q2, z)
        last.update(theta=theta.copy(), q1=q1, q2=q2,
                    R=(r11, r12, r22), c=(c1, c2), model=c1 * q1 + c2 * q2)
        return last

    def residual(theta):
        return (project(theta)["model"] - z).view(float)

    def jacobian(theta):
        p = project(theta)
        q1, q2 = p["q1"], p["q2"]
        u = t * p["model"]
        u -= np.vdot(q1, u) * q1 + np.vdot(q2, u) * q2
        J = np.empty((2, t.size), dtype=complex)
        J[0] = -u
        J[1] = (-TWO_PI * 1j) * u
        return J.view(float).T

    def amplitudes(theta):
        p = project(theta)
        r11, r12, r22 = p["R"]
        c1, c2 = p["c"]
        beta = c2 / r22
        return (c1 - beta * r12) / r11, beta

    return residual, jacobian, amplitudes


def _initial_guess(t, x_data, y_data, f_lower, f_upper):
    """FFT peak + log-envelope heuristic for (1/tau, f_m)."""
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

    spec = np.abs(np.fft.fft(z * np.hanning(n)))
    freqs = np.fft.fftfreq(n, dt)
    pos, neg = freqs > 0, freqs < 0
    f_pos, a_pos, f_neg, a_neg = freqs[pos], spec[pos], freqs[neg], spec[neg]
    i1, i2 = np.argmax(a_pos), np.argmax(a_neg)
    fm_candidates = np.array([f_lower - f_pos[i1], -f_neg[i2] - f_upper])
    weights = np.array([a_pos[i1], a_neg[i2]])
    f_m0 = float(np.sum(fm_candidates * weights) / np.sum(weights))
    return rate0, f_m0


def fit_ringdown(rec: QuadratureRecord, window: tuple[float, float] = DEFAULT_BASE_WINDOW,
                 f_lower: float = 8000.0, f_upper: float = 16000.0) -> RingdownFit:
    """Joint nonlinear least squares of both quadratures over the given window.

    f_lower and f_upper are the lock-in frequencies of the anti-Stokes and
    Stokes lines at f_m = 0; `DetectionConfig.line_offsets` gives them for a
    detection chain, and the defaults are those of `DetectionConfig()`.
    Damped Gauss-Newton on (1/tau, f_m) alone, with the line amplitudes
    projected out at every step (`_projected_residual_jacobian`), from an
    FFT-peak / log-envelope initial guess, the one start. (A, phi, B, dphi)
    come from the amplitudes at the optimum, so A >= 0 and B >= 0. The
    covariance of all six parameters comes from the Jacobian of the complex
    two-line form at the optimum (`_ringdown_jacobian`), with the residual
    variance on 2n - 6 degrees of freedom, and is carried over from 1/tau to
    tau.
    Raises WindowOutOfRange if the window does not lie inside the record and
    FitDiverged if the solver finds no descent step or does not converge
    within `leastsq.MAX_ITER` iterations.
    """
    t_rec = rec.times
    if window[0] < t_rec[0] - 1e-12 or window[1] > t_rec[-1] + rec.x_quad.dt + 1e-12:
        raise WindowOutOfRange(
            f"window {window} outside record [{t_rec[0]:.4g}, {t_rec[-1]:.4g}]")
    sub = rec.window(*window)
    t = sub.times
    x_data = sub.x_quad.samples
    y_data = sub.y_quad.samples

    rate0, f_m0 = _initial_guess(t, x_data, y_data, f_lower, f_upper)
    residual, jacobian, amplitudes = _projected_residual_jacobian(
        t, x_data, y_data, f_lower, f_upper)
    res = damped_gauss_newton(residual, jacobian, np.array([rate0, f_m0]))
    if not res.converged:
        raise FitDiverged(f"ring-down fit did not converge in {res.iterations} iterations")

    k, f_m = res.params
    alpha, beta = amplitudes(res.params)
    A = abs(alpha)
    phi = cmath.phase(alpha)
    B = abs(beta) / A if A > 0 else 0.0
    dphi = (-cmath.phase(beta) - phi + math.pi) % TWO_PI - math.pi
    J = _ringdown_jacobian(t, A, k, f_m, phi, B, dphi, f_lower, f_upper)
    sigma2 = 2.0 * res.cost / max(J.shape[0] - J.shape[1], 1)
    try:
        cov = sigma2 * np.linalg.inv(J.T @ J)
    except np.linalg.LinAlgError:
        cov = np.full((6, 6), np.nan)
    tau = 1.0 / k
    dparams = np.ones(6)
    dparams[1] = -tau ** 2      # d tau / d(1/tau)
    cov = cov * np.outer(dparams, dparams)
    return RingdownFit(A=float(A), tau=float(tau), f_m=float(f_m), phi=phi, B=float(B),
                       delta_phi=dphi, covariance=cov,
                       window=window, f_lower=f_lower, f_upper=f_upper,
                       residual_std=math.sqrt(sigma2), converged=res.converged,
                       iterations=res.iterations)


# --- transient frequency shift -----------------------------------------------

@dataclass
class ShiftFit:
    """Early-window transient-shift fit: residuals against dQ/d(f_m t)*(delta_f0*t + c)."""

    delta_fm0: float            # Hz
    c: float                    # dimensionless phase-offset parameter
    covariance: np.ndarray      # 2x2
    window: tuple[float, float]

    @property
    def delta_fm0_err(self) -> float:
        return math.sqrt(abs(self.covariance[0, 0]))


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
    # dX/d(f_m t) and dY/d(f_m t) along the model
    dx_du, dy_du = TWO_PI * y_model, -TWO_PI * x_model

    fits = []
    for name, data, model, deriv in (("X", sub.x_quad.samples, x_model, dx_du),
                                     ("Y", sub.y_quad.samples, y_model, dy_du)):
        resid = data - model
        G = np.column_stack([deriv * t, deriv])
        coef, _, rank, s = np.linalg.lstsq(G, resid, rcond=None)
        # (s[0] / s[-1])^2 is the condition number of G^T G
        if rank < 2 or (s[0] / s[-1]) ** 2 > 1e14:
            raise BaseFitInvalid(f"degenerate shift regressors on {name}")
        r = resid - G @ coef
        dof = max(t.size - 2, 1)
        sigma2 = float(r @ r) / dof
        cov = sigma2 * np.linalg.inv(G.T @ G)
        fits.append(ShiftFit(delta_fm0=float(coef[0]), c=float(coef[1]),
                             covariance=cov, window=early_window))
    return fits[0], fits[1]


# --- ensemble statistics ------------------------------------------------------

@dataclass
class ShiftStatistics:
    """Sample statistics of a set of transient-shift estimates."""

    mean: float
    std: float
    n_samples: int
    histogram: tuple[np.ndarray, np.ndarray]    # (counts, bin_edges)

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

    def null_compatible(self) -> bool:
        """Mean within NULL_SIGMA standard errors of zero."""
        return abs(self.z_score) <= NULL_SIGMA


def aggregate_shifts(fits: list[ShiftFit]) -> ShiftStatistics:
    """Mean, sample standard deviation and histogram (HISTOGRAM_BINS bins) of
    delta_f0 estimates."""
    if len(fits) < 2:
        raise TooFewSamples(f"need >= 2 shift fits, got {len(fits)}")
    values = np.array([f.delta_fm0 for f in fits])
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    span = 4.0 * std if std > 0 else max(abs(mean), 1.0)
    if span < 4.0 * HISTOGRAM_BINS * np.spacing(abs(mean) + 1.0):
        # std below the float resolution of mean: bins would degenerate
        span = max(abs(mean), 1.0)
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS,
                                 range=(mean - span, mean + span))
    return ShiftStatistics(mean=mean, std=std, n_samples=len(values),
                           histogram=(counts, edges))


# --- width vs shift (optical spring line) -------------------------------------

@dataclass
class WidthShiftScan:
    slope: float                # d(Gamma_eff/2pi)/d(f_m), dimensionless
    offset: float               # Hz
    slope_err: float
    offset_err: float


def width_vs_shift_scan(points: list[tuple[float, float, float]]) -> WidthShiftScan:
    """Linear regression of the effective width against the frequency shift.

    Each point is one ring-down fit's (f_m, Gamma_eff/2pi, its error) in Hz, as
    in a series' `summary.report`. The small-detuning optical spring/damping
    relation predicts the slope 2*kappa*Omega_m/[(kappa/2)^2 - Omega_m^2]; the
    offset is left free. Points are strongly heteroscedastic (fast-decaying
    records estimate the width far better than slow ones), so the fit is
    inverse-variance weighted by each point's reported width error.
    """
    if len(points) < 3:
        # two points fit the line exactly and leave no residual to size its errors by
        raise DegenerateSpan(f"need >= 3 fits, got {len(points)}")
    fm, width, werr = np.array(points, dtype=float).T
    span = fm.max() - fm.min()
    if span <= 1e-9 * max(abs(fm).max(), 1.0):
        raise DegenerateSpan("all fits at a single detuning")
    floor = max(1e-3 * float(np.median(np.abs(width))), 1e-12)
    w = 1.0 / np.maximum(werr, floor)
    G = np.column_stack([fm, np.ones_like(fm)]) * w[:, None]
    rhs = width * w
    coef, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    r = rhs - G @ coef
    sigma2 = float(r @ r) / (fm.size - 2)
    cov = sigma2 * np.linalg.inv(G.T @ G)
    return WidthShiftScan(slope=float(coef[0]), offset=float(coef[1]),
                          slope_err=math.sqrt(abs(cov[0, 0])),
                          offset_err=math.sqrt(abs(cov[1, 1])))


# --- deformation-parameter bound ----------------------------------------------

AMPLITUDE_CONVENTION = "mean-square-displacement"


@dataclass
class BetaBound:
    """Upper limit on the deformation parameter beta0.

    The amplitude convention is declared, not derived: A^2 is
    `MechanicalMode.squared_amplitude` at the operating point. The shift limit
    maps through the closed-form frequency law delta_f/f = eps/2 with
    eps = beta_tilde m^2 Omega^2 A^2 (`dynamics.beta_tilde_for_epsilon`).
    """

    beta0_limit: float
    beta_tilde_limit: float
    epsilon_max: float
    delta_f_max: float          # Hz
    amplitude_sq: float         # m^2
    convention: str = AMPLITUDE_CONVENTION
    degenerate: bool = False


def beta_bound(stats: ShiftStatistics, operating: CooledState,
               mode: MechanicalMode) -> BetaBound:
    """Convert null-shift statistics into an upper limit on beta0.

    delta_f_max = |mean| + 2*std/sqrt(n); eps_max = 2*delta_f_max/(Omega_m/2pi);
    beta0 = eps_max * hbar^2 / (L_p^2 m^2 Omega_m^2 A^2). Raises ValueError
    when eps_max exceeds MAX_EPSILON, outside the perturbative regime.
    """
    alpha_sq = operating.alpha_sq
    if not (alpha_sq > 0 and math.isfinite(alpha_sq)):
        raise UncalibratedCampaign(f"invalid coherent amplitude |alpha|^2 = {alpha_sq}")
    if stats.n_samples < 2:
        raise UncalibratedCampaign("statistics from fewer than 2 samples")
    delta_f_max = abs(stats.mean) + 2.0 * stats.standard_error
    eps_max = 2.0 * delta_f_max / (mode.omega_m / TWO_PI)
    if eps_max > MAX_EPSILON:
        raise ValueError(
            f"eps_max={eps_max:.3g} outside the perturbative regime (> {MAX_EPSILON})")
    beta_tilde = beta_tilde_for_epsilon(mode, eps_max, alpha_sq, operating.n_bar)
    return BetaBound(beta0_limit=DeformationParams.from_beta_tilde(beta_tilde).beta0,
                     beta_tilde_limit=beta_tilde,
                     epsilon_max=eps_max, delta_f_max=delta_f_max,
                     amplitude_sq=mode.squared_amplitude(alpha_sq, operating.n_bar),
                     degenerate=(delta_f_max == 0.0))
