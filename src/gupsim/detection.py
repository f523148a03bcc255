"""Balanced-heterodyne synthesis and the lock-in / spectral analysis chain.

The detected photocurrent is modeled statistically: each motional sideband is a
complex Gaussian envelope (Lorentzian linewidth Gamma_eff/2pi, variance set by
the sideband weight) riding on its own carrier, plus a shared coherent
amplitude and a flat shot-noise floor. In detector units the Stokes envelope
has variance n_bar + 1 and the anti-Stokes envelope n_bar, so the one-sided
PSD areas are (n_bar+1)/2 and n_bar/2, and each coherent line carries power
|alpha|^2/2; the coherent-to-thermal area ratio summed over both sidebands is
then |alpha|^2/(n_bar + 1/2), which is what the coherent-peak analysis inverts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal as sig

from .dynamics import TWO_PI, MechanicalMode
from .errors import (
    DurationTooShort,
    FilterUnstable,
    FitDiverged,
    NyquistViolation,
    PeakNotResolved,
    SegmentTooLong,
)
from .leastsq import damped_gauss_newton
from .optomech import CooledState, OpticalCavity, occupancy_from_ratio

SIDEBAND_HALFWIDTH_HZ = 9e3     # half-width of each sideband's fit window
COHERENT_EXCLUDE_BINS = 4       # bins either side of a sideband left out of the fit
PEAK_MIN_SIGMA = 5.0            # significance a coherent peak must reach
LOCKIN_REF_OFFSET_HZ = 4e3      # lock-in reference below the excitation tone


@dataclass(frozen=True)
class DetectionConfig:
    """Heterodyne offset, lock-in settings and sampling for the detection chain.

    The local oscillator sits delta_lo above the probe, so the Stokes sideband
    lands at (Omega_m + delta_lo) and the anti-Stokes at (Omega_m - delta_lo) in
    the detected spectrum.  The lock-in demodulates at lockin_ref, 4 kHz below
    the excitation tone, which places the anti-Stokes line at f_lower - f_m and
    the Stokes line at f_upper + f_m, with f_m = (Omega_m - Omega_exc)/2pi and
    (f_lower, f_upper) the `line_offsets`, (8 kHz, 16 kHz) at the default delta_lo.
    """

    omega_exc: float = TWO_PI * 525800.0   # rad/s, excitation tone
    delta_lo: float = TWO_PI * 12e3        # rad/s, heterodyne offset
    lockin_bandwidth: float = 20e3         # Hz
    lockin_filter_order: int = 4
    sample_rate: float = 2.5e6             # Hz
    decimation: int = 8
    background_psd: float = 1e-5           # detector^2/Hz, flat shot-noise floor

    def __post_init__(self):
        if not self.delta_lo < 0.1 * self.omega_exc:
            raise ValueError("delta_lo must be small compared to the mechanical frequency")
        if self.sample_rate <= 4.0 * (self.omega_exc / TWO_PI + 16e3):
            raise ValueError("sample_rate must exceed 4*(f_exc + 16 kHz)")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")

    @property
    def lockin_ref(self) -> float:
        """Lock-in reference, rad/s."""
        return self.omega_exc - TWO_PI * LOCKIN_REF_OFFSET_HZ

    @property
    def stokes_freq(self) -> float:
        """Nominal Stokes sideband frequency in Hz (at f_m = 0)."""
        return (self.omega_exc + self.delta_lo) / TWO_PI

    @property
    def antistokes_freq(self) -> float:
        return (self.omega_exc - self.delta_lo) / TWO_PI

    @property
    def line_offsets(self) -> tuple[float, float]:
        """(f_lower, f_upper): lock-in frequencies, Hz, of the anti-Stokes and
        Stokes lines at f_m = 0, as the ring-down fit takes them."""
        ref = self.lockin_ref / TWO_PI
        return ref - self.antistokes_freq, self.stokes_freq - ref

    @property
    def record_rate(self) -> float:
        return self.sample_rate / self.decimation


@dataclass
class TimeSeries:
    """Uniformly sampled real series."""

    t0: float
    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")
        self.samples = np.asarray(self.samples, dtype=float)
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.samples.size)

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    def __len__(self) -> int:
        return self.samples.size


@dataclass
class QuadratureRecord:
    """Lock-in output pair (X, Y) for one experimental cycle."""

    x_quad: TimeSeries
    y_quad: TimeSeries
    cycle_index: int = 0

    def __post_init__(self):
        if len(self.x_quad) != len(self.y_quad):
            raise ValueError("quadratures must have equal length")
        if self.x_quad.dt != self.y_quad.dt or self.x_quad.t0 != self.y_quad.t0:
            raise ValueError("quadratures must share a timebase")

    @property
    def times(self) -> np.ndarray:
        return self.x_quad.times

    def window(self, t_start: float, t_end: float) -> "QuadratureRecord":
        """Sub-record with t_start <= t < t_end."""
        t = self.times
        m = (t >= t_start) & (t < t_end)
        idx = np.where(m)[0]
        if idx.size == 0:
            raise ValueError("empty window")
        t0 = float(t[idx[0]])
        xq = TimeSeries(t0, self.x_quad.dt, self.x_quad.samples[m])
        yq = TimeSeries(t0, self.y_quad.dt, self.y_quad.samples[m])
        return QuadratureRecord(xq, yq, self.cycle_index)


@dataclass
class SpectrumEstimate:
    """One-sided averaged-periodogram PSD estimate."""

    freqs: np.ndarray
    psd: np.ndarray
    resolution: float
    n_averages: int

    def __post_init__(self):
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.psd = np.asarray(self.psd, dtype=float)
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if np.any(self.psd < 0):
            raise ValueError("psd must be non-negative")


# --- synthesis ---------------------------------------------------------------

def complex_ou_segment(rng: np.random.Generator, n: int, dt: float, gamma: float,
                       drive_rate: float, u0: complex) -> np.ndarray:
    """Complex Ornstein-Uhlenbeck envelope continuing from u0 for n further samples.

    du = -(gamma/2) u dt + bath kicks with E|u|^2 relaxing from |u0|^2 toward
    drive_rate/gamma at rate gamma.  Exact discretization; gamma may be
    negative (anti-damped), in which case the variance grows.
    """
    rho = math.exp(-0.5 * gamma * dt)
    if gamma != 0.0:
        kick_var = drive_rate * (1.0 - rho * rho) / gamma
    else:
        kick_var = drive_rate * dt
    w = np.empty(n, dtype=complex)
    if kick_var > 0:
        scale = math.sqrt(kick_var / 2.0)
        w.real = rng.standard_normal(n)
        w.imag = rng.standard_normal(n)
        w *= scale
    else:
        w[:] = 0.0
    u = sig.lfilter([1.0], [1.0, -rho], w, zi=np.array([rho * u0], dtype=complex))[0]
    return u


def stationary_envelope(rng: np.random.Generator, n: int, dt: float, gamma: float,
                        variance: float) -> np.ndarray:
    """Stationary complex envelope with linewidth gamma/2pi (FWHM) and E|u|^2 = variance."""
    u0 = complex(rng.standard_normal(), rng.standard_normal()) * math.sqrt(variance / 2.0)
    out = np.empty(n, dtype=complex)
    out[0] = u0
    if n > 1:
        out[1:] = complex_ou_segment(rng, n - 1, dt, gamma, gamma * variance, u0)
    return out


def carrier(freq_hz: float, t: np.ndarray) -> np.ndarray:
    """Complex carrier exp(i 2 pi f t) on the time base t."""
    c = 1j * TWO_PI * freq_hz * t
    return np.exp(c, out=c)


def assemble_bhd(env_stokes: np.ndarray, env_antistokes: np.ndarray,
                 carrier_stokes: np.ndarray, carrier_antistokes: np.ndarray,
                 background_psd: float, sample_rate: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Real detected signal from the two sideband envelopes on their carriers plus white shot noise.

    The envelopes are multiplied by their carriers in place, so no further
    full-length complex buffer is allocated; the result is a view of the
    anti-Stokes buffer.
    """
    env_antistokes *= carrier_antistokes
    env_stokes *= carrier_stokes
    s = env_antistokes.real
    s += env_stokes.real
    if background_psd > 0:
        s += rng.standard_normal(s.size) * math.sqrt(background_psd * sample_rate / 2.0)
    return s


def synthesize_bhd(state: CooledState, mode: MechanicalMode, cavity: OpticalCavity,
                   det: DetectionConfig, duration: float, seed) -> TimeSeries:
    """Stationary heterodyne output with motional sidebands around the carrier offsets.

    One-sided PSD: flat background + Stokes Lorentzian (area (n_bar+1)/2, FWHM
    Gamma_eff/2pi) at (omega_eff + delta_lo)/2pi + anti-Stokes Lorentzian (area
    n_bar/2) at (omega_eff - delta_lo)/2pi + a coherent line of power
    |alpha|^2/2 at each sideband position. Deterministic given (config, seed).
    """
    if duration * state.gamma_eff < 10.0:
        raise DurationTooShort(
            f"duration*gamma_eff = {duration * state.gamma_eff:.2f} < 10")
    fs = det.sample_rate
    f_s = (state.omega_eff + det.delta_lo) / TWO_PI
    f_as = (state.omega_eff - det.delta_lo) / TWO_PI
    if f_s + det.lockin_bandwidth >= fs / 2.0:
        raise NyquistViolation(f"Stokes sideband at {f_s:.0f} Hz too close to Nyquist")
    rng = np.random.default_rng(seed)
    n = int(round(duration * fs))
    dt = 1.0 / fs
    env_s = stationary_envelope(rng, n, dt, state.gamma_eff, state.n_bar + 1.0)
    env_as = stationary_envelope(rng, n, dt, state.gamma_eff, state.n_bar)
    alpha = complex(math.sqrt(state.alpha_sq))
    env_s += alpha
    env_as += alpha
    # made here, one record at a time: at 2.5 MHz a cached pair of carriers
    # would hold 80 MB per simulated second
    t = dt * np.arange(n)
    c_s, c_as = carrier(f_s, t), carrier(f_as, t)
    del t
    samples = assemble_bhd(env_s, env_as, c_s, c_as, det.background_psd, fs, rng)
    return TimeSeries(t0=0.0, dt=dt, samples=samples)


# --- demodulation ------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _lockin_design(det: DetectionConfig) -> np.ndarray:
    fs = det.sample_rate
    if det.lockin_filter_order < 1 or not (0.0 < det.lockin_bandwidth < fs / 2.0):
        raise FilterUnstable(
            f"order={det.lockin_filter_order}, bandwidth={det.lockin_bandwidth} Hz "
            f"is degenerate for fs={fs} Hz")
    sos = sig.butter(det.lockin_filter_order, det.lockin_bandwidth, "low",
                     fs=fs, output="sos")
    sos.flags.writeable = False
    return sos


def lockin_sos(det: DetectionConfig) -> np.ndarray:
    """Low-pass section design for the lock-in output filter.

    The Butterworth design is made once per DetectionConfig; each call gets a
    writable copy, since scipy's sosfilt refuses a read-only array.
    """
    return _lockin_design(det).copy()


def lockin_filter_response(det: DetectionConfig, freqs_hz) -> np.ndarray:
    """Complex transfer function of the lock-in low-pass at the given frequencies."""
    sos = lockin_sos(det)
    w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=float) / det.sample_rate
    _, h = sig.sosfreqz(sos, worN=w)
    return h


@functools.lru_cache(maxsize=4)
def _lockin_reference(omega_ref: float, t0: float, dt: float,
                      n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only cos and sin of omega_ref * t on the time base of TimeSeries.times."""
    ref = omega_ref * (t0 + dt * np.arange(n))
    out = (np.cos(ref), np.sin(ref))
    for a in out:
        a.flags.writeable = False
    return out


def lockin_demodulate(ts: TimeSeries, det: DetectionConfig,
                      cycle_index: int = 0) -> QuadratureRecord:
    """Demodulate a detected series into slow quadratures X, Y.

    X = LPF[2 s cos(w_ref t)], Y = LPF[2 s sin(w_ref t)], then decimation.
    A tone above the reference emerges in X as +cos and in Y as -sin of the
    difference phase; a tone below the reference emerges as +cos and +sin,
    which is exactly the two-line structure the ring-down model fits.
    """
    fs = ts.sample_rate
    if not (0.0 < det.lockin_ref < math.pi * fs):
        raise FilterUnstable(
            f"lockin reference {det.lockin_ref:.3e} rad/s outside (0, Nyquist)")
    sos = lockin_sos(det)
    cos_ref, sin_ref = _lockin_reference(det.lockin_ref, ts.t0, ts.dt, len(ts))
    two_s = 2.0 * ts.samples
    x = sig.sosfilt(sos, two_s * cos_ref)
    y = sig.sosfilt(sos, two_s * sin_ref)
    r = det.decimation
    x = x[::r]
    y = y[::r]
    dt_out = ts.dt * r
    return QuadratureRecord(
        x_quad=TimeSeries(ts.t0, dt_out, x),
        y_quad=TimeSeries(ts.t0, dt_out, y),
        cycle_index=cycle_index,
    )


def average_records(records: list[QuadratureRecord],
                    cycle_index: int | None = None) -> QuadratureRecord:
    """Sample-wise average of records sharing a timebase (coherent averaging)."""
    if not records:
        raise ValueError("no records to average")
    x = np.mean([r.x_quad.samples for r in records], axis=0)
    y = np.mean([r.y_quad.samples for r in records], axis=0)
    first = records[0]
    idx = first.cycle_index if cycle_index is None else cycle_index
    return QuadratureRecord(
        x_quad=TimeSeries(first.x_quad.t0, first.x_quad.dt, x),
        y_quad=TimeSeries(first.y_quad.t0, first.y_quad.dt, y),
        cycle_index=idx,
    )


# --- spectral estimation -----------------------------------------------------

def welch_psd(ts: TimeSeries, segment_length: int) -> SpectrumEstimate:
    """Averaged-periodogram one-sided PSD (density scaling, variance-preserving)
    with Hann windows overlapping by half a segment."""
    n = len(ts)
    if segment_length > n:
        raise SegmentTooLong(f"segment {segment_length} > series length {n}")
    noverlap = segment_length // 2
    freqs, psd = sig.welch(ts.samples, fs=ts.sample_rate, window="hann",
                           nperseg=segment_length, noverlap=noverlap,
                           detrend=False)
    step = segment_length - noverlap
    n_avg = 1 + (n - segment_length) // step
    return SpectrumEstimate(freqs=freqs, psd=psd,
                            resolution=ts.sample_rate / segment_length,
                            n_averages=n_avg)


def average_spectra(spectra: list[SpectrumEstimate]) -> SpectrumEstimate:
    """Pool Welch estimates computed on the same frequency grid."""
    if not spectra:
        raise ValueError("no spectra to average")
    f0 = spectra[0].freqs
    for s in spectra[1:]:
        if s.freqs.shape != f0.shape or not np.allclose(s.freqs, f0):
            raise ValueError("spectra must share a frequency grid")
    weights = np.array([s.n_averages for s in spectra], dtype=float)
    psd = np.sum([w * s.psd for w, s in zip(weights, spectra)], axis=0) / weights.sum()
    return SpectrumEstimate(freqs=f0, psd=psd, resolution=spectra[0].resolution,
                            n_averages=int(weights.sum()))


# --- Lorentzian pair fit -----------------------------------------------------

def _lorentz(f, center, width, area):
    hw = 0.5 * width
    return (area / math.pi) * hw / ((f - center) ** 2 + hw * hw)


@dataclass
class SidebandFit:
    center: float
    width: float
    area: float
    center_err: float
    width_err: float
    area_err: float


@dataclass
class LorentzianPairFit:
    stokes: SidebandFit
    antistokes: SidebandFit
    background: tuple[float, float]       # flat level per sideband window
    corrected_ratio: float
    corrected_ratio_err: float
    occupancy: float
    occupancy_err: float
    covariance: np.ndarray
    window_masks: tuple[np.ndarray, np.ndarray]
    excluded_masks: tuple[np.ndarray, np.ndarray]


def fit_lorentzian_pair(spec: SpectrumEstimate, det: DetectionConfig) -> LorentzianPairFit:
    """Joint Lorentzian + flat-background fit of the two motional sidebands.

    Each sideband window (SIDEBAND_HALFWIDTH_HZ either side of the nominal
    sideband frequency) gets its own flat background, and both Lorentzians
    contribute to both windows so the neighbor tail is modeled rather than
    absorbed. The COHERENT_EXCLUDE_BINS bins either side of each window's
    centre are left out of the fit so a narrow coherent line cannot bias the
    thermal areas, whose ratio gives the occupancy.
    """
    f = spec.freqs
    p = spec.psd
    masks = []
    excl = []
    for fc in (det.stokes_freq, det.antistokes_freq):
        m = (f >= fc - SIDEBAND_HALFWIDTH_HZ) & (f <= fc + SIDEBAND_HALFWIDTH_HZ)
        if not np.any(m):
            raise ValueError(f"sideband window at {fc:.0f} Hz outside spectrum support")
        center_bin = np.argmin(np.abs(f - fc))
        e = np.zeros_like(m)
        lo = max(center_bin - COHERENT_EXCLUDE_BINS, 0)
        e[lo:center_bin + COHERENT_EXCLUDE_BINS + 1] = True
        masks.append(m)
        excl.append(e & m)
    m_s, m_as = masks
    e_s, e_as = excl
    fit_s = m_s & ~e_s
    fit_as = m_as & ~e_as

    f_fit = np.concatenate([f[fit_s], f[fit_as]])
    p_fit = np.concatenate([p[fit_s], p[fit_as]])
    n_s = int(np.sum(fit_s))
    in_stokes = np.zeros(f_fit.size, dtype=bool)
    in_stokes[:n_s] = True

    def guess_window(mask, e_mask, fc):
        sel = mask & ~e_mask
        bg = np.percentile(p[sel], 20)
        peak = max(np.max(p[sel]) - bg, 1e-30)
        hw_bins = np.sum(p[sel] - bg > peak / 2)
        width = max(hw_bins, 2) * spec.resolution
        area = peak * math.pi * width / 2.0
        return fc, width, area, bg

    g_s = guess_window(m_s, e_s, det.stokes_freq)
    g_as = guess_window(m_as, e_as, det.antistokes_freq)
    # params: [c_s, w_s, a_s, c_as, w_as, a_as, bg_s, bg_as]
    theta0 = np.array([g_s[0], g_s[1], g_s[2], g_as[0], g_as[1], g_as[2],
                       g_s[3], g_as[3]])
    scale = np.array([spec.resolution, g_s[1], max(g_s[2], 1e-30),
                      spec.resolution, g_as[1], max(g_as[2], 1e-30),
                      max(g_s[3], 1e-30), max(g_as[3], 1e-30)])

    def model(theta):
        c_s, w_s, a_s, c_as, w_as, a_as, bg1, bg2 = theta
        out = _lorentz(f_fit, c_s, abs(w_s), a_s) + _lorentz(f_fit, c_as, abs(w_as), a_as)
        out += np.where(in_stokes, bg1, bg2)
        return out

    def residual(theta):
        return model(theta) - p_fit

    def jacobian(theta):
        c_s, w_s, a_s, c_as, w_as, a_as, _, _ = theta
        J = np.zeros((f_fit.size, 8))
        for k, (c, w, a) in enumerate(((c_s, abs(w_s), a_s), (c_as, abs(w_as), a_as))):
            hw = 0.5 * w
            d = f_fit - c
            denom = d * d + hw * hw
            L = (a / math.pi) * hw / denom
            J[:, 3 * k + 0] = 2.0 * L * d / denom
            J[:, 3 * k + 1] = (a / TWO_PI) * (d * d - hw * hw) / denom ** 2
            J[:, 3 * k + 2] = (1.0 / math.pi) * hw / denom
        J[:, 6] = in_stokes.astype(float)
        J[:, 7] = (~in_stokes).astype(float)
        return J

    res = damped_gauss_newton(residual, jacobian, theta0)
    if not res.converged:
        raise FitDiverged("Lorentzian pair fit did not converge")
    th = res.params
    err = np.sqrt(np.abs(np.diag(res.covariance)))
    stokes = SidebandFit(th[0], abs(th[1]), th[2], err[0], err[1], err[2])
    anti = SidebandFit(th[3], abs(th[4]), th[5], err[3], err[4], err[5])

    ratio = stokes.area / anti.area
    # ratio variance from the area block of the covariance
    var = (ratio ** 2) * (
        (err[2] / th[2]) ** 2 + (err[5] / th[5]) ** 2
        - 2.0 * res.covariance[2, 5] / (th[2] * th[5]))
    ratio_err = math.sqrt(max(var, 0.0))
    if ratio > 1.0:
        n_bar = occupancy_from_ratio(ratio)
        n_err = ratio_err / (ratio - 1.0) ** 2
    else:
        n_bar = math.inf
        n_err = math.inf
    return LorentzianPairFit(
        stokes=stokes, antistokes=anti, background=(th[6], th[7]),
        corrected_ratio=ratio, corrected_ratio_err=ratio_err,
        occupancy=n_bar, occupancy_err=n_err, covariance=res.covariance,
        window_masks=(m_s, m_as), excluded_masks=(e_s, e_as))


def coherent_peak_analysis(spec: SpectrumEstimate, fit: LorentzianPairFit) -> float:
    """Coherent amplitude |alpha|^2 from the narrow-line to Lorentzian area ratio.

    The excess area above the fitted Lorentzian + background inside the
    coherent-exclusion windows, summed over both sidebands, divided by the total
    Lorentzian area, equals |alpha|^2/(n_bar + 1/2). Raises
    PeakNotResolved when that excess is below PEAK_MIN_SIGMA standard errors.
    """
    f = spec.freqs
    p = spec.psd
    df = spec.resolution

    def pair_model(fv, bg):
        return (_lorentz(fv, fit.stokes.center, fit.stokes.width, fit.stokes.area)
                + _lorentz(fv, fit.antistokes.center, fit.antistokes.width,
                           fit.antistokes.area) + bg)

    peak_area = 0.0
    noise_var = 0.0
    for k in (0, 1):
        e_mask = fit.excluded_masks[k]
        excess = (p[e_mask] - pair_model(f[e_mask], fit.background[k])) * df
        peak_area += float(np.sum(excess))
        # scatter of the fitted (non-excluded) bins estimates the per-bin noise
        side = fit.window_masks[k] & ~e_mask
        resid = p[side] - pair_model(f[side], fit.background[k])
        noise_var += df ** 2 * float(np.var(resid)) * np.sum(e_mask)
    peak_err = math.sqrt(noise_var)
    if peak_area <= PEAK_MIN_SIGMA * peak_err:
        raise PeakNotResolved(
            f"coherent peak area {peak_area:.3g} below {PEAK_MIN_SIGMA} sigma "
            f"({peak_err:.3g})")
    lorentz_area = fit.stokes.area + fit.antistokes.area
    n_bar = fit.occupancy
    return (n_bar + 0.5) * peak_area / lorentz_area
