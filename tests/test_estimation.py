import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gupsim.detection import QuadratureRecord, TimeSeries
from gupsim.dynamics import MechanicalMode
from gupsim.errors import (
    BaseFitInvalid,
    DegenerateSpan,
    FitDiverged,
    TooFewSamples,
    UncalibratedCampaign,
    WindowOutOfRange,
    WindowOverlap,
)
from gupsim.estimation import (
    RingdownFit,
    ShiftFit,
    ShiftStatistics,
    aggregate_shifts,
    beta_bound,
    fit_ringdown,
    fit_transient_shift,
    ringdown_model,
    width_vs_shift_scan,
)
from gupsim.optomech import CooledState

FS = 312500.0
DT = 1.0 / FS
N = int(0.0105 * FS)
T = np.arange(N) * DT
MODE = MechanicalMode(omega_m=2 * math.pi * 525800.0,
                      gamma_m=2 * math.pi * 525800.0 / 6.4e6,
                      mass=1e-10, T_bath=9.0)


def make_record(A, tau, f_m, phi, B, dphi, noise=0.0, rng=None, t0_shift=0.0):
    X, Y = ringdown_model(T, A, tau, f_m, phi, B, dphi)
    if noise > 0:
        X = X + rng.standard_normal(N) * noise
        Y = Y + rng.standard_normal(N) * noise
    return QuadratureRecord(TimeSeries(t0_shift, DT, X), TimeSeries(t0_shift, DT, Y))


def make_shifted_record(A, tau, f_m, phi, B, dphi, delta0, tau_s):
    """Record with a decaying frequency shift injected through the exact phase."""
    g = -delta0 * tau_s * np.exp(-T / tau_s)
    th1 = 2 * math.pi * (8000.0 * T - (f_m * T + g)) + phi
    th2 = 2 * math.pi * (16000.0 * T + (f_m * T + g)) + phi + dphi
    env = A * np.exp(-T / tau)
    X = env * (np.cos(th1) + B * np.cos(th2))
    Y = env * (np.sin(th1) - B * np.sin(th2))
    return QuadratureRecord(TimeSeries(0.0, DT, X), TimeSeries(0.0, DT, Y))


class TestFitRingdown:
    def test_reference_point_exact(self):
        # tau = 2/(2*pi*6 kHz) = 53 us gives an effective width of 2*pi*6 kHz
        tau = 2.0 / (2 * math.pi * 6000.0)
        assert tau == pytest.approx(53e-6, rel=2e-3)
        rec = make_record(5.0, tau, 3.0, 0.8, 0.9, -0.5)
        fit = fit_ringdown(rec)
        truth = [5.0, tau, 3.0, 0.8, 0.9, -0.5]
        for got, want in zip(fit.params(), truth):
            assert got == pytest.approx(want, rel=1e-6)
        assert fit.gamma_eff == pytest.approx(2 * math.pi * 6000.0, rel=1e-9)

    def test_gamma_tau_identity(self):
        rec = make_record(2.0, 200e-6, -40.0, 1.5, 0.5, 0.7)
        fit = fit_ringdown(rec)
        assert abs(fit.gamma_eff * fit.tau - 2.0) < 1e-15

    def test_random_draw_box(self):
        # documented box: tau in [20 us, 5 ms], |f_m| in [1, 100] Hz (the
        # lower edge keeps relative recovery well defined), B in [0.1, 2]
        rng = np.random.default_rng(100)
        for _ in range(25):
            A = rng.uniform(0.5, 50)
            tau = rng.uniform(20e-6, 5e-3)
            f_m = rng.uniform(1, 100) * rng.choice([-1, 1])
            phi = rng.uniform(0.2, 6.0)
            B = rng.uniform(0.1, 2.0)
            dphi = rng.uniform(0.2, 6.0)
            rec = make_record(A, tau, f_m, phi, B, dphi)
            fit = fit_ringdown(rec)
            wrap = lambda a: (a + math.pi) % (2 * math.pi) - math.pi
            truth = np.array([A, tau, f_m, wrap(phi), B, wrap(dphi)])
            rel = np.abs(fit.params() - truth) / np.abs(truth)
            assert rel.max() < 1e-6

    def test_anti_damped(self):
        rec = make_record(1.0, -300e-6, 10.0, 0.4, 0.8, 0.2)
        fit = fit_ringdown(rec)
        assert fit.tau == pytest.approx(-300e-6, rel=1e-6)
        assert fit.gamma_eff < 0

    def test_free_fit_of_single_tone_record(self):
        # B = 0 leaves the delta_phi column of the Jacobian zero: J^T J is singular
        rec = make_record(3.0, 400e-6, 12.0, 1.0, 0.0, 0.0)
        fit = fit_ringdown(rec)
        assert fit.converged
        assert fit.A == pytest.approx(3.0, rel=1e-8)
        assert fit.f_m == pytest.approx(12.0, abs=1e-5)
        assert fit.B == pytest.approx(0.0, abs=1e-9)

    def test_white_noise_only(self):
        # documented behavior: divergence or amplitude consistent with zero
        rng = np.random.default_rng(9)
        rec = make_record(0.0, 1e-3, 0.0, 0.0, 0.5, 0.0, noise=1.0, rng=rng)
        try:
            fit = fit_ringdown(rec)
        except FitDiverged:
            return
        assert abs(fit.A) < 5 * math.sqrt(abs(fit.covariance[0, 0])) + 0.5

    def test_window_out_of_range(self):
        rec = make_record(1.0, 1e-3, 0.0, 0.0, 0.5, 0.0)
        with pytest.raises(WindowOutOfRange):
            fit_ringdown(rec, window=(0.009, 0.02))

    def test_covariance_scale_on_noisy_data(self):
        rng = np.random.default_rng(31)
        draws = []
        for k in range(40):
            rec = make_record(5.0, 300e-6, 3.0, 0.8, 0.9, -0.5,
                              noise=0.05, rng=rng)
            fit = fit_ringdown(rec)
            draws.append((fit.f_m - 3.0) / fit.f_m_err)
        # normalized errors should be ~ unit scatter
        assert 0.5 < np.std(draws) < 2.0


class TestTransientShift:
    def test_zero_shift_noiseless_is_exact_zero(self):
        rec = make_record(5.0, 4.0, 3.0, 0.8, 0.9, -0.5)
        base = fit_ringdown(rec)
        sx, sy = fit_transient_shift(rec, base)
        assert abs(sx.delta_fm0) < 1e-6 and abs(sx.c) < 1e-10
        assert abs(sy.delta_fm0) < 1e-6 and abs(sy.c) < 1e-10

    @pytest.mark.parametrize("tau_s,expect_x,expect_y", [
        (10e-6, 0.143202, 0.216930),
        (50e-6, 0.626448, 0.665702),
        (150e-6, 0.946271, 0.756049),
    ])
    def test_injection_recovery_sweep(self, tau_s, expect_x, expect_y):
        # frozen oracle: recovery factor of the linear-in-t estimator for an
        # exponentially decaying injected shift (delta0 chosen so the total
        # extra phase stays << 1 cycle). The estimator tracks the LS slope of
        # the decayed exponential, so fast shifts (tau_s << window) are
        # strongly biased low; slow shifts approach full recovery.
        # The factors hold at the least-squares optimum of the base fit (for
        # 150 us that is tau ~ 5.3 s, not the |tau| -> inf asymptote).
        delta0 = 100.0
        rec = make_shifted_record(5.0, 4.0, 3.0, 0.8, 0.9, -0.5, delta0, tau_s)
        base = fit_ringdown(rec)
        sx, sy = fit_transient_shift(rec, base)
        assert sx.delta_fm0 / delta0 == pytest.approx(expect_x, rel=1e-3)
        assert sy.delta_fm0 / delta0 == pytest.approx(expect_y, rel=1e-3)

    def test_slow_shift_recovered_within_20_percent(self):
        # the linearization is accurate once the shift decays slowly compared
        # to the early window
        delta0 = 100.0
        rec = make_shifted_record(5.0, 4.0, 3.0, 0.8, 0.9, -0.5, delta0, 150e-6)
        base = fit_ringdown(rec)
        sx, _ = fit_transient_shift(rec, base)
        assert sx.delta_fm0 == pytest.approx(delta0, rel=0.2)

    def test_time_origin_equivariance(self):
        shift = 64e-6
        rec = make_shifted_record(5.0, 4.0, 3.0, 0.8, 0.9, -0.5, 100.0, 150e-6)
        rec2 = QuadratureRecord(
            TimeSeries(shift, DT, rec.x_quad.samples),
            TimeSeries(shift, DT, rec.y_quad.samples))
        b1 = fit_ringdown(rec)
        s1, _ = fit_transient_shift(rec, b1)
        b2 = fit_ringdown(rec2, window=(1e-4 + shift, 1e-3 + shift))
        s2, _ = fit_transient_shift(rec2, b2, early_window=(shift, 5e-5 + shift))
        assert s2.delta_fm0 == pytest.approx(s1.delta_fm0, rel=1e-6)
        assert s2.c != pytest.approx(s1.c, rel=1e-3)

    def test_window_overlap_rejected(self):
        rec = make_record(5.0, 4.0, 3.0, 0.8, 0.9, -0.5)
        base = fit_ringdown(rec)
        with pytest.raises(WindowOverlap):
            fit_transient_shift(rec, base, early_window=(0.0, 2e-4))

    def test_invalid_base_rejected(self):
        rec = make_record(5.0, 4.0, 3.0, 0.8, 0.9, -0.5)
        base = fit_ringdown(rec)
        base.converged = False
        with pytest.raises(BaseFitInvalid):
            fit_transient_shift(rec, base)


class TestAggregateShifts:
    def fit(self, v):
        return ShiftFit(delta_fm0=v, c=0.0, covariance=np.eye(2),
                        window=(0.0, 5e-5))

    def test_constant_inputs(self):
        stats = aggregate_shifts([self.fit(7.0)] * 5)
        assert stats.mean == 7.0 and stats.std == 0.0

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            aggregate_shifts([self.fit(1.0)])

    def test_large_scatter_null_compatibility(self):
        # mean 48 Hz with std 1390 Hz over two 50 s series (125 group fits
        # each) is well within 2 sigma of zero
        n = 250
        rng = np.random.default_rng(0)
        values = rng.standard_normal(n) * 1390.0
        values = values - values.mean() + 48.0
        stats = aggregate_shifts([self.fit(v) for v in values])
        assert stats.mean == pytest.approx(48.0, abs=1e-9)
        assert abs(stats.z_score) < 2.0
        assert stats.null_compatible()

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2,
                    max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_two_pass_moments(self, values):
        stats = aggregate_shifts([self.fit(v) for v in values])
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        assert stats.mean == pytest.approx(mean, rel=1e-12, abs=1e-9)
        assert stats.std == pytest.approx(math.sqrt(var), rel=1e-9, abs=1e-9)
        assert np.sum(stats.histogram[0]) <= len(values)


class TestWidthShiftScan:
    def synthetic_fits(self, slope, offset, fms, noise, seed=1):
        rng = np.random.default_rng(seed)
        fits = []
        for fm in fms:
            width_hz = slope * fm + offset + rng.standard_normal() * noise
            tau = 2.0 / (2 * math.pi * width_hz)
            cov = np.zeros((6, 6))
            cov[1, 1] = (tau * 0.01) ** 2
            cov[2, 2] = 1.0
            fits.append(RingdownFit(A=1.0, tau=tau, f_m=fm, phi=0.0, B=0.9,
                                    delta_phi=0.0, covariance=cov,
                                    window=(1e-4, 1e-3)))
        return fits

    def test_recovers_line(self):
        fms = np.linspace(-2200, 2200, 9)
        fits = self.synthetic_fits(2.6734, 37.0, fms, noise=40.0)
        scan = width_vs_shift_scan(fits)
        assert scan.slope == pytest.approx(2.6734, rel=0.05)
        assert scan.offset == pytest.approx(37.0, abs=60.0)

    def test_degenerate_span(self):
        fits = self.synthetic_fits(2.67, 0.0, [100.0, 100.0], noise=0.0)
        with pytest.raises(DegenerateSpan):
            width_vs_shift_scan(fits)
        with pytest.raises(DegenerateSpan):
            width_vs_shift_scan(fits[:1])


class TestBetaBound:
    def stats(self, mean, std, n=250):
        counts, edges = np.histogram([mean], bins=4)
        return ShiftStatistics(mean=mean, std=std, n_samples=n,
                               histogram=(counts, edges))

    def operating(self, alpha_sq=1200.0, n_bar=5.0):
        return CooledState(n_bar=n_bar, gamma_eff=2 * math.pi * 6000.0,
                           omega_eff=MODE.omega_m, alpha_sq=alpha_sq)

    def test_degenerate_zero(self):
        b = beta_bound(self.stats(0.0, 0.0), self.operating(), MODE)
        assert b.beta0_limit == 0.0 and b.degenerate

    def test_formula(self):
        stats = self.stats(48.0, 1390.0)
        op = self.operating()
        b = beta_bound(stats, op, MODE)
        delta_max = 48.0 + 2 * 1390.0 / math.sqrt(250)
        eps = 2 * delta_max / (MODE.omega_m / (2 * math.pi))
        amp2 = 2 * MODE.x_zpf() ** 2 * (2 * 1200.0 + 2 * 5.0 + 1)
        bt = eps / ((MODE.mass * MODE.omega_m) ** 2 * amp2)
        from gupsim.dynamics import HBAR, L_P
        assert b.delta_f_max == pytest.approx(delta_max, rel=1e-12)
        assert b.epsilon_max == pytest.approx(eps, rel=1e-12)
        assert b.beta0_limit == pytest.approx(bt * (HBAR / L_P) ** 2, rel=1e-12)
        assert b.convention == "mean-square-displacement"

    def test_amplitude_scaling(self):
        # doubling |alpha|^2 in the coherent-dominated regime halves the bound
        stats = self.stats(10.0, 500.0)
        b1 = beta_bound(stats, self.operating(alpha_sq=2e4, n_bar=0.0), MODE)
        b2 = beta_bound(stats, self.operating(alpha_sq=4e4, n_bar=0.0), MODE)
        assert b1.beta0_limit / b2.beta0_limit == pytest.approx(2.0, rel=1e-4)

    def test_uncalibrated(self):
        with pytest.raises(UncalibratedCampaign):
            beta_bound(self.stats(1.0, 1.0), self.operating(alpha_sq=0.0), MODE)

    def test_perturbative_guard(self):
        with pytest.raises(ValueError):
            beta_bound(self.stats(1e5, 0.0), self.operating(), MODE)

    @given(std=st.floats(min_value=1.0, max_value=1e3),
           factor=st.floats(min_value=1.0, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_monotonicity(self, std, factor):
        op = self.operating()
        b1 = beta_bound(self.stats(5.0, std), op, MODE)
        b2 = beta_bound(self.stats(5.0, std * factor), op, MODE)
        assert b2.beta0_limit >= b1.beta0_limit
        b3 = beta_bound(self.stats(5.0, std), self.operating(alpha_sq=1200.0 / factor),
                        MODE)
        assert b3.beta0_limit >= b1.beta0_limit
