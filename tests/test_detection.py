import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sig

import gupsim.detection
from gupsim.detection import (
    DetectionConfig,
    SpectrumEstimate,
    TimeSeries,
    average_records,
    average_spectra,
    coherent_peak_analysis,
    fit_lorentzian_pair,
    lockin_demodulate,
    lockin_filter_response,
    stationary_envelope,
    synthesize_bhd,
    welch_psd,
)
from gupsim.errors import (
    DurationTooShort,
    NyquistViolation,
    PeakNotResolved,
    RatioUndefined,
    SegmentTooLong,
)
from gupsim.optomech import CooledState

DET = DetectionConfig()
TWO_PI = 2 * math.pi


def tone_series(freq_hz, amplitude, duration, phase=0.0, t0=0.0):
    fs = DET.sample_rate
    n = int(duration * fs)
    t = t0 + np.arange(n) / fs
    return TimeSeries(t0=t0, dt=1 / fs,
                      samples=amplitude * np.cos(TWO_PI * freq_hz * t + phase))


def projected_amplitude(ts: TimeSeries, freq_hz, skip=0.002):
    """LS amplitude of a tone at freq_hz, ignoring the filter start-up."""
    t = ts.times
    m = t >= t[0] + skip
    basis = np.column_stack([np.cos(TWO_PI * freq_hz * t[m]),
                             np.sin(TWO_PI * freq_hz * t[m])])
    coef, *_ = np.linalg.lstsq(basis, ts.samples[m], rcond=None)
    return math.hypot(*coef)


class TestDetectionConfig:
    def test_sideband_positions(self):
        assert DET.stokes_freq == pytest.approx(537800.0)
        assert DET.antistokes_freq == pytest.approx(513800.0)
        assert DET.stokes_freq - DET.antistokes_freq == pytest.approx(24000.0)

    def test_default_lockin_reference(self):
        assert DET.lockin_ref == pytest.approx(DET.omega_exc - TWO_PI * 4000.0)

    def test_line_offsets(self):
        assert DET.line_offsets == (8000.0, 16000.0)
        # the reference stays 4 kHz below the excitation: only the LO offset moves them
        moved = DetectionConfig(delta_lo=TWO_PI * 10e3)
        assert moved.line_offsets == pytest.approx((6000.0, 14000.0), abs=1e-6)

    def test_lo_offset_guard(self):
        with pytest.raises(ValueError):
            DetectionConfig(delta_lo=0.5 * DET.omega_exc)

    def test_sample_rate_guard(self):
        with pytest.raises(ValueError):
            DetectionConfig(sample_rate=1.0e6)

    def test_background_and_reference_guard(self):
        with pytest.raises(ValueError, match="background_psd"):
            DetectionConfig(background_psd=-1e-5)
        # an excitation at 3 kHz puts the reference 4 kHz below it at -1 kHz
        with pytest.raises(ValueError, match="lockin_ref"):
            DetectionConfig(omega_exc=TWO_PI * 3e3, delta_lo=TWO_PI * 100.0)


class TestSynthesizeBhd:
    def test_variance_matches_psd_budget(self):
        state = CooledState(n_bar=5.0, gamma_eff=TWO_PI * 6000.0,
                            omega_eff=DET.omega_exc)
        ts = synthesize_bhd(state, DET, duration=0.5, seed=3)
        # (n+1)/2 + n/2 thermal + flat floor over the Nyquist band
        expect = (2 * 5.0 + 1) / 2 + DET.background_psd * DET.sample_rate / 2
        assert np.var(ts.samples) == pytest.approx(expect, rel=0.05)

    def test_seeded_reproducibility(self):
        state = CooledState(n_bar=2.0, gamma_eff=TWO_PI * 6000.0,
                            omega_eff=DET.omega_exc)
        a = synthesize_bhd(state, DET, duration=0.05, seed=11)
        b = synthesize_bhd(state, DET, duration=0.05, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_samples_contiguous(self):
        # an array of their own, not a strided view of a complex envelope, so
        # save_raw writes them without a copy
        state = CooledState(n_bar=2.0, gamma_eff=TWO_PI * 6000.0,
                            omega_eff=DET.omega_exc)
        assert synthesize_bhd(state, DET, duration=0.05, seed=11).samples.flags.c_contiguous

    def test_duration_guard(self):
        state = CooledState(n_bar=5.0, gamma_eff=TWO_PI * 6000.0,
                            omega_eff=DET.omega_exc)
        with pytest.raises(DurationTooShort):
            synthesize_bhd(state, DET, duration=1e-4, seed=0)

    def test_nyquist_guard(self):
        det = DetectionConfig(omega_exc=TWO_PI * 610e3, sample_rate=2.51e6)
        state = CooledState(n_bar=5.0, gamma_eff=TWO_PI * 6000.0,
                            omega_eff=TWO_PI * 1.24e6)
        with pytest.raises(NyquistViolation):
            synthesize_bhd(state, det, duration=0.1, seed=0)

    def test_sidebands_separated_by_24_khz(self):
        state = CooledState(n_bar=5.0, gamma_eff=TWO_PI * 6000.0,
                            omega_eff=DET.omega_exc)
        ts = synthesize_bhd(state, DET, duration=1.0, seed=5)
        spec = welch_psd(ts, segment_length=25000)
        fit = fit_lorentzian_pair(spec, DET)
        sep = fit.stokes.center - fit.antistokes.center
        assert sep == pytest.approx(24000.0, abs=200.0)

    def test_ground_state_has_no_antistokes(self):
        state = CooledState(n_bar=0.0, gamma_eff=TWO_PI * 6000.0,
                            omega_eff=DET.omega_exc)
        ts = synthesize_bhd(state, DET, duration=1.0, seed=17)
        spec = welch_psd(ts, segment_length=50000)
        fit = fit_lorentzian_pair(spec, DET)
        assert fit.stokes.area == pytest.approx(0.5, rel=0.1)
        assert abs(fit.antistokes.area) < 3 * fit.antistokes.area_err + 0.01


class TestLockinDemodulate:
    def test_tone_at_reference_gives_dc(self):
        ts = tone_series(DET.lockin_ref / TWO_PI, 1.0, 0.02, phase=0.3)
        rec = lockin_demodulate(ts, DET)
        t = rec.times
        m = t > 0.005
        x = rec.x_quad.samples[m]
        y = rec.y_quad.samples[m]
        assert np.std(x) < 1e-3 and np.std(y) < 1e-3
        assert math.hypot(np.mean(x), np.mean(y)) == pytest.approx(1.0, abs=1e-3)

    def test_sideband_tones_land_at_8_and_16_khz(self):
        # f_m = 0: tones at omega_exc -/+ delta_lo emerge at exactly 8 and 16 kHz
        lo = tone_series(DET.antistokes_freq, 1.0, 0.1)
        hi = tone_series(DET.stokes_freq, 1.0, 0.1)
        rec_lo = lockin_demodulate(lo, DET)
        rec_hi = lockin_demodulate(hi, DET)
        h8 = abs(lockin_filter_response(DET, [8000.0])[0])
        h16 = abs(lockin_filter_response(DET, [16000.0])[0])
        assert projected_amplitude(rec_lo.x_quad, 8000.0) == pytest.approx(h8, rel=1e-3)
        assert projected_amplitude(rec_hi.x_quad, 16000.0) == pytest.approx(h16, rel=1e-3)

    @given(st.floats(min_value=-1000.0, max_value=1000.0))
    @settings(max_examples=8, deadline=None)
    def test_frequency_bookkeeping(self, f_m):
        # mechanical offset f_m maps to 8 kHz - f_m and 16 kHz + f_m; the sum
        # of the two output frequencies is 24 kHz independent of f_m
        f_lo = 8000.0 - f_m
        f_hi = 16000.0 + f_m
        assert f_lo + f_hi == pytest.approx(24000.0, abs=1e-9)
        lo = tone_series(DET.antistokes_freq + f_m, 1.0, 0.08)
        rec = lockin_demodulate(lo, DET)
        h = abs(lockin_filter_response(DET, [f_lo])[0])
        assert projected_amplitude(rec.x_quad, f_lo) == pytest.approx(h, rel=2e-3)

    def test_passband_droop_below_one_percent(self):
        # the 8 kHz line sits well inside the 20 kHz passband
        h8 = abs(lockin_filter_response(DET, [8000.0])[0])
        assert h8 > 0.99
        ts = tone_series(DET.antistokes_freq, 1.0, 0.1)
        rec = lockin_demodulate(ts, DET)
        assert projected_amplitude(rec.x_quad, 8000.0) > 0.99

    def test_linearity(self):
        a = tone_series(DET.antistokes_freq, 1.0, 0.02)
        b = tone_series(DET.stokes_freq + 300.0, 0.7, 0.02, phase=1.1)
        combo = TimeSeries(a.t0, a.dt, 2.0 * a.samples + 3.0 * b.samples)
        rec_a = lockin_demodulate(a, DET)
        rec_b = lockin_demodulate(b, DET)
        rec_c = lockin_demodulate(combo, DET)
        np.testing.assert_allclose(
            rec_c.x_quad.samples,
            2.0 * rec_a.x_quad.samples + 3.0 * rec_b.x_quad.samples,
            rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            rec_c.y_quad.samples,
            2.0 * rec_a.y_quad.samples + 3.0 * rec_b.y_quad.samples,
            rtol=0, atol=1e-12)

    def test_degenerate_filter_rejected(self):
        # refused where the settings are built, before a lock-in is designed
        for key, value in (("lockin_bandwidth", 2e6), ("lockin_bandwidth", 0.0),
                           ("lockin_filter_order", 0)):
            with pytest.raises(ValueError, match=key):
                DetectionConfig(**{key: value})

    def test_average_records(self):
        a = lockin_demodulate(tone_series(DET.antistokes_freq, 1.0, 0.01), DET)
        b = lockin_demodulate(tone_series(DET.antistokes_freq, 3.0, 0.01), DET)
        avg = average_records([a, b])
        np.testing.assert_array_equal(
            avg.x_quad.samples, np.mean([a.x_quad.samples, b.x_quad.samples], axis=0))
        np.testing.assert_array_equal(
            avg.y_quad.samples, np.mean([a.y_quad.samples, b.y_quad.samples], axis=0))


class TestWelchPsd:
    def test_white_noise_level(self):
        rng = np.random.default_rng(5)
        fs = 1e5
        sigma2 = 2.5
        ts = TimeSeries(0.0, 1 / fs, rng.standard_normal(400000) * math.sqrt(sigma2))
        spec = welch_psd(ts, segment_length=2000)
        # one-sided white level sigma^2/(fs/2)
        assert np.mean(spec.psd[5:-5]) == pytest.approx(sigma2 / (fs / 2), rel=0.05)

    def test_parseval(self):
        rng = np.random.default_rng(6)
        fs = 1e5
        ts = TimeSeries(0.0, 1 / fs, rng.standard_normal(300000))
        spec = welch_psd(ts, segment_length=3000)
        integral = np.trapezoid(spec.psd, spec.freqs)
        assert integral == pytest.approx(np.var(ts.samples), rel=0.01)

    def test_sine_peak_area(self):
        fs = 1e5
        amp = 0.8
        ts = TimeSeries(
            0.0, 1 / fs, amp * np.cos(TWO_PI * 12345.6 * np.arange(400000) / fs))
        spec = welch_psd(ts, segment_length=4000)
        peak_bin = np.argmax(spec.psd)
        lo = max(peak_bin - 10, 0)
        area = np.sum(spec.psd[lo:peak_bin + 11]) * spec.resolution
        assert area == pytest.approx(amp ** 2 / 2, rel=0.02)

    def test_segment_too_long(self):
        ts = TimeSeries(0.0, 1e-5, np.zeros(100) + 0.0)
        with pytest.raises(SegmentTooLong):
            welch_psd(ts, segment_length=200)

    def test_linewidth_recovery(self):
        state = CooledState(n_bar=5.0, gamma_eff=TWO_PI * 6000.0,
                            omega_eff=DET.omega_exc)
        spectra = [welch_psd(synthesize_bhd(state, DET, 1.0, [8, k]),
                             segment_length=50000) for k in range(4)]
        fit = fit_lorentzian_pair(average_spectra(spectra), DET)
        width = 0.5 * (fit.stokes.width + fit.antistokes.width)
        assert width == pytest.approx(6000.0, rel=0.05)

    @pytest.mark.parametrize("n, seg", [(40_000, 1_000), (40_000, 1_001), (40_123, 1_000),
                                        (40_123, 999), (5_000, 5_000), (5_001, 5_001)],
                             ids=["even", "odd", "even_remainder", "odd_remainder",
                                  "even_seg_eq_n", "odd_seg_eq_n"])
    def test_equals_scipy_welch(self, n, seg):
        # scipy's welch is the definition; the sums run in another order
        x = np.random.default_rng(seg).standard_normal(n)
        ts = TimeSeries(0.0, 1 / 2.5e6, x)
        spec = welch_psd(ts, segment_length=seg)
        freqs, psd = sig.welch(x, ts.sample_rate, window="hann", nperseg=seg,
                               noverlap=seg // 2, detrend=False)
        np.testing.assert_array_equal(spec.freqs, freqs)
        np.testing.assert_allclose(spec.psd, psd, rtol=1e-12, atol=0)
        _, _, stft = sig.stft(x, ts.sample_rate, window="hann", nperseg=seg,
                              noverlap=seg // 2, detrend=False, boundary=None,
                              padded=False)
        assert spec.n_averages == stft.shape[-1]
        assert spec.resolution == ts.sample_rate / seg

    def test_memory_bounded(self):
        # one block of segments is held at a time, not a padded copy of the series
        ts = TimeSeries(0.0, 1 / 2.5e6, np.random.default_rng(3).standard_normal(2_500_000))
        tracemalloc.start()
        try:
            welch_psd(ts, segment_length=50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


class TestAverageSpectra:
    @staticmethod
    def spectrum(sample_rate, seed):
        x = np.random.default_rng(seed).standard_normal(100_000)
        return welch_psd(TimeSeries(0.0, 1 / sample_rate, x),
                         segment_length=round(sample_rate / 50.0))

    def test_weighted_by_averages(self):
        a, b = self.spectrum(2.5e6, 1), self.spectrum(2.5e6, 2)
        b.n_averages *= 3
        avg = average_spectra([a, b])
        np.testing.assert_allclose(avg.psd, (a.psd + 3 * b.psd) / 4, rtol=1e-15)
        assert avg.n_averages == a.n_averages + b.n_averages
        np.testing.assert_array_equal(avg.freqs, a.freqs)

    def test_sample_rates_1ppm_apart_refused(self):
        # the bins are 2.5 mHz apart, far inside np.allclose's default rtol
        a, b = self.spectrum(2.5e6, 1), self.spectrum(2.5e6 * (1 + 1e-6), 2)
        assert a.freqs.shape == b.freqs.shape and np.allclose(a.freqs, b.freqs)
        with pytest.raises(ValueError, match="frequency grid"):
            average_spectra([a, b])

    def test_resolution_mismatch_refused(self):
        a, b = self.spectrum(2.5e6, 1), self.spectrum(2.5e6, 2)
        b.resolution *= 1 + 1e-12
        with pytest.raises(ValueError, match="frequency grid"):
            average_spectra([a, b])


class TestStationaryCarriers:
    """The carriers of stationary chunks are cached; chunks must not depend on the cache."""

    STATE = CooledState(n_bar=5.0, gamma_eff=TWO_PI * 6000.0, omega_eff=DET.omega_exc,
                        alpha_sq=35.0)

    def chunk(self, seed, duration=1.0, state=STATE):
        return synthesize_bhd(state, DET, duration, seed)

    def test_chunk_independent_of_cache(self):
        cache = gupsim.detection._stationary_carriers
        cache.cache_clear()
        cold = self.chunk([4, 1])
        # calls at another duration, then at other sideband frequencies, take
        # the cache; the second chunk after them is made from the cache
        self.chunk([4, 0], duration=0.01)
        self.chunk([4, 0], state=replace(self.STATE,
                                         omega_eff=DET.omega_exc + TWO_PI * 1e3))
        warm = [self.chunk([4, 1]), self.chunk([4, 1])]
        assert cache.cache_info().hits == 1
        for ts in warm:
            assert (ts.t0, ts.dt) == (cold.t0, cold.dt)
            assert ts.samples.tobytes() == cold.samples.tobytes()

    def test_cached_carriers_are_read_only(self):
        for c in gupsim.detection._stationary_carriers(DET.stokes_freq, DET.antistokes_freq,
                                                       1.0 / DET.sample_rate, 1000):
            with pytest.raises(ValueError):
                c[0] = 1.0


class TestLorentzianPair:
    def synth_spec(self, n_bar, alpha_sq, seconds, seed, gamma_hz=6000.0):
        state = CooledState(n_bar=n_bar, gamma_eff=TWO_PI * gamma_hz,
                            omega_eff=DET.omega_exc, alpha_sq=alpha_sq)
        specs = [welch_psd(synthesize_bhd(state, DET, 1.0, [seed, k]),
                           segment_length=50000) for k in range(seconds)]
        return average_spectra(specs)

    def test_occupancy_round_trip(self):
        spec = self.synth_spec(5.0, 0.0, 8, 22)
        fit = fit_lorentzian_pair(spec, DET)
        assert fit.corrected_ratio == pytest.approx(1.2, abs=0.06)
        assert fit.occupancy == pytest.approx(5.0, abs=0.75)

    def test_widths_agree(self):
        spec = self.synth_spec(5.0, 0.0, 6, 23)
        fit = fit_lorentzian_pair(spec, DET)
        joint = math.hypot(fit.stokes.width_err, fit.antistokes.width_err)
        assert abs(fit.stokes.width - fit.antistokes.width) < 3 * joint

    def test_ratio_not_above_1_leaves_occupancy_undefined(self):
        # noiseless pair, anti-Stokes area 0.5 above Stokes area 0.4: R = 0.8
        f = np.arange(500e3, 552e3, 50.0)

        def lorentz(center, area, width=6000.0):
            return (area / math.pi) * (width / 2) / ((f - center) ** 2 + (width / 2) ** 2)

        psd = lorentz(DET.stokes_freq, 0.4) + lorentz(DET.antistokes_freq, 0.5) + 1e-3
        fit = fit_lorentzian_pair(SpectrumEstimate(freqs=f, psd=psd, resolution=50.0,
                                                   n_averages=1), DET)
        assert fit.corrected_ratio == pytest.approx(0.8, rel=1e-6)
        for name in ("occupancy", "occupancy_err"):
            with pytest.raises(RatioUndefined,
                               match=r"^sideband ratio R = 0\.8000 \+/- 0\.0000 is not "
                                     r"above 1: n_bar = 1/\(R - 1\) is undefined$"):
                getattr(fit, name)

    def test_window_outside_support(self):
        spec = SpectrumEstimate(freqs=np.linspace(1e3, 2e3, 100),
                                psd=np.ones(100), resolution=10.0, n_averages=1)
        with pytest.raises(ValueError):
            fit_lorentzian_pair(spec, DET)


class TestCoherentPeak:
    def test_round_trip(self):
        helper = TestLorentzianPair()
        spec = helper.synth_spec(6.6, 35.0, 10, 31)
        fit = fit_lorentzian_pair(spec, DET)
        alpha_sq = coherent_peak_analysis(spec, fit)
        assert alpha_sq == pytest.approx(35.0, rel=0.12)

    def test_ratio_arithmetic(self):
        # n=6.6, |alpha|^2=35: coherent/thermal area ratio 35/7.1
        assert 35.0 / (6.6 + 0.5) == pytest.approx(4.93, abs=0.01)

    def test_zero_excitation_not_resolved(self):
        helper = TestLorentzianPair()
        spec = helper.synth_spec(5.0, 0.0, 6, 32)
        fit = fit_lorentzian_pair(spec, DET)
        with pytest.raises(PeakNotResolved):
            coherent_peak_analysis(spec, fit)


def test_sideband_asymmetry_statistical():
    # corrected Stokes - anti-Stokes area difference is positive (>= 200 averages)
    helper = TestLorentzianPair()
    for n_bar, seed in ((1.0, 41), (20.0, 42)):
        spec = helper.synth_spec(n_bar, 0.0, 5, seed)
        assert spec.n_averages >= 200
        fit = fit_lorentzian_pair(spec, DET)
        diff = fit.stokes.area - fit.antistokes.area
        err = math.hypot(fit.stokes.area_err, fit.antistokes.area_err)
        assert diff > 0 and diff > 2 * err


@pytest.mark.slow
def test_thermometry_consistency_across_occupancies():
    # inverse-ratio estimate within 15% up to n_bar = 20; at n_bar = 100 the
    # asymmetry is statistically indistinguishable from zero with the default
    # (8 s equivalent) averaging — the classical limit
    helper = TestLorentzianPair()
    for n_bar, seed in ((1.0, 51), (5.0, 55), (20.0, 70)):
        fit = fit_lorentzian_pair(helper.synth_spec(n_bar, 0.0, 8, seed), DET)
        assert fit.occupancy == pytest.approx(n_bar, rel=0.15)
    fit = fit_lorentzian_pair(helper.synth_spec(100.0, 0.0, 8, 150), DET)
    z = (fit.corrected_ratio - 1.0) / fit.corrected_ratio_err
    assert abs(z) < 1.96


def test_envelope_variance_and_linewidth():
    rng = np.random.default_rng(2)
    n = 400000
    dt = 4e-7
    gamma = TWO_PI * 6000.0
    u = stationary_envelope(rng, n, dt, gamma, 5.0)
    assert np.mean(np.abs(u) ** 2) == pytest.approx(5.0, rel=0.1)
    # autocorrelation at lag tau should fall to exp(-gamma*tau/2)
    lag = int(round((2.0 / gamma) / dt))
    ac = np.mean(u[lag:] * np.conj(u[:-lag])).real / np.mean(np.abs(u) ** 2)
    assert ac == pytest.approx(math.exp(-1.0), rel=0.1)
