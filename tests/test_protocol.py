import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gupsim.detection
import gupsim.protocol
from gupsim.detection import DetectionConfig, average_records, lockin_demodulate, lockin_sos
from gupsim.dynamics import DeformationParams, MechanicalMode, beta_tilde_for_epsilon
from gupsim.errors import NegativeOccupancy, OutsideLinearRegime
from gupsim.estimation import fit_ringdown, fit_transient_shift
from gupsim.optomech import OpticalCavity, optical_damping_and_spring
from gupsim.protocol import (
    CampaignConfig,
    ProtocolSchedule,
    analyze_dataset,
    predicted_shift_at_switchoff,
    run_cycle,
    run_series,
)
from gupsim.storage import load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "null_campaign.json"

TWO_PI = 2 * math.pi
MODE = MechanicalMode(omega_m=TWO_PI * 525800.0,
                      gamma_m=TWO_PI * 525800.0 / 6.4e6,
                      mass=1e-10, T_bath=9.0)
# microkelvin bath keeps the thermal drive negligible for noise-free checks
COLD_MODE = replace(MODE, T_bath=1e-6)


def quiet_config(**kw):
    defaults = dict(
        mode=COLD_MODE, cavity=OpticalCavity(), deformation=DeformationParams(0.0),
        detection=DetectionConfig(background_psd=0.0),
        schedule=ProtocolSchedule(), seed=5, n_bar=0.0, alpha_sq=1e8,
        switch_burst=False)
    defaults.update(kw)
    return CampaignConfig(**defaults)


def noisy_config(**kw):
    defaults = dict(
        mode=MODE, cavity=OpticalCavity(), deformation=DeformationParams(0.0),
        detection=DetectionConfig(), schedule=ProtocolSchedule(), seed=5,
        n_bar=5.0, alpha_sq=1200.0)
    defaults.update(kw)
    return CampaignConfig(**defaults)


class TestSchedule:
    def test_cycle_math(self):
        s = ProtocolSchedule()
        assert s.cycle == pytest.approx(0.040)
        assert s.cycles_per_series == 1250

    def test_from_series(self):
        s = ProtocolSchedule().with_duration(0.8)
        assert s.cycles_per_series == 20
        # the rest of the schedule is kept; the count follows its cycle length
        s = ProtocolSchedule(measure=0.02, group_size=4).with_duration(0.8)
        assert s == ProtocolSchedule(measure=0.02, group_size=4, cycles_per_series=16)

    def test_group_math(self):
        # a 50 s series at 40 ms per cycle gives 1250 cycles and 125 averaged
        # records at group size 10
        s = ProtocolSchedule()
        assert s.cycles_per_series // s.group_size == 125


class TestConfig:
    def test_short_pump_warns(self):
        with pytest.warns(UserWarning):
            quiet_config(gamma_eff=TWO_PI * 10.0)

    def test_long_measure_warns(self):
        mode = replace(COLD_MODE, gamma_m=TWO_PI * 20.0)
        with pytest.warns(UserWarning):
            quiet_config(mode=mode)

    def test_operating_state(self):
        cfg = noisy_config()
        st = cfg.operating_state
        assert st.n_bar == 5.0
        assert st.alpha_sq == pytest.approx(1200.0)
        assert st.omega_eff == cfg.detection.omega_exc

    @pytest.mark.parametrize("kw, error", [
        (dict(gamma_eff=0.0), ValueError),
        (dict(gamma_eff=-TWO_PI * 6000.0), ValueError),
        (dict(n_bar=-1.0), NegativeOccupancy),
        (dict(alpha_sq=-1.0), ValueError),
        (dict(cavity=OpticalCavity(probe_detuning=TWO_PI * 5e5)), OutsideLinearRegime),
        (dict(series=((0.0, 1200.0), (TWO_PI * 5e5, 1200.0))), OutsideLinearRegime),
        (dict(series=((0.0, 1200.0), (0.0, -1.0))), ValueError),
        (dict(series=()), ValueError),
    ], ids=["gamma_eff_zero", "gamma_eff_negative", "n_bar_negative", "alpha_sq_negative",
            "probe_detuning", "sweep_detuning", "series_alpha_sq_negative",
            "series_empty"])
    def test_refused_when_built(self, kw, error):
        # the rules of the operating point and of the linear regime hold for
        # every series, so they are checked before any series is made
        with pytest.raises(error):
            noisy_config(**kw)


@pytest.mark.parametrize("alpha_sq, n_bar", [(0.0, 0.0), (1200.0, 0.0), (1200.0, 5.0),
                                             (35.0, 40.0), (1e8, 0.0)])
@pytest.mark.parametrize("delta_f", [50.0, 5000.0])
def test_shift_to_beta0_round_trip(alpha_sq, n_bar, delta_f):
    # delta_f/f = eps/2 inverted to beta0, then the exact law f (sqrt(1+eps) - 1)
    # forward: the two differ by the linearization, -eps/4 relative to first order
    eps = 2 * delta_f / (MODE.omega_m / TWO_PI)
    bt = beta_tilde_for_epsilon(MODE, eps, alpha_sq, n_bar)
    d = DeformationParams.from_beta_tilde(bt)
    cfg = noisy_config(deformation=d, alpha_sq=alpha_sq, n_bar=n_bar)
    shift = predicted_shift_at_switchoff(cfg)
    assert shift == pytest.approx(delta_f, rel=eps / 4)
    assert shift < delta_f


class TestRunCycle:
    def test_record_spans_measure_exactly(self):
        cfg = quiet_config()
        rec = run_cycle(cfg, 0, [5, 0, 0])
        assert rec.x_quad.t0 == 0.0
        n_expect = int(round(cfg.schedule.measure * cfg.detection.record_rate))
        assert len(rec.x_quad) == n_expect
        # the default analysis windows always fit inside
        assert rec.times[-1] >= 1.0e-3 and rec.times[0] <= 0.0

    def test_deterministic(self):
        cfg = quiet_config()
        a = run_cycle(cfg, 3, [5, 0, 3])
        b = run_cycle(cfg, 3, [5, 0, 3])
        assert np.array_equal(a.x_quad.samples, b.x_quad.samples)
        assert np.array_equal(a.y_quad.samples, b.y_quad.samples)

    def test_null_cycle_has_no_shift_mechanism(self):
        # beta0 = 0 and zero probe detuning: constant post-switch-off f_m and
        # a transient shift consistent with zero at the synthesis noise floor
        cfg = quiet_config()
        rec = run_cycle(cfg, 0, [5, 0, 0])
        fit = fit_ringdown(rec)
        assert abs(fit.f_m) < 0.01
        assert fit.gamma_eff_hz == pytest.approx(COLD_MODE.gamma_m / TWO_PI,
                                                 abs=0.01)
        sx, sy = fit_transient_shift(rec, fit)
        assert abs(sx.delta_fm0) < 1.0
        assert abs(sy.delta_fm0) < 1.0

    def test_detuned_probe_matches_spring_model(self):
        cav = OpticalCavity(probe_detuning=0.05 * OpticalCavity().kappa)
        g_opt, d_omega = optical_damping_and_spring(cav, COLD_MODE,
                                                    cav.probe_detuning)
        cfg = quiet_config(cavity=cav)
        rec = run_cycle(cfg, 0, [6, 0, 0])
        fit = fit_ringdown(rec)
        assert fit.f_m == pytest.approx(d_omega / TWO_PI, rel=2e-3)
        assert fit.gamma_eff == pytest.approx(g_opt + COLD_MODE.gamma_m, rel=2e-3)

    def test_deformed_cycle_shifts_fitted_frequency(self):
        # at zero probe detuning with negligible re-thermalization the
        # deformation shift is constant over the record, so the ring-down fit
        # absorbs exactly the predicted frequency offset
        cfg0 = quiet_config(alpha_sq=1e6)
        target = 300.0
        amp_sq = 2 * COLD_MODE.x_zpf() ** 2 * (2 * cfg0.alpha_sq + 1)
        eps = 2 * target / (COLD_MODE.omega_m / TWO_PI)
        bt = eps / ((COLD_MODE.mass * COLD_MODE.omega_m) ** 2 * amp_sq)
        cfg1 = replace(cfg0, deformation=DeformationParams.from_beta_tilde(bt))
        assert predicted_shift_at_switchoff(cfg1) == pytest.approx(target, rel=1e-3)
        fit0 = fit_ringdown(run_cycle(cfg0, 0, [7, 0, 0]))
        fit1 = fit_ringdown(run_cycle(cfg1, 0, [7, 0, 0]))
        assert fit1.f_m - fit0.f_m == pytest.approx(target, rel=0.01)

    def test_deformed_cycle_transient_response(self):
        # the injection also changes the early-window estimate (through the
        # frequency step at switch-off); the differential response at fixed
        # seed is the pipeline's closed-loop sensitivity
        cfg0 = quiet_config(alpha_sq=1e6)
        target = 300.0
        amp_sq = 2 * COLD_MODE.x_zpf() ** 2 * (2 * cfg0.alpha_sq + 1)
        eps = 2 * target / (COLD_MODE.omega_m / TWO_PI)
        bt = eps / ((COLD_MODE.mass * COLD_MODE.omega_m) ** 2 * amp_sq)
        cfg1 = replace(cfg0, deformation=DeformationParams.from_beta_tilde(bt))
        shifts = {}
        for name, cfg in (("off", cfg0), ("on", cfg1)):
            rec = run_cycle(cfg, 0, [7, 0, 0])
            base = fit_ringdown(rec)
            sx, _ = fit_transient_shift(rec, base)
            shifts[name] = sx.delta_fm0
        assert abs(shifts["on"] - shifts["off"]) > 0.3 * target

    def test_burst_rejected_by_lockin_filter(self):
        cfg_off = quiet_config()
        cfg_on = replace(cfg_off, switch_burst=True)
        a = run_cycle(cfg_off, 0, [9, 0, 0])
        b = run_cycle(cfg_on, 0, [9, 0, 0])
        scale = np.max(np.abs(a.x_quad.samples))
        leak = np.max(np.abs(a.x_quad.samples - b.x_quad.samples)) / scale
        assert leak < 5e-3

    def test_pump_segment_stationarity(self):
        # last 10% of the pump-on segment shows no variance trend at 95%
        cfg = noisy_config()
        cfg = replace(cfg, schedule=replace(cfg.schedule, pre_roll=cfg.schedule.pump_on))
        _, raw = run_cycle(cfg, 0, [21, 0, 0], return_raw=True)
        rec = lockin_demodulate(raw, cfg.detection, cycle_index=0)
        t = rec.times
        m = (t >= -0.1 * cfg.schedule.pump_on) & (t < 0.0)
        z = rec.x_quad.samples[m] + 1j * rec.y_quad.samples[m]
        power = np.abs(z - z.mean()) ** 2
        nbin = 10
        bins = np.array_split(power, nbin)
        v = np.array([b.mean() for b in bins])
        tc = np.array([b.mean() for b in np.array_split(t[m], nbin)])
        G = np.column_stack([tc - tc.mean(), np.ones(nbin)])
        coef, *_ = np.linalg.lstsq(G, v, rcond=None)
        resid = v - G @ coef
        se = math.sqrt(float(resid @ resid) / (nbin - 2) /
                       float(np.sum((tc - tc.mean()) ** 2)))
        assert abs(coef[0]) < 2.31 * se   # t(8) two-sided 95%

    def test_coherent_phase_constant_across_cycles(self):
        cfg = quiet_config()
        fits = []
        for k in range(3):
            rec = run_cycle(cfg, k, [5, 0, k])
            fits.append(fit_ringdown(rec))
        phases = [f.phi for f in fits]
        assert np.ptp(phases) < 1e-3


class TestCampaign:
    def small_cfg(self, **kw):
        return noisy_config(schedule=ProtocolSchedule(group_size=5).with_duration(0.2),
                            **kw)

    def test_series_detunings_applied(self):
        kappa = OpticalCavity().kappa
        cfg = self.small_cfg(series=((0.0, 1200.0), (0.05 * kappa, 1200.0)))
        datasets = [run_series(cfg, s) for s in range(2)]
        assert datasets[0].config.cavity.probe_detuning == 0.0
        assert datasets[1].config.cavity.probe_detuning == pytest.approx(0.05 * kappa)

    def cycles(self, cfg, series_index=0):
        """Every cycle of a series, made one by one with `run_cycle`."""
        scfg = cfg.series_variant(series_index)
        return [run_cycle(scfg, k, scfg.cycle_seed(series_index, k))
                for k in range(scfg.schedule.cycles_per_series)]

    def test_record_count_equals_cycles(self):
        # one group average per whole group of cycles, indexed by group; the
        # trailing partial group (cycle 6) is not averaged
        cfg = self.small_cfg()
        cfg = replace(cfg, schedule=replace(cfg.schedule, group_size=2,
                                            cycles_per_series=7))
        ds = run_series(cfg, 0)
        assert len(ds.groups) == 3
        assert [g.cycle_index for g in ds.groups] == [0, 1, 2]
        cycles = self.cycles(cfg)
        for g, group in enumerate(ds.groups):
            want = average_records(cycles[2 * g:2 * g + 2])
            assert group.x_quad.t0 == want.x_quad.t0 and group.x_quad.dt == want.x_quad.dt
            np.testing.assert_array_equal(group.x_quad.samples, want.x_quad.samples)
            np.testing.assert_array_equal(group.y_quad.samples, want.y_quad.samples)

    def test_grouped_records(self):
        cfg = self.small_cfg()
        cycles = self.cycles(cfg)

        def assert_group_means(groups, size):
            for g, group in enumerate(groups):
                own = cycles[g * size:(g + 1) * size]
                for quad in ("x_quad", "y_quad"):
                    np.testing.assert_array_equal(
                        getattr(group, quad).samples,
                        np.mean([getattr(r, quad).samples for r in own], axis=0))

        groups = run_series(cfg, 0).grouped_records()
        assert len(groups) == 1
        assert_group_means(groups, 5)
        # the group size is the config's; a trailing partial group is dropped
        pairs = run_series(replace(cfg, schedule=replace(cfg.schedule, group_size=2)), 0)
        assert len(pairs.grouped_records()) == 2
        assert_group_means(pairs.grouped_records(), 2)

    def test_campaign_deterministic(self):
        cfg = self.small_cfg()
        a = run_series(cfg, 0)
        b = run_series(cfg, 0)
        assert len(a.groups) == len(b.groups) == 1
        for ra, rb in zip(a.groups, b.groups):
            assert np.array_equal(ra.x_quad.samples, rb.x_quad.samples)
            assert np.array_equal(ra.y_quad.samples, rb.y_quad.samples)

    def test_excitation_sweep_changes_amplitude(self):
        cfg = self.small_cfg(series=((0.0, 400.0), (0.0, 1600.0)))
        datasets = [run_series(cfg, s) for s in range(2)]
        for s, ds in enumerate(datasets):
            want = average_records(self.cycles(cfg, s))
            np.testing.assert_array_equal(ds.groups[0].x_quad.samples, want.x_quad.samples)
        a0 = np.max(np.abs(datasets[0].groups[0].x_quad.samples))
        a1 = np.max(np.abs(datasets[1].groups[0].x_quad.samples))
        assert a1 / a0 == pytest.approx(2.0, rel=0.2)


class TestAnalyzeDataset:
    @pytest.mark.parametrize("lo_offset_hz", [10e3, 12e3])
    def test_line_offsets_follow_detection_settings(self, lo_offset_hz):
        # the LO offset moves both lock-in lines: at 10 kHz they sit at 6 and
        # 14 kHz, and a fit at 8 and 16 kHz would put f_m near 2 kHz
        cfg = load_config(CONFIG)
        det = replace(cfg.detection, delta_lo=TWO_PI * lo_offset_hz)
        cfg = replace(cfg, detection=det,
                      schedule=replace(cfg.schedule, cycles_per_series=60))
        analysis = analyze_dataset(run_series(cfg, 0))
        assert len(analysis.ringdown_fits) == 6
        for fit in analysis.ringdown_fits:
            assert abs(fit.f_m) < 20.0
            assert fit.residual_std < 5.0
        shift = 12e3 - lo_offset_hz
        assert det.line_offsets == pytest.approx((8e3 - shift, 16e3 - shift), abs=1e-6)
        assert all((fit.f_lower, fit.f_upper) == det.line_offsets
                   for fit in analysis.ringdown_fits)


def clear_cycle_caches():
    gupsim.protocol._cycle_template.cache_clear()
    gupsim.detection._lockin_design.cache_clear()
    gupsim.detection._lockin_reference.cache_clear()


def same_record(a, b):
    return (a.cycle_index == b.cycle_index and a.x_quad.t0 == b.x_quad.t0
            and np.array_equal(a.x_quad.samples, b.x_quad.samples)
            and np.array_equal(a.y_quad.samples, b.y_quad.samples))


class TestCycleCache:
    """Per-config arrays are cached; records must not depend on the cache."""

    def cfg(self, **kw):
        return noisy_config(deformation=DeformationParams(1e33),
                            shift_injection=(300.0, 2e-5), **kw)

    def test_cold_and_warm_cache_agree(self):
        cfg = self.cfg()
        clear_cycle_caches()
        cold, cold_raw = run_cycle(cfg, 3, [5, 0, 3], return_raw=True)
        for k in range(3):
            run_cycle(cfg, k, [5, 0, k])
        warm, warm_raw = run_cycle(cfg, 3, [5, 0, 3], return_raw=True)
        assert same_record(cold, warm)
        assert np.array_equal(cold_raw.samples, warm_raw.samples)

    def test_records_independent_of_cycle_order(self):
        cfg = self.cfg()
        clear_cycle_caches()
        forward = [run_cycle(cfg, k, [5, 0, k]) for k in (0, 5)]
        clear_cycle_caches()
        backward = [run_cycle(cfg, k, [5, 0, k]) for k in (5, 0)]
        assert same_record(forward[0], backward[1])
        assert same_record(forward[1], backward[0])

    def test_each_series_builds_its_own_template(self):
        cfg = self.cfg(schedule=ProtocolSchedule(group_size=1).with_duration(0.12),
                       series=((0.0, 1200.0), (TWO_PI * 30e3, 1200.0)))
        clear_cycle_caches()
        datasets = [run_series(cfg, s) for s in range(2)]
        assert gupsim.protocol._cycle_template.cache_info().misses == 2
        t0, t1 = (gupsim.protocol._cycle_template(ds.config) for ds in datasets)
        assert not np.array_equal(t0.rot, t1.rot)
        for ds in datasets:
            clear_cycle_caches()
            assert len(ds.groups) == 3
            # a group of one cycle averages to that cycle's record, bit for bit
            for rec in ds.groups:
                seed = cfg.cycle_seed(ds.series_index, rec.cycle_index)
                assert same_record(rec, run_cycle(ds.config, rec.cycle_index, seed))

    def test_cached_arrays_are_read_only(self):
        cfg = self.cfg()
        tpl = gupsim.protocol._cycle_template(cfg)
        arrays = [tpl.alpha, tpl.rot, tpl.carrier_s, tpl.carrier_as,
                  tpl.burst_envelope, *tpl.burst_args]
        arrays += gupsim.detection._lockin_reference(
            cfg.detection.lockin_ref, tpl.t0, tpl.dt, tpl.alpha.size)
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1.0
        # sosfilt refuses a read-only filter, so each caller gets its own copy
        sos = lockin_sos(cfg.detection)
        sos[0, 0] = 2.0
        assert lockin_sos(cfg.detection)[0, 0] != 2.0
