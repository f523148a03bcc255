"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The campaign-scale criteria share module-scope fixtures so the
whole gate stays well inside its runtime budgets.
"""

import sys
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gupsim.detection import (
    DetectionConfig,
    average_spectra,
    coherent_peak_analysis,
    fit_lorentzian_pair,
    synthesize_bhd,
    welch_psd,
)
from gupsim.dynamics import (
    DeformationParams,
    MechanicalMode,
    PhaseState,
    beta_tilde_for_epsilon,
    frequency_vs_amplitude,
    integrate_trajectory,
    measure_period_zero_crossings,
    purity,
)
from gupsim.estimation import (
    beta_bound,
    fit_ringdown,
    fit_transient_shift,
    ringdown_model,
    width_vs_shift_scan,
)
from gupsim.detection import QuadratureRecord, TimeSeries
from gupsim.optomech import (
    CooledState,
    OpticalCavity,
    rethermalization_rate,
    spring_damping_slope,
)
from gupsim.protocol import (
    CampaignConfig,
    ProtocolSchedule,
    analyze_dataset,
    predicted_shift_at_switchoff,
    run_cycle,
    run_series,
    summarize_campaign,
)

pytestmark = pytest.mark.acceptance

TWO_PI = 2 * math.pi
MODE = MechanicalMode(omega_m=TWO_PI * 525800.0,
                      gamma_m=TWO_PI * 525800.0 / 6.4e6,
                      mass=1e-10, T_bath=9.0)
CAVITY = OpticalCavity()
DET = DetectionConfig()
A0 = 1e-12


def report(criterion, ok, detail):
    # write to the real stdout so the line survives pytest's capture
    sys.__stdout__.write(
        f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}\n")
    sys.__stdout__.flush()
    return ok


def campaign_config(**kw):
    defaults = dict(mode=MODE, cavity=CAVITY, deformation=DeformationParams(0.0),
                    detection=DET, schedule=ProtocolSchedule(), seed=101,
                    n_bar=5.0, gamma_eff=TWO_PI * 6000.0, alpha_sq=1200.0)
    defaults.update(kw)
    return CampaignConfig(**defaults)


def run_null_campaign(cfg, n_series=2):
    analyses = [analyze_dataset(run_series(cfg, s)) for s in range(n_series)]
    return summarize_campaign(analyses)


@pytest.fixture(scope="module")
def null_campaign_1200():
    """Two 50 s series at the reference cryogenic operating point."""
    return run_null_campaign(campaign_config(seed=101))


@pytest.fixture(scope="module")
def null_campaign_2e4():
    """Null calibration at the stronger excitation used for the injection test."""
    return run_null_campaign(campaign_config(seed=202, alpha_sq=2e4))


def test_criterion_1_deformed_dynamics_oracle():
    """Closed-form frequency law vs zero-crossing timing of the integrator."""
    ok = True
    details = []
    for eps in (1e-4, 1e-3, 1e-2):
        bt = eps / (MODE.mass * MODE.omega_m * A0) ** 2
        d = DeformationParams.from_beta_tilde(bt)
        traj = integrate_trajectory(PhaseState(x=A0, p=0.0), MODE, d,
                                    dt=MODE.period / 500, n_steps=220 * 500)
        w_timed = TWO_PI / measure_period_zero_crossings(traj)
        w_closed = frequency_vs_amplitude(MODE, d, A0)
        rel = abs(w_timed - w_closed) / w_closed
        details.append(f"eps={eps:g}: {rel:.2e}")
        ok = ok and rel < 1e-6
    exact = frequency_vs_amplitude(MODE, DeformationParams(0.0), A0) == MODE.omega_m
    ok = ok and exact
    assert report(1, ok, "oracle equivalence " + ", ".join(details)
                  + f"; beta0=0 exact: {exact}")


def test_criterion_2_rethermalization_constant():
    """One thermal phonon every 5.4 us at 9 K with Q = 6.4e6."""
    rate = rethermalization_rate(MODE)
    per_phonon = 1.0 / rate
    ok = abs(per_phonon - 5.4e-6) < 0.5e-6
    assert report(2, ok, f"one phonon per {per_phonon * 1e6:.2f} us "
                         f"(target 5.4 +/- 0.5 us)")


def test_criterion_3_optical_spring_line():
    """Full-chain detuning sweep recovers the spring/damping slope within 10%."""
    detunings = tuple(f * CAVITY.kappa for f in np.linspace(-0.1, 0.1, 9))
    cfg = campaign_config(seed=33, alpha_sq=3500.0,
                          schedule=ProtocolSchedule(group_size=10).with_duration(1.2),
                          series=tuple((d, 3500.0) for d in detunings))
    datasets = [run_series(cfg, s) for s in range(9)]
    fits = [fit_ringdown(rec, window=(1e-4, 5e-4))
            for ds in datasets for rec in ds.grouped_records()]
    scan = width_vs_shift_scan([(f.f_m, f.gamma_eff_hz, f.gamma_eff_hz_err) for f in fits])
    theory = spring_damping_slope(CAVITY, MODE)
    ratio = scan.slope / theory
    ok = abs(ratio - 1.0) < 0.10 and theory == pytest.approx(2.6734, abs=2e-3)
    assert report(3, ok, f"slope {scan.slope:.4f} vs theory {theory:.4f} "
                         f"(ratio {ratio:.4f}), offset {scan.offset:+.1f} Hz")


def synthesize_averaged_spectrum(n_bar, alpha_sq, seconds, seed):
    state = CooledState(n_bar=n_bar, gamma_eff=TWO_PI * 6000.0,
                        omega_eff=DET.omega_exc, alpha_sq=alpha_sq)
    spectra = []
    for k in range(seconds):
        ts = synthesize_bhd(state, DET, duration=1.0, seed=[seed, k])
        spectra.append(welch_psd(ts, segment_length=50000))
    return average_spectra(spectra)


def test_criterion_4_thermometry_round_trip():
    """50 s equivalent averaging at n_bar = 5: R = 1.2 +/- 0.05, n = 5 +/- 0.5."""
    spec = synthesize_averaged_spectrum(5.0, 0.0, 50, 404)
    fit = fit_lorentzian_pair(spec, DET)
    p = purity(fit.occupancy)
    ok = (abs(fit.corrected_ratio - 1.2) < 0.05
          and abs(fit.occupancy - 5.0) < 0.5
          and abs(p - 1.0 / 11.0) < 0.008)
    assert report(4, ok, f"R = {fit.corrected_ratio:.4f} +/- "
                         f"{fit.corrected_ratio_err:.4f}, n_bar = "
                         f"{fit.occupancy:.3f} +/- {fit.occupancy_err:.3f}, "
                         f"purity = {p:.4f} (1/11 = {1 / 11:.4f})")


def test_criterion_5_coherent_amplitude_recovery():
    """n_bar = 6.6 with |alpha|^2 = 35 recovered within 10%."""
    spec = synthesize_averaged_spectrum(6.6, 35.0, 50, 505)
    fit = fit_lorentzian_pair(spec, DET)
    alpha_sq = coherent_peak_analysis(spec, fit)
    ok = abs(alpha_sq - 35.0) / 35.0 < 0.10
    assert report(5, ok, f"|alpha|^2 = {alpha_sq:.2f} (target 35 +/- 10%), "
                         f"n_bar = {fit.occupancy:.2f}")


def test_criterion_6_ringdown_fit_exactness():
    """100 noiseless draws recovered to 1e-6 relative; Gamma*tau = 2 exact."""
    rng = np.random.default_rng(606)
    fs = DET.record_rate
    t = np.arange(int(0.0105 * fs)) / fs
    worst = 0.0
    identity_ok = True
    for _ in range(100):
        A = rng.uniform(0.5, 50)
        tau = rng.uniform(20e-6, 5e-3)
        f_m = rng.uniform(1, 100) * rng.choice([-1, 1])
        phi = rng.uniform(0.2, 6.0)
        B = rng.uniform(0.1, 2.0)
        dphi = rng.uniform(0.2, 6.0)
        X, Y = ringdown_model(t, A, tau, f_m, phi, B, dphi)
        rec = QuadratureRecord(TimeSeries(0.0, 1 / fs, X), TimeSeries(0.0, 1 / fs, Y))
        fit = fit_ringdown(rec)
        wrap = lambda a: (a + math.pi) % (2 * math.pi) - math.pi
        truth = np.array([A, tau, f_m, wrap(phi), B, wrap(dphi)])
        got = np.array([fit.A, fit.tau, fit.f_m, fit.phi, fit.B, fit.delta_phi])
        rel = np.max(np.abs(got - truth) / np.abs(truth))
        worst = max(worst, rel)
        # the accessor is 2/tau by construction; the product is 2 to rounding
        identity_ok = identity_ok and (fit.gamma_eff == 2.0 / fit.tau
                                       and abs(fit.gamma_eff * fit.tau - 2.0) < 1e-15)
    ok = worst < 1e-6 and identity_ok
    assert report(6, ok, f"worst relative error {worst:.2e} over 100 draws; "
                         f"Gamma_eff*tau = 2 identity: {identity_ok}")


def test_criterion_7_null_shift_campaign(null_campaign_1200):
    """beta0 = 0 campaign of two 50 s series: <delta_f0> compatible with zero."""
    s = null_campaign_1200
    zx, zy = s.stats_x.z_score, s.stats_y.z_score
    ok = abs(zx) <= 2.0 and abs(zy) <= 2.0
    assert report(
        7, ok,
        f"X: {s.stats_x.mean:+.1f} +/- {s.stats_x.standard_error:.1f} Hz "
        f"(std {s.stats_x.std:.0f}, n {s.stats_x.n_samples}, z {zx:+.2f}); "
        f"Y: {s.stats_y.mean:+.1f} +/- {s.stats_y.standard_error:.1f} Hz "
        f"(std {s.stats_y.std:.0f}, n {s.stats_y.n_samples}, z {zy:+.2f})")


def _beta0_for_physical_shift(cfg, delta_f_hz):
    eps = 2 * delta_f_hz / (cfg.mode.omega_m / TWO_PI)
    return DeformationParams.from_beta_tilde(
        beta_tilde_for_epsilon(cfg.mode, eps, cfg.alpha_sq, cfg.n_bar))


def _noiseless_response_factor(delta_f_hz):
    """Differential X-quadrature response to an injected shift (pilot cycles)."""
    cold = replace(MODE, T_bath=1e-6)
    base = campaign_config(mode=cold, seed=5, n_bar=0.0, alpha_sq=2e4,
                           detection=DetectionConfig(background_psd=0.0),
                           switch_burst=False)
    injected = replace(base, deformation=_beta0_for_physical_shift(base, delta_f_hz))
    out = {}
    for name, cfg in (("off", base), ("on", injected)):
        rec = run_cycle(cfg, 0, [5, 0, 0])
        b = fit_ringdown(rec)
        sx, _ = fit_transient_shift(rec, b)
        out[name] = sx.delta_fm0
    return (out["on"] - out["off"]) / delta_f_hz


def test_criterion_8_closed_loop_injection(null_campaign_2e4):
    """Injected beta0 detected at > 5 sigma; the null bound excludes it."""
    null = null_campaign_2e4
    std1 = null.stats_x.std
    target_measured = 10.0 * std1
    r = _noiseless_response_factor(target_measured)   # first-pass scale
    delta_phys = target_measured / abs(r)
    r = _noiseless_response_factor(delta_phys)        # refine at final scale
    delta_phys = target_measured / abs(r)

    cfg_inj = campaign_config(seed=303, alpha_sq=2e4,
                              deformation=_beta0_for_physical_shift(
                                  campaign_config(alpha_sq=2e4), delta_phys))
    assert predicted_shift_at_switchoff(cfg_inj) == pytest.approx(delta_phys, rel=0.01)
    inj = run_null_campaign(cfg_inj)

    diff = inj.stats_x.mean - null.stats_x.mean
    se = math.hypot(inj.stats_x.standard_error, null.stats_x.standard_error)
    z = diff / se
    bound = beta_bound(null.stats_x, cfg_inj.operating_state, MODE)
    beta0_inj = cfg_inj.deformation.beta0
    excluded = bound.beta0_limit < beta0_inj
    ok = abs(z) > 5.0 and excluded
    assert report(
        8, ok,
        f"injected beta0 = {beta0_inj:.3e} (delta_f(0) = {delta_phys:.0f} Hz, "
        f"response {r:+.2f}); measured shift {diff:+.1f} Hz = {z:+.1f} sigma; "
        f"null bound beta0 < {bound.beta0_limit:.3e} "
        f"({'excludes' if excluded else 'does not exclude'} injection)")


def test_criterion_9_simulate_determinism(tmp_path):
    """simulate with fixed (config, seed) is byte-identical across runs."""
    import hashlib
    from gupsim.cli import main
    from gupsim.storage import save_config

    cfg = campaign_config(schedule=ProtocolSchedule(group_size=5).with_duration(0.2))
    save_config(cfg, tmp_path / "config.json")

    def digest(root):
        h = hashlib.sha256()
        for p in sorted(Path(root).rglob("*")):
            if p.is_file():
                h.update(p.relative_to(root).as_posix().encode())
                h.update(p.read_bytes())
        return h.hexdigest()

    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["simulate", "--config", str(tmp_path / "config.json"),
                   "--out", str(out), "--series", "1"])
        assert rc == 0
        digests.append(digest(out))
    ok = digests[0] == digests[1]
    assert report(9, ok, f"dataset digest {digests[0][:16]}... reproduced: {ok}")
