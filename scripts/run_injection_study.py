#!/usr/bin/env python3
"""Closed-loop sensitivity study: inject a known beta0 and recover it.

A null campaign calibrates the shift-estimate scatter at the operating point;
beta0 is then chosen so the pipeline's expected measured shift equals a
requested multiple of that scatter, and an injected campaign must detect it.
The operating point is read from configs/null_campaign.json; the flags
override the seed, the series length and the coherent excitation.
"""

import argparse
import math
from dataclasses import replace
from pathlib import Path

from gupsim.dynamics import TWO_PI, DeformationParams, beta_tilde_for_epsilon
from gupsim.estimation import beta_bound, fit_ringdown, fit_transient_shift
from gupsim.protocol import (
    analyze_dataset,
    predicted_shift_at_switchoff,
    run_cycle,
    run_series,
    summarize_campaign,
)
from gupsim.storage import load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "null_campaign.json"


def beta0_for_shift(cfg, delta_f_hz):
    """The deformation whose first-order shift at switch-off is delta_f_hz."""
    eps = 2 * delta_f_hz / (cfg.mode.omega_m / TWO_PI)
    return DeformationParams.from_beta_tilde(
        beta_tilde_for_epsilon(cfg.mode, eps, cfg.alpha_sq, cfg.n_bar))


def response_factor(cfg, delta_f_hz):
    """Noiseless differential X response to the injected shift."""
    cold = replace(cfg.mode, T_bath=1e-6)
    quiet = replace(cfg, mode=cold, n_bar=0.0, switch_burst=False,
                    detection=replace(cfg.detection, background_psd=0.0))
    shifts = {}
    for name, d in (("off", DeformationParams(0.0)),
                    ("on", beta0_for_shift(quiet, delta_f_hz))):
        rec = run_cycle(replace(quiet, deformation=d), 0, [1, 0, 0])
        base = fit_ringdown(rec)
        sx, _ = fit_transient_shift(rec, base)
        shifts[name] = sx.delta_fm0
    return (shifts["on"] - shifts["off"]) / delta_f_hz


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=202)
    ap.add_argument("--series-duration", type=float, default=10.0)
    ap.add_argument("--sigma-multiple", type=float, default=10.0)
    ap.add_argument("--alpha-sq", type=float, default=2e4)
    args = ap.parse_args()

    cfg = load_config(CONFIG)
    cfg = replace(cfg, schedule=cfg.schedule.with_duration(args.series_duration),
                  seed=args.seed, alpha_sq=args.alpha_sq)

    print("calibration campaign (beta0 = 0)...")
    null = summarize_campaign([analyze_dataset(run_series(cfg, s)) for s in range(2)])
    std1 = null.stats_x.std
    print(f"  X scatter: std = {std1:.1f} Hz over n = {null.stats_x.n_samples}")

    target = args.sigma_multiple * std1
    r = response_factor(cfg, target)
    delta_phys = target / abs(r)
    r = response_factor(cfg, delta_phys)
    delta_phys = target / abs(r)
    d_inj = beta0_for_shift(cfg, delta_phys)
    cfg_inj = replace(cfg, deformation=d_inj, seed=args.seed + 1)
    print(f"  injecting beta0 = {d_inj.beta0:.3e} "
          f"(delta_f(0) = {predicted_shift_at_switchoff(cfg_inj):.0f} Hz, "
          f"response factor {r:+.2f})")

    inj = summarize_campaign([analyze_dataset(run_series(cfg_inj, s)) for s in range(2)])
    diff = inj.stats_x.mean - null.stats_x.mean
    se = math.hypot(inj.stats_x.standard_error, null.stats_x.standard_error)
    print(f"  measured shift difference: {diff:+.1f} Hz = {diff / se:+.1f} sigma")

    bound = beta_bound(null.stats_x, cfg.operating_state, cfg.mode)
    verdict = "excludes" if bound.beta0_limit < d_inj.beta0 else "DOES NOT exclude"
    print(f"  null-campaign bound beta0 < {bound.beta0_limit:.3e} "
          f"-> {verdict} the injected value")


if __name__ == "__main__":
    main()
