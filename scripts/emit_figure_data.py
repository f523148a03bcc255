#!/usr/bin/env python3
"""Produce two-column text artifacts for plotting: heterodyne sideband spectra
(cooled and coherently excited), averaged quadrature ring-down traces, and the
shift histogram of a small null campaign. The operating point is read from
configs/null_campaign.json; the campaign runs 2 s series at the given seed."""

import argparse
from dataclasses import replace
from pathlib import Path

from gupsim.detection import (
    WELCH_RESOLUTION_HZ,
    average_spectra,
    fit_lorentzian_pair,
    synthesize_bhd,
    welch_psd,
)
from gupsim.protocol import analyze_dataset, run_campaign, summarize_campaign
from gupsim.storage import load_config, save_histogram, save_quadratures, save_spectrum

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "null_campaign.json"
CAMPAIGN_SERIES_S = 2.0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="figure_data")
    ap.add_argument("--seconds", type=int, default=10,
                    help="averaging time per spectrum")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    cfg = replace(load_config(CONFIG), seed=args.seed)
    det = cfg.detection
    seg = round(det.sample_rate / WELCH_RESOLUTION_HZ)

    for name, n_bar, alpha_sq in (("cooled", 5.0, 0.0), ("excited", 6.6, 35.0)):
        state = replace(cfg, n_bar=n_bar, alpha_sq=alpha_sq).operating_state
        spectra = []
        for k in range(args.seconds):
            ts = synthesize_bhd(state, cfg.mode, cfg.cavity, det, 1.0, [args.seed, k])
            spectra.append(welch_psd(ts, segment_length=seg))
        spec = average_spectra(spectra)
        fit = fit_lorentzian_pair(spec, det)
        save_spectrum(spec, out / f"sidebands_{name}.dat",
                      header={"n_bar_fit": fit.occupancy,
                              "ratio_fit": fit.corrected_ratio})
        print(f"{name}: n_bar = {fit.occupancy:.2f}, R = {fit.corrected_ratio:.3f}")

    schedule = cfg.schedule.with_duration(CAMPAIGN_SERIES_S)
    datasets = run_campaign(replace(cfg, schedule=schedule), 2)
    ringdown = datasets[0].grouped_records()[0]
    save_quadratures(ringdown, out, "ringdown")

    summary = summarize_campaign([analyze_dataset(ds) for ds in datasets])
    for quad, stats in (("x", summary.stats_x), ("y", summary.stats_y)):
        save_histogram(stats, out / f"shift_histogram_{quad}.dat")
    print(f"artifacts in {out}/")


if __name__ == "__main__":
    main()
