#!/usr/bin/env python3
"""Flagship null experiment: two 50 s series at beta0 = 0, zero probe detuning.

Runs the full cycle synthesis + ring-down + early-window shift analysis and
reports whether the per-quadrature mean shifts are compatible with zero,
together with the implied upper limit on the deformation parameter. The
operating point is read from configs/null_campaign.json; the flags override
the seed, the series length and the coherent excitation.
"""

import argparse
import json
from dataclasses import replace
from pathlib import Path

from gupsim.estimation import beta_bound
from gupsim.protocol import analyze_dataset, run_campaign, summarize_campaign
from gupsim.storage import load_config

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "null_campaign.json"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--series", type=int, default=2)
    ap.add_argument("--series-duration", type=float, default=50.0)
    ap.add_argument("--alpha-sq", type=float, default=1200.0)
    ap.add_argument("--out", default="null_campaign_summary.json")
    args = ap.parse_args()

    cfg = load_config(CONFIG)
    schedule = replace(cfg.schedule,
                       cycles_per_series=round(args.series_duration / cfg.schedule.cycle))
    cfg = replace(cfg, schedule=schedule, seed=args.seed, alpha_sq=args.alpha_sq)

    print(f"running {args.series} series of {args.series_duration} s "
          f"({cfg.schedule.cycles_per_series} cycles each)...")
    analyses = [analyze_dataset(ds) for ds in run_campaign(cfg, args.series)]
    summary = summarize_campaign(analyses)

    out = {"config_seed": args.seed, "n_series": args.series}
    for name, stats in (("x", summary.stats_x), ("y", summary.stats_y)):
        print(f"{name.upper()}: <delta_f0> = {stats.mean:+.1f} Hz, "
              f"std = {stats.std:.1f} Hz, n = {stats.n_samples}, "
              f"z = {stats.z_score:+.2f} "
              f"({'null-compatible' if stats.null_compatible() else 'NOT null'})")
        bound = beta_bound(stats, cfg.operating_state, cfg.mode, alpha_sq=cfg.alpha_sq)
        print(f"   beta0 upper limit ({bound.convention}): {bound.beta0_limit:.3e}")
        out[f"shift_{name}"] = {"mean_hz": stats.mean, "std_hz": stats.std,
                                "n": stats.n_samples, "z": stats.z_score,
                                "beta0_limit": bound.beta0_limit}
    Path(args.out).write_text(json.dumps(out, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
