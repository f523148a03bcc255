"""Command-line interface.

Subcommands:
    simulate      run a campaign from a config file, write dataset directories
    analyze       ring-down + transient-shift fits: summary.report, analysis.report,
                  plot_data/quadrature_{x,y}.dat and plot_data/shift_histogram_{x,y}.dat
    thermometry   50 Hz PSD, Lorentzian pair fit: plot_data/heterodyne_spectrum.dat
                  and the occupancy and purity report
    shift-scan    width-vs-shift table and regression from each summary.report
    bound         deformation-parameter upper limit from analysis.report

Only `analyze` loads records and fits groups; the commands after it read its reports.
Each command writes the plot files of the data it holds, under its `--in`.

Every failure exits nonzero after printing a machine-readable JSON error
record to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .detection import (
    WELCH_RESOLUTION_HZ,
    _stationary_carriers,
    average_spectra,
    fit_lorentzian_pair,
    synthesize_bhd,
    welch_psd,
)
from .dynamics import TWO_PI, purity
from .errors import GupsimError, SegmentTooLong
from .estimation import ShiftStatistics, beta_bound, width_vs_shift_scan
from .optomech import CooledState, spring_damping_slope
from .pool import chunked_map
from .protocol import analyze_dataset, summarize_campaign
from .storage import (
    config_hash,
    config_to_dict,
    load_config,
    load_dataset,
    load_raw,
    mode_from_dict,
    save_config,
    save_dataset,
    save_histogram,
    save_quadratures,
    save_raw,
    save_spectrum,
    write_columns,
)


def _fail(kind: str, message: str, code: int = 1) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _stats_dict(s: ShiftStatistics) -> dict:
    counts, edges = s.histogram
    return {"mean_hz": s.mean, "std_hz": s.std, "n": s.n_samples,
            "standard_error_hz": s.standard_error, "z": s.z_score,
            "p_null": s.p_null, "histogram_counts": counts.tolist(),
            "histogram_edges_hz": edges.tolist()}


def _stats_from_dict(d: dict) -> ShiftStatistics:
    """The inverse of `_stats_dict`."""
    return ShiftStatistics(mean=d["mean_hz"], std=d["std_hz"], n_samples=d["n"],
                           histogram=(np.array(d["histogram_counts"]),
                                      np.array(d["histogram_edges_hz"])))


def _analyze_report(path: Path, indir) -> dict:
    """A report that `analyze` writes, read by the commands that follow it."""
    if not path.is_file():
        raise FileNotFoundError(f"{path} not found: run `gupsim analyze --in {indir}` first")
    return json.loads(path.read_text())


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = Path(args.out)
    if args.stationary is not None:
        return _simulate_stationary(cfg, out, args.stationary)
    if args.series < 1:
        raise ValueError("--series must be >= 1")
    # records of an earlier run would be analyzed with this one's
    if any(out.glob("series_*/records/*.qrec")):
        raise FileExistsError(f"{out} already holds .qrec records")
    for s in range(args.series):
        save_dataset(cfg, s, out / f"series_{s:02d}")
    manifest = {
        "tool_version": __version__,
        "config_hash": config_hash(config_to_dict(cfg.series_variant(0))),
        "n_series": args.series,
        "series_dirs": [f"series_{s:02d}" for s in range(args.series)],
    }
    (out / "campaign.manifest").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    print(f"wrote {args.series} series to {out}")
    return 0


def _write_stationary_chunk(cfg, out_dir: Path, chunk_s: float, k: int):
    ts = synthesize_bhd(cfg.operating_state, cfg.mode, cfg.cavity, cfg.detection,
                        duration=chunk_s, seed=[cfg.seed, k])
    save_raw(ts, out_dir / f"{k:04d}.braw")


def _simulate_stationary(cfg, out: Path, duration: float) -> int:
    """Pump-on stationary records in 1 s chunks, for sideband thermometry.

    Each chunk draws from its own seed `[seed, k]` and is made and written by
    a pool worker, so the bytes do not depend on the number of workers. Each
    process that makes chunks builds their carriers at its first chunk; this
    one lets go of them when the chunks are written.
    """
    chunk = 1.0
    if not (duration >= chunk and (duration / chunk).is_integer()):
        raise ValueError(f"--stationary must be a positive whole number of "
                         f"{chunk:g} s chunks, got {duration!r}")
    n_chunks = int(duration / chunk)
    raw_dir = out / "stationary"
    # chunks of an earlier run would be averaged with this one's
    if any(raw_dir.glob("*.braw")):
        raise FileExistsError(f"{raw_dir} already holds .braw records")
    raw_dir.mkdir(parents=True, exist_ok=True)
    try:
        chunked_map(_write_stationary_chunk, (cfg, raw_dir, chunk), range(n_chunks))
    finally:
        _stationary_carriers.cache_clear()
    # written last: a run that fails partway leaves no snapshot to read its chunks by
    save_config(cfg, out / "config.snapshot")
    print(f"wrote {n_chunks} stationary records to {raw_dir}")
    return 0


def _dataset_dirs(root: Path) -> list[Path]:
    if (root / "records").is_dir():
        return [root]
    dirs = sorted(p for p in root.glob("series_*") if (p / "records").is_dir())
    if not dirs:
        raise FileNotFoundError(f"no dataset directories under {root}")
    return dirs


def cmd_analyze(args) -> int:
    root = Path(args.indir)
    dirs = _dataset_dirs(root)
    analyses, configs = [], []
    for d in dirs:
        ds = load_dataset(d)
        # written before any fit, so a fit that fails leaves the traces to look at
        if d == dirs[0] and ds.groups:
            save_quadratures(ds.groups[0], root / "plot_data")
        configs.append(ds.config)
        analyses.append(analyze_dataset(ds))
    for d, a, cfg in zip(dirs, analyses, configs):
        report = {
            "kind": "series-analysis",
            "series_index": a.series_index,
            "probe_detuning_hz": cfg.cavity.probe_detuning / TWO_PI,
            "n_groups": len(a.ringdown_fits),
            "ringdown": [
                {"cycle_group": k, "A": f.A, "tau_s": f.tau, "f_m_hz": f.f_m,
                 "phi_rad": f.phi, "B": f.B, "delta_phi_rad": f.delta_phi,
                 "gamma_eff_hz": f.gamma_eff_hz,
                 "gamma_eff_hz_err": f.gamma_eff_hz_err,
                 "f_m_hz_err": f.f_m_err, "converged": f.converged,
                 "iterations": f.iterations, "window_s": list(f.window)}
                for k, f in enumerate(a.ringdown_fits)],
            "shift_x": _stats_dict(a.stats_x),
            "shift_y": _stats_dict(a.stats_y),
        }
        (d / "summary.report").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n")
    summary = summarize_campaign(analyses)
    # the pooled shifts map to a beta0 limit through one operating point only
    ops = [config_to_dict(c)["operating"] for c in configs]
    campaign = {
        "tool_version": __version__,
        "n_series": len(analyses),
        "shift_x": _stats_dict(summary.stats_x),
        "shift_y": _stats_dict(summary.stats_y),
        "operating": ops[0] if all(op == ops[0] for op in ops) else None,
        "mode": config_to_dict(configs[0])["mode"],
        "null_compatible_2sigma": {
            "x": summary.stats_x.null_compatible(),
            "y": summary.stats_y.null_compatible(),
        },
    }
    out = root / "analysis.report"
    out.write_text(json.dumps(campaign, sort_keys=True, indent=2) + "\n")
    for name, stats in (("x", summary.stats_x), ("y", summary.stats_y)):
        save_histogram(stats, root / "plot_data" / f"shift_histogram_{name}.dat")
    print(f"X: mean {summary.stats_x.mean:+.1f} Hz, std {summary.stats_x.std:.1f} Hz, "
          f"n {summary.stats_x.n_samples}, z {summary.stats_x.z_score:+.2f}")
    print(f"Y: mean {summary.stats_y.mean:+.1f} Hz, std {summary.stats_y.std:.1f} Hz, "
          f"n {summary.stats_y.n_samples}, z {summary.stats_y.z_score:+.2f}")
    print(f"wrote {out}")
    return 0


def _chunk_spectrum(seg: int, path: Path):
    ts = load_raw(path)
    if len(ts) < seg:
        raise SegmentTooLong(f"{path} holds {len(ts)} samples, fewer than one "
                             f"{seg}-sample segment at {WELCH_RESOLUTION_HZ:g} Hz")
    return welch_psd(ts, segment_length=seg)


def cmd_thermometry(args) -> int:
    """Average the Welch spectra of a `simulate --stationary` run's .braw chunks,
    one chunk in memory per worker at a time, write the average, then fit it."""
    root = Path(args.indir)
    raw_paths = sorted((root / "stationary").glob("*.braw"))
    if not raw_paths:
        raise FileNotFoundError(f"no stationary records under {root} "
                                "(write them with simulate --stationary)")
    det = load_config(root / "config.snapshot").detection
    seg = int(round(det.sample_rate / WELCH_RESOLUTION_HZ))
    spec = average_spectra(chunked_map(_chunk_spectrum, (seg,), raw_paths))
    save_spectrum(spec, root / "plot_data" / "heterodyne_spectrum.dat")
    fit = fit_lorentzian_pair(spec, det)
    report = {
        "n_averages": spec.n_averages,
        "resolution_hz": spec.resolution,
        "stokes": {"center_hz": fit.stokes.center, "width_hz": fit.stokes.width,
                   "area": fit.stokes.area},
        "antistokes": {"center_hz": fit.antistokes.center,
                       "width_hz": fit.antistokes.width, "area": fit.antistokes.area},
        "corrected_ratio": fit.corrected_ratio,
        "corrected_ratio_err": fit.corrected_ratio_err,
        "n_bar": fit.occupancy,
        "n_bar_err": fit.occupancy_err,
        "purity": purity(fit.occupancy),
        "gamma_eff_hz": 0.5 * (fit.stokes.width + fit.antistokes.width),
    }
    out = root / "thermometry.report"
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"n_bar = {report['n_bar']:.2f} +/- {report['n_bar_err']:.2f}, "
          f"purity = {report['purity']:.4f}, "
          f"R = {report['corrected_ratio']:.3f}")
    print(f"wrote {out}")
    return 0


def cmd_shift_scan(args) -> int:
    dirs = _dataset_dirs(Path(args.indir))
    points = [(f["f_m_hz"], f["gamma_eff_hz"], f["gamma_eff_hz_err"])
              for d in dirs
              for f in _analyze_report(d / "summary.report", args.indir)["ringdown"]]
    scan = width_vs_shift_scan(points)
    cfg = load_config(dirs[0] / "config.snapshot")
    theory = spring_damping_slope(cfg.cavity, cfg.mode)
    table = Path(args.indir) / "shift_scan.dat"
    write_columns(table, [], "f_m_hz width_hz width_err_hz",
                  (f"{fm!r} {w!r} {we!r}" for fm, w, we in points))
    report = {"slope": scan.slope, "slope_err": scan.slope_err,
              "offset_hz": scan.offset, "offset_err_hz": scan.offset_err,
              "theory_slope": theory,
              "slope_over_theory": scan.slope / theory}
    out = Path(args.indir) / "shift_scan.report"
    out.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"slope = {scan.slope:.3f} +/- {scan.slope_err:.3f} "
          f"(theory {theory:.3f}), offset = {scan.offset:.2f} Hz")
    print(f"wrote {out} and {table}")
    return 0


def cmd_bound(args) -> int:
    summary = json.loads(Path(args.summary).read_text())
    quad = args.quadrature.lower()
    key = f"shift_{quad}"
    missing = [k for k in (key, "operating", "mode") if k not in summary]
    if missing:
        return _fail("MissingStatistics", f"{args.summary} lacks {', '.join(missing)}: "
                     "bound reads <in>/analysis.report, which `gupsim analyze --in <in>` "
                     "writes")
    stats = _stats_from_dict(summary[key])
    op = summary["operating"]
    if op is None:
        return _fail("UncalibratedCampaign", "the series ran at different operating "
                     "points, so the pooled shifts map to no one |alpha|^2")
    mode = mode_from_dict(summary)
    operating = CooledState(n_bar=op["n_bar"], gamma_eff=TWO_PI * op["gamma_eff_hz"],
                            omega_eff=mode.omega_m, alpha_sq=op["alpha_sq"])
    b = beta_bound(stats, operating, mode)
    result = {"beta0_limit": b.beta0_limit, "beta_tilde_limit": b.beta_tilde_limit,
              "epsilon_max": b.epsilon_max, "delta_f_max_hz": b.delta_f_max,
              "amplitude_sq_m2": b.amplitude_sq, "convention": b.convention,
              "quadrature": quad.upper(), "degenerate": b.degenerate}
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a rejected argument for `main` to report; subcommand parsers inherit it."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="gupsim", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run a campaign and write datasets")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", required=True)
    s.add_argument("--series", type=int, default=1)
    s.add_argument("--stationary", type=float, default=None, metavar="SECONDS",
                   help="write pump-on stationary records instead of cycles")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("analyze", help="fit ring-downs and transient shifts")
    s.add_argument("--in", dest="indir", required=True)
    s.set_defaults(func=cmd_analyze)

    s = sub.add_parser("thermometry", help="sideband thermometry from stationary records")
    s.add_argument("--in", dest="indir", required=True)
    s.set_defaults(func=cmd_thermometry)

    s = sub.add_parser("shift-scan", help="width-vs-shift regression")
    s.add_argument("--in", dest="indir", required=True)
    s.set_defaults(func=cmd_shift_scan)

    s = sub.add_parser("bound", help="deformation-parameter upper limit")
    s.add_argument("--summary", required=True)
    s.add_argument("--quadrature", default="x", choices=["x", "y", "X", "Y"])
    s.set_defaults(func=cmd_bound)

    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as exc:
        return _fail("ArgumentError", str(exc), code=2)
    except (GupsimError, BrokenProcessPool) as exc:
        return _fail(type(exc).__name__, str(exc))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail(type(exc).__name__, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
