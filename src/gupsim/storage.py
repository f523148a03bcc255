"""Persistence: config files, dataset directories, record and spectrum exports.

All text formats are deterministic: floats are written with repr (shortest
round-trip form) and keys are sorted, so identical (config, seed) inputs
produce byte-identical artifacts. SI units with unit-annotated field names.

A `Dataset` carries its per-series `CampaignConfig`; `save_dataset` writes it
as the snapshot and `load_dataset` parses it back with `config_from_dict`, the
same parser `load_config` uses for config files.

Dataset directory layout:
    config.snapshot          canonical JSON config + hash + provenance
    records/NNNN.qrec        columnar text: t, X, Y with '# key: value' header
    raw/NNNN.braw            optional: JSON header line + float64 LE samples
    summary.report           JSON analysis summary (written by `analyze`)
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .detection import DetectionConfig, QuadratureRecord, SpectrumEstimate, TimeSeries
from .dynamics import TWO_PI, DeformationParams, MechanicalMode, Trajectory
from .errors import CorruptRecord
from .optomech import OpticalCavity
from .protocol import CampaignConfig, Dataset, ProtocolSchedule


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


# --- config serialization ------------------------------------------------------

def config_to_dict(cfg: CampaignConfig) -> dict:
    det = cfg.detection
    return {
        "mode": {
            "frequency_hz": cfg.mode.omega_m / TWO_PI,
            "damping_hz": cfg.mode.gamma_m / TWO_PI,
            "mass_kg": cfg.mode.mass,
            "bath_temperature_k": cfg.mode.T_bath,
        },
        "cavity": {
            "linewidth_hz": cfg.cavity.kappa / TWO_PI,
            "probe_detuning_hz": cfg.cavity.probe_detuning / TWO_PI,
            "cooling_detuning_hz": cfg.cavity.cool_detuning / TWO_PI,
            "coupling_rate_rad_s": cfg.cavity.coupling_rate,
        },
        "deformation": {"beta0": cfg.deformation.beta0},
        "detection": {
            "excitation_hz": det.omega_exc / TWO_PI,
            "lo_offset_hz": det.delta_lo / TWO_PI,
            "lockin_ref_hz": det.lockin_ref / TWO_PI,
            "lockin_bandwidth_hz": det.lockin_bandwidth,
            "lockin_filter_order": det.lockin_filter_order,
            "sample_rate_hz": det.sample_rate,
            "decimation": det.decimation,
            "background_psd": det.background_psd,
            "detuning_correction": list(det.detuning_correction),
        },
        "operating": {
            "n_bar": cfg.n_bar,
            "gamma_eff_hz": cfg.gamma_eff / TWO_PI,
            "alpha_sq": cfg.alpha_sq,
            "excitation_phase_rad": cfg.excitation_phase,
        },
        "schedule": {
            "pump_on_s": cfg.schedule.pump_on,
            "measure_s": cfg.schedule.measure,
            "cycles_per_series": cfg.schedule.cycles_per_series,
            "group_size": cfg.schedule.group_size,
            "pre_roll_s": cfg.schedule.pre_roll,
        },
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "series_probe_detunings_hz": (
            None if cfg.series_probe_detunings is None
            else [d / TWO_PI for d in cfg.series_probe_detunings]),
        "alpha_sq_per_series": (
            None if cfg.alpha_sq_per_series is None
            else list(cfg.alpha_sq_per_series)),
        "shift_injection": (
            None if cfg.shift_injection is None
            else {"delta0_hz": cfg.shift_injection[0], "tau_s": cfg.shift_injection[1]}),
        "switch_burst": cfg.switch_burst,
        "store_raw": cfg.store_raw,
    }


def mode_from_dict(m: dict) -> MechanicalMode:
    return MechanicalMode(omega_m=TWO_PI * m["frequency_hz"],
                          gamma_m=TWO_PI * m["damping_hz"],
                          mass=m["mass_kg"], T_bath=m["bath_temperature_k"])


def config_from_dict(d: dict) -> CampaignConfig:
    """Parse the keys `config_to_dict` writes; any other key is ignored."""
    mode = mode_from_dict(d["mode"])
    c = d["cavity"]
    cavity = OpticalCavity(kappa=TWO_PI * c["linewidth_hz"],
                           probe_detuning=TWO_PI * c["probe_detuning_hz"],
                           cool_detuning=TWO_PI * c["cooling_detuning_hz"],
                           coupling_rate=c["coupling_rate_rad_s"])
    deformation = DeformationParams(beta0=d["deformation"]["beta0"])
    dd = d["detection"]
    detection = DetectionConfig(
        omega_exc=TWO_PI * dd["excitation_hz"],
        delta_lo=TWO_PI * dd["lo_offset_hz"],
        lockin_ref=TWO_PI * dd["lockin_ref_hz"],
        lockin_bandwidth=dd["lockin_bandwidth_hz"],
        lockin_filter_order=dd["lockin_filter_order"],
        sample_rate=dd["sample_rate_hz"],
        decimation=dd["decimation"],
        background_psd=dd["background_psd"],
        detuning_correction=tuple(dd["detuning_correction"]))
    s = d["schedule"]
    schedule = ProtocolSchedule(pump_on=s["pump_on_s"], measure=s["measure_s"],
                                cycles_per_series=s["cycles_per_series"],
                                group_size=s["group_size"], pre_roll=s["pre_roll_s"])
    o = d["operating"]
    inj = d.get("shift_injection")
    return CampaignConfig(
        mode=mode, cavity=cavity, deformation=deformation, detection=detection,
        schedule=schedule, n_bar=o["n_bar"], gamma_eff=TWO_PI * o["gamma_eff_hz"],
        alpha_sq=o["alpha_sq"], excitation_phase=o["excitation_phase_rad"],
        seed=d["seed"], scenario=d["scenario"],
        series_probe_detunings=(
            None if d.get("series_probe_detunings_hz") is None
            else tuple(TWO_PI * x for x in d["series_probe_detunings_hz"])),
        alpha_sq_per_series=(
            None if d.get("alpha_sq_per_series") is None
            else tuple(d["alpha_sq_per_series"])),
        shift_injection=(None if inj is None else (inj["delta0_hz"], inj["tau_s"])),
        switch_burst=d.get("switch_burst", True),
        store_raw=d.get("store_raw", False))


def canonical_json(d: dict) -> str:
    return json.dumps(d, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(d: dict) -> str:
    payload = {k: v for k, v in d.items() if k != "config_hash"}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:12]


def save_config(cfg: CampaignConfig, path: Path) -> str:
    d = config_to_dict(cfg)
    h = config_hash(d)
    d["config_hash"] = h
    Path(path).write_text(json.dumps(d, sort_keys=True, indent=2) + "\n")
    return h


def load_config(path: Path) -> CampaignConfig:
    d = json.loads(Path(path).read_text())
    return config_from_dict(d)


# --- record files ----------------------------------------------------------------

def save_record(rec: QuadratureRecord, path: Path, extra_header: dict | None = None):
    """Columnar text: '# key: value' header then 't x_quad y_quad' rows."""
    lines = ["# format: qrec-1"]
    header = {
        "cycle_index": rec.cycle_index,
        "t0_s": rec.x_quad.t0,
        "dt_s": rec.x_quad.dt,
        "n_samples": len(rec.x_quad),
    }
    header.update({k: v for k, v in sorted(rec.x_quad.metadata.items())})
    if extra_header:
        header.update(extra_header)
    for k, v in header.items():
        lines.append(f"# {k}: {_fmt(v)}")
    lines.append("# columns: t_s x_quad y_quad")
    lines.extend(map("{!r} {!r} {!r}".format, rec.times.tolist(),
                     rec.x_quad.samples.tolist(), rec.y_quad.samples.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def load_record(path: Path) -> QuadratureRecord:
    """Parse a `save_record` file; CorruptRecord if it is cut short or malformed."""
    text = Path(path).read_text()
    meta = {}
    pos = 0
    while text.startswith("#", pos):
        end = text.find("\n", pos)
        if end < 0:
            raise CorruptRecord(f"{path}: header not terminated")
        body = text[pos + 1:end].strip()
        if ":" in body:
            k, v = body.split(":", 1)
            meta[k.strip()] = v.strip()
        pos = end + 1
    try:
        n = int(meta["n_samples"])
        t0 = float(meta["t0_s"])
        dt = float(meta["dt_s"])
    except (KeyError, ValueError) as exc:
        raise CorruptRecord(f"{path}: bad header ({exc})") from None
    # a cut-off last number still parses, so the count and the final newline
    # together are what show a truncated file
    try:
        cols = np.fromstring(text[pos:], sep=" ")
    except ValueError:
        raise CorruptRecord(f"{path}: rows hold text that is not a number") from None
    if cols.size != 3 * n or not text.endswith("\n"):
        raise CorruptRecord(f"{path}: truncated ({cols.size} values for {n} rows "
                            f"of 3, or no final newline)")
    rows = cols.reshape(n, 3)
    cycle = int(meta.get("cycle_index", 0))
    keep = {k: v for k, v in meta.items()
            if k not in {"format", "t0_s", "dt_s", "n_samples", "cycle_index", "columns"}}
    return QuadratureRecord(TimeSeries(t0, dt, rows[:, 1].copy(), keep),
                            TimeSeries(t0, dt, rows[:, 2].copy(), dict(keep)),
                            cycle_index=cycle)


def save_raw(ts: TimeSeries, path: Path):
    """JSON header line + little-endian float64 samples (deterministic bytes)."""
    header = {"format": "braw-1", "t0_s": ts.t0, "dt_s": ts.dt,
              "n_samples": len(ts),
              "metadata": {k: _fmt(v) for k, v in sorted(ts.metadata.items())}}
    with open(path, "wb") as fh:
        fh.write(canonical_json(header).encode() + b"\n")
        fh.write(ts.samples.astype("<f8").tobytes())


def load_raw(path: Path) -> TimeSeries:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        data = np.frombuffer(fh.read(), dtype="<f8")
    if header["n_samples"] != data.size:
        raise ValueError(f"truncated raw record {path}")
    return TimeSeries(header["t0_s"], header["dt_s"], data.copy(),
                      dict(header.get("metadata", {})))


def save_dataset(ds: Dataset, out_dir: Path):
    out = Path(out_dir)
    (out / "records").mkdir(parents=True, exist_ok=True)
    snapshot = config_to_dict(ds.config)
    snapshot["config_hash"] = config_hash(snapshot)
    snapshot["provenance"] = {k: _fmt(v) for k, v in ds.provenance.items()}
    (out / "config.snapshot").write_text(
        json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
    for rec in ds.records:
        save_record(rec, out / "records" / f"{rec.cycle_index:04d}.qrec",
                    extra_header={"config_hash": snapshot["config_hash"]})
    if ds.raw is not None:
        (out / "raw").mkdir(exist_ok=True)
        for k, ts in enumerate(ds.raw):
            save_raw(ts, out / "raw" / f"{k:04d}.braw")


def load_dataset(ds_dir: Path) -> Dataset:
    """Config snapshot and records of a series; raw files stay on disk (`load_raw`).

    CorruptRecord if a record does not carry the snapshot's config_hash.
    """
    ds_dir = Path(ds_dir)
    snapshot = json.loads((ds_dir / "config.snapshot").read_text())
    records = []
    for p in sorted((ds_dir / "records").glob("*.qrec")):
        rec = load_record(p)
        got = rec.x_quad.metadata.get("config_hash")
        if got != snapshot.get("config_hash"):
            raise CorruptRecord(f"{p}: config_hash {got} differs from the "
                                f"snapshot's {snapshot.get('config_hash')}")
        records.append(rec)
    return Dataset(records=records, config=config_from_dict(snapshot),
                   series_index=int(snapshot.get("provenance", {}).get("series_index", 0)))


# --- column exports ---------------------------------------------------------------

def save_spectrum(spec: SpectrumEstimate, path: Path, header: dict | None = None):
    lines = ["# format: spectrum-1",
             f"# resolution_hz: {spec.resolution!r}",
             f"# n_averages: {spec.n_averages}"]
    for k, v in sorted((header or {}).items()):
        lines.append(f"# {k}: {_fmt(v)}")
    lines.append("# columns: freq_hz psd_per_hz")
    for f, p in zip(spec.freqs, spec.psd):
        lines.append(f"{float(f)!r} {float(p)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_quadratures(rec: QuadratureRecord, out_dir: Path, stem: str):
    """Two-column text traces (t, X) and (t, Y) as `<stem>_x.dat` and `<stem>_y.dat`."""
    t = rec.times.tolist()
    for name, ts in (("x", rec.x_quad), ("y", rec.y_quad)):
        lines = [f"# columns: t_s {name}"]
        lines.extend(map("{!r} {!r}".format, t, ts.samples.tolist()))
        (Path(out_dir) / f"{stem}_{name}.dat").write_text("\n".join(lines) + "\n")


def save_trajectory(traj: Trajectory, path: Path):
    """Columnar text export (t, x, p) with the generating parameters in the header."""
    mode = traj.mode
    lines = ["# format: trajectory-1",
             f"# omega_m_rad_s: {mode.omega_m!r}",
             f"# gamma_m_rad_s: {mode.gamma_m!r}",
             f"# mass_kg: {mode.mass!r}",
             f"# bath_temperature_k: {mode.T_bath!r}",
             f"# beta0: {traj.deformation.beta0!r}",
             f"# dt_s: {traj.dt!r}",
             f"# damping_rad_s: {traj.damping!r}"]
    for k, v in sorted(traj.metadata.items()):
        lines.append(f"# {k}: {_fmt(v)}")
    lines.append("# columns: t_s x_m p_kg_m_s")
    for i in range(len(traj)):
        lines.append(
            f"{float(traj.t[i])!r} {float(traj.x[i])!r} {float(traj.p[i])!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def save_histogram(counts: np.ndarray, edges: np.ndarray, path: Path,
                   header: dict | None = None):
    """Two-column text (bin center, count) for shift histograms."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    lines = ["# format: histogram-1"]
    for k, v in sorted((header or {}).items()):
        lines.append(f"# {k}: {_fmt(v)}")
    lines.append("# columns: bin_center count")
    for c, n in zip(centers, counts):
        lines.append(f"{float(c)!r} {int(n)}")
    Path(path).write_text("\n".join(lines) + "\n")
