"""Persistence: config files, dataset directories, records and text exports.

All text formats are deterministic: floats are written with repr (shortest
round-trip form) and keys are sorted, so identical (config, seed) inputs
produce byte-identical artifacts. SI units with unit-annotated field names.

`save_dataset` is the one series writer. It writes the per-series
`CampaignConfig` as the snapshot, then makes every cycle on the process pool
of `pool.chunked_map`; each worker writes the records (and, with `store_raw`,
the raw series) of the cycles it makes. `load_dataset` reads the records back
on the same pool into a `Dataset` and parses the snapshot with
`config_from_dict`, the same parser `load_config` uses for config files. The
bytes do not depend on the number of workers.

`write_columns` writes every text export (spectra, quadrature traces, shift
histograms, the shift-scan table).

Dataset directory layout:
    config.snapshot          canonical JSON config + hash + provenance
    records/NNNN.qrec        columnar text: t, X, Y with '# key: value' header
    raw/NNNN.braw            optional: JSON header line + float64 LE samples
    summary.report           JSON analysis summary (written by `analyze`)
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .detection import DetectionConfig, QuadratureRecord, SpectrumEstimate, TimeSeries
from .dynamics import TWO_PI, DeformationParams, MechanicalMode
from .errors import CorruptRecord
from .optomech import OpticalCavity
from .pool import chunked_map
from .protocol import (
    CampaignConfig,
    Dataset,
    ProtocolSchedule,
    map_cycles,
    run_cycle,
    series_provenance,
)


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
    """Parse the keys `config_to_dict` writes; any other key is ignored, except an
    old `scenario` naming a protocol other than the pulsed one, the only one simulated."""
    scenario = d.get("scenario", "protocol_2_pulsed")
    if scenario != "protocol_2_pulsed":
        raise ValueError(f"scenario {scenario!r} is not simulated; "
                         "only protocol_2_pulsed is")
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
        seed=d["seed"],
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
    return config_from_dict(json.loads(Path(path).read_text()))


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
    try:
        return QuadratureRecord(TimeSeries(t0, dt, rows[:, 1].copy(), keep),
                                TimeSeries(t0, dt, rows[:, 2].copy(), dict(keep)),
                                cycle_index=cycle)
    except ValueError as exc:       # a non-finite sample or a bad dt
        raise CorruptRecord(f"{path}: {exc}") from None


def save_raw(ts: TimeSeries, path: Path):
    """JSON header line + little-endian float64 samples (deterministic bytes)."""
    header = {"format": "braw-1", "t0_s": ts.t0, "dt_s": ts.dt,
              "n_samples": len(ts),
              "metadata": {k: _fmt(v) for k, v in sorted(ts.metadata.items())}}
    with open(path, "wb") as fh:
        fh.write(canonical_json(header).encode() + b"\n")
        fh.write(ts.samples.astype("<f8").tobytes())


def load_raw(path: Path) -> TimeSeries:
    """Parse a `save_raw` file; CorruptRecord if it is cut short or malformed."""
    with open(path, "rb") as fh:
        head = fh.readline()
        try:
            header = json.loads(head)
            n, t0, dt = int(header["n_samples"]), header["t0_s"], header["dt_s"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptRecord(f"{path}: bad header ({exc})") from None
        n_bytes = os.fstat(fh.fileno()).st_size - len(head)
        if n_bytes != 8 * n:
            raise CorruptRecord(f"{path}: truncated ({n_bytes} bytes for {n} "
                                f"float64 samples)")
        # read straight into the samples: a bytes body and its copy would fault
        # in two fresh buffers per file
        data = np.empty(n, dtype="<f8")
        if fh.readinto(data) != n_bytes:
            raise CorruptRecord(f"{path}: changed while it was read")
    try:
        return TimeSeries(t0, dt, data, dict(header.get("metadata", {})))
    except (ValueError, TypeError) as exc:      # a non-finite sample or a bad dt
        raise CorruptRecord(f"{path}: {exc}") from None


def _make_and_write(cfg: CampaignConfig, series_index: int, out: Path, cfg_hash: str,
                    cycle_index: int):
    rec, raw = run_cycle(cfg, cycle_index, cfg.cycle_seed(series_index, cycle_index),
                         return_raw=True)
    save_record(rec, out / "records" / f"{cycle_index:04d}.qrec",
                extra_header={"config_hash": cfg_hash})
    if cfg.store_raw:
        save_raw(raw, out / "raw" / f"{cycle_index:04d}.braw")


def save_dataset(cfg: CampaignConfig, series_index: int, out_dir: Path) -> CampaignConfig:
    """Make and write one series of the campaign `cfg`; returns its per-series config.

    Writes the snapshot, then makes each cycle on the process pool
    (`protocol.map_cycles`) and writes its record (and its raw series, with
    `store_raw`) in the worker that made it, so no cycle crosses a process
    boundary and none is held after it is written.
    """
    scfg = cfg.series_variant(series_index)
    out = Path(out_dir)
    (out / "records").mkdir(parents=True, exist_ok=True)
    if scfg.store_raw:
        (out / "raw").mkdir(exist_ok=True)
    snapshot = config_to_dict(scfg)
    snapshot["config_hash"] = config_hash(snapshot)
    snapshot["provenance"] = {k: _fmt(v) for k, v in
                              series_provenance(scfg, series_index).items()}
    (out / "config.snapshot").write_text(
        json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
    map_cycles(_make_and_write, scfg, series_index, out, snapshot["config_hash"])
    return scfg


def _load_checked_record(cfg_hash: str, path: Path) -> QuadratureRecord:
    rec = load_record(path)
    got = rec.x_quad.metadata.get("config_hash")
    if got != cfg_hash:
        raise CorruptRecord(f"{path}: config_hash {got} differs from the "
                            f"snapshot's {cfg_hash}")
    return rec


def load_dataset(ds_dir: Path, n_records: int | None = None) -> Dataset:
    """Config snapshot and records of a series (the first `n_records`, or all).

    The records are read on the process pool of `pool.chunked_map`. Raw files
    stay on disk (`load_raw`). CorruptRecord, naming the first bad file in
    cycle order, if a record is damaged or does not carry the snapshot's
    config_hash.
    """
    ds_dir = Path(ds_dir)
    snapshot = json.loads((ds_dir / "config.snapshot").read_text())
    paths = sorted((ds_dir / "records").glob("*.qrec"))[:n_records]
    records = chunked_map(_load_checked_record, (snapshot.get("config_hash"),), paths)
    return Dataset(records=records, config=config_from_dict(snapshot),
                   series_index=int(snapshot.get("provenance", {}).get("series_index", 0)))


# --- column exports ---------------------------------------------------------------

def write_columns(path: Path, header: list[tuple[str, object]], columns: str, rows):
    """Text export: '# key: value' header lines, '# columns: ...', then the rows."""
    lines = [f"# {k}: {_fmt(v)}" for k, v in header]
    lines.append(f"# columns: {columns}")
    lines.extend(rows)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def save_spectrum(spec: SpectrumEstimate, path: Path, header: dict | None = None):
    head = [("format", "spectrum-1"), ("resolution_hz", spec.resolution),
            ("n_averages", spec.n_averages), *sorted((header or {}).items())]
    write_columns(path, head, "freq_hz psd_per_hz",
                  map("{!r} {!r}".format, spec.freqs.tolist(), spec.psd.tolist()))


def save_quadratures(rec: QuadratureRecord, out_dir: Path, stem: str):
    """Two-column text traces (t, X) and (t, Y) as `<stem>_x.dat` and `<stem>_y.dat`."""
    t = rec.times.tolist()
    for name, ts in (("x", rec.x_quad), ("y", rec.y_quad)):
        write_columns(Path(out_dir) / f"{stem}_{name}.dat", [], f"t_s {name}",
                      map("{!r} {!r}".format, t, ts.samples.tolist()))


def save_histogram(counts: np.ndarray, edges: np.ndarray, path: Path,
                   header: dict | None = None):
    """Two-column text (bin center, count) for shift histograms."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    write_columns(path, [("format", "histogram-1"), *sorted((header or {}).items())],
                  "bin_center count",
                  (f"{c!r} {int(n)}" for c, n in zip(centers.tolist(), counts)))
