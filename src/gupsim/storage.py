"""Persistence: config files, dataset directories, records and text exports.

All text formats are deterministic: floats are written with repr (shortest
round-trip form) and keys are sorted, so identical (config, seed) inputs
produce byte-identical artifacts. SI units with unit-annotated field names.

`save_dataset` is the one series writer. It writes the per-series
`CampaignConfig` as the snapshot, then makes every cycle on the process pool
of `pool.chunked_map`; each worker writes the records of the cycles it makes.
`load_dataset` reads the records back on the same pool, one group per call:
the worker reads the group's records, checks each record's `config_hash`
against the snapshot's, and returns only their average, so the `Dataset` it
builds holds the group averages. The snapshot is parsed with
`config_from_dict`, the same parser `load_config` uses for config files. The
bytes do not depend on the number of workers.

`write_columns` writes every text export (spectra, quadrature traces, shift
histograms, the shift-scan table).

Dataset directory layout:
    config.snapshot          canonical JSON config + hash + provenance
    records/NNNN.qrec        columnar text: t, X, Y with '# key: value' header,
                             one per cycle
    summary.report           JSON analysis summary (written by `analyze`)

Stationary run layout (`simulate --stationary`):
    config.snapshot          canonical JSON config + hash
    stationary/NNNN.braw     JSON header line + float64 LE samples, 1 s each
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .detection import (
    DetectionConfig,
    QuadratureRecord,
    SpectrumEstimate,
    TimeSeries,
    average_records,
)
from .dynamics import TWO_PI, DeformationParams, MechanicalMode
from .errors import CorruptRecord
from .estimation import ShiftStatistics
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
            "coupling_rate_rad_s": cfg.cavity.coupling_rate,
        },
        "deformation": {"beta0": cfg.deformation.beta0},
        "detection": {
            "excitation_hz": det.omega_exc / TWO_PI,
            "lo_offset_hz": det.delta_lo / TWO_PI,
            "lockin_bandwidth_hz": det.lockin_bandwidth,
            "lockin_filter_order": det.lockin_filter_order,
            "sample_rate_hz": det.sample_rate,
            "decimation": det.decimation,
            "background_psd": det.background_psd,
        },
        "operating": {
            "n_bar": cfg.n_bar,
            "gamma_eff_hz": cfg.gamma_eff / TWO_PI,
            "alpha_sq": cfg.alpha_sq,
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
    }


def mode_from_dict(d: dict) -> MechanicalMode:
    """The mode of a config, or of an `analysis.report`: `d["mode"]` as `config_to_dict`
    writes it. ValueError for a number of another JSON type."""
    return MechanicalMode(omega_m=TWO_PI * _typed(d, "mode.frequency_hz"),
                          gamma_m=TWO_PI * _typed(d, "mode.damping_hz"),
                          mass=_typed(d, "mode.mass_kg"),
                          T_bath=_typed(d, "mode.bath_temperature_k"))


def _check_finite(d: dict, prefix: str = ""):
    """ValueError naming the first key that holds a NaN or an infinite number."""
    for k, v in d.items():
        if isinstance(v, dict):
            _check_finite(v, f"{prefix}{k}.")
        elif not all(math.isfinite(x) for x in (v if isinstance(v, list) else [v])
                     if isinstance(x, float)):
            raise ValueError(f"config key {prefix}{k} is not finite: {v}")


def _check_retired(d: dict, det: DetectionConfig):
    """ValueError naming a setting older versions wrote that holds another value."""
    for key, value, why in (
            ("scenario", "protocol_2_pulsed", "is not simulated"),
            ("store_raw", False, "is not supported: use simulate --stationary"),
            ("operating.excitation_phase_rad", 0.0, "is not supported: alpha is real"),
            ("detection.detuning_correction", [1.0, 1.0], "is not supported"),
            ("detection.lockin_ref_hz", det.lockin_ref / TWO_PI, "is not supported")):
        *section, name = key.split(".")
        held = d.get(section[0], {}) if section else d
        # a lockin_ref_hz written as f_exc - 4000 can differ from this in its last bit
        if name in held and held[name] != value and not (
                isinstance(value, float) and isinstance(held[name], (int, float))
                and math.isclose(held[name], value, rel_tol=1e-12)):
            raise ValueError(f"{key} {held[name]!r} {why}; only {value!r} is")


_NUMBER = (int, float)


def _typed(d: dict, key: str, kinds: tuple[type, ...] = _NUMBER, sweep: bool = False):
    """The value at the dotted `key`; ValueError unless its type is one of `kinds`
    (a bool is neither an int nor a float). With `sweep`, the value must be a list
    whose every entry is, and it is returned as a tuple."""
    *section, name = key.split(".")
    value = (d[section[0]] if section else d)[name]
    if not (type(value) is list and all(type(v) in kinds for v in value) if sweep
            else type(value) in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"config key {key} must be a JSON {'list of ' * sweep}{names}, "
                         f"got {value!r}")
    return tuple(value) if sweep else value


def config_from_dict(d: dict) -> CampaignConfig:
    """Parse the keys `config_to_dict` writes, ignoring any other. ValueError for a NaN
    or infinite number, for a value of another JSON type (a number that is not an int
    or a float, a count or the seed that is not an int, a sweep that is not a list of
    numbers, a `switch_burst` that is not a bool), a negative seed, an empty sweep, or
    a retired setting that holds another value than the one the program uses
    (`_check_retired`)."""
    _check_finite(d)
    mode = mode_from_dict(d)
    cavity = OpticalCavity(kappa=TWO_PI * _typed(d, "cavity.linewidth_hz"),
                           probe_detuning=TWO_PI * _typed(d, "cavity.probe_detuning_hz"),
                           coupling_rate=_typed(d, "cavity.coupling_rate_rad_s"))
    deformation = DeformationParams(beta0=_typed(d, "deformation.beta0"))
    detection = DetectionConfig(
        omega_exc=TWO_PI * _typed(d, "detection.excitation_hz"),
        delta_lo=TWO_PI * _typed(d, "detection.lo_offset_hz"),
        lockin_bandwidth=_typed(d, "detection.lockin_bandwidth_hz"),
        lockin_filter_order=_typed(d, "detection.lockin_filter_order", (int,)),
        sample_rate=_typed(d, "detection.sample_rate_hz"),
        decimation=_typed(d, "detection.decimation", (int,)),
        background_psd=_typed(d, "detection.background_psd"))
    _check_retired(d, detection)
    schedule = ProtocolSchedule(
        pump_on=_typed(d, "schedule.pump_on_s"), measure=_typed(d, "schedule.measure_s"),
        cycles_per_series=_typed(d, "schedule.cycles_per_series", (int,)),
        group_size=_typed(d, "schedule.group_size", (int,)),
        pre_roll=_typed(d, "schedule.pre_roll_s"))
    detunings, alpha_sqs = (
        None if d.get(key) is None else _typed(d, key, sweep=True)
        for key in ("series_probe_detunings_hz", "alpha_sq_per_series"))
    return CampaignConfig(
        mode=mode, cavity=cavity, deformation=deformation, detection=detection,
        schedule=schedule, n_bar=_typed(d, "operating.n_bar"),
        gamma_eff=TWO_PI * _typed(d, "operating.gamma_eff_hz"),
        alpha_sq=_typed(d, "operating.alpha_sq"), seed=_typed(d, "seed", (int,)),
        series_probe_detunings=(
            None if detunings is None else tuple(TWO_PI * x for x in detunings)),
        alpha_sq_per_series=alpha_sqs,
        shift_injection=(None if d.get("shift_injection") is None
                         else (_typed(d, "shift_injection.delta0_hz"),
                               _typed(d, "shift_injection.tau_s"))),
        switch_burst=(_typed(d, "switch_burst", (bool,)) if "switch_burst" in d
                      else True))


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

# every cycle of a series has the same time base, so a worker formats its time
# column once; a few entries cover the series of a campaign
@functools.lru_cache(maxsize=4)
def _time_column(t0: float, dt: float, n: int) -> tuple[str, ...]:
    return tuple(map(repr, TimeSeries(t0, dt, np.zeros(n)).times.tolist()))


def save_record(rec: QuadratureRecord, path: Path, cfg_hash: str):
    """Columnar text: '# key: value' header, with `cfg_hash` as the record's
    `config_hash`, then 't x_quad y_quad' rows."""
    header = {"format": "qrec-1", "cycle_index": rec.cycle_index, "t0_s": rec.x_quad.t0,
              "dt_s": rec.x_quad.dt, "n_samples": len(rec.x_quad),
              "config_hash": cfg_hash, "columns": "t_s x_quad y_quad"}
    lines = [f"# {k}: {_fmt(v)}" for k, v in header.items()]
    t = _time_column(rec.x_quad.t0, rec.x_quad.dt, len(rec.x_quad))
    lines.extend(map(" ".join, zip(t, map(repr, rec.x_quad.samples.tolist()),
                                   map(repr, rec.y_quad.samples.tolist()))))
    Path(path).write_text("\n".join(lines) + "\n")


def load_record(path: Path, cfg_hash: str) -> QuadratureRecord:
    """Parse a `save_record` file; CorruptRecord if it is cut short or malformed,
    or if its `config_hash` is not `cfg_hash`, the snapshot's."""
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
    if meta.get("config_hash") != cfg_hash:
        raise CorruptRecord(f"{path}: config_hash {meta.get('config_hash')} differs "
                            f"from the snapshot's {cfg_hash}")
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
    try:
        return QuadratureRecord(TimeSeries(t0, dt, rows[:, 1].copy()),
                                TimeSeries(t0, dt, rows[:, 2].copy()),
                                cycle_index=int(meta.get("cycle_index", 0)))
    except ValueError as exc:       # a non-finite sample or a bad dt
        raise CorruptRecord(f"{path}: {exc}") from None


def save_raw(ts: TimeSeries, path: Path):
    """JSON header line + little-endian float64 samples (deterministic bytes)."""
    header = {"format": "braw-1", "t0_s": ts.t0, "dt_s": ts.dt, "n_samples": len(ts)}
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
        return TimeSeries(t0, dt, data)
    except (ValueError, TypeError) as exc:      # a non-finite sample or a bad dt
        raise CorruptRecord(f"{path}: {exc}") from None


def _make_and_write(cfg: CampaignConfig, series_index: int, out: Path, cfg_hash: str,
                    cycle_index: int):
    rec = run_cycle(cfg, cycle_index, cfg.cycle_seed(series_index, cycle_index))
    save_record(rec, out / "records" / f"{cycle_index:04d}.qrec", cfg_hash)


def save_dataset(cfg: CampaignConfig, series_index: int, out_dir: Path) -> CampaignConfig:
    """Make and write one series of the campaign `cfg`; returns its per-series config.

    Writes the snapshot, then makes each cycle on the process pool
    (`protocol.map_cycles`) and writes its record in the worker that made it,
    so no cycle crosses a process boundary and none is held after it is written.
    """
    scfg = cfg.series_variant(series_index)
    out = Path(out_dir)
    (out / "records").mkdir(parents=True, exist_ok=True)
    snapshot = config_to_dict(scfg)
    snapshot["config_hash"] = config_hash(snapshot)
    snapshot["provenance"] = {k: _fmt(v) for k, v in
                              series_provenance(scfg, series_index).items()}
    (out / "config.snapshot").write_text(
        json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
    map_cycles(_make_and_write, scfg, series_index,
               range(scfg.schedule.cycles_per_series), out, snapshot["config_hash"])
    return scfg


def _load_group(cfg_hash: str, records_dir: Path, group_size: int, cycles: range):
    # `chunked_map` passes the group's cycles last; the records of a trailing
    # partial group are checked but not averaged
    records = [load_record(records_dir / f"{k:04d}.qrec", cfg_hash) for k in cycles]
    if len(records) < group_size:
        return None
    return average_records(records, cycle_index=cycles.start // group_size)


def load_dataset(ds_dir: Path) -> Dataset:
    """Config snapshot and group averages of a series.

    The records, `0000.qrec` on to the snapshot's `cycles_per_series`, are read
    on the process pool of `pool.chunked_map`, one group per call. The worker
    reads the group's records, averages them in cycle order
    (`detection.average_records`) and returns the average alone. The records
    of a trailing partial group are read and checked, but not averaged.
    FileNotFoundError or CorruptRecord names the first missing, damaged or
    foreign (config_hash) record in cycle order.
    """
    ds_dir = Path(ds_dir)
    snapshot = json.loads((ds_dir / "config.snapshot").read_text())
    cfg = config_from_dict(snapshot)
    groups = chunked_map(_load_group, (snapshot.get("config_hash"), ds_dir / "records",
                                       cfg.schedule.group_size),
                         cfg.schedule.group_cycles())
    return Dataset(groups=[g for g in groups if g is not None], config=cfg,
                   series_index=int(snapshot.get("provenance", {}).get("series_index", 0)))


# --- column exports ---------------------------------------------------------------

def write_columns(path: Path, header: list[tuple[str, object]], columns: str, rows):
    """Text export: '# key: value' header lines, '# columns: ...', then the rows."""
    lines = [f"# {k}: {_fmt(v)}" for k, v in header]
    lines.append(f"# columns: {columns}")
    lines.extend(rows)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def save_spectrum(spec: SpectrumEstimate, path: Path):
    head = [("format", "spectrum-1"), ("resolution_hz", spec.resolution),
            ("n_averages", spec.n_averages)]
    write_columns(path, head, "freq_hz psd_per_hz",
                  map("{!r} {!r}".format, spec.freqs.tolist(), spec.psd.tolist()))


def save_quadratures(rec: QuadratureRecord, out_dir: Path):
    """Two-column text traces (t, X) and (t, Y) as `quadrature_x.dat` and
    `quadrature_y.dat`."""
    t = rec.times.tolist()
    for name, ts in (("x", rec.x_quad), ("y", rec.y_quad)):
        write_columns(Path(out_dir) / f"quadrature_{name}.dat", [], f"t_s {name}",
                      map("{!r} {!r}".format, t, ts.samples.tolist()))


def save_histogram(stats: ShiftStatistics, path: Path):
    """Two-column text (bin center, count) of a shift histogram, headed by the
    mean, standard deviation and count of the shifts."""
    counts, edges = stats.histogram
    centers = 0.5 * (edges[:-1] + edges[1:])
    header = [("format", "histogram-1"), ("mean_hz", stats.mean),
              ("n", stats.n_samples), ("std_hz", stats.std)]
    write_columns(path, header, "bin_center count",
                  (f"{c!r} {int(n)}" for c, n in zip(centers.tolist(), counts)))
