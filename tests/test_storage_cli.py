import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gupsim.cli
import gupsim.detection
import gupsim.protocol
import gupsim.storage
from gupsim.cli import main
from gupsim.detection import (
    DetectionConfig,
    QuadratureRecord,
    SpectrumEstimate,
    TimeSeries,
    average_records,
    average_spectra,
    welch_psd,
)
from gupsim.dynamics import DeformationParams, MechanicalMode
from gupsim.errors import CorruptRecord, FitDiverged
from gupsim.estimation import width_vs_shift_scan
from gupsim.optomech import OpticalCavity, spring_damping_slope
from gupsim.protocol import (
    CampaignConfig,
    ProtocolSchedule,
    analyze_dataset,
    run_cycle,
    run_series,
    summarize_campaign,
)
from gupsim.storage import (
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    load_dataset,
    load_raw,
    load_record,
    save_config,
    save_dataset,
    save_histogram,
    save_quadratures,
    save_raw,
    save_record,
    save_spectrum,
    write_columns,
)

TWO_PI = 2 * math.pi
ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "null_campaign.json"
GOLDEN = ROOT / "tests" / "golden"
MODE = MechanicalMode(omega_m=TWO_PI * 525800.0,
                      gamma_m=TWO_PI * 525800.0 / 6.4e6,
                      mass=1e-10, T_bath=9.0)


def small_config(**kw):
    defaults = dict(
        mode=MODE, cavity=OpticalCavity(), deformation=DeformationParams(0.0),
        detection=DetectionConfig(), schedule=ProtocolSchedule().with_duration(0.2),
        seed=2024, n_bar=5.0, alpha_sq=1200.0)
    defaults.update(kw)
    return CampaignConfig(**defaults)


def snapshot_hash(series_dir: Path) -> str:
    return json.loads((series_dir / "config.snapshot").read_text())["config_hash"]


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# settings older versions wrote: (section, key, the one value they may still
# hold, another value)
RETIRED = [
    (None, "scenario", "protocol_2_pulsed", "protocol_1_decay"),
    (None, "store_raw", False, True),
    ("operating", "excitation_phase_rad", 0.0, 0.5),
    ("detection", "detuning_correction", [1.0, 1.0], [5.0 / 6.0, 1.0]),
    ("detection", "lockin_ref_hz", 521800.0, 522800.0),
    (None, "series_probe_detunings_hz", None, [0.0]),
    (None, "alpha_sq_per_series", None, [1200.0]),
]


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        # every settable value differs from its default, so a value that
        # config_to_dict drops comes back as the default and fails the comparison
        cfg = CampaignConfig(
            mode=MechanicalMode(omega_m=TWO_PI * 500e3, gamma_m=TWO_PI * 0.1,
                                mass=2e-10, T_bath=4.0),
            cavity=OpticalCavity(kappa=TWO_PI * 2e6, probe_detuning=TWO_PI * 1e3,
                                 coupling_rate=6e5),
            deformation=DeformationParams(beta0=1e30),
            detection=DetectionConfig(omega_exc=TWO_PI * 500e3, delta_lo=TWO_PI * 10e3,
                                      lockin_bandwidth=30e3, lockin_filter_order=3,
                                      sample_rate=3e6, decimation=4, background_psd=2e-5),
            schedule=ProtocolSchedule(pump_on=0.02, measure=0.005, cycles_per_series=100,
                                      group_size=5, pre_roll=0.001),
            n_bar=3.0, gamma_eff=TWO_PI * 5000.0, alpha_sq=100.0, seed=7,
            series=((0.0, 100.0), (TWO_PI * 1e3, 400.0)),
            shift_injection=(500.0, 1e-5), switch_burst=False)
        for obj in (cfg, cfg.mode, cfg.cavity, cfg.deformation, cfg.detection,
                    cfg.schedule):
            for f in dataclasses.fields(obj):
                if f.default is not dataclasses.MISSING:
                    assert getattr(obj, f.name) != f.default, f.name
        d1 = config_to_dict(cfg)
        cfg2 = config_from_dict(d1)
        assert cfg2 == cfg
        d2 = config_to_dict(cfg2)
        assert d1 == d2
        assert config_hash(d1) == config_hash(d2)

    @pytest.mark.parametrize("section, key, old, other", RETIRED,
                             ids=[r[1] for r in RETIRED])
    def test_retired_setting(self, section, key, old, other):
        d = json.loads(CONFIG.read_text())
        want = config_from_dict(d)
        held = d[section] if section else d
        held[key] = old
        assert config_from_dict(d) == want
        held[key] = other
        name = f"{section}.{key}" if section else key
        with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
            config_from_dict(d)

    def test_old_lockin_ref_in_last_bit_loads(self):
        # older versions wrote the reference as (2 pi f_exc - 2 pi 4 kHz) / 2 pi:
        # 521807.99999999994 for f_exc = 525808 Hz
        d = json.loads(CONFIG.read_text())
        d["detection"]["excitation_hz"] = 525808.0
        want = config_from_dict(d)
        d["detection"]["lockin_ref_hz"] = (TWO_PI * 525808.0 - TWO_PI * 4e3) / TWO_PI
        assert d["detection"]["lockin_ref_hz"] != 525808.0 - 4e3
        assert config_from_dict(d) == want

    def test_file_round_trip(self, tmp_path):
        cfg = small_config()
        h = save_config(cfg, tmp_path / "c.json")
        cfg2 = load_config(tmp_path / "c.json")
        assert config_hash(config_to_dict(cfg2)) == h

    @pytest.mark.parametrize("path", [CONFIG, GOLDEN / "analyze_config.json",
                                      GOLDEN / "thermometry_config.json"],
                             ids=["shipped", "golden_analyze", "golden_thermometry"])
    def test_shipped_config_is_canonical(self, tmp_path, path):
        # a setting the program no longer reads cannot linger in the file. The
        # golden configs predate `series`: they hold the two sweeps it replaced,
        # as null, and a config_hash over them; they are left so, to show that
        # such configs still load, and are otherwise as the program writes them
        save_config(load_config(path), tmp_path / "c.json")
        want = path.read_text()
        if path.parent == GOLDEN:
            d = json.loads(want)
            for key in ("series_probe_detunings_hz", "alpha_sq_per_series"):
                assert d.pop(key) is None
            d["series"] = None
            d["config_hash"] = config_hash(d)
            want = json.dumps(d, sort_keys=True, indent=2) + "\n"
        assert (tmp_path / "c.json").read_text() == want

    @pytest.mark.parametrize("store_raw", [None, False])
    def test_store_raw_false_loads(self, store_raw):
        d = json.loads(CONFIG.read_text())
        want = config_from_dict(d)
        if store_raw is not None:
            d["store_raw"] = store_raw
        assert config_from_dict(d) == want

    def test_old_cooling_detuning_key_loads(self):
        # written by older versions, though no computation read it
        d = json.loads(CONFIG.read_text())
        want = config_from_dict(d)
        d["cavity"]["cooling_detuning_hz"] = -699999.9999999999
        assert config_from_dict(d) == want

    def test_store_raw_rejected(self, tmp_path, capsys):
        d = json.loads(CONFIG.read_text())
        d["store_raw"] = True
        with pytest.raises(ValueError, match="store_raw.*simulate --stationary"):
            config_from_dict(d)
        # a series snapshot written by an older version with store_raw
        save_dataset(small_config(schedule=ProtocolSchedule().with_duration(0.08)), 0,
                     tmp_path / "d")
        snap = tmp_path / "d" / "config.snapshot"
        s = json.loads(snap.read_text())
        s["store_raw"] = True
        snap.write_text(json.dumps(s))
        assert main(["analyze", "--in", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError" and "store_raw" in err["message"]

    @pytest.mark.parametrize("path", [CONFIG, GOLDEN / "analyze_config.json",
                                      GOLDEN / "thermometry_config.json"],
                             ids=["shipped", "golden_analyze", "golden_thermometry"])
    @pytest.mark.parametrize("scenario", [None, "protocol_2_pulsed"])
    def test_pulsed_scenario_loads(self, path, scenario):
        d = json.loads(path.read_text())
        d.pop("scenario", None)
        want = config_from_dict(d)
        if scenario is not None:
            d["scenario"] = scenario
        assert config_from_dict(d) == want

    @pytest.mark.parametrize("section, key, value", [
        ("detection", "lockin_filter_order", 4.0),
        ("detection", "decimation", 8.0),
        ("schedule", "cycles_per_series", 20.0),
        ("schedule", "group_size", 10.0),
        ("schedule", "group_size", True),
        (None, "seed", 1.5),
        (None, "seed", -1),
        (None, "switch_burst", "false"),
        (None, "switch_burst", 0),
        (None, "--seed", -1),
        (None, "--series", 0),
        ("mode", "mass_kg", "1e-10"),
        ("operating", "alpha_sq", None),
        ("detection", "lockin_bandwidth_hz", [20000.0]),
        ("schedule", "measure_s", False),
        (None, "series", [{"probe_detuning_hz": 0.0, "alpha_sq": "1200"}]),
        (None, "series", 1200.0),
        (None, "series", [{"probe_detuning_hz": True, "alpha_sq": 1200.0}]),
        (None, "series", [1200.0]),
        (None, "shift_injection", {"delta0_hz": "300.0", "tau_s": 5e-5}),
    ], ids=["filter_order_float", "decimation_float", "cycles_float", "group_size_float",
            "group_size_bool", "seed_float", "seed_negative", "switch_burst_string",
            "switch_burst_int", "seed_option_negative", "series_option_zero",
            "mass_string", "alpha_sq_null", "bandwidth_list", "measure_bool",
            "sweep_entry_string", "sweep_not_list", "sweep_entry_bool",
            "series_entry_not_object", "injection_string"])
    def test_wrong_type_refused(self, tmp_path, capsys, section, key, value):
        # refused with the key named before anything is written, not misread
        d = config_to_dict(small_config(schedule=ProtocolSchedule(group_size=2)
                                        .with_duration(0.08)))
        option = []
        if key.startswith("--"):
            option = [key, str(value)]
        else:
            (d[section] if section else d)[key] = value
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), *option]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert (f"{section}.{key}" if section else key.lstrip("-")) in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("key, message", [
        ("series_probe_detunings_hz", "series_probe_detunings_hz [] is retired"),
        ("alpha_sq_per_series", "alpha_sq_per_series [] is retired"),
        ("series", "series is empty")], ids=["detunings", "alpha_sq", "series"])
    def test_empty_sweep_refused(self, tmp_path, capsys, key, message):
        # a list of no entries has none for series 0; the two older sweeps
        # are refused for any value but null
        d = config_to_dict(small_config())
        d[key] = []
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(message)
        assert not out.exists()

    def test_negative_sweep_entry_refused(self, tmp_path, capsys):
        # refused with the entry named before series 0 is written
        d = config_to_dict(small_config())
        d["series"] = [{"probe_detuning_hz": 0.0, "alpha_sq": 1200.0},
                       {"probe_detuning_hz": 0.0, "alpha_sq": -1.0}]
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--series", "2"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == "series[1]: alpha_sq must be >= 0, got -1.0"
        assert not out.exists()

    @pytest.mark.parametrize("entry, error, message", [
        ({"probe_detuning_hz": 500000.0, "alpha_sq": 1200.0}, "OutsideLinearRegime",
         "series[1]: |detuning|="),
        ({"probe_detuning_hz": 0.0}, "KeyError", "'alpha_sq'"),
        ({"probe_detuning_hz": 0.0, "alpha_sq": math.nan}, "ValueError",
         "config key series[1].alpha_sq is not finite"),
    ], ids=["outside_linear_regime", "missing_alpha_sq", "not_finite"])
    def test_series_entry_refused(self, tmp_path, capsys, entry, error, message):
        # series 1's entry is refused before series 0 or a snapshot is written
        d = config_to_dict(small_config())
        d["series"] = [{"probe_detuning_hz": 0.0, "alpha_sq": 1200.0}, entry]
        (tmp_path / "c.json").write_text(json.dumps(d))     # NaN as NaN
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--series", "2"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert err["message"].startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("series_probe_detunings_hz", [0.0, 30000.0]),
        ("alpha_sq_per_series", [1200.0, 4800.0])], ids=["detunings", "alpha_sq"])
    def test_older_sweep_refused(self, tmp_path, capsys, key, value):
        # a config written before `series` is refused, not run without its sweep
        d = config_to_dict(small_config())
        d[key] = value
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--series", "2"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"] == (f"{key} {value!r} is retired: set each series in "
                                  "series; only null is")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value, error", [
        ("operating", "gamma_eff_hz", -6000.0, "ValueError"),
        ("operating", "gamma_eff_hz", 0, "ValueError"),
        ("detection", "background_psd", -1e-5, "ValueError"),
        ("detection", "lockin_bandwidth_hz", 0, "ValueError"),
        ("detection", "lockin_filter_order", 0, "ValueError"),
        (None, "series", [{"probe_detuning_hz": 0.0, "alpha_sq": 1200.0},
                          {"probe_detuning_hz": 500000.0, "alpha_sq": 1200.0}],
         "OutsideLinearRegime"),
    ], ids=["gamma_eff_negative", "gamma_eff_zero", "background_negative",
            "bandwidth_zero", "filter_order_zero", "sweep_outside_linear_regime"])
    def test_unusable_config_refused(self, tmp_path, capsys, section, key, value, error):
        # refused at load, before series 0 or a snapshot is written
        d = config_to_dict(small_config(schedule=ProtocolSchedule(group_size=2)
                                        .with_duration(0.08)))
        (d[section] if section else d)[key] = value
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--series", "2"]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not out.exists()

    def test_series_shorter_than_ringdown_window_refused(self, tmp_path, capsys):
        # a measurement that ends before the ring-down window could not be
        # analyzed, so no series is written
        d = config_to_dict(small_config(schedule=ProtocolSchedule(group_size=2)
                                        .with_duration(0.08)))
        d["schedule"]["measure_s"] = 0.0005
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "WindowOutOfRange"
        assert not out.exists()

    def test_hash_sensitive_to_fields(self):
        d1 = config_to_dict(small_config(seed=1))
        d2 = config_to_dict(small_config(seed=2))
        assert config_hash(d1) != config_hash(d2)


def spy_on_pool(monkeypatch, module):
    """Patch `module.chunked_map` to note how many results each call returns."""
    returned = []
    pool_map = module.chunked_map

    def spy(fn, args, items):
        out = pool_map(fn, args, items)
        returned.append(len(out))
        return out

    monkeypatch.setattr(module, "chunked_map", spy)
    return returned


def assert_groups_average(groups, cycles, size):
    """Each group is bit-equal to `average_records` over its own cycles."""
    assert len(groups) == len(cycles) // size
    for g, group in enumerate(groups):
        want = average_records(cycles[g * size:(g + 1) * size])
        assert group.x_quad.t0 == want.x_quad.t0 and group.x_quad.dt == want.x_quad.dt
        np.testing.assert_array_equal(group.x_quad.samples, want.x_quad.samples)
        np.testing.assert_array_equal(group.y_quad.samples, want.y_quad.samples)


class TestRecordIO:
    def test_record_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        x = TimeSeries(0.0, 3.2e-6, rng.standard_normal(64))
        y = TimeSeries(0.0, 3.2e-6, rng.standard_normal(64))
        rec = QuadratureRecord(x, y, cycle_index=7)
        save_record(rec, tmp_path / "r.qrec", "0123456789ab")
        back = load_record(tmp_path / "r.qrec", "0123456789ab")
        assert back.cycle_index == 7
        np.testing.assert_array_equal(back.x_quad.samples, x.samples)
        np.testing.assert_array_equal(back.y_quad.samples, y.samples)
        assert back.x_quad.dt == x.dt

    def test_record_bytes_pinned(self, tmp_path):
        x = TimeSeries(0.0, 0.5, [1.0, -2.5e-7, math.pi])
        y = TimeSeries(0.0, 0.5, [0.1, 1e16, -0.0])
        save_record(QuadratureRecord(x, y, cycle_index=4), tmp_path / "r.qrec",
                    "0123456789ab")
        assert (tmp_path / "r.qrec").read_bytes() == (
            b"# format: qrec-1\n"
            b"# cycle_index: 4\n"
            b"# t0_s: 0.0\n"
            b"# dt_s: 0.5\n"
            b"# n_samples: 3\n"
            b"# config_hash: 0123456789ab\n"
            b"# columns: t_s x_quad y_quad\n"
            b"0.0 1.0 0.1\n"
            b"0.5 -2.5e-07 1e+16\n"
            b"1.0 3.141592653589793 -0.0\n")

    def test_record_bytes_alternating_time_bases(self, tmp_path):
        # the time column is formatted once per (t0, dt, n); records on several
        # time bases, written in turn, hold the rows that per-row formatting
        # gave. Each base differs from the first in one of t0, dt and n, and
        # -0.0 gives the time column of 0.0.
        rng = np.random.default_rng(8)
        bases = [(0.0, 3.2e-6, 64), (-0.002, 3.2e-6, 64), (0.0, 4e-7, 64),
                 (0.0, 3.2e-6, 63), (-0.0, 3.2e-6, 64)]
        for i, (t0, dt, n) in enumerate(bases * 2):
            rec = QuadratureRecord(TimeSeries(t0, dt, rng.standard_normal(n)),
                                   TimeSeries(t0, dt, 1e3 * rng.standard_normal(n)),
                                   cycle_index=i)
            path = tmp_path / f"{i:04d}.qrec"
            save_record(rec, path, "0123456789ab")
            rows = map("{!r} {!r} {!r}".format, rec.times.tolist(),
                       rec.x_quad.samples.tolist(), rec.y_quad.samples.tolist())
            head = (f"# format: qrec-1\n# cycle_index: {i}\n# t0_s: {t0!r}\n"
                    f"# dt_s: {dt!r}\n# n_samples: {n}\n# config_hash: 0123456789ab\n"
                    f"# columns: t_s x_quad y_quad\n")
            assert path.read_text() == head + "\n".join(rows) + "\n"

    @pytest.mark.parametrize("damage, match", [
        (lambda text: text[:-5], "0000.qrec"),                            # cut mid-number
        (lambda text: text[:text.rindex("\n", 0, -1) + 1], "0000.qrec"),  # last row dropped
        (lambda text: text.replace("\n0.0 ", "\n0.0 x", 1), "0000.qrec"),  # junk in row 1
        (lambda text: text.replace("# dt_s: 3.2e-06", "# dt_s: nan"), "0000.qrec: dt "),
        # the time of row 5 one ULP off: every value still parses
        (lambda text: text.replace("\n1.6e-05 ", "\n1.6000000000000003e-05 ", 1),
         "0000.qrec: t_s of row 5 "),
    ], ids=["cut_mid_number", "row_dropped", "junk", "nan_dt", "time_one_ulp_off"])
    def test_damaged_record_rejected(self, tmp_path, damage, match):
        rng = np.random.default_rng(5)
        x = TimeSeries(0.0, 3.2e-6, rng.standard_normal(16))
        y = TimeSeries(0.0, 3.2e-6, rng.standard_normal(16))
        path = tmp_path / "0000.qrec"
        save_record(QuadratureRecord(x, y), path, "0123456789ab")
        text = path.read_text()
        assert damage(text) != text
        path.write_text(damage(text))
        with pytest.raises(CorruptRecord, match=match):
            load_record(path, "0123456789ab")

    def test_record_from_other_config_rejected(self, tmp_path, capsys):
        save_dataset(small_config(schedule=ProtocolSchedule().with_duration(0.08)), 0,
                     tmp_path / "d")
        path = tmp_path / "d" / "records" / "0001.qrec"
        text = path.read_text()
        h = snapshot_hash(tmp_path / "d")
        path.write_text(text.replace(f"# config_hash: {h}", "# config_hash: 000000000000"))
        with pytest.raises(CorruptRecord, match="0001.qrec"):
            load_dataset(tmp_path / "d")
        assert main(["analyze", "--in", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptRecord" and "0001.qrec" in err["message"]

    def test_raw_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        ts = TimeSeries(-0.002, 4e-7, rng.standard_normal(1000))
        save_raw(ts, tmp_path / "r.braw")
        back = load_raw(tmp_path / "r.braw")
        np.testing.assert_array_equal(back.samples, ts.samples)
        assert back.t0 == ts.t0 and back.dt == ts.dt

    @pytest.mark.parametrize("layout", ["native", "big_endian", "strided"])
    def test_raw_samples_written_as_little_endian_copy(self, tmp_path, layout):
        # the samples are written as `samples.astype("<f8").tobytes()` would give,
        # whatever their layout, such as the strided real part of a complex buffer
        z = np.random.default_rng(9).standard_normal(2000).view(complex)
        samples = {"native": z.imag.copy(), "big_endian": z.imag.astype(">f8"),
                   "strided": z.real}[layout]
        ts = TimeSeries(0.0, 4e-7, np.zeros(len(samples)))
        ts.samples = samples            # TimeSeries itself would convert to native
        save_raw(ts, tmp_path / "r.braw")
        head, body = (tmp_path / "r.braw").read_bytes().split(b"\n", 1)
        assert head == b'{"dt_s":4e-07,"format":"braw-1","n_samples":1000,"t0_s":0.0}'
        assert body == samples.astype("<f8").tobytes()

    def test_raw_header_pinned(self, tmp_path):
        save_raw(TimeSeries(-0.5, 0.25, [1.0, -0.0]), tmp_path / "r.braw")
        assert (tmp_path / "r.braw").read_bytes() == (
            b'{"dt_s":0.25,"format":"braw-1","n_samples":2,"t0_s":-0.5}\n'
            + np.array([1.0, -0.0], dtype="<f8").tobytes())

    @pytest.mark.parametrize("damage", [
        lambda data: data[:-3],         # not a whole number of float64s
        lambda data: data[:-8],         # one sample short
        lambda data: b"{" + data,       # header line not JSON
        lambda data: data[:-8] + np.array([np.nan]).tobytes(),  # non-finite sample
        lambda data: data.replace(b'"dt_s":4e-07', b'"dt_s":NaN', 1),
        lambda data: data.replace(b'"dt_s":4e-07', b'"dt_s":Infinity', 1),
    ], ids=["cut_3_bytes", "cut_8_bytes", "bad_header", "nan_sample", "nan_dt", "inf_dt"])
    def test_damaged_raw_rejected(self, tmp_path, capsys, damage):
        save_config(small_config(), tmp_path / "config.snapshot")
        path = tmp_path / "stationary" / "0000.braw"
        path.parent.mkdir()
        save_raw(TimeSeries(0.0, 4e-7, np.random.default_rng(6).standard_normal(64)), path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CorruptRecord, match="0000.braw"):
            load_raw(path)
        assert main(["thermometry", "--in", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptRecord" and "0000.braw" in err["message"]

    def test_dataset_round_trip(self, tmp_path, monkeypatch, use_cpus):
        # 5 cycles in groups of 2: two group averages, and cycle 4 on disk alone
        cfg = small_config(schedule=ProtocolSchedule(group_size=2).with_duration(0.2),
                           series=((0.0, 1200.0), (TWO_PI * 30e3, 1200.0)))
        scfg = cfg.series_variant(1)
        assert save_dataset(cfg, 1, tmp_path / "d") == scfg
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "config.snapshot", "records"]
        h = snapshot_hash(tmp_path / "d")
        cycles = [run_cycle(scfg, k, scfg.cycle_seed(1, k)) for k in range(5)]
        for k, want in enumerate(cycles):
            rec = load_record(tmp_path / "d" / "records" / f"{k:04d}.qrec", h)
            assert rec.cycle_index == k
            np.testing.assert_array_equal(rec.x_quad.samples, want.x_quad.samples)
            np.testing.assert_array_equal(rec.y_quad.samples, want.y_quad.samples)
        returned = spy_on_pool(monkeypatch, gupsim.storage)
        for n in (1, 2):
            use_cpus(n)
            back = load_dataset(tmp_path / "d")
            assert back.config == scfg and back.series_index == 1
            assert [g.cycle_index for g in back.groups] == [0, 1]
            assert_groups_average(back.groups, cycles, 2)
            # the pool returns the two group averages and the partial group's
            # None, not one record per cycle
            assert returned.pop() == 3

    def test_spectrum_export(self, tmp_path):
        spec = SpectrumEstimate(freqs=np.array([1.0, 2.0, 3.0]),
                                psd=np.array([0.5, 1.5, 0.25]),
                                resolution=1.0, n_averages=3)
        save_spectrum(spec, tmp_path / "s.dat")
        text = (tmp_path / "s.dat").read_text()
        assert text.splitlines()[:4] == ["# format: spectrum-1", "# resolution_hz: 1.0",
                                         "# n_averages: 3", "# columns: freq_hz psd_per_hz"]
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(rows) == 3 and float(rows[1].split()[1]) == 1.5


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    """A small simulated campaign shared by the CLI tests."""
    root = tmp_path_factory.mktemp("campaign")
    cfg = small_config(schedule=ProtocolSchedule(group_size=5).with_duration(0.4))
    save_config(cfg, root / "config.json")
    rc = main(["simulate", "--config", str(root / "config.json"),
               "--out", str(root / "out"), "--series", "2"])
    assert rc == 0
    return root


class TestCli:
    def test_simulate_layout(self, campaign_dir):
        out = campaign_dir / "out"
        assert (out / "campaign.manifest").exists()
        for k in (0, 1):
            d = out / f"series_{k:02d}"
            assert (d / "config.snapshot").exists()
            assert len(list((d / "records").glob("*.qrec"))) == 10
            # the series summary is written by `analyze` alone
            assert not (d / "summary.report").exists()

    def test_simulate_refuses_old_records(self, tmp_path, capsys):
        for n in (20, 10):
            sched = ProtocolSchedule(group_size=5, cycles_per_series=n)
            save_config(small_config(schedule=sched), tmp_path / f"c{n}.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c20.json"),
                     "--out", str(out)]) == 0
        before = dir_digest(out)
        capsys.readouterr()
        # records 0010-0019 of the first run would be left beside the second's
        assert main(["simulate", "--config", str(tmp_path / "c10.json"),
                     "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileExistsError" and ".qrec" in err["message"]
        assert dir_digest(out) == before
        assert main(["analyze", "--in", str(out)]) == 0

    def test_simulate_determinism(self, campaign_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = main(["simulate", "--config", str(campaign_dir / "config.json"),
                       "--out", str(out), "--series", "1"])
            assert rc == 0
        assert dir_digest(a) == dir_digest(b)

    def test_analyze(self, campaign_dir):
        out = campaign_dir / "out"
        rc = main(["analyze", "--in", str(out)])
        assert rc == 0
        report = json.loads((out / "analysis.report").read_text())
        assert report["n_series"] == 2
        assert report["shift_x"]["n"] == 4
        assert "null_compatible_2sigma" in report
        assert (out / "series_00" / "summary.report").exists()

    def test_analyze_loads_each_series_once(self, campaign_dir, monkeypatch):
        loaded = []

        def counting_load(path):
            loaded.append(Path(path).name)
            return load_dataset(path)

        monkeypatch.setattr(gupsim.cli, "load_dataset", counting_load)
        assert main(["analyze", "--in", str(campaign_dir / "out")]) == 0
        assert loaded == ["series_00", "series_01"]

    def test_shift_scan(self, campaign_dir):
        out = campaign_dir / "out"
        assert main(["analyze", "--in", str(out)]) == 0
        rc = main(["shift-scan", "--in", str(out)])
        assert rc == 0
        report = json.loads((out / "shift_scan.report").read_text())
        assert "slope" in report and "theory_slope" in report
        # one row per group of the two series: f_m, width, width error
        table = (out / "shift_scan.dat").read_text().splitlines()
        assert table[0] == "# columns: f_m_hz width_hz width_err_hz"
        assert [len(row.split()) for row in table[1:]] == [3] * 4
        assert report["theory_slope"] == pytest.approx(2.6734, abs=1e-3)

    def test_bound(self, campaign_dir, capsys):
        out = campaign_dir / "out"
        main(["analyze", "--in", str(out)])
        capsys.readouterr()
        rc = main(["bound", "--summary", str(out / "analysis.report"),
                   "--quadrature", "x"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["beta0_limit"] > 0
        assert result["convention"] == "mean-square-displacement"

    @pytest.mark.parametrize("section, key, value", [
        ("operating", "alpha_sq", "1200"), ("shift_x", "n", "2"), ("shift_x", "n", 2.0),
        ("operating", "n_bar", None), ("shift_x", "mean_hz", None),
    ], ids=["alpha_sq_string", "n_string", "n_float", "n_bar_null", "mean_null"])
    def test_bound_refuses_mistyped_report(self, campaign_dir, tmp_path, capsys,
                                           section, key, value):
        out = campaign_dir / "out"
        assert main(["analyze", "--in", str(out)]) == 0
        report = json.loads((out / "analysis.report").read_text())
        report[section][key] = value
        (tmp_path / "analysis.report").write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["bound", "--summary", str(tmp_path / "analysis.report")]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ValueError"
        assert f"{section}.{key}" in err["message"]
        assert "config key" not in err["message"]
        assert captured.out == ""

    def test_bound_refuses_series_summary(self, campaign_dir, capsys):
        out = campaign_dir / "out"
        assert main(["analyze", "--in", str(out)]) == 0
        capsys.readouterr()
        summary = out / "series_00" / "summary.report"
        assert main(["bound", "--summary", str(summary)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err) == {
            "error": "MissingStatistics",
            "message": f"{summary} lacks operating, mode: bound reads "
                       "<in>/analysis.report, which `gupsim analyze --in <in>` writes"}
        assert captured.out == ""

    def test_bound_refuses_amplitude_sweep(self, tmp_path, capsys):
        # two |alpha|^2 give two operating points, and the pooled shifts map to neither
        cfg = small_config(schedule=ProtocolSchedule(group_size=5).with_duration(0.4),
                           series=((0.0, 1200.0), (0.0, 4800.0)))
        save_config(cfg, tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--series", "2"]) == 0
        assert main(["analyze", "--in", str(out)]) == 0
        assert json.loads((out / "analysis.report").read_text())["operating"] is None
        capsys.readouterr()
        assert main(["bound", "--summary", str(out / "analysis.report")]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "UncalibratedCampaign"
        assert "different operating points" in err["message"]
        assert captured.out == ""

    def test_emit_plot_data(self, campaign_dir):
        # analyze writes the plot files of the traces and shifts it holds
        out = campaign_dir / "out"
        assert main(["analyze", "--in", str(out)]) == 0
        assert sorted(p.name for p in (out / "plot_data").iterdir()) == [
            "quadrature_x.dat", "quadrature_y.dat",
            "shift_histogram_x.dat", "shift_histogram_y.dat"]

    def test_reports_feed_shift_scan_and_histogram(self, campaign_dir, tmp_path):
        # the reports give what a fresh load and fit of every series gives, byte for byte
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(campaign_dir / "config.json"),
                     "--out", str(out), "--series", "2"]) == 0
        for command in ("analyze", "shift-scan"):
            assert main([command, "--in", str(out)]) == 0
        dirs = [out / "series_00", out / "series_01"]
        datasets = [load_dataset(d) for d in dirs]
        analyses = [analyze_dataset(ds) for ds in datasets]
        points = [(f.f_m, f.gamma_eff_hz, f.gamma_eff_hz_err)
                  for a in analyses for f in a.ringdown_fits]
        scan = width_vs_shift_scan(points)
        ref = tmp_path / "ref"
        write_columns(ref / "shift_scan.dat", [], "f_m_hz width_hz width_err_hz",
                      (f"{float(fm)!r} {float(w)!r} {float(we)!r}" for fm, w, we in points))
        cfg = datasets[0].config
        theory = spring_damping_slope(cfg.cavity, cfg.mode)
        report = {"slope": scan.slope, "slope_err": scan.slope_err,
                  "offset_hz": scan.offset, "offset_err_hz": scan.offset_err,
                  "theory_slope": theory, "slope_over_theory": scan.slope / theory}
        (ref / "shift_scan.report").write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n")
        summary = summarize_campaign(analyses)
        save_histogram(summary.stats_x, ref / "plot_data" / "shift_histogram_x.dat")
        save_histogram(summary.stats_y, ref / "plot_data" / "shift_histogram_y.dat")
        for name in ("shift_scan.dat", "shift_scan.report", "plot_data/shift_histogram_x.dat",
                     "plot_data/shift_histogram_y.dat"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_shift_scan_reads_no_record(self, campaign_dir, monkeypatch, use_cpus):
        # one worker, so a record read would be read in this process
        use_cpus(1)
        out = campaign_dir / "out"
        assert main(["analyze", "--in", str(out)]) == 0
        calls = []

        def counting(name):
            return lambda *args, **kw: calls.append(name)

        for module, name in ((gupsim.cli, "load_dataset"), (gupsim.cli, "analyze_dataset"),
                             (gupsim.storage, "load_record")):
            monkeypatch.setattr(module, name, counting(name))
        assert main(["shift-scan", "--in", str(out)]) == 0
        assert calls == []

    @pytest.mark.parametrize("argv, report", [
        (["shift-scan"], "series_00/summary.report"),
    ], ids=["shift_scan"])
    def test_needs_analyze_first(self, tmp_path, capsys, argv, report):
        cfg = small_config(schedule=ProtocolSchedule(group_size=5).with_duration(0.4))
        save_config(cfg, tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 0
        before = dir_digest(out)
        capsys.readouterr()
        assert main([*argv, "--in", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "FileNotFoundError",
                       "message": f"{out / report} not found: run "
                                  f"`gupsim analyze --in {out}` first"}
        assert dir_digest(out) == before

    def test_emit_quadratures_golden(self, tmp_path):
        golden = Path(__file__).parent / "golden" / "analyze_config.json"
        assert load_config(golden).schedule.group_size == 5
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(golden), "--out", str(out)]) == 0
        assert main(["analyze", "--in", str(out)]) == 0
        h = snapshot_hash(out / "series_00")
        records = [load_record(p, h) for p in
                   sorted((out / "series_00" / "records").glob("*.qrec"))[:5]]
        save_quadratures(average_records(records), tmp_path / "ref")
        for name in ("quadrature_x.dat", "quadrature_y.dat"):
            assert ((out / "plot_data" / name).read_bytes()
                    == (tmp_path / "ref" / name).read_bytes()), name

    def test_emit_quadratures_short_series(self, tmp_path, capsys):
        # 3 cycles make no group of 5: no trace to write, and no shift to fit
        d = json.loads((GOLDEN / "analyze_config.json").read_text())
        d["schedule"]["cycles_per_series"] = 3
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--in", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "TooFewSamples",
            "message": "series 0 holds 0 whole groups (3 cycles in groups of 5); "
                       "need >= 2 to aggregate shifts"}
        assert not (out / "plot_data").exists()

    def test_failed_fit_leaves_quadratures(self, campaign_dir, tmp_path, monkeypatch,
                                           capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(campaign_dir / "config.json"),
                     "--out", str(out), "--series", "2"]) == 0

        def diverging(*args, **kw):
            raise FitDiverged("forced")

        monkeypatch.setattr(gupsim.protocol, "fit_ringdown", diverging)
        capsys.readouterr()
        assert main(["analyze", "--in", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "FitDiverged",
                                                        "message": "forced"}
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                      if p.is_file() and "records" not in p.parts) == [
            "campaign.manifest", "plot_data/quadrature_x.dat", "plot_data/quadrature_y.dat",
            "series_00/config.snapshot", "series_01/config.snapshot"]

    def test_emit_spectra(self, tmp_path):
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        out = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--stationary", "2"]) == 0
        assert main(["thermometry", "--in", str(out)]) == 0
        # the exported spectrum is the one thermometry fits: the average of each
        # chunk's Welch spectrum at 50 Hz
        spectrum = out / "plot_data" / "heterodyne_spectrum.dat"
        head = spectrum.read_text().splitlines()
        report = json.loads((out / "thermometry.report").read_text())
        assert f"# n_averages: {report['n_averages']}" in head
        assert f"# resolution_hz: {report['resolution_hz']!r}" in head
        assert report["resolution_hz"] == 50.0
        chunks = sorted((out / "stationary").glob("*.braw"))
        save_spectrum(average_spectra([welch_psd(load_raw(p), 50_000) for p in chunks]),
                      tmp_path / "ref.dat")
        assert spectrum.read_bytes() == (tmp_path / "ref.dat").read_bytes()

    def test_emit_spectra_without_raw(self, tmp_path, capsys):
        save_config(small_config(), tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["thermometry", "--in", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert "simulate --stationary" in err["message"]
        assert not (out / "plot_data").exists()

    def test_thermometry_without_stationary(self, campaign_dir, capsys):
        for target in (campaign_dir / "out", campaign_dir / "out" / "series_00"):
            assert main(["thermometry", "--in", str(target)]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "FileNotFoundError"
            assert "simulate --stationary" in err["message"]
            assert not (target / "thermometry.report").exists()
            assert not (target / "plot_data" / "heterodyne_spectrum.dat").exists()

    def test_thermometry_stationary(self, tmp_path, capsys):
        root = tmp_path / "th"
        cfg = small_config(alpha_sq=0.0)
        save_config(cfg, tmp_path / "c.json")
        rc = main(["simulate", "--config", str(tmp_path / "c.json"),
                   "--out", str(root), "--stationary", "4"])
        assert rc == 0
        rc = main(["thermometry", "--in", str(root)])
        assert rc == 0
        report = json.loads((root / "thermometry.report").read_text())
        assert report["n_bar"] == pytest.approx(5.0, abs=1.5)
        assert report["purity"] == pytest.approx(1.0 / 11.0, abs=0.03)

    @pytest.mark.parametrize("seconds", ["0", "-3", "0.4", "2.5", "nan", "inf"])
    def test_stationary_needs_whole_chunks(self, tmp_path, capsys, seconds):
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        out = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--stationary", seconds]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert "positive whole number of 1 s chunks" in err["message"]
        assert not out.exists()

    def test_stationary_accepts_whole_float(self, tmp_path):
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        out = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--stationary", "2.0"]) == 0
        assert [p.name for p in sorted((out / "stationary").iterdir())] == [
            "0000.braw", "0001.braw"]

    def test_stationary_refuses_old_chunks(self, tmp_path, capsys):
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        out = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--seed", "1",
                     "--out", str(out), "--stationary", "2"]) == 0
        before = dir_digest(out)
        capsys.readouterr()
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--seed", "2",
                     "--out", str(out), "--stationary", "1"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileExistsError" and "stationary" in err["message"]
        # neither the chunks nor the snapshot of the first run are touched
        assert dir_digest(out) == before

    def test_thermometry_ratio_not_above_1(self, tmp_path, capsys):
        # at n_bar = 400 two seconds cannot tell the sideband areas apart
        d = json.loads((GOLDEN / "thermometry_config.json").read_text())
        d["operating"]["n_bar"] = 400.0
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"), "--seed", "1",
                     "--out", str(out), "--stationary", "2"]) == 0
        capsys.readouterr()
        assert main(["thermometry", "--in", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "RatioUndefined"
        assert re.match(r"sideband ratio R = 0\.\d+ \+/- 0\.\d+ is not above 1",
                        err["message"])
        # the spectrum is written before the fit, so it is there to look at
        assert (out / "plot_data" / "heterodyne_spectrum.dat").is_file()
        assert not (out / "thermometry.report").exists()

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_thermometry_refuses_short_chunk(self, tmp_path, capsys, use_cpus, n_cpus):
        # 1000 samples hold no 50 Hz segment: the chunk is refused, not left
        # out, and of two short chunks the first is named
        use_cpus(n_cpus)
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        root = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(root), "--stationary", "2"]) == 0
        rng = np.random.default_rng(3)
        short = [root / "stationary" / f"{k:04d}.braw" for k in (2, 3)]
        for path in short:
            save_raw(TimeSeries(0.0, 4e-7, rng.standard_normal(1000)), path)
        capsys.readouterr()
        assert main(["thermometry", "--in", str(root)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SegmentTooLong" and str(short[0]) in err["message"]
        assert not (root / "thermometry.report").exists()
        assert not (root / "plot_data").exists()

    def test_stationary_leaves_no_carriers(self, tmp_path, use_cpus):
        # with one CPU the chunks are made in this process, which then lets
        # go of their carriers
        use_cpus(1)
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "th"), "--stationary", "2"]) == 0
        assert gupsim.detection._stationary_carriers.cache_info().currsize == 0

    def test_machine_readable_error(self, tmp_path, capsys):
        rc = main(["analyze", "--in", str(tmp_path / "nothing")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_bad_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"mode\": {}}")
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc != 0
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "KeyError"

    def test_deleted_scenario_error(self, tmp_path, capsys):
        d = json.loads(CONFIG.read_text())
        d["scenario"] = "protocol_1_decay"
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("scenario 'protocol_1_decay' is not simulated")
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("operating", "n_bar", math.nan), ("deformation", "beta0", math.nan),
        ("operating", "alpha_sq", math.inf), ("schedule", "measure_s", math.nan),
    ])
    @pytest.mark.parametrize("stationary", [[], ["--stationary", "1"]],
                             ids=["series", "stationary"])
    def test_non_finite_config_error(self, tmp_path, capsys, section, key, value,
                                     stationary):
        d = config_to_dict(small_config())
        d[section][key] = value
        (tmp_path / "c.json").write_text(json.dumps(d))     # as NaN or Infinity
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), *stationary]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ValueError"
        assert f"{section}.{key}" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config", "c.json", "--out", "o", "--stationary", "-inf"],
        ["simulate", "--out", "o"],
        ["emit-plot-data", "--what", "histogram", "--in", "o"],
        ["thermometry", "--in", "o", "--resolution", "50"],
        ["analyze", "--in", "o", "--out", "x"],
        ["thermometry", "--in", "o", "--out", "x"],
        [],
    ], ids=["stationary_minus_inf", "missing_config", "emit_plot_data",
            "thermometry_resolution", "analyze_out", "thermometry_out", "no_command"])
    def test_rejected_argument_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ArgumentError" and err["message"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_cli_surface(self):
        # every command and option, so that one added or removed shows in review
        parser = gupsim.cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert {name: {s for a in p._actions for s in a.option_strings}
                for name, p in {"gupsim": parser, **sub.choices}.items()} == {
            "gupsim": {"-h", "--help", "--version"},
            "simulate": {"-h", "--help", "--config", "--seed", "--out", "--series",
                         "--stationary"},
            "analyze": {"-h", "--help", "--in"},
            "thermometry": {"-h", "--help", "--in"},
            "shift-scan": {"-h", "--help", "--in"},
            "bound": {"-h", "--help", "--summary", "--quadrature"},
        }

    def test_readme_commands_parse(self):
        # every `gupsim ...` line of the README's bash blocks, parsed but not run
        blocks = re.findall(r"^```bash\n(.*?)^```", (ROOT / "README.md").read_text(),
                            flags=re.M | re.S)
        lines = [l for b in blocks for l in b.splitlines() if l.startswith("gupsim ")]
        assert len(lines) >= 12
        parser = gupsim.cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except argparse.ArgumentError as exc:
                pytest.fail(f"README line {line!r}: {exc}")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["simulate", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestWorkers:
    """Bytes, records and errors do not depend on the number of pool workers."""

    def cfg(self, **kw):
        return small_config(schedule=ProtocolSchedule().with_duration(0.4), **kw)

    def test_tree_independent_of_worker_count(self, tmp_path, use_cpus):
        cfg = self.cfg(series=((0.0, 1200.0), (TWO_PI * 30e3, 1200.0)),
                       shift_injection=(300.0, 2e-5))
        save_config(cfg, tmp_path / "c.json")
        digests = []
        for n in (1, 2):
            use_cpus(n)
            out = tmp_path / f"out{n}"
            assert main(["simulate", "--config", str(tmp_path / "c.json"),
                         "--out", str(out), "--series", "2"]) == 0
            assert len(list(out.glob("series_0*/records/*.qrec"))) == 20
            digests.append(dir_digest(out))
        assert digests[0] == digests[1]

    def test_run_series_equals_run_cycle(self, monkeypatch, use_cpus):
        # 10 cycles in groups of 4: two group averages, and cycles 8 and 9 not made
        cfg = self.cfg(series=((0.0, 1200.0), (TWO_PI * 30e3, 1200.0)),
                       shift_injection=(300.0, 2e-5))
        cfg = dataclasses.replace(cfg, schedule=dataclasses.replace(cfg.schedule,
                                                                    group_size=4))
        scfg = cfg.series_variant(1)
        cycles = [run_cycle(scfg, k, scfg.cycle_seed(1, k)) for k in range(8)]
        returned = spy_on_pool(monkeypatch, gupsim.protocol)
        for n in (1, 2):
            use_cpus(n)
            ds = run_series(cfg, 1)
            assert ds.config == scfg
            assert [g.cycle_index for g in ds.groups] == [0, 1]
            assert_groups_average(ds.groups, cycles, 4)
            # the pool returns one record per group, not one per cycle
            assert returned.pop() == 2

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_damaged_record_in_partial_group_reported(self, tmp_path, capsys, use_cpus,
                                                      n_cpus):
        # cycles 10 and 11 form no whole group of 5, yet are read and checked
        use_cpus(n_cpus)
        save_dataset(small_config(schedule=ProtocolSchedule(group_size=5,
                                                            cycles_per_series=12)),
                     0, tmp_path / "d")
        path = tmp_path / "d" / "records" / "0011.qrec"
        path.write_text(path.read_text()[:-5])
        with pytest.raises(CorruptRecord, match="0011.qrec"):
            load_dataset(tmp_path / "d")
        assert main(["analyze", "--in", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptRecord" and "0011.qrec" in err["message"]

    @pytest.mark.parametrize("sample", ["nan", "inf", "-inf"])
    def test_non_finite_sample_rejected(self, tmp_path, capsys, use_cpus, sample):
        use_cpus(2)
        save_dataset(self.cfg(), 0, tmp_path / "d")
        path = tmp_path / "d" / "records" / "0002.qrec"
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        t, _, y = lines[i].split()
        lines[i] = f"{t} {sample} {y}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptRecord, match="0002.qrec"):
            load_record(path, snapshot_hash(tmp_path / "d"))
        assert main(["analyze", "--in", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptRecord" and "0002.qrec" in err["message"]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_first_damaged_record_reported(self, tmp_path, capsys, use_cpus, n_cpus):
        use_cpus(n_cpus)
        save_dataset(self.cfg(), 0, tmp_path / "d")
        for k in (7, 3):
            path = tmp_path / "d" / "records" / f"{k:04d}.qrec"
            path.write_text(path.read_text()[:-5])
        assert main(["analyze", "--in", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptRecord" and "0003.qrec" in err["message"]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_missing_record_reported(self, tmp_path, capsys, use_cpus, n_cpus):
        # without record 7, later cycles would slide into earlier groups
        use_cpus(n_cpus)
        save_dataset(small_config(schedule=ProtocolSchedule(group_size=5,
                                                            cycles_per_series=20)),
                     0, tmp_path / "d")
        (tmp_path / "d" / "records" / "0007.qrec").unlink()
        assert main(["analyze", "--in", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError" and "0007.qrec" in err["message"]
        assert not (tmp_path / "d" / "analysis.report").exists()

    def test_worker_death_reported(self, tmp_path, capsys, monkeypatch, use_cpus):
        use_cpus(2)
        make = gupsim.storage.run_cycle

        def dying(cfg, cycle_index, seed, **kw):
            if cycle_index == 3:
                os._exit(1)
            return make(cfg, cycle_index, seed, **kw)

        monkeypatch.setattr(gupsim.storage, "run_cycle", dying)
        save_config(self.cfg(), tmp_path / "c.json")
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BrokenProcessPool"

    def test_thermometry_independent_of_worker_count(self, tmp_path, use_cpus):
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        digests = []
        for n in (1, 3):
            use_cpus(n)
            out = tmp_path / f"th{n}"
            assert main(["simulate", "--config", str(tmp_path / "c.json"),
                         "--out", str(out), "--stationary", "4"]) == 0
            assert main(["thermometry", "--in", str(out)]) == 0
            assert len(list((out / "stationary").glob("*.braw"))) == 4
            digests.append(dir_digest(out))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("n_cpus", [1, 2, 3])
    def test_first_damaged_raw_reported(self, tmp_path, capsys, use_cpus, n_cpus):
        use_cpus(n_cpus)
        save_config(small_config(), tmp_path / "config.snapshot")
        (tmp_path / "stationary").mkdir()
        rng = np.random.default_rng(6)
        # each chunk holds one segment at the default 50 Hz resolution
        for k in range(4):
            save_raw(TimeSeries(0.0, 4e-7, rng.standard_normal(50_000)),
                     tmp_path / "stationary" / f"{k:04d}.braw")
        for k in (3, 2):
            path = tmp_path / "stationary" / f"{k:04d}.braw"
            path.write_bytes(path.read_bytes()[:-8])
        assert main(["thermometry", "--in", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptRecord" and "0002.braw" in err["message"]

    def test_stationary_worker_death_reported(self, tmp_path, capsys, monkeypatch,
                                              use_cpus):
        use_cpus(2)
        make = gupsim.cli.synthesize_bhd

        def dying(*args, seed, **kw):
            if seed[1] == 2:
                os._exit(1)
            return make(*args, seed=seed, **kw)

        monkeypatch.setattr(gupsim.cli, "synthesize_bhd", dying)
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        out = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--stationary", "4"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BrokenProcessPool"
        # the snapshot is written last, so the chunks left behind are not read
        assert not (out / "config.snapshot").exists()
        assert main(["thermometry", "--in", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"
        assert not (out / "thermometry.report").exists()

    def test_thermometry_worker_death_reported(self, tmp_path, capsys, monkeypatch,
                                               use_cpus):
        use_cpus(2)
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        out = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--stationary", "4"]) == 0
        capsys.readouterr()
        read = gupsim.cli.load_raw
        test_pid = os.getpid()

        def dying(path):
            # a chunk read in this process fails the assertions below instead
            if path.name == "0002.braw" and os.getpid() != test_pid:
                os._exit(1)
            return read(path)

        monkeypatch.setattr(gupsim.cli, "load_raw", dying)
        assert main(["thermometry", "--in", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "BrokenProcessPool"
        assert not (out / "thermometry.report").exists()
        assert not (out / "plot_data" / "heterodyne_spectrum.dat").exists()

    def test_thermometry_holds_no_chunk(self, tmp_path, monkeypatch, use_cpus):
        # the workers read and transform the 20 MB chunks: this process holds
        # only their spectra, one call returning one spectrum per chunk
        use_cpus(2)
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        out = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--stationary", "4"]) == 0
        returned = spy_on_pool(monkeypatch, gupsim.cli)
        tracemalloc.start()
        try:
            assert main(["thermometry", "--in", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert returned == [4]
