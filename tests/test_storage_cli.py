import dataclasses
import hashlib
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import gupsim.cli
import gupsim.storage
from gupsim.cli import main
from gupsim.detection import (
    DetectionConfig,
    QuadratureRecord,
    SpectrumEstimate,
    TimeSeries,
    average_records,
)
from gupsim.dynamics import DeformationParams, MechanicalMode
from gupsim.errors import CorruptRecord
from gupsim.optomech import OpticalCavity
from gupsim.protocol import CampaignConfig, ProtocolSchedule, run_cycle, run_series
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
    save_raw,
    save_record,
    save_spectrum,
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
            series_probe_detunings=(0.0, TWO_PI * 1e3), alpha_sq_per_series=(100.0, 400.0),
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
        # a setting the program no longer reads cannot linger in the file
        save_config(load_config(path), tmp_path / "c.json")
        assert (tmp_path / "c.json").read_bytes() == path.read_bytes()

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

    def test_hash_sensitive_to_fields(self):
        d1 = config_to_dict(small_config(seed=1))
        d2 = config_to_dict(small_config(seed=2))
        assert config_hash(d1) != config_hash(d2)


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

    @pytest.mark.parametrize("damage, match", [
        (lambda text: text[:-5], "0000.qrec"),                            # cut mid-number
        (lambda text: text[:text.rindex("\n", 0, -1) + 1], "0000.qrec"),  # last row dropped
        (lambda text: text.replace("\n0.0 ", "\n0.0 x", 1), "0000.qrec"),  # junk in row 1
        (lambda text: text.replace("# dt_s: 3.2e-06", "# dt_s: nan"), "0000.qrec: dt "),
    ], ids=["cut_mid_number", "row_dropped", "junk", "nan_dt"])
    def test_damaged_record_rejected(self, tmp_path, damage, match):
        rng = np.random.default_rng(5)
        x = TimeSeries(0.0, 3.2e-6, rng.standard_normal(16))
        y = TimeSeries(0.0, 3.2e-6, rng.standard_normal(16))
        path = tmp_path / "0000.qrec"
        save_record(QuadratureRecord(x, y), path, "0123456789ab")
        path.write_text(damage(path.read_text()))
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

    def test_dataset_round_trip(self, tmp_path):
        cfg = small_config(series_probe_detunings=(0.0, TWO_PI * 30e3))
        scfg = cfg.series_variant(1)
        assert save_dataset(cfg, 1, tmp_path / "d") == scfg
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == [
            "config.snapshot", "records"]
        back = load_dataset(tmp_path / "d")
        assert back.config == scfg and back.series_index == 1
        assert len(back.records) == cfg.schedule.cycles_per_series
        for k, rec in enumerate(back.records):
            want = run_cycle(scfg, k, scfg.cycle_seed(1, k))
            assert rec.cycle_index == k
            np.testing.assert_array_equal(rec.x_quad.samples, want.x_quad.samples)
            np.testing.assert_array_equal(rec.y_quad.samples, want.y_quad.samples)

    def test_spectrum_export(self, tmp_path):
        spec = SpectrumEstimate(freqs=np.array([1.0, 2.0, 3.0]),
                                psd=np.array([0.5, 1.5, 0.25]),
                                resolution=1.0, n_averages=3)
        save_spectrum(spec, tmp_path / "s.dat", header={"note": "x"})
        text = (tmp_path / "s.dat").read_text()
        assert "# columns: freq_hz psd_per_hz" in text
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


@pytest.fixture(scope="module")
def stationary_dir(tmp_path_factory):
    """One 1 s stationary chunk of the small config."""
    root = tmp_path_factory.mktemp("stationary")
    save_config(small_config(alpha_sq=0.0), root / "c.json")
    assert main(["simulate", "--config", str(root / "c.json"), "--out",
                 str(root / "run"), "--stationary", "1"]) == 0
    return root / "run"


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

    def test_bound_refuses_amplitude_sweep(self, tmp_path, capsys):
        # two |alpha|^2 give two operating points, and the pooled shifts map to neither
        cfg = small_config(schedule=ProtocolSchedule(group_size=5).with_duration(0.4),
                           alpha_sq_per_series=(1200.0, 4800.0))
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
        out = campaign_dir / "out"
        rc = main(["emit-plot-data", "--what", "histogram", "--in", str(out)])
        assert rc == 0
        rc = main(["emit-plot-data", "--what", "quadratures", "--in", str(out)])
        assert rc == 0
        pd = out / "plot_data"
        assert (pd / "shift_histogram_x.dat").exists()
        assert (pd / "quadrature_y.dat").exists()

    def test_emit_quadratures_golden(self, tmp_path):
        golden = Path(__file__).parent / "golden" / "analyze_config.json"
        assert load_config(golden).schedule.group_size == 5
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(golden), "--out", str(out)]) == 0
        assert main(["emit-plot-data", "--what", "quadratures", "--in", str(out)]) == 0
        h = snapshot_hash(out / "series_00")
        records = [load_record(p, h) for p in
                   sorted((out / "series_00" / "records").glob("*.qrec"))[:5]]
        want = average_records(records)
        for name, ts in (("x", want.x_quad), ("y", want.y_quad)):
            cols = np.loadtxt(out / "plot_data" / f"quadrature_{name}.dat")
            np.testing.assert_array_equal(cols[:, 0], want.times)
            np.testing.assert_array_equal(cols[:, 1], ts.samples)

    def test_emit_quadratures_short_series(self, tmp_path, capsys):
        d = json.loads((GOLDEN / "analyze_config.json").read_text())
        d["schedule"]["cycles_per_series"] = 3
        (tmp_path / "c.json").write_text(json.dumps(d))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["emit-plot-data", "--what", "quadratures", "--in", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InsufficientData"
        assert err["message"] == "series_00 has 3 cycles, fewer than one group of 5"
        assert not (out / "plot_data").exists()

    def test_emit_quadratures_reads_one_group(self, campaign_dir, tmp_path,
                                              monkeypatch, use_cpus):
        # one worker, so every record opened is opened in this process
        use_cpus(1)
        opened = []
        load = gupsim.storage.load_record

        def counting_load(path, *args):
            opened.append(Path(path).name)
            return load(path, *args)

        monkeypatch.setattr(gupsim.storage, "load_record", counting_load)
        assert main(["emit-plot-data", "--what", "quadratures",
                     "--in", str(campaign_dir / "out"), "--out", str(tmp_path)]) == 0
        assert opened == [f"{k:04d}.qrec" for k in range(5)]

    def test_emit_spectra(self, tmp_path, capsys):
        save_config(small_config(alpha_sq=0.0), tmp_path / "c.json")
        out = tmp_path / "th"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out), "--stationary", "2"]) == 0
        assert main(["emit-plot-data", "--what", "spectra", "--in", str(out)]) == 0
        assert main(["thermometry", "--in", str(out)]) == 0
        # the exported spectrum is the one thermometry fits
        head = (out / "plot_data" / "heterodyne_spectrum.dat").read_text().splitlines()
        report = json.loads((out / "thermometry.report").read_text())
        assert f"# n_averages: {report['n_averages']}" in head
        assert f"# resolution_hz: {report['resolution_hz']!r}" in head
        # 1 s chunks hold no 0.5 Hz segment, nor a finer one
        for resolution in ("0.5", "1e-9"):
            capsys.readouterr()
            assert main(["emit-plot-data", "--what", "spectra", "--in", str(out),
                         "--resolution", resolution, "--out", str(tmp_path / "pd")]) == 1
            assert json.loads(capsys.readouterr().err)["error"] == "SegmentTooLong"
        assert not (tmp_path / "pd").exists()

    def test_emit_spectra_without_raw(self, tmp_path, capsys):
        save_config(small_config(), tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["emit-plot-data", "--what", "spectra", "--in", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFoundError"
        assert "simulate --stationary" in err["message"]
        assert not (out / "plot_data").exists()

    def test_thermometry_without_stationary(self, campaign_dir, tmp_path, capsys):
        for target in (campaign_dir / "out", campaign_dir / "out" / "series_00"):
            assert main(["thermometry", "--in", str(target),
                         "--out", str(tmp_path / "t.report")]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "FileNotFoundError"
            assert "simulate --stationary" in err["message"]
        assert not (tmp_path / "t.report").exists()

    @pytest.mark.parametrize("resolution", ["0", "-5", "inf", "nan"])
    def test_resolution_must_be_positive_finite(self, stationary_dir, tmp_path, capsys,
                                                resolution):
        for argv in (["thermometry", "--out", str(tmp_path / "t.report")],
                     ["emit-plot-data", "--what", "spectra", "--out", str(tmp_path)]):
            assert main([*argv, "--in", str(stationary_dir),
                         "--resolution", resolution]) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == "ValueError" and "--resolution" in err["message"]
        assert list(tmp_path.iterdir()) == []

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
        assert not (out / "thermometry.report").exists()

    def test_thermometry_single_file(self, tmp_path, capsys):
        root = tmp_path / "th1"
        cfg = small_config(alpha_sq=0.0)
        save_config(cfg, tmp_path / "c1.json")
        main(["simulate", "--config", str(tmp_path / "c1.json"),
              "--out", str(root), "--stationary", "1"])
        capsys.readouterr()
        rc = main(["thermometry", "--in", str(root / "stationary" / "0000.braw"),
                   "--out", str(tmp_path / "single.report")])
        assert rc == 0
        report = json.loads((tmp_path / "single.report").read_text())
        assert math.isfinite(report["n_bar"])

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
        ["emit-plot-data", "--what", "figures", "--in", "o"],
        [],
    ], ids=["stationary_minus_inf", "missing_config", "unknown_what", "no_command"])
    def test_rejected_argument_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ArgumentError" and err["message"]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

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
        cfg = self.cfg(series_probe_detunings=(0.0, TWO_PI * 30e3),
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

    def test_run_series_equals_run_cycle(self, use_cpus):
        use_cpus(2)
        cfg = self.cfg(series_probe_detunings=(0.0, TWO_PI * 30e3),
                       shift_injection=(300.0, 2e-5))
        ds = run_series(cfg, 1)
        scfg = cfg.series_variant(1)
        assert ds.config == scfg
        assert [r.cycle_index for r in ds.records] == list(range(10))
        for k, rec in enumerate(ds.records):
            want = run_cycle(scfg, k, scfg.cycle_seed(1, k))
            assert rec.x_quad.t0 == want.x_quad.t0
            np.testing.assert_array_equal(rec.x_quad.samples, want.x_quad.samples)
            np.testing.assert_array_equal(rec.y_quad.samples, want.y_quad.samples)

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

    def test_first_damaged_raw_reported(self, tmp_path, capsys, use_cpus):
        use_cpus(2)
        save_config(small_config(), tmp_path / "config.snapshot")
        (tmp_path / "stationary").mkdir()
        rng = np.random.default_rng(6)
        for k in range(4):
            save_raw(TimeSeries(0.0, 4e-7, rng.standard_normal(64)),
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
