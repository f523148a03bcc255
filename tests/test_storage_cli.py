import hashlib
import json
import math
import os
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


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = small_config(series_probe_detunings=(0.0, 1000.0),
                           shift_injection=(500.0, 1e-5),
                           deformation=DeformationParams(beta0=1e30))
        d1 = config_to_dict(cfg)
        cfg2 = config_from_dict(d1)
        d2 = config_to_dict(cfg2)
        assert d1 == d2
        assert config_hash(d1) == config_hash(d2)

    def test_file_round_trip(self, tmp_path):
        cfg = small_config()
        h = save_config(cfg, tmp_path / "c.json")
        cfg2 = load_config(tmp_path / "c.json")
        assert config_hash(config_to_dict(cfg2)) == h

    def test_shipped_config_is_canonical(self, tmp_path):
        # a setting the program no longer reads cannot linger in the file
        save_config(load_config(CONFIG), tmp_path / "c.json")
        assert (tmp_path / "c.json").read_bytes() == CONFIG.read_bytes()

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
        x = TimeSeries(0.0, 3.2e-6, rng.standard_normal(64), {"seed": "[1, 2]"})
        y = TimeSeries(0.0, 3.2e-6, rng.standard_normal(64), {"seed": "[1, 2]"})
        rec = QuadratureRecord(x, y, cycle_index=7)
        save_record(rec, tmp_path / "r.qrec")
        back = load_record(tmp_path / "r.qrec")
        assert back.cycle_index == 7
        np.testing.assert_array_equal(back.x_quad.samples, x.samples)
        np.testing.assert_array_equal(back.y_quad.samples, y.samples)
        assert back.x_quad.dt == x.dt

    def test_record_bytes_pinned(self, tmp_path):
        x = TimeSeries(0.0, 0.5, [1.0, -2.5e-7, math.pi], {"seed": "[1, 2]"})
        y = TimeSeries(0.0, 0.5, [0.1, 1e16, -0.0], {"seed": "[1, 2]"})
        save_record(QuadratureRecord(x, y, cycle_index=4), tmp_path / "r.qrec",
                    extra_header={"config_hash": "0123456789ab"})
        assert (tmp_path / "r.qrec").read_bytes() == (
            b"# format: qrec-1\n"
            b"# cycle_index: 4\n"
            b"# t0_s: 0.0\n"
            b"# dt_s: 0.5\n"
            b"# n_samples: 3\n"
            b"# seed: [1, 2]\n"
            b"# config_hash: 0123456789ab\n"
            b"# columns: t_s x_quad y_quad\n"
            b"0.0 1.0 0.1\n"
            b"0.5 -2.5e-07 1e+16\n"
            b"1.0 3.141592653589793 -0.0\n")

    @pytest.mark.parametrize("damage", [
        lambda text: text[:-5],                                  # cut mid-number
        lambda text: text[:text.rindex("\n", 0, -1) + 1],        # last row dropped
        lambda text: text.replace("\n0.0 ", "\n0.0 x", 1),       # junk in the first row
    ], ids=["cut_mid_number", "row_dropped", "junk"])
    def test_damaged_record_rejected(self, tmp_path, damage):
        rng = np.random.default_rng(5)
        x = TimeSeries(0.0, 3.2e-6, rng.standard_normal(16))
        y = TimeSeries(0.0, 3.2e-6, rng.standard_normal(16))
        path = tmp_path / "0000.qrec"
        save_record(QuadratureRecord(x, y), path)
        path.write_text(damage(path.read_text()))
        with pytest.raises(CorruptRecord, match="0000.qrec"):
            load_record(path)

    def test_record_from_other_config_rejected(self, tmp_path, capsys):
        save_dataset(small_config(schedule=ProtocolSchedule().with_duration(0.08)), 0,
                     tmp_path / "d")
        path = tmp_path / "d" / "records" / "0001.qrec"
        text = path.read_text()
        h = json.loads((tmp_path / "d" / "config.snapshot").read_text())["config_hash"]
        path.write_text(text.replace(f"# config_hash: {h}", "# config_hash: 000000000000"))
        with pytest.raises(CorruptRecord, match="0001.qrec"):
            load_dataset(tmp_path / "d")
        assert main(["analyze", "--in", str(tmp_path / "d")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CorruptRecord" and "0001.qrec" in err["message"]

    def test_raw_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        ts = TimeSeries(-0.002, 4e-7, rng.standard_normal(1000), {"kind": "bhd"})
        save_raw(ts, tmp_path / "r.braw")
        back = load_raw(tmp_path / "r.braw")
        np.testing.assert_array_equal(back.samples, ts.samples)
        assert back.t0 == ts.t0 and back.dt == ts.dt

    @pytest.mark.parametrize("damage", [
        lambda data: data[:-3],         # not a whole number of float64s
        lambda data: data[:-8],         # one sample short
        lambda data: b"{" + data,       # header line not JSON
        lambda data: data[:-8] + np.array([np.nan]).tobytes(),  # non-finite sample
    ], ids=["cut_3_bytes", "cut_8_bytes", "bad_header", "nan_sample"])
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
        cfg = small_config(store_raw=True, series_probe_detunings=(0.0, TWO_PI * 30e3))
        scfg = cfg.series_variant(1)
        assert save_dataset(cfg, 1, tmp_path / "d") == scfg
        back = load_dataset(tmp_path / "d")
        assert back.config == scfg and back.series_index == 1
        # raw files stay on disk; readers open them by path
        raw_paths = sorted((tmp_path / "d" / "raw").glob("*.braw"))
        n = cfg.schedule.cycles_per_series
        assert len(back.records) == len(raw_paths) == n
        for k, (rec, path) in enumerate(zip(back.records, raw_paths)):
            want, raw = run_cycle(scfg, k, scfg.cycle_seed(1, k), return_raw=True)
            assert rec.cycle_index == k
            np.testing.assert_array_equal(rec.x_quad.samples, want.x_quad.samples)
            np.testing.assert_array_equal(rec.y_quad.samples, want.y_quad.samples)
            np.testing.assert_array_equal(load_raw(path).samples, raw.samples)

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
    cfg = small_config(store_raw=False,
                       schedule=ProtocolSchedule(group_size=5).with_duration(0.4))
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
            summary = json.loads((d / "summary.report").read_text())
            assert summary["kind"] == "operating-point"
            assert summary["operating"]["n_bar"] == 5.0

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
        records = [load_record(p) for p in
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

        def counting_load(path):
            opened.append(Path(path).name)
            return load(path)

        monkeypatch.setattr(gupsim.storage, "load_record", counting_load)
        assert main(["emit-plot-data", "--what", "quadratures",
                     "--in", str(campaign_dir / "out"), "--out", str(tmp_path)]) == 0
        assert opened == [f"{k:04d}.qrec" for k in range(5)]

    def test_emit_spectra(self, tmp_path, capsys):
        save_config(small_config(store_raw=True), tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 0
        # 12 ms raw cycles hold one 100 Hz segment but no 50 Hz one
        assert main(["emit-plot-data", "--what", "spectra", "--in", str(out),
                     "--resolution", "100"]) == 0
        assert (out / "plot_data" / "heterodyne_spectrum.dat").exists()
        capsys.readouterr()
        assert main(["emit-plot-data", "--what", "spectra", "--in", str(out),
                     "--out", str(tmp_path / "pd")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "SegmentTooLong"
        assert not (tmp_path / "pd").exists()

    def test_emit_spectra_without_raw(self, tmp_path, capsys):
        save_config(small_config(store_raw=False), tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "c.json"),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["emit-plot-data", "--what", "spectra", "--in", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NoRawData"
        assert not (out / "plot_data").exists()

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


class TestWorkers:
    """Bytes, records and errors do not depend on the number of pool workers."""

    def cfg(self, **kw):
        return small_config(schedule=ProtocolSchedule().with_duration(0.4), **kw)

    def test_tree_independent_of_worker_count(self, tmp_path, use_cpus):
        cfg = self.cfg(store_raw=True, series_probe_detunings=(0.0, TWO_PI * 30e3),
                       shift_injection=(300.0, 2e-5))
        save_config(cfg, tmp_path / "c.json")
        digests = []
        for n in (1, 2):
            use_cpus(n)
            out = tmp_path / f"out{n}"
            assert main(["simulate", "--config", str(tmp_path / "c.json"),
                         "--out", str(out), "--series", "2"]) == 0
            assert len(list(out.glob("series_0*/raw/*.braw"))) == 20
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
            load_record(path)
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
