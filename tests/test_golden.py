"""Golden-run regression: pinned reports for pinned (config, seed) pairs.

The datasets are regenerated from their pinned (config, seed) pairs and the
analysis output must match the frozen reports. On one build the simulator is
byte-deterministic. Across numpy or libm builds the samples may differ in
their last bits, so regenerating is not the same as shipping the data; the
analysis is insensitive to such differences at the 1e-10 level, which
`test_analysis_insensitive_to_last_bit_changes` checks.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from gupsim.cli import main
from gupsim.storage import load_record, save_record

GOLDEN = Path(__file__).parent / "golden"


def assert_deep_close(got, want, path="", rtol=1e-9):
    if isinstance(want, dict):
        assert set(got) == set(want), f"key mismatch at {path}"
        for k in want:
            assert_deep_close(got[k], want[k], f"{path}.{k}", rtol)
    elif isinstance(want, list):
        assert len(got) == len(want), f"length mismatch at {path}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_deep_close(g, w, f"{path}[{i}]", rtol)
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=rtol, abs=1e-12), f"value at {path}"
    else:
        assert got == want, f"value at {path}"


def test_golden_analyze_report(tmp_path):
    rc = main(["simulate", "--config", str(GOLDEN / "analyze_config.json"),
               "--out", str(tmp_path / "out"), "--series", "2"])
    assert rc == 0
    rc = main(["analyze", "--in", str(tmp_path / "out")])
    assert rc == 0
    got = json.loads((tmp_path / "out" / "analysis.report").read_text())
    want = json.loads((GOLDEN / "analyze_report.json").read_text())
    assert_deep_close(got, want)


def test_golden_thermometry_report(tmp_path):
    rc = main(["simulate", "--config", str(GOLDEN / "thermometry_config.json"),
               "--out", str(tmp_path / "th"), "--stationary", "6"])
    assert rc == 0
    rc = main(["thermometry", "--in", str(tmp_path / "th")])
    assert rc == 0
    got = json.loads((tmp_path / "th" / "thermometry.report").read_text())
    want = json.loads((GOLDEN / "thermometry_report.json").read_text())
    assert_deep_close(got, want)
    # round trip lands on the configured occupancy
    assert got["n_bar"] == pytest.approx(5.0, abs=0.5)
    assert got["purity"] == pytest.approx(1.0 / 11.0, abs=0.02)


def test_analysis_insensitive_to_last_bit_changes(tmp_path):
    """Moving every stored sample by one ULP moves the report by < 1e-10.

    Builds of numpy or libm may synthesize the same (config, seed) with
    samples that differ in their last bits; the fits must not turn that into
    a visible change of the analysis.
    """
    rc = main(["simulate", "--config", str(GOLDEN / "analyze_config.json"),
               "--out", str(tmp_path / "a"), "--series", "2"])
    assert rc == 0
    shutil.copytree(tmp_path / "a", tmp_path / "b")
    rng = np.random.default_rng(2004)
    paths = sorted((tmp_path / "b").glob("series_*/records/*.qrec"))
    assert paths
    for path in paths:
        h = json.loads((path.parent.parent / "config.snapshot").read_text())["config_hash"]
        rec = load_record(path, h)
        for ts in (rec.x_quad, rec.y_quad):
            away = np.where(rng.random(len(ts)) < 0.5, -np.inf, np.inf)
            ts.samples[:] = np.nextafter(ts.samples, away)
        save_record(rec, path, h)
    reports = []
    for name in ("a", "b"):
        assert main(["analyze", "--in", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "analysis.report").read_text()))
    assert reports[1] != reports[0]
    assert_deep_close(reports[1], reports[0], rtol=1e-10)
