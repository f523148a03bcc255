"""Smoke runs of the scripts on the smallest inputs that give 2 groups per series.

Each script reads configs/null_campaign.json and overrides only what its flags
set; these runs check that the config loads and the scripts run end to end.
"""

import json
import math
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, tmp_path, monkeypatch):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *args])
    main()


def test_run_null_campaign(tmp_path, monkeypatch, capsys):
    run_script("run_null_campaign.py", ["--series", "1", "--series-duration", "0.8"],
               tmp_path, monkeypatch)
    assert "(20 cycles each)" in capsys.readouterr().out
    out = json.loads((tmp_path / "null_campaign_summary.json").read_text())
    assert out["config_seed"] == 101 and out["n_series"] == 1
    for quad in ("x", "y"):
        assert out[f"shift_{quad}"]["n"] == 2
        limit = out[f"shift_{quad}"]["beta0_limit"]
        assert math.isfinite(limit) and limit > 0


def test_run_injection_study(tmp_path, monkeypatch, capsys):
    run_script("run_injection_study.py", ["--series-duration", "0.8"],
               tmp_path, monkeypatch)
    text = capsys.readouterr().out
    assert "over n = 4" in text
    assert "null-campaign bound beta0 <" in text


def test_emit_figure_data(tmp_path, monkeypatch, capsys):
    run_script("emit_figure_data.py", ["--seconds", "1"], tmp_path, monkeypatch)
    text = capsys.readouterr().out
    assert "cooled: n_bar =" in text and "excited: n_bar =" in text
    out = tmp_path / "figure_data"
    for name in ("sidebands_cooled", "sidebands_excited", "ringdown_x", "ringdown_y",
                 "shift_histogram_x", "shift_histogram_y"):
        assert (out / f"{name}.dat").stat().st_size > 0
    header = (out / "shift_histogram_x.dat").read_text()
    assert "# n: 10" in header

