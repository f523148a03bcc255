"""Smoke run of the script on the smallest input that gives 2 groups per series.

`run_injection_study.py` reads configs/null_campaign.json and overrides only
what its flags set; this run checks that the config loads and the script runs
end to end. The null campaign and the figure data come from the commands
(`simulate`, `analyze`, `bound`, `thermometry`), which the CLI tests cover.
"""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, tmp_path, monkeypatch):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [name, *args])
    main()


def test_run_injection_study(tmp_path, monkeypatch, capsys):
    run_script("run_injection_study.py", ["--series-duration", "0.8"],
               tmp_path, monkeypatch)
    text = capsys.readouterr().out
    assert "over n = 4" in text
    assert "null-campaign bound beta0 <" in text
