"""Which processes import `scipy.signal` and `scipy.fft`.

They take most of a second to import, so only the commands that synthesize or
transform load them, and each loads them before its pool forks, so that no
worker imports them again. Each check runs in a fresh interpreter, since this
one holds them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gupsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# argv: number of usable CPUs, then the script's own arguments
PREAMBLE = """
import json, os, sys
n_cpus = int(sys.argv[1])
os.sched_getaffinity = lambda pid: set(range(n_cpus))
import gupsim.cli


def loaded():
    return [m for m in ("scipy.signal", "scipy.fft") if m in sys.modules]
"""

# runs analyze, shift-scan and bound on a series directory
FOOTPRINT = PREAMBLE + """
out = sys.argv[2]
seen = {"import gupsim.cli": loaded()}
for argv in (["analyze", "--in", out], ["shift-scan", "--in", out],
             ["bound", "--summary", out + "/analysis.report", "--quadrature", "x"]):
    seen[argv[0]] = [gupsim.cli.main(argv), loaded()]
print(json.dumps(seen))
"""

# runs one command; notes what is loaded when its pool is built, and fails a
# worker that imports any module
WARM_BEFORE_FORK = PREAMBLE + """
import gupsim.pool


def checked(fn, *args):
    before = set(sys.modules)
    out = fn(*args)
    new = sorted(set(sys.modules) - before)
    if new:
        raise RuntimeError(f"worker {os.getpid()} imported {new}")
    return out


class Pool(gupsim.pool.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        at_fork.append(loaded())
        super().__init__(*args, **kwargs)

    def submit(self, fn, /, *args):
        return super().submit(checked, fn, *args)


at_fork = []
gupsim.pool.ProcessPoolExecutor = Pool
rc = gupsim.cli.main(sys.argv[2:])
print(json.dumps({"rc": rc, "at_fork": at_fork}))
"""


def run_fresh(script: str, n_cpus: int, *args) -> dict:
    """Run `script` in a new interpreter; return the JSON of its last output line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(n_cpus), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """A two-series run of the analyze golden config, and a 2-chunk stationary run."""
    root = tmp_path_factory.mktemp("imports")
    assert main(["simulate", "--config", str(GOLDEN / "analyze_config.json"),
                 "--out", str(root / "series"), "--series", "2"]) == 0
    assert main(["simulate", "--config", str(GOLDEN / "thermometry_config.json"),
                 "--out", str(root / "stationary"), "--stationary", "2"]) == 0
    return root


def test_report_commands_do_not_import_scipy_signal(runs):
    # one CPU, so analyze reads the records in this process too
    seen = run_fresh(FOOTPRINT, 1, runs / "series")
    assert seen == {"import gupsim.cli": [], "analyze": [0, []],
                    "shift-scan": [0, []], "bound": [0, []]}


@pytest.mark.parametrize("command", ["simulate", "simulate --stationary", "thermometry"])
def test_scipy_signal_loaded_before_fork(runs, tmp_path, command):
    argv = {
        "simulate": ["simulate", "--config", GOLDEN / "analyze_config.json",
                     "--out", tmp_path / "out", "--series", "1"],
        "simulate --stationary": ["simulate", "--config",
                                  GOLDEN / "thermometry_config.json",
                                  "--out", tmp_path / "out", "--stationary", "2"],
        "thermometry": ["thermometry", "--in", runs / "stationary"],
    }[command]
    result = run_fresh(WARM_BEFORE_FORK, 2, *argv)
    assert result == {"rc": 0, "at_fork": [["scipy.signal", "scipy.fft"]]}
