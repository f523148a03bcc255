"""The benchmark's own tests: shortened runs, and every output check shown to
fail on a deliberately wrong output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_shortened_run_completes(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload,span", [("fits", "estimation.fit_ringdown.calls"),
                                           ("thermometry", "storage.load_raw.calls")])
def test_traced_run_reports_every_layer(workload, span):
    proc = _run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == set(tracer.PER_LAYER)
    assert result["metrics"][span]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fits", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- series ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_series(tmp_path_factory):
    """A 60-cycle series of the default config, simulated, analyzed and bounded."""
    workdir = tmp_path_factory.mktemp("series")
    cfg = json.loads((ROOT / workloads.CONFIG).read_text())
    cfg["schedule"].update(cycles_per_series=60, series_duration_s=2.4)
    (workdir / "small.json").write_text(json.dumps(cfg))
    wl = workloads.Series(ROOT, 5, workdir, workdir / "small.json")
    wl.setup()
    _, failed = wl.run_round()
    assert failed == 0
    return wl


def _series_errors(wl, bounds=None):
    return checks.check_series(wl.out / "series_00", wl.cfg, wl.seed,
                               bounds or wl.bounds)


def _edit_json(path: Path, edit):
    saved = path.read_text()
    d = json.loads(saved)
    edit(d)
    path.write_text(json.dumps(d))
    return saved


def test_series_checks_pass(small_series):
    assert _series_errors(small_series) == []


def test_series_flipped_record_bit_fails(small_series):
    path = small_series.out / "series_00" / "records" / "0000.qrec"
    saved = path.read_text()
    lines = saved.splitlines()
    i = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    t, x, y = lines[i].split()
    bits = np.array([float(x)]).view(np.int64) ^ 1
    lines[i] = f"{t} {float(bits.view(np.float64)[0])!r} {y}"
    path.write_text("\n".join(lines) + "\n")
    try:
        assert any("differs from re-synthesis" in e for e in _series_errors(small_series))
    finally:
        path.write_text(saved)


def test_series_fit_moved_by_one_standard_error_fails(small_series):
    path = small_series.out / "series_00" / "summary.report"

    def move(d):
        for f in d["ringdown"]:
            f["f_m_hz"] += f["f_m_hz_err"]

    saved = _edit_json(path, move)
    try:
        assert any("polish moves" in e for e in _series_errors(small_series))
    finally:
        path.write_text(saved)


def test_series_unconverged_group_fails(small_series):
    path = small_series.out / "series_00" / "summary.report"
    saved = _edit_json(path, lambda d: d["ringdown"][1].update(converged=False))
    try:
        assert any("did not converge" in e for e in _series_errors(small_series))
    finally:
        path.write_text(saved)


def test_series_bound_off_by_1e9_fails(small_series):
    bounds = json.loads(json.dumps(small_series.bounds))
    bounds["Y"]["beta0_limit"] *= 1.0 + 1e-9
    errors = _series_errors(small_series, bounds)
    assert len(errors) == 1 and "closed form" in errors[0]


def test_series_shift_off_null_fails(small_series):
    path = small_series.out / "analysis.report"

    def shift(d):
        s = d["shift_x"]
        s["mean_hz"] = 3.5 * s["std_hz"] / s["n"] ** 0.5

    saved = _edit_json(path, shift)
    try:
        assert any("null-compatible" in e for e in _series_errors(small_series))
    finally:
        path.write_text(saved)


# --- fits --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    wl = workloads.Fits(ROOT, 4, tmp_path_factory.mktemp("fits"))
    wl.setup()
    _, failed = wl.run_round()
    assert failed == 0
    return wl


def _fits_errors(wl, ringdowns=None, shifts=None, bounds=None):
    return checks.check_fits(wl.truth[wl.ok], wl.noisy[wl.ok], ringdowns or wl.ringdowns,
                             shifts or wl.shifts, wl.stats, bounds or wl.bounds,
                             wl.cfg.mode, wl.cfg.operating_state)


def test_fits_checks_pass(fitted):
    assert _fits_errors(fitted) == []


def test_fits_noiseless_fit_moved_by_one_standard_error_fails(fitted):
    # group 0 is noiseless, so its own standard error is ~0: move it by that
    # of the noisy group 1
    ringdowns = list(fitted.ringdowns)
    ringdowns[0] = dataclasses.replace(ringdowns[0],
                                       A=ringdowns[0].A + ringdowns[1].errors[0])
    assert any("noiseless ring-down" in e for e in _fits_errors(fitted, ringdowns))


def test_fits_noisy_fits_moved_by_one_standard_error_fail(fitted):
    ringdowns = [dataclasses.replace(r, f_m=r.f_m + (r.f_m_err if noisy else 0.0))
                 for r, noisy in zip(fitted.ringdowns, fitted.noisy[fitted.ok])]
    assert any("pull of f_m: mean" in e for e in _fits_errors(fitted, ringdowns))


def test_fits_biased_shift_fails(fitted):
    shifts = [(dataclasses.replace(sx, delta_fm0=sx.delta_fm0 + sx.delta_fm0_err), sy)
              for sx, sy in fitted.shifts]
    assert any("shift on X: bias" in e for e in _fits_errors(fitted, shifts=shifts))


def test_fits_bound_off_by_1e9_fails(fitted):
    bounds = dict(fitted.bounds)
    bounds["X"] = dataclasses.replace(bounds["X"],
                                      beta0_limit=bounds["X"].beta0_limit * (1.0 + 1e-9))
    errors = _fits_errors(fitted, bounds=bounds)
    assert len(errors) == 1 and "closed form" in errors[0]


# --- thermometry -------------------------------------------------------------------

@pytest.fixture(scope="module")
def stationary(tmp_path_factory):
    """One 1 s stationary chunk, and its thermometry report."""
    wl = workloads.Thermometry(ROOT, 6, tmp_path_factory.mktemp("thermometry"))
    wl.duration_s = 1.0
    wl.setup()
    _, failed = wl.run_round()
    assert failed == 0
    return wl


def _thermometry_errors(wl):
    return checks.check_thermometry(wl.out, wl.cfg, wl.duration_s)


def test_thermometry_checks_pass(stationary):
    assert _thermometry_errors(stationary) == []


def test_thermometry_truncated_chunk_fails(stationary):
    path = stationary.out / "stationary" / "0000.braw"
    saved = path.read_bytes()
    path.write_bytes(saved[:-8])
    try:
        assert any("0000.braw" in e for e in _thermometry_errors(stationary))
    finally:
        path.write_bytes(saved)


def test_thermometry_purity_off_by_one_ulp_fails(stationary):
    path = stationary.out / "thermometry.report"
    saved = _edit_json(path, lambda d: d.update(purity=float(np.nextafter(d["purity"], 1.0))))
    try:
        assert any("purity" in e for e in _thermometry_errors(stationary))
    finally:
        path.write_text(saved)


def test_thermometry_occupancy_beyond_tolerance_fails(stationary):
    path = stationary.out / "thermometry.report"

    def move(d):
        inv_tol, _ = checks.thermometry_tolerances(d["n_averages"])
        d["n_bar"] = 1.0 / (1.0 / stationary.cfg.n_bar + 1.01 * inv_tol)
        d["purity"] = 1.0 / (2.0 * d["n_bar"] + 1.0)

    saved = _edit_json(path, move)
    try:
        errors = _thermometry_errors(stationary)
        assert len(errors) == 1 and "configured" in errors[0]
    finally:
        path.write_text(saved)


@pytest.mark.parametrize("side,sign", [("stokes", 1.0), ("antistokes", -1.0)])
def test_thermometry_centre_beyond_tolerance_fails(stationary, side, sign):
    path = stationary.out / "thermometry.report"
    det = stationary.cfg.detection

    def move(d):
        _, centre_tol = checks.thermometry_tolerances(d["n_averages"])
        nominal = (det.omega_exc + sign * det.delta_lo) / checks.TWO_PI
        d[side]["center_hz"] = nominal + 1.01 * centre_tol

    saved = _edit_json(path, move)
    try:
        errors = _thermometry_errors(stationary)
        assert len(errors) == 1 and errors[0].startswith(f"{side} centre")
    finally:
        path.write_text(saved)
