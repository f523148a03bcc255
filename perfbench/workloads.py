"""The three workloads: what one round runs, what it measures and checks.

A round is a fixed set of operations; every round of a run repeats the same
operations on the same inputs. `setup` loads the config and may run several
times; `run_round` returns the round's end-to-end
figures and its failed-operation count; `check` returns the failures of the
round's outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import gupsim.cli
from gupsim import estimation, storage
from gupsim.detection import QuadratureRecord, TimeSeries
from gupsim.errors import GupsimError

CONFIG = Path("configs") / "null_campaign.json"


def cli(argv: list[str]) -> tuple[int, str]:
    """Run a gupsim command in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = gupsim.cli.main(argv)
    except Exception as exc:        # a crash is a failed operation, not a lost run
        sys.stderr.write(f"gupsim {argv[0]} raised {type(exc).__name__}: {exc}\n")
        code = -1
    if code != 0:
        sys.stderr.write(f"gupsim {' '.join(argv)} exited {code}\n{buf.getvalue()}")
    return code, buf.getvalue()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class _Workload:
    """Shared set-up: the default config with the run's seed."""

    def __init__(self, root: Path, seed: int, workdir: Path, config: Path = CONFIG):
        self.seed, self.workdir = seed, workdir
        self.source = root / config
        self.out = workdir / "out"
        self.config_path = workdir / "config.json"

    def setup(self):
        text = self.source.read_text()
        cfg_dict = json.loads(text)
        cfg_dict.pop("config_hash", None)
        self.cfg = replace(storage.config_from_dict(cfg_dict), seed=self.seed)
        self.config_path.write_text(text)

    def clean(self):
        """Delete the outputs and commit the deletion, so that freeing the
        blocks does not stall the next timed round."""
        if self.out.exists():
            shutil.rmtree(self.out)
            fd = os.open(self.workdir, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


class Series(_Workload):
    """simulate -> analyze -> bound (X and Y) of one default series."""

    ops_per_round = 4

    def run_round(self) -> tuple[dict, int]:
        self.clean()
        t0 = perf_counter()
        codes = [cli(["simulate", "--config", str(self.config_path),
                      "--seed", str(self.seed), "--out", str(self.out)])[0]]
        t1 = perf_counter()
        n_bytes = dir_bytes(self.out)
        t1b = perf_counter()
        codes.append(cli(["analyze", "--in", str(self.out)])[0])
        t2 = perf_counter()
        self.bounds = {}
        for quad in ("X", "Y"):
            code, text = cli(["bound", "--summary", str(self.out / "analysis.report"),
                              "--quadrature", quad])
            codes.append(code)
            if code == 0:
                self.bounds[quad] = json.loads(text)
        t3 = perf_counter()
        self.failed = sum(c != 0 for c in codes)
        return ({"wall_s": (t3 - t0) - (t1b - t1), "simulate_s": t1 - t0,
                 "analyze_s": t2 - t1b, "dataset_bytes": n_bytes}, self.failed)

    def check(self) -> list[str]:
        if self.failed:
            return []       # counted as failed operations already
        return checks.check_series(self.out / "series_00", self.cfg, self.seed,
                                   self.bounds)


class Thermometry(_Workload):
    """simulate --stationary (1 s .braw chunks) -> thermometry."""

    ops_per_round = 2
    duration_s = 10.0

    def run_round(self) -> tuple[dict, int]:
        self.clean()
        t0 = perf_counter()
        codes = [cli(["simulate", "--config", str(self.config_path), "--seed",
                      str(self.seed), "--out", str(self.out),
                      "--stationary", repr(self.duration_s)])[0]]
        t1 = perf_counter()
        n_bytes = dir_bytes(self.out)
        t1b = perf_counter()
        codes.append(cli(["thermometry", "--in", str(self.out)])[0])
        t2 = perf_counter()
        self.failed = sum(c != 0 for c in codes)
        return ({"wall_s": (t2 - t0) - (t1b - t1), "simulate_s": t1 - t0,
                 "analyze_s": t2 - t1b, "dataset_bytes": n_bytes}, self.failed)

    def check(self) -> list[str]:
        if self.failed:
            return []
        return checks.check_thermometry(self.out, self.cfg, self.duration_s)


class Fits(_Workload):
    """Ring-down and shift fits, aggregate_shifts and beta_bound over
    group-averaged records made by the benchmark's own generator.

    Each round makes the records afresh, from the same seed, before its timed
    fit pass; simulate_s times that generator, a control that no program
    change can move."""

    n_groups = 125
    clean_every = 25            # groups 0, 25, ... are noiseless
    noise_std = 1.23            # median ring-down residual_std of a default series
    delta_range_hz = 1000.0     # injected early-window shift, uniform +-
    offset_range = 0.02         # injected phase offset c, uniform +-
    ops_per_round = n_groups + 2

    def make_records(self):
        """Two-line decay records with an early-window shift of the estimator's
        form dQ/d(f_m t) * (delta t + c), plus white noise on the noisy ones."""
        cfg = self.cfg
        rng = np.random.default_rng([self.seed, 2])
        dt = cfg.detection.decimation / cfg.detection.sample_rate
        n_samples = int(round(cfg.schedule.measure / dt))
        t = dt * np.arange(n_samples)
        early = t < estimation.DEFAULT_EARLY_WINDOW[1]
        n = self.n_groups
        truth = np.column_stack([
            rng.uniform(30.0, 40.0, n),                 # A
            np.full(n, 0.5 * cfg.mode.gamma_m),          # 1/tau of the free decay
            rng.normal(0.0, 10.0, n),                   # f_m, Hz
            rng.uniform(-math.pi, math.pi, n),          # phi
            rng.uniform(0.8, 1.1, n),                   # B
            rng.uniform(-math.pi, math.pi, n),          # dphi
            rng.uniform(-self.delta_range_hz, self.delta_range_hz, n),
            rng.uniform(-self.offset_range, self.offset_range, n),
        ])
        noisy = np.arange(n) % self.clean_every != 0
        records = []
        for g in range(n):
            x, y = checks.two_line(t, *truth[g, :6])
            u = truth[g, 6] * t[early] + truth[g, 7]
            x[early], y[early] = (x[early] + checks.TWO_PI * y[early] * u,
                                  y[early] - checks.TWO_PI * x[early] * u)
            if noisy[g]:
                x = x + rng.normal(0.0, self.noise_std, n_samples)
                y = y + rng.normal(0.0, self.noise_std, n_samples)
            records.append(QuadratureRecord(TimeSeries(0.0, dt, x),
                                            TimeSeries(0.0, dt, y), cycle_index=g))
        return records, truth, noisy

    def run_round(self) -> tuple[dict, int]:
        t_gen = perf_counter()
        self.records, self.truth, self.noisy = self.make_records()
        t0 = perf_counter()
        self.ok, self.ringdowns, self.shifts = [], [], []
        for g, rec in enumerate(self.records):
            try:
                base = estimation.fit_ringdown(rec)
                shift = estimation.fit_transient_shift(rec, base)
            except (GupsimError, ArithmeticError, ValueError, np.linalg.LinAlgError) as exc:
                sys.stderr.write(f"group {g}: {type(exc).__name__}: {exc}\n")
                continue
            self.ok.append(g)
            self.ringdowns.append(base)
            self.shifts.append(shift)
        t1 = perf_counter()
        self.stats, self.bounds = {}, {}
        for col, quad in enumerate(("X", "Y")):
            try:
                stats = estimation.aggregate_shifts([s[col] for s in self.shifts])
                self.bounds[quad] = estimation.beta_bound(
                    stats, self.cfg.operating_state, self.cfg.mode)
                self.stats[quad] = stats
            except (GupsimError, ArithmeticError, ValueError) as exc:
                sys.stderr.write(f"bound {quad}: {type(exc).__name__}: {exc}\n")
        t2 = perf_counter()
        self.failed = self.ops_per_round - len(self.ok) - len(self.bounds)
        n_bytes = sum(r.x_quad.samples.nbytes + r.y_quad.samples.nbytes
                      for r in self.records)
        return ({"wall_s": t2 - t0, "simulate_s": t0 - t_gen, "analyze_s": t1 - t0,
                 "dataset_bytes": n_bytes}, self.failed)

    def check(self) -> list[str]:
        if len(self.bounds) < 2:
            return []
        return checks.check_fits(self.truth[self.ok], self.noisy[self.ok],
                                 self.ringdowns, self.shifts, self.stats,
                                 self.bounds, self.cfg.mode, self.cfg.operating_state)


WORKLOADS = {"series": Series, "fits": Fits, "thermometry": Thermometry}
