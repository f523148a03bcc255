"""Output checks, computed apart from the program.

Every check returns a list of failure messages; an empty list means the
outputs passed. The models, the record parser and the closed-form bound here
are the benchmark's own; the program's code is called only to re-synthesize
sampled cycles, whose stored records must match bit for bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# constants of the closed-form bound; they are the program's own values
# (L_p = 1.6e-35 m, not CODATA's 1.616255e-35 m)
HBAR = 1.054571817e-34      # J s
L_P = 1.6e-35               # m

F_LOWER, F_UPPER = 8000.0, 16000.0      # lock-in line offsets, Hz
BASE_WINDOW = (1e-4, 1e-3)              # s, ring-down fit window
Z_MAX = 3.0                             # null compatibility at beta0 = 0
POLISH_MAX_SE = 1e-6                    # stationarity of the reported fit
CYCLES_CHECKED = 3                      # re-synthesized, besides the first and last
GROUPS_CHECKED = 2                      # polished
BOUND_RTOL = 1e-12
RECOVERY_RTOL = 1e-6                    # noiseless fits
PULL_SIGMAS = 5.0                       # tolerance of the pull moments
# thermometry: spreads over seeds 1-60 of a 10 s stationary run (990 Welch
# averages), rounded up. The reported errors are not used: they are 1.4-1.9
# times too small (see README).
SPREAD_AVERAGES = 990
INV_NBAR_SPREAD = 0.02                  # of 1/n_bar
CENTRE_SPREAD_HZ = 15.0                 # of each sideband centre
SPREAD_SIGMAS = 5.0


# --- the two-line decay model, parametrized by the decay rate k = 1/tau --------

def two_line(t, A, k, f_m, phi, B, dphi):
    env = A * np.exp(-k * t)
    th1 = TWO_PI * (F_LOWER - f_m) * t + phi
    th2 = TWO_PI * (F_UPPER + f_m) * t + phi + dphi
    return (env * (np.cos(th1) + B * np.cos(th2)),
            env * (np.sin(th1) - B * np.sin(th2)))


def two_line_jacobian(t, A, k, f_m, phi, B, dphi):
    """d(X, Y)/d(A, k, f_m, phi, B, dphi), stacked as rows X then Y."""
    env = np.exp(-k * t)
    th1 = TWO_PI * (F_LOWER - f_m) * t + phi
    th2 = TWO_PI * (F_UPPER + f_m) * t + phi + dphi
    c1, s1, c2, s2 = np.cos(th1), np.sin(th1), np.cos(th2), np.sin(th2)
    X = A * env * (c1 + B * c2)
    Y = A * env * (s1 - B * s2)
    jx = [env * (c1 + B * c2), -t * X, TWO_PI * t * Y,
          A * env * (-s1 - B * s2), A * env * c2, -A * env * B * s2]
    jy = [env * (s1 - B * s2), -t * Y, -TWO_PI * t * X,
          A * env * (c1 - B * c2), -A * env * s2, -A * env * B * c2]
    return np.vstack([np.column_stack(jx), np.column_stack(jy)])


def polish_distance(t, x, y, theta) -> float:
    """Largest move, in standard errors, of a scipy polish started at theta.

    theta = (A, k, f_m, phi, B, dphi). The polish minimizes the same sum of
    squares with MINPACK's Levenberg-Marquardt; the standard errors come from
    the Jacobian at the polished point.
    """
    from scipy.optimize import least_squares

    def resid(p):
        X, Y = two_line(t, *p)
        return np.concatenate([X - x, Y - y])

    res = least_squares(resid, np.asarray(theta, float),
                        jac=lambda p: two_line_jacobian(t, *p), method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    J = two_line_jacobian(t, *res.x)
    dof = 2 * t.size - res.x.size
    cov = (res.fun @ res.fun / dof) * np.linalg.pinv(J.T @ J)
    se = np.sqrt(np.diag(cov))
    return float(np.max(np.abs(res.x - theta) / se))


# --- closed-form bound ------------------------------------------------------------

def closed_form_beta0(mean_hz, std_hz, n, f_mech_hz, mass, alpha_sq, n_bar) -> float:
    """beta0 limit from the shift statistics, as the program's docs state it."""
    delta_f_max = abs(mean_hz) + 2.0 * std_hz / math.sqrt(n)
    eps = 2.0 * delta_f_max / f_mech_hz
    omega = TWO_PI * f_mech_hz
    x_zpf_sq = HBAR / (2.0 * mass * omega)
    amp_sq = 2.0 * x_zpf_sq * (2.0 * alpha_sq + 2.0 * n_bar + 1.0)
    return eps * HBAR ** 2 / (L_P ** 2 * mass ** 2 * omega ** 2 * amp_sq)


def check_bound(label, reported, mean_hz, std_hz, n, f_mech_hz, mass,
                alpha_sq, n_bar) -> list[str]:
    want = closed_form_beta0(mean_hz, std_hz, n, f_mech_hz, mass, alpha_sq, n_bar)
    if not abs(reported - want) <= BOUND_RTOL * abs(want):
        return [f"{label}: beta0 limit {reported!r} != closed form {want!r}"]
    return []


def check_null(label, mean_hz, std_hz, n) -> list[str]:
    z = mean_hz / (std_hz / math.sqrt(n))
    if not abs(z) <= Z_MAX:
        return [f"{label}: z = {z:+.2f} is not null-compatible at beta0 = 0"]
    return []


# --- series ---------------------------------------------------------------------

def read_qrec(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, y) columns of a .qrec record."""
    rows = [line.split() for line in Path(path).read_text().splitlines()
            if line and not line.startswith("#")]
    cols = np.array(rows, dtype=float)
    return cols[:, 0], cols[:, 1], cols[:, 2]


def check_series(series_dir: Path, cfg, seed: int, bounds: dict) -> list[str]:
    """Outputs of simulate + analyze + bound for one series (series index 0).

    cfg is the program's CampaignConfig the series was simulated from;
    bounds maps "X"/"Y" to the parsed output of `gupsim bound`.
    """
    from gupsim.protocol import run_cycle

    errors = []
    rng = np.random.default_rng([seed, 7])
    sched = cfg.schedule
    n_cycles = sched.cycles_per_series
    records = series_dir / "records"

    # lossless persistence: re-synthesized cycles match the stored records
    picks = {0, n_cycles - 1, *rng.choice(n_cycles, CYCLES_CHECKED, replace=False)}
    for k in sorted(int(p) for p in picks):
        rec = run_cycle(cfg, k, cfg.cycle_seed(0, k))
        t, x, y = read_qrec(records / f"{k:04d}.qrec")
        if not (np.array_equal(t, rec.times) and np.array_equal(x, rec.x_quad.samples)
                and np.array_equal(y, rec.y_quad.samples)):
            errors.append(f"cycle {k}: stored record differs from re-synthesis")

    # every group converged; sampled groups sit at the least-squares optimum
    report = json.loads((series_dir / "summary.report").read_text())
    fits = report["ringdown"]
    n_groups = n_cycles // sched.group_size
    if len(fits) != n_groups:
        errors.append(f"{len(fits)} ring-down fits for {n_groups} groups")
    bad = [f["cycle_group"] for f in fits if not f["converged"]]
    if bad:
        errors.append(f"groups {bad} did not converge")
    for g in sorted(int(v) for v in rng.choice(len(fits), GROUPS_CHECKED, replace=False)):
        cols = [read_qrec(records / f"{k:04d}.qrec")
                for k in range(g * sched.group_size, (g + 1) * sched.group_size)]
        t = cols[0][0]
        x = np.mean([c[1] for c in cols], axis=0)
        y = np.mean([c[2] for c in cols], axis=0)
        m = (t >= BASE_WINDOW[0]) & (t < BASE_WINDOW[1])
        f = fits[g]
        theta = [f["A"], 1.0 / f["tau_s"], f["f_m_hz"], f["phi_rad"], f["B"],
                 f["delta_phi_rad"]]
        moved = polish_distance(t[m], x[m], y[m], theta)
        if not moved <= POLISH_MAX_SE:
            errors.append(f"group {g}: polish moves the fit by {moved:.3g} standard errors")

    # the bound and the null test, recomputed from the reported statistics
    summary = json.loads((series_dir.parent / "analysis.report").read_text())
    mode, op = summary["mode"], summary["operating"]
    for quad in ("X", "Y"):
        s = summary[f"shift_{quad.lower()}"]
        errors += check_bound(quad, bounds[quad]["beta0_limit"], s["mean_hz"],
                              s["std_hz"], s["n"], mode["frequency_hz"],
                              mode["mass_kg"], op["alpha_sq"], op["n_bar"])
        errors += check_null(quad, s["mean_hz"], s["std_hz"], s["n"])
    return errors


# --- fits -------------------------------------------------------------------------

def _wrap(a):
    return (a + math.pi) % TWO_PI - math.pi


def check_fits(truth: np.ndarray, noisy: np.ndarray, ringdowns, shifts,
               stats: dict, bounds: dict, mode, operating) -> list[str]:
    """Fit pass against the truth the records were generated from.

    truth rows are (A, k, f_m, phi, B, dphi, delta, c); noisy flags the rows
    that carry white noise; shifts holds (X fit, Y fit) pairs.
    """
    errors = []
    fit = np.array([[r.A, 1.0 / r.tau, r.f_m, r.phi, r.B, r.delta_phi]
                    for r in ringdowns])
    delta = np.array([[sx.delta_fm0, sy.delta_fm0] for sx, sy in shifts])

    # noiseless records are recovered
    clean = ~noisy
    scale = np.abs(truth[clean, :6])
    scale[:, 2] = np.maximum(scale[:, 2], 1.0)     # f_m near 0 Hz: absolute 1e-6 Hz
    scale[:, [3, 5]] = 1.0                         # phases: 1e-6 rad
    diff = fit[clean] - truth[clean, :6]
    diff[:, [3, 5]] = _wrap(diff[:, [3, 5]])
    worst = float(np.max(np.abs(diff) / scale))
    if not worst <= RECOVERY_RTOL:
        errors.append(f"noiseless ring-down recovered to {worst:.3g} relative")
    dworst = float(np.max(np.abs(delta[clean] - truth[clean, 6:7])
                          / np.abs(truth[clean, 6:7])))
    if not dworst <= RECOVERY_RTOL:
        errors.append(f"noiseless shift recovered to {dworst:.3g} relative")

    # noisy records: pulls of A, 1/tau and f_m are N(0, 1)
    err = np.array([[r.errors[0], r.errors[1] / r.tau ** 2, r.errors[2]]
                    for r in ringdowns])
    n = int(np.sum(noisy))
    pulls = (fit[noisy][:, :3] - truth[noisy][:, :3]) / err[noisy]
    for name, p in zip(("A", "1/tau", "f_m"), pulls.T):
        mean, std = float(np.mean(p)), float(np.std(p, ddof=1))
        if not abs(mean) <= PULL_SIGMAS / math.sqrt(n):
            errors.append(f"pull of {name}: mean {mean:+.3f} over {n} fits")
        if not abs(std - 1.0) <= PULL_SIGMAS / math.sqrt(2.0 * (n - 1)):
            errors.append(f"pull of {name}: spread {std:.3f} over {n} fits")

    # noisy records: the shift comes back without bias against the ensemble spread
    for q, col in (("X", 0), ("Y", 1)):
        d = delta[noisy, col] - truth[noisy, 6]
        bias, spread = float(np.mean(d)), float(np.std(d, ddof=1))
        if not abs(bias) <= PULL_SIGMAS * spread / math.sqrt(n):
            errors.append(f"shift on {q}: bias {bias:+.3g} Hz, spread {spread:.3g} Hz")

    f_mech = mode.omega_m / TWO_PI
    for q in ("X", "Y"):
        s = stats[q]
        errors += check_bound(q, bounds[q].beta0_limit, s.mean, s.std, s.n_samples,
                              f_mech, mode.mass, operating.alpha_sq, operating.n_bar)
    return errors


# --- thermometry ------------------------------------------------------------------

def thermometry_tolerances(n_averages: int) -> tuple[float, float]:
    """Largest |1/n_bar - 1/n_bar_cfg| and |centre - nominal| (Hz) at n_averages
    pooled Welch segments: SPREAD_SIGMAS times the spread over seeds, which
    falls as 1/sqrt(n_averages)."""
    k = SPREAD_SIGMAS * math.sqrt(SPREAD_AVERAGES / n_averages)
    return k * INV_NBAR_SPREAD, k * CENTRE_SPREAD_HZ


def check_thermometry(out_dir: Path, cfg, duration_s: float) -> list[str]:
    """Stored .braw chunks and the thermometry report of one stationary run
    of duration_s seconds in 1 s chunks."""
    errors = []
    det = cfg.detection
    n_chunks, chunk_samples = int(round(duration_s)), int(round(det.sample_rate))
    chunks = sorted((out_dir / "stationary").glob("*.braw"))
    if len(chunks) != n_chunks:
        errors.append(f"{len(chunks)} stationary chunks, expected {n_chunks}")
    for p in chunks:
        with open(p, "rb") as fh:
            header = json.loads(fh.readline())
            n_bytes = len(fh.read())
        if not (header["n_samples"] == chunk_samples and n_bytes == 8 * chunk_samples):
            errors.append(f"{p.name}: header says {header['n_samples']} samples, "
                          f"file holds {n_bytes / 8:g}")

    report = json.loads((out_dir / "thermometry.report").read_text())
    n_bar = report["n_bar"]
    if report["purity"] != 1.0 / (2.0 * n_bar + 1.0):
        errors.append(f"purity {report['purity']!r} != 1/(2 n_bar + 1) "
                      f"for n_bar {n_bar!r}")
    # the Stokes/anti-Stokes ratio 1 + 1/n_bar is what the spectra measure, so
    # the occupancy is compared as 1/n_bar, where its noise is symmetric
    inv_tol, centre_tol = thermometry_tolerances(report["n_averages"])
    if not (n_bar > 0 and abs(1.0 / n_bar - 1.0 / cfg.n_bar) <= inv_tol):
        errors.append(f"n_bar {n_bar!r}: 1/n_bar is more than {inv_tol:.3g} "
                      f"from the configured 1/{cfg.n_bar!r}")
    for side, sign in (("stokes", 1.0), ("antistokes", -1.0)):
        nominal = (det.omega_exc + sign * det.delta_lo) / TWO_PI
        centre = report[side]["center_hz"]
        if not abs(centre - nominal) <= centre_tol:
            errors.append(f"{side} centre {centre!r} Hz is more than {centre_tol:.3g} Hz "
                          f"from nominal {nominal!r} Hz")
    return errors
