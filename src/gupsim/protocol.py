"""Orchestration of the experimental cycle and campaign management.

A cycle is pump-on (cooling + coherent excitation, 30 ms) followed by a
measurement segment (10 ms) after pump switch-off. The synthesis stitches a
stationary pump-on tail onto the free-decay segment: the sideband envelopes
continue through the switch with their instantaneous values, the coherent
amplitude rings down at the probe-only rate, the occupancy relaxes toward the
bath, and, for beta0 > 0, the instantaneous frequency follows the
amplitude-dependent law of the deformed oscillator evaluated on the
deterministic envelope of the total amplitude.

The whole pump, cooling beam included, is switched off: the mode rings down
at its intrinsic rate plus any optical damping of the probe, with an
amplitude set by the excitation strength, which may be varied between series.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .detection import (
    DetectionConfig,
    QuadratureRecord,
    TimeSeries,
    _lockin_design,
    assemble_bhd,
    average_records,
    carrier,
    complex_ou_segment,
    lockin_demodulate,
    stationary_envelope,
)
from .dynamics import TWO_PI, DeformationParams, MechanicalMode
from .errors import TooFewSamples
from .estimation import (
    RingdownFit,
    ShiftFit,
    ShiftStatistics,
    aggregate_shifts,
    fit_ringdown,
    fit_transient_shift,
)
from .optomech import CooledState, OpticalCavity, optical_damping_and_spring
from .pool import chunked_map


# out-of-band drum modes excited by the radiation-pressure step at switch-off;
# the lock-in filter must reject them. The onset is smoothed over a few tens
# of microseconds so the burst energy stays concentrated at the mode
# frequencies instead of exciting the filter's broadband step response.
SWITCH_BURST_MODES_HZ = (341e3, 812e3)
SWITCH_BURST_DECAY_S = 1e-3
SWITCH_BURST_ONSET_S = 2e-5


@dataclass(frozen=True)
class ProtocolSchedule:
    """Cycle timing: pump_on + measure = cycle, repeated over a series."""

    pump_on: float = 0.030
    measure: float = 0.010
    cycles_per_series: int = 1250
    group_size: int = 10
    pre_roll: float = 0.002     # pump-on tail synthesized before switch-off

    def __post_init__(self):
        if min(self.pump_on, self.measure, self.pre_roll) <= 0:
            raise ValueError("schedule durations must be positive")
        if self.cycles_per_series < 1 or self.group_size < 1:
            raise ValueError("cycles_per_series and group_size must be >= 1")
        if self.pre_roll > self.pump_on:
            raise ValueError("pre_roll cannot exceed pump_on")

    @property
    def cycle(self) -> float:
        return self.pump_on + self.measure

    def group_cycles(self) -> list[range]:
        """Cycle indices of each group, in group order; a trailing partial group
        is the last range, shorter than `group_size`."""
        n, size = self.cycles_per_series, self.group_size
        return [range(a, min(a + size, n)) for a in range(0, n, size)]

    def with_duration(self, series_duration: float) -> "ProtocolSchedule":
        """This schedule with as many whole cycles as fit in series_duration (s)."""
        return replace(self, cycles_per_series=round(series_duration / self.cycle))


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce a campaign: physics, detection, schedule, seed."""

    mode: MechanicalMode
    cavity: OpticalCavity
    deformation: DeformationParams
    detection: DetectionConfig
    schedule: ProtocolSchedule
    n_bar: float = 5.0
    gamma_eff: float = TWO_PI * 6000.0      # pump-on effective linewidth, rad/s
    alpha_sq: float = 35.0
    seed: int = 0
    series_probe_detunings: tuple[float, ...] | None = None    # rad/s, per series
    alpha_sq_per_series: tuple[float, ...] | None = None
    shift_injection: tuple[float, float] | None = None          # (delta0_hz, tau_s)
    switch_burst: bool = True

    def __post_init__(self):
        if self.n_bar < 0 or self.alpha_sq < 0:
            raise ValueError("n_bar and alpha_sq must be >= 0")
        for i, a in enumerate(self.alpha_sq_per_series or ()):
            if a < 0:
                raise ValueError(f"alpha_sq_per_series[{i}] must be >= 0, got {a!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("series_probe_detunings", "alpha_sq_per_series"):
            if getattr(self, name) == ():
                raise ValueError(f"{name} is empty: a sweep needs at least one value "
                                 "(null for none)")
        if self.schedule.pump_on * self.gamma_eff < 10.0:
            warnings.warn("pump_on is not long compared to 1/gamma_eff; the "
                          "stationary-state assumption is doubtful", stacklevel=2)
        if self.schedule.measure > 0.1 / self.mode.gamma_m:
            warnings.warn("measurement window is not short compared to the free "
                          "damping time", stacklevel=2)

    @property
    def operating_state(self) -> CooledState:
        return CooledState(n_bar=self.n_bar, gamma_eff=self.gamma_eff,
                           omega_eff=self.detection.omega_exc, alpha_sq=self.alpha_sq)

    def cycle_seed(self, series_index: int, cycle_index: int) -> list[int]:
        return [self.seed, series_index, cycle_index]

    def series_variant(self, series_index: int) -> "CampaignConfig":
        """Per-series configuration: probe detuning and excitation sweeps."""
        out = self
        if self.series_probe_detunings is not None:
            det = self.series_probe_detunings[series_index % len(self.series_probe_detunings)]
            out = replace(out, cavity=replace(self.cavity, probe_detuning=det))
        if self.alpha_sq_per_series is not None:
            a = self.alpha_sq_per_series[series_index % len(self.alpha_sq_per_series)]
            out = replace(out, alpha_sq=a)
        return out


@dataclass
class Dataset:
    """The group averages of one series plus the per-series configuration that
    produced it.

    With s = `schedule.group_size`, group g averages cycles g * s to
    (g + 1) * s - 1 in cycle order (`average_records`), and carries
    `cycle_index` g. A trailing partial group is not averaged. The cycles
    themselves are not kept, so a series cannot be re-grouped in memory; a
    new `group_size` changes the config hash, and so needs a new series.
    """

    groups: list[QuadratureRecord]
    config: CampaignConfig
    series_index: int = 0

    def grouped_records(self) -> list[QuadratureRecord]:
        """The group averages, in group order."""
        return self.groups


def _measurement_rates(cfg: CampaignConfig) -> tuple[float, float, float, float]:
    """(gamma_meas, d_omega_probe, drive_S, drive_AS) for the post-switch-off segment.

    The bath kick rates keep the Stokes/anti-Stokes envelope variances at
    n(t)+1 and n(t) exactly at zero probe detuning; an anti-damped probe
    contributes its gain quantum noise with a positive kick rate.
    """
    gamma_opt, d_omega = optical_damping_and_spring(
        cfg.cavity, cfg.mode, cfg.cavity.probe_detuning)
    gm = cfg.mode.gamma_m
    n_th = cfg.mode.thermal_occupancy()
    gamma_meas = gm + gamma_opt
    drive_as = gm * n_th + max(-gamma_opt, 0.0)
    drive_s = gm * (n_th + 1.0) + abs(gamma_opt)
    return gamma_meas, d_omega, drive_s, drive_as


def _occupancy_curve(cfg: CampaignConfig, t: np.ndarray, gamma_meas: float,
                     drive_as: float) -> np.ndarray:
    """Deterministic n(t) over the measurement segment (anti-Stokes variance)."""
    if gamma_meas != 0.0:
        n_ss = drive_as / gamma_meas
        decay = np.exp(-gamma_meas * t)
        return cfg.n_bar * decay + n_ss * (1.0 - decay)
    return cfg.n_bar + drive_as * t


def _gup_shift_curve(cfg: CampaignConfig, t: np.ndarray, gamma_meas: float,
                     n_curve: np.ndarray) -> np.ndarray:
    """Instantaneous frequency shift (Hz) from the deformed-bracket dynamics.

    eps(t) = beta_tilde * (m Omega)^2 * A(t)^2 with A(t)^2 the amplitude convention
    `MechanicalMode.squared_amplitude` at (|alpha(t)|^2, n(t)); the shift follows
    delta_f = f * (sqrt(1+eps) - 1).
    """
    bt = cfg.deformation.beta_tilde
    if bt == 0.0:
        return np.zeros_like(t)
    mode = cfg.mode
    amp_sq = mode.squared_amplitude(cfg.alpha_sq * np.exp(-gamma_meas * t), n_curve)
    eps = bt * (mode.mass * mode.omega_m) ** 2 * amp_sq
    f0 = mode.omega_m / TWO_PI
    return f0 * (np.sqrt(1.0 + eps) - 1.0)


def predicted_shift_at_switchoff(cfg: CampaignConfig) -> float:
    """delta_f (Hz) the deformation produces at t = 0 for this operating point."""
    gamma_meas, _, _, _ = _measurement_rates(cfg)
    n0 = np.array([cfg.n_bar])
    return float(_gup_shift_curve(cfg, np.zeros(1), gamma_meas, n0)[0])


@dataclass(frozen=True, eq=False)
class _CycleTemplate:
    """Everything in a cycle that depends on the configuration alone.

    The arrays are read-only: one template is shared by every cycle made from
    the same CampaignConfig.
    """

    n_pre: int
    dt: float
    t0: float
    gamma_meas: float
    drive_s: float
    drive_as: float
    alpha: np.ndarray            # coherent amplitude, constant then ringing down
    rot: np.ndarray              # phase rotation: probe spring, chirp, injection
    carrier_s: np.ndarray
    carrier_as: np.ndarray
    burst_envelope: np.ndarray   # amplitude * onset * decay, measurement segment
    burst_args: tuple[np.ndarray, ...]   # 2 pi f t of each burst mode


# a campaign runs its series one after another, one per-series config each,
# so a few entries suffice; each holds ~3 MB at the default sampling
@functools.lru_cache(maxsize=4)
def _cycle_template(cfg: CampaignConfig) -> _CycleTemplate:
    det = cfg.detection
    sched = cfg.schedule
    fs = det.sample_rate
    dt = 1.0 / fs
    n_pre = int(round(sched.pre_roll * fs))
    n_meas = int(round(sched.measure * fs))
    t = (np.arange(n_pre + n_meas) - n_pre) * dt
    t_meas = t[n_pre:]
    gamma_meas, d_omega_probe, drive_s, drive_as = _measurement_rates(cfg)

    # coherent amplitude: constant while driven, rings down after the switch
    alpha0 = complex(math.sqrt(cfg.alpha_sq))
    alpha = np.empty(n_pre + n_meas, dtype=complex)
    alpha[:n_pre] = alpha0
    alpha[n_pre:] = alpha0 * np.exp(-0.5 * gamma_meas * t_meas)

    # mechanical phase relative to the excitation tone after the switch:
    # probe spring offset f_m plus the deformation-induced chirp plus any
    # injected test shift
    f_m = d_omega_probe / TWO_PI
    n_curve = _occupancy_curve(cfg, t_meas, gamma_meas, drive_as)
    delta_f = _gup_shift_curve(cfg, t_meas, gamma_meas, n_curve)
    if cfg.shift_injection is not None:
        d0, tau_s = cfg.shift_injection
        delta_f = delta_f + d0 * np.exp(-t_meas / tau_s)
    inst_f = f_m + delta_f
    phase = np.zeros(n_pre + n_meas)
    phase[n_pre:] = TWO_PI * np.concatenate(
        [[0.0], np.cumsum(0.5 * (inst_f[1:] + inst_f[:-1]) * dt)])

    # out-of-band drum modes launched by the radiation-pressure step at t = 0
    amplitude = 3.0 * math.sqrt(max(cfg.alpha_sq, 1.0))
    envelope = (1.0 - np.exp(-t_meas / SWITCH_BURST_ONSET_S)) * np.exp(
        -t_meas / SWITCH_BURST_DECAY_S)

    tpl = _CycleTemplate(
        n_pre=n_pre, dt=dt, t0=float(t[0]), gamma_meas=gamma_meas,
        drive_s=drive_s, drive_as=drive_as, alpha=alpha, rot=np.exp(1j * phase),
        carrier_s=carrier((det.omega_exc + det.delta_lo) / TWO_PI, t),
        carrier_as=carrier((det.omega_exc - det.delta_lo) / TWO_PI, t),
        burst_envelope=amplitude * envelope,
        burst_args=tuple(TWO_PI * f * t_meas for f in SWITCH_BURST_MODES_HZ))
    for a in (tpl.alpha, tpl.rot, tpl.carrier_s, tpl.carrier_as,
              tpl.burst_envelope, *tpl.burst_args):
        a.flags.writeable = False
    return tpl


def run_cycle(cfg: CampaignConfig, cycle_index: int, seed, return_raw: bool = False):
    """Synthesize and demodulate one experimental cycle.

    Returns the QuadratureRecord of the measurement segment (t = 0 at pump
    switch-off); with return_raw=True returns (record, raw TimeSeries). The raw
    series starts `schedule.pre_roll` before the switch: that pump-on tail
    keeps the lock-in filter state physical across it.

    What depends on the configuration alone (time base, coherent ring-down,
    phase rotation, sideband carriers, switch-burst envelope, measurement
    rates) is built once per CampaignConfig and cached; so are the lock-in
    filter design and reference (see `lockin_demodulate`). A cycle makes only
    its own random draws, in a fixed order, and the arithmetic on them. The
    cached arrays are computed by the same expressions as a per-cycle
    computation would use, so a record does not depend on the cache state or
    on the order in which cycles are made.
    """
    det = cfg.detection
    tpl = _cycle_template(cfg)
    n_pre, dt = tpl.n_pre, tpl.dt
    rng = np.random.default_rng(seed)

    # pump-on: stationary cooled state; measurement: envelopes continue through
    # the switch
    n = tpl.alpha.size
    u_s = np.empty(n, dtype=complex)
    u_as = np.empty(n, dtype=complex)
    u_s[:n_pre] = stationary_envelope(rng, n_pre, dt, cfg.gamma_eff, cfg.n_bar + 1.0)
    u_as[:n_pre] = stationary_envelope(rng, n_pre, dt, cfg.gamma_eff, cfg.n_bar)
    u_s[n_pre:] = complex_ou_segment(rng, n - n_pre, dt, tpl.gamma_meas, tpl.drive_s,
                                     u_s[n_pre - 1])
    u_as[n_pre:] = complex_ou_segment(rng, n - n_pre, dt, tpl.gamma_meas, tpl.drive_as,
                                      u_as[n_pre - 1])

    # (alpha + u) * rot, in place
    for u in (u_s, u_as):
        u += tpl.alpha
        u *= tpl.rot
    samples = assemble_bhd(u_s, u_as, tpl.carrier_s, tpl.carrier_as,
                           det.background_psd, det.sample_rate, rng)
    if cfg.switch_burst:
        samples[n_pre:] += sum(tpl.burst_envelope * np.cos(arg + rng.uniform(0.0, TWO_PI))
                               for arg in tpl.burst_args)

    raw = TimeSeries(t0=tpl.t0, dt=dt, samples=samples)
    rec = lockin_demodulate(raw, det, cycle_index=cycle_index).window(
        0.0, cfg.schedule.measure)
    if return_raw:
        return rec, raw
    return rec


def series_provenance(cfg: CampaignConfig, series_index: int) -> dict:
    return {"seed": cfg.seed, "series_index": series_index, "tool_version": __version__}


def map_cycles(fn, cfg: CampaignConfig, series_index: int, items, *args) -> list:
    """`[fn(cfg, series_index, *args, item) for item in items]`, where each item is
    a cycle index or a range of them (one group).

    `cfg` is the per-series config. The calls run on the process pool of
    `pool.chunked_map` and return in item order. The cycle template and the
    lock-in filter design are built here, before the workers are forked, so
    they share one copy of each, and scipy, which the design imports, is
    loaded once in this process rather than in every worker.
    """
    _cycle_template(cfg)
    _lockin_design(cfg.detection)
    return chunked_map(fn, (cfg, series_index, *args), items)


def _series_group(cfg: CampaignConfig, series_index: int, cycles: range):
    return average_records([run_cycle(cfg, k, cfg.cycle_seed(series_index, k))
                            for k in cycles],
                           cycle_index=cycles.start // cfg.schedule.group_size)


def run_series(cfg: CampaignConfig, series_index: int = 0) -> Dataset:
    """The group averages of one series, in memory.

    Each cycle draws from its own derived seed [seed, series, cycle]. The pool
    (`map_cycles`) takes one group per call: the worker makes the group's
    cycles, averages them in cycle order and returns the average alone, so no
    cycle crosses a process boundary. The groups come back in group order, the
    same whatever the number of workers. The cycles of a trailing partial
    group are not made.
    """
    scfg = cfg.series_variant(series_index)
    size = scfg.schedule.group_size
    groups = [c for c in scfg.schedule.group_cycles() if len(c) == size]
    return Dataset(groups=map_cycles(_series_group, scfg, series_index, groups),
                   config=scfg, series_index=series_index)


# --- analysis pipeline --------------------------------------------------------

@dataclass
class SeriesAnalysis:
    series_index: int
    ringdown_fits: list[RingdownFit]
    shift_fits_x: list[ShiftFit]
    shift_fits_y: list[ShiftFit]
    stats_x: ShiftStatistics
    stats_y: ShiftStatistics


def analyze_dataset(ds: Dataset) -> SeriesAnalysis:
    """Fit ring-downs and early-window shifts to the series' group averages.

    The lock-in line offsets come from the series' detection settings. The
    fits use the default late and early windows of `estimation`. A series of
    fewer than two whole groups raises TooFewSamples before anything is fitted.
    """
    if len(ds.groups) < 2:
        sched = ds.config.schedule
        raise TooFewSamples(
            f"series {ds.series_index} holds {len(ds.groups)} whole groups "
            f"({sched.cycles_per_series} cycles in groups of {sched.group_size}); "
            f"need >= 2 to aggregate shifts")
    f_lower, f_upper = ds.config.detection.line_offsets
    fits = []
    sx = []
    sy = []
    for rec in ds.grouped_records():
        base = fit_ringdown(rec, f_lower=f_lower, f_upper=f_upper)
        fits.append(base)
        fx, fy = fit_transient_shift(rec, base)
        sx.append(fx)
        sy.append(fy)
    return SeriesAnalysis(series_index=ds.series_index,
                          ringdown_fits=fits, shift_fits_x=sx, shift_fits_y=sy,
                          stats_x=aggregate_shifts(sx), stats_y=aggregate_shifts(sy))


@dataclass
class CampaignSummary:
    stats_x: ShiftStatistics
    stats_y: ShiftStatistics


def summarize_campaign(analyses: list[SeriesAnalysis]) -> CampaignSummary:
    """Pool the per-quadrature shift statistics over all series."""
    sx = [f for a in analyses for f in a.shift_fits_x]
    sy = [f for a in analyses for f in a.shift_fits_y]
    return CampaignSummary(stats_x=aggregate_shifts(sx), stats_y=aggregate_shifts(sy))
