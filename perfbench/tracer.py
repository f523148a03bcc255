"""Spans and counters recorded around calls into gupsim's public functions.

Nothing inside the program is changed: `Tracer.install` replaces each target
function, in every loaded `gupsim` module that refers to it, with a wrapper
that records a span (name, start, end, parent span, trace id) and the counts
listed in `PER_LAYER`. Spans are kept in memory and written out once, at the
end of the run. A span's self time is its duration minus the durations of its
direct children (calls are nested, single-threaded).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute) of every traced function; a dotted attribute is a method
TARGETS = [
    ("protocol", "run_cycle"),
    ("protocol", "analyze_dataset"),
    ("protocol", "Dataset.grouped_records"),
    ("detection", "complex_ou_segment"),
    ("detection", "stationary_envelope"),
    ("detection", "assemble_bhd"),
    ("detection", "synthesize_bhd"),
    ("detection", "lockin_demodulate"),
    ("detection", "lockin_sos"),
    ("detection", "welch_psd"),
    ("detection", "fit_lorentzian_pair"),
    ("storage", "save_dataset"),
    ("storage", "save_record"),
    ("storage", "load_dataset"),
    ("storage", "load_record"),
    ("storage", "save_raw"),
    ("storage", "load_raw"),
    ("estimation", "fit_ringdown"),
    ("estimation", "fit_transient_shift"),
    ("leastsq", "damped_gauss_newton"),
]

# per-layer metric -> unit; "<span>.s" is inclusive time, "<span>.self_s" self
# time, "<span>.calls" the call count, anything else a counter of its own
PER_LAYER = {
    "protocol.run_cycle.calls": "count",
    "protocol.run_cycle.self_s": "s",
    "protocol.analyze_dataset.s": "s",
    "protocol.grouped_records.s": "s",
    "detection.complex_ou_segment.s": "s",
    "detection.complex_ou_segment.calls": "count",
    "detection.complex_ou_segment.samples": "count",
    "detection.stationary_envelope.self_s": "s",
    "detection.assemble_bhd.s": "s",
    "detection.assemble_bhd.samples": "count",
    "detection.synthesize_bhd.self_s": "s",
    "detection.lockin_demodulate.s": "s",
    "detection.lockin_demodulate.calls": "count",
    "detection.lockin_sos.s": "s",
    "detection.lockin_sos.calls": "count",
    "detection.welch_psd.s": "s",
    "detection.fit_lorentzian_pair.s": "s",
    "storage.save_dataset.s": "s",
    "storage.save_record.calls": "count",
    "storage.bytes_written": "bytes",
    "storage.load_dataset.s": "s",
    "storage.load_dataset.calls": "count",
    "storage.load_record.calls": "count",
    "storage.bytes_read": "bytes",
    "storage.save_raw.s": "s",
    "storage.load_raw.s": "s",
    "storage.load_raw.calls": "count",
    "estimation.fit_ringdown.s": "s",
    "estimation.fit_ringdown.calls": "count",
    "estimation.fit_ringdown.fallback_starts": "count",
    "estimation.fit_transient_shift.s": "s",
    "leastsq.damped_gauss_newton.s": "s",
    "leastsq.damped_gauss_newton.calls": "count",
    "leastsq.damped_gauss_newton.iterations": "count",
    "leastsq.damped_gauss_newton.residual_evals": "count",
    "leastsq.damped_gauss_newton.jacobian_evals": "count",
}


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [id, parent, name, trace, start, end, round]
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(int)
        self.round = 0
        self.paused = False         # calls made while paused are not recorded
        self._round_start = 0

    # --- installation -------------------------------------------------------

    def install(self):
        for module, attr in TARGETS:
            mod = sys.modules[f"gupsim.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = getattr(owner, meth)
                setattr(owner, meth, self._wrap(_span_name(module, attr), orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(_span_name(module, attr), orig)
            for name, m in list(sys.modules.items()):
                if name.startswith("gupsim") and getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            trace = _trace_id(name, args)
            if trace is None and parent is not None:
                trace = self.spans[parent][3]
            sid = len(self.spans)
            self.spans.append([sid, parent, name, trace, perf_counter(), None, self.round])
            self.stack.append(sid)
            try:
                if hook is not None:
                    args, kwargs = hook.before(self, args, kwargs)
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook.after(self, args, kwargs, out)
                return out
            finally:
                self.stack.pop()
                self.spans[sid][5] = perf_counter()

        return wrapper

    # --- per-round aggregation ----------------------------------------------

    def start_round(self, index: int):
        self.round = index
        self._round_start = len(self.spans)
        self.counts = defaultdict(int)

    def round_metrics(self) -> dict:
        """Per-layer metrics of the spans and counts since start_round."""
        spans = self.spans[self._round_start:]
        first = self._round_start
        total = defaultdict(float)
        self_t = defaultdict(float)
        calls = defaultdict(int)
        child_time = defaultdict(float)
        solver_calls = defaultdict(int)
        for sid, parent, name, _, t0, t1, _ in spans:
            if parent is not None and parent >= first:
                child_time[parent] += t1 - t0
                if (name == "leastsq.damped_gauss_newton"
                        and self.spans[parent][2] == "estimation.fit_ringdown"):
                    solver_calls[parent] += 1
        for sid, parent, name, _, t0, t1, _ in spans:
            total[name] += t1 - t0
            self_t[name] += (t1 - t0) - child_time[sid]
            calls[name] += 1
        out = {}
        for metric in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind == "s":
                out[metric] = total[span]
            elif kind == "self_s":
                out[metric] = self_t[span]
            elif kind == "calls":
                out[metric] = calls[span]
            elif metric == "estimation.fit_ringdown.fallback_starts":
                out[metric] = sum(max(n - 1, 0) for n in solver_calls.values())
            else:
                out[metric] = self.counts[metric]
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        epoch = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, name, trace, t0, t1, rnd in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "trace": trace, "round": rnd,
                                     "start_s": t0 - epoch, "end_s": t1 - epoch}) + "\n")


def median_metrics(rounds: list[dict], units: dict) -> dict:
    """Median over rounds; counts (which repeat exactly) stay whole numbers."""
    return {k: (statistics.median if units[k] == "s" else statistics.median_low)(
        r[k] for r in rounds) for k in rounds[0]}


# --- trace ids and counters ---------------------------------------------------

def _trace_id(name: str, args) -> str | None:
    """Cycle or group index of the call, where its arguments carry one."""
    if name == "protocol.run_cycle":
        return f"cycle:{args[1]}"
    if name in ("estimation.fit_ringdown", "estimation.fit_transient_shift"):
        return f"group:{args[0].cycle_index}"
    if name == "storage.save_record":
        return f"cycle:{args[0].cycle_index}"
    if name == "storage.load_record":
        return f"cycle:{int(Path(args[0]).stem)}"
    return None


class _Hook:
    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, tracer, args, kwargs, out):
        pass


class _Samples(_Hook):
    def __init__(self, metric, size_of):
        self.metric, self.size_of = metric, size_of

    def before(self, tracer, args, kwargs):
        tracer.counts[self.metric] += self.size_of(args, kwargs)
        return args, kwargs


class _FileBytes(_Hook):
    """Size of the file a save/load call names as its path argument."""

    def __init__(self, metric, path_index):
        self.metric, self.path_index = metric, path_index

    def after(self, tracer, args, kwargs, out):
        tracer.counts[self.metric] += os.path.getsize(args[self.path_index])


class _Solver(_Hook):
    """Counts residual and Jacobian evaluations by wrapping the callables."""

    def before(self, tracer, args, kwargs):
        residual_fn, jacobian_fn, *rest = args
        counts = tracer.counts

        def residual(theta):
            counts["leastsq.damped_gauss_newton.residual_evals"] += 1
            return residual_fn(theta)

        def jacobian(theta):
            counts["leastsq.damped_gauss_newton.jacobian_evals"] += 1
            return jacobian_fn(theta)

        return (residual, jacobian, *rest), kwargs

    def after(self, tracer, args, kwargs, out):
        tracer.counts["leastsq.damped_gauss_newton.iterations"] += out.iterations


_HOOKS = {
    "detection.complex_ou_segment": _Samples(
        "detection.complex_ou_segment.samples",
        lambda a, k: a[1] if len(a) > 1 else k["n"]),
    "detection.assemble_bhd": _Samples(
        "detection.assemble_bhd.samples", lambda a, k: a[0].size),
    "storage.save_record": _FileBytes("storage.bytes_written", 1),
    "storage.save_raw": _FileBytes("storage.bytes_written", 1),
    "storage.load_record": _FileBytes("storage.bytes_read", 0),
    "storage.load_raw": _FileBytes("storage.bytes_read", 0),
    "leastsq.damped_gauss_newton": _Solver(),
}
