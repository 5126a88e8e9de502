"""Span tracing of pendamp's layers, installed from outside the package.

``Tracer.installed()`` replaces the public entry points of each layer with
wrappers in the module namespaces where pendamp's own code looks them up
(``extremal.integrate``, ``extremal.trace_extremal``, ...), so calls made
inside the package are traced as well as calls made by the benchmark.  The
wrappers pass every argument and return value through unchanged; the only
thing they add to a call is a counting shim around the right-hand side given
to ``integrate``.  Spans (name, start, end, parent) stay in memory until the
run ends.

Rejected integrator steps are not reported by ``integrate``; they follow
from its rhs count.  One call evaluates the rhs once for the first stage,
once in the starting-step heuristic, and six times per attempted step, so
rejected = (rhs_calls - 2 * calls) / 6 - accepted.  Accepted steps are
``len(seg.times) - 1`` because both step policies run with
``interp_tol=None`` (no interpolated samples).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import time

from pendamp import extremal, integrator, limits, linosc, quasiopt

# Stop reasons of trace_extremal under their metric names.
STOP_NAMES = {
    extremal.STOP_ENERGY_EXIT: "exit",
    extremal.STOP_TIME_BUDGET: "time_budget",
    extremal.STOP_STANDSTILL: "standstill",
    extremal.STOP_OPTIMALITY: "optimality",
    integrator.STOP_STEP_FAILURE: "step_failure",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "error")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.quad_evals = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def _span(self, name: str):
        sp = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._span(name) as sp:
                out = fn(*args, **kwargs)
            if info is not None:
                sp.info = info(args, kwargs, out)
            return out

        return wrapper

    def _wrap_integrate(self, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            ctl = bound.arguments["ctl"]
            if ctl is None or ctl.interp_tol is not None:
                raise RuntimeError("accepted steps are counted only with interp_tol=None")
            rhs = bound.arguments["rhs"]
            tick = itertools.count().__next__

            def counted(t, s):
                tick()
                return rhs(t, s)

            bound.arguments["rhs"] = counted
            with self._span("integrator.integrate") as sp:
                seg = fn(*bound.args, **bound.kwargs)
            event_fns = {ev.label: ev.fn for ev in bound.arguments["events"]}
            resid = max((abs(event_fns[r.label](r.t, r.state)) for r in seg.events), default=0.0)
            sp.info = (tick(), len(seg.times) - 1, len(seg.events),
                       seg.stop_reason == integrator.STOP_STEP_FAILURE, resid)
            return seg

        return wrapper

    def _wrap_quad(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if kwargs.get("full_output"):
                self.quad_evals += out[2]["neval"]
            return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the layers while the block runs."""
        sweep_sig = inspect.signature(extremal.max_switchings)

        def sweep_info(args, kwargs, res):
            bound = sweep_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            policy = bound.arguments["policy"] or extremal.SweepPolicy()
            stop_at = bound.arguments["stop_at"]
            grid_runs = policy.grid_points * len(policy.signs)
            hist = {}
            for d in res.runs:
                key = STOP_NAMES[d.stop_reason]
                hist[key] = hist.get(key, 0) + 1
            return {
                "stop_at": stop_at,
                "reached": stop_at is not None and res.max_allowed >= stop_at,
                "refine": max(0, res.n_runs - grid_runs),
                "stops": hist,
            }

        integrate = self._wrap_integrate(integrator.integrate)
        patches = [
            (extremal, "integrate", integrate),
            (quasiopt, "integrate", integrate),
            (extremal, "trace_extremal", self._wrap("extremal.trace_extremal", extremal.trace_extremal)),
            (extremal, "max_switchings",
             self._wrap("extremal.max_switchings", extremal.max_switchings, sweep_info)),
            (extremal, "find_bifurcation",
             self._wrap("extremal.find_bifurcation", extremal.find_bifurcation)),
            (quasiopt, "simulate_damping",
             self._wrap("quasiopt.simulate_damping", quasiopt.simulate_damping,
                        lambda a, k, res: res.switch_count)),
            (limits, "tau", self._wrap("limits.tau", limits.tau)),
            (limits, "poincare_low", self._wrap("limits.poincare_low", limits.poincare_low)),
            (limits, "poincare_high", self._wrap("limits.poincare_high", limits.poincare_high)),
            (limits, "poincare_iterates",
             self._wrap("limits.poincare_iterates", limits.poincare_iterates)),
            (limits, "quad", self._wrap_quad(limits.quad)),
            (linosc, "lin_simulate", self._wrap("linosc.lin_simulate", linosc.lin_simulate)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, error."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps([sp.name, sp.start - t0, sp.end - t0, sp.parent, sp.error]))
                fh.write("\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced passes; counts and times are per pass.

    A span's self time is its duration minus the durations of its child
    spans; a layer's self time is the sum over its spans.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.duration
    self_time = [sp.duration - c for sp, c in zip(spans, child_time)]

    def idx(name):
        return [i for i, sp in enumerate(spans) if sp.name == name]

    def self_of(ids):
        return sum(self_time[i] for i in ids)

    def children(ids, name):
        parents = set(ids)
        return [i for i, sp in enumerate(spans) if sp.name == name and sp.parent in parents]

    integ = idx("integrator.integrate")
    info = [spans[i].info for i in integ]
    rhs = sum(x[0] for x in info)
    steps = sum(x[1] for x in info)
    integ_self = self_of(integ)

    traces = idx("extremal.trace_extremal")
    sweeps = idx("extremal.max_switchings")
    yes = [i for i in sweeps if spans[i].info["reached"]]
    no = [i for i in sweeps if spans[i].info["stop_at"] is not None and not spans[i].info["reached"]]
    stops = {name: 0 for name in STOP_NAMES.values()}
    for i in sweeps:
        for key, n in spans[i].info["stops"].items():
            stops[key] += n

    runs = idx("quasiopt.simulate_damping")
    lim = [i for i, sp in enumerate(spans) if sp.layer == "limits"]
    lim_outer = [i for i in lim if spans[i].parent < 0 or spans[spans[i].parent].layer != "limits"]
    maps = [i for i in lim if spans[i].name in ("limits.poincare_low", "limits.poincare_high")
            and spans[i].error is None]
    lin = idx("linosc.lin_simulate")

    def per_pass(v):
        return v / passes

    m = {
        "integrator.calls": (per_pass(len(integ)), "count"),
        "integrator.steps": (per_pass(steps), "count"),
        "integrator.steps_rejected": (per_pass((rhs - 2 * len(integ)) / 6 - steps), "count"),
        "integrator.rhs_calls": (per_pass(rhs), "count"),
        "integrator.rhs_per_step": (_ratio(rhs, steps), "rhs/step"),
        "integrator.us_per_step": (_ratio(integ_self, steps) * 1e6, "us"),
        "integrator.self_s": (per_pass(integ_self), "s"),
        "integrator.events": (per_pass(sum(x[2] for x in info)), "count"),
        "integrator.step_failures": (per_pass(sum(x[3] for x in info)), "count"),
        "integrator.event_residual_max": (max((x[4] for x in info), default=0.0), "1"),
        "extremal.traces": (per_pass(len(traces)), "count"),
        "extremal.trace_ms": (_ratio(sum(spans[i].duration for i in traces), len(traces)) * 1e3, "ms"),
        "extremal.trace_self_s": (per_pass(self_of(traces)), "s"),
        "extremal.arcs_per_trace": (_ratio(len(children(traces, "integrator.integrate")), len(traces)),
                                    "count"),
        "extremal.traces_per_sweep": (_ratio(len(traces), len(sweeps)), "count"),
        "extremal.refine_traces": (per_pass(sum(spans[i].info["refine"] for i in sweeps)), "count"),
    }
    for key, n in stops.items():
        m[f"extremal.stop.{key}"] = (per_pass(n), "count")
    m.update({
        "extremal.bisect.reaches_yes": (per_pass(len(yes)), "count"),
        "extremal.bisect.reaches_no": (per_pass(len(no)), "count"),
        "extremal.bisect.yes_s": (per_pass(sum(spans[i].duration for i in yes)), "s"),
        "extremal.bisect.no_s": (per_pass(sum(spans[i].duration for i in no)), "s"),
        "extremal.bisect.traces_per_yes": (_ratio(len(children(yes, "extremal.trace_extremal")), len(yes)),
                                           "count"),
        "extremal.bisect.traces_per_no": (_ratio(len(children(no, "extremal.trace_extremal")), len(no)),
                                          "count"),
        "quasiopt.runs": (per_pass(len(runs)), "count"),
        "quasiopt.ms_per_run": (_ratio(sum(spans[i].duration for i in runs), len(runs)) * 1e3, "ms"),
        "quasiopt.self_s": (per_pass(self_of(runs)), "s"),
        "quasiopt.arcs_per_run": (_ratio(len(children(runs, "integrator.integrate")), len(runs)), "count"),
        "quasiopt.switches": (per_pass(sum(spans[i].info or 0 for i in runs)), "count"),
        "limits.calls": (per_pass(len(lim_outer)), "count"),
        "limits.self_s": (per_pass(self_of(lim)), "s"),
        "limits.quad_evals": (per_pass(tracer.quad_evals), "count"),
        "limits.map_steps": (per_pass(len(maps)), "count"),
        "limits.failures": (per_pass(sum(spans[i].error is not None for i in lim_outer)), "count"),
        "linosc.calls": (per_pass(len(lin)), "count"),
        "linosc.self_s": (per_pass(self_of(lin)), "s"),
    })
    return m
