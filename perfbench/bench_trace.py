"""Spans around pflab's public functions, and the per-layer metrics they give.

A traced run wraps every function named in ``LAYERS`` in every pflab
module that binds it (``experiments`` imports ``simulate`` and
``lp_norm`` by name, for example), records one span per call and puts
the originals back when it ends.  Only public names and methods of
public classes get spans: private helpers are what later changes delete
or replace, so a metric tied to one would not survive the change it
measures.

This module imports neither numpy nor pflab at import time, so that
importing it does not shift the set-up time the benchmark measures.
"""

from __future__ import annotations

import array
import collections
import contextlib
import functools
import importlib
import statistics
import sys
import time

# pflab module -> public functions ("Class.method" for methods) that get a span
LAYERS = {
    "plaplace": ("simulate", "step_explicit", "cfl_dt",
                 "step_implicit_proximal"),
    "fluid2d": ("simulate_fluid", "fluid_step", "advect", "viscous_term",
                "project", "viscous_cfl_dt", "advective_cfl_dt",
                "weak_residual"),
    "fronts": ("trace_support", "fit_exponent", "check_envelope"),
    "energetics": ("build_ledger", "check_iteration", "local_energy_ratio",
                   "check_decay", "TrajectoryTails.time_integral"),
    "core": ("lp_norm", "divergence", "tail_profile"),
    "exact": ("barenblatt_field", "halfspace_initial_data",
              "taylor_green_field"),
    "experiments": ("run_experiment", "halfspace_run", "run_halfspace_fsp",
                    "run_energy_ledger", "write_manifest"),
    "svgplot": ("emit_plot", "emit_heatmap"),
}
SPANS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Time spent measuring a span's input is recorded as a child span under
# this name, so it is subtracted from the caller's self time and reported
# as no layer's.
PROBE = "trace.probe"

# (metric, unit, better) beyond the .calls/.self_s pair every span has
EXTRA_METRICS = (
    ("plaplace.step_explicit.us_per_call", "us", "lower"),
    ("plaplace.step_explicit.nodes_per_s", "1/s", "higher"),
    ("plaplace.step_explicit.active_frac", "1", "lower"),
    ("plaplace.step_implicit_proximal.ms_per_call", "ms", "lower"),
    ("plaplace.step_implicit_proximal.active_frac", "1", "lower"),
    ("fluid2d.project.us_per_call", "us", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for span in SPANS:
        specs.append((f"{span}.calls", "count", "lower"))
        specs.append((f"{span}.self_s", "s", "lower"))
    return specs + list(EXTRA_METRICS)


def active_fraction(values) -> float:
    """Share of grid nodes inside the bounding window of the nonzero
    support grown by a one-cell halo; 0 for an all-zero field.

    This is the ceiling on what stepping only inside the support can
    save: the nodes outside the window hold exact zeros.
    """
    nonzero = values != 0.0
    if not nonzero.any():
        return 0.0
    inside = 1
    for axis in range(values.ndim):
        other = tuple(a for a in range(values.ndim) if a != axis)
        line = nonzero.any(axis=other) if other else nonzero
        idx = line.nonzero()[0]
        lo = max(int(idx[0]) - 1, 0)
        hi = min(int(idx[-1]) + 1, values.shape[axis] - 1)
        inside *= hi - lo + 1
    return inside / values.size


def _field_probe(u, *_args, **_kwargs):
    """(active fraction, node count) of a stepper's input field."""
    return active_fraction(u.values), u.values.size


PROBES = {
    "plaplace.step_explicit": _field_probe,
    "plaplace.step_implicit_proximal": _field_probe,
}


class Tracer:
    """Spans kept in memory: a name, start, end and parent index each."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.samples: dict[str, list] = collections.defaultdict(list)
        self._open = [-1]

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._open.pop()

    def probe(self, span: str, fn, args, kwargs) -> None:
        idx = self.begin(PROBE)
        try:
            self.samples[span].append(fn(*args, **kwargs))
        finally:
            self.end(idx)

    def write(self, path: str) -> None:
        """Write every span as ``name,start,end,parent`` CSV rows."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for row in zip(self.names, self.starts, self.ends, self.parents):
                fh.write("%s,%r,%r,%d\n" % row)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children that overlap one another, or reach past their parent, are
    counted once and only inside the parent's interval.
    """
    children = collections.defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, start
        for child in sorted(children.get(idx, ()), key=starts.__getitem__):
            lo = max(starts[child], reach)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced workload pass (no overhead)."""
    calls = collections.Counter(tracer.names)
    self_s = collections.defaultdict(float)
    for name, own in zip(tracer.names,
                         self_times(tracer.starts, tracer.ends, tracer.parents)):
        self_s[name] += own
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_s"] = self_s[span]

    def per_call(span, scale):
        return self_s[span] / calls[span] * scale if calls[span] else 0.0

    def mean_frac(span):
        fracs = [frac for frac, _ in tracer.samples[span]]
        return statistics.fmean(fracs) if fracs else 0.0

    nodes = sum(n for _, n in tracer.samples["plaplace.step_explicit"])
    busy = self_s["plaplace.step_explicit"]
    out["plaplace.step_explicit.us_per_call"] = per_call(
        "plaplace.step_explicit", 1e6)
    out["plaplace.step_explicit.nodes_per_s"] = nodes / busy if busy else 0.0
    out["plaplace.step_explicit.active_frac"] = mean_frac(
        "plaplace.step_explicit")
    out["plaplace.step_implicit_proximal.ms_per_call"] = per_call(
        "plaplace.step_implicit_proximal", 1e3)
    out["plaplace.step_implicit_proximal.active_frac"] = mean_frac(
        "plaplace.step_implicit_proximal")
    out["fluid2d.project.us_per_call"] = per_call("fluid2d.project", 1e6)
    return out


def _wrap(tracer: Tracer, span: str, fn):
    probe = PROBES.get(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if probe is not None:
            tracer.probe(span, probe, args, kwargs)
        idx = tracer.begin(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return wrapper


def _pflab_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "pflab" or name.startswith("pflab."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Give every ``LAYERS`` function a span for the duration of the block.

    A function is replaced under every name that binds it in a loaded
    pflab module; a method is replaced on its class.  Every replaced
    binding is restored on exit, also when the block raises.
    """
    saved = []
    try:
        for modname, names in LAYERS.items():
            module = importlib.import_module(f"pflab.{modname}")
            for name in names:
                span = f"{modname}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    owner = getattr(module, cls_name)
                    orig = owner.__dict__[meth]
                    saved.append((owner, meth, orig))
                    setattr(owner, meth, _wrap(tracer, span, orig))
                    continue
                orig = getattr(module, name)
                wrapper = _wrap(tracer, span, orig)
                for other in _pflab_modules():
                    for attr, value in list(vars(other).items()):
                        if value is orig:
                            saved.append((other, attr, orig))
                            setattr(other, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
