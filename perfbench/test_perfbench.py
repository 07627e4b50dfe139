"""The benchmark's own tests: span arithmetic, patching, names and seeds.

Run with ``python -m pytest perfbench`` from the checkout's root.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402


def _bindings():
    """Every pflab module attribute and method a traced run may replace."""
    import pflab.experiments  # noqa: F401

    out = {}
    for mod in bench_trace._pflab_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
    from pflab.energetics import TrajectoryTails

    out[("TrajectoryTails", "time_integral")] = \
        TrajectoryTails.__dict__["time_integral"]
    return out


def test_self_times_of_a_nested_tree():
    # a [0,10] holds b [1,4] and c [5,9]; b holds d [2,3]; c holds e [5,7]
    # and f [6,8], which overlap and are covered once (5..8)
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0]
    parents = [-1, 0, 1, 0, 3, 3]
    assert bench_trace.self_times(starts, ends, parents) == \
        [3.0, 2.0, 1.0, 1.0, 2.0, 2.0]


def test_self_times_clip_children_to_the_parent():
    assert bench_trace.self_times([0.0, 1.0], [2.0, 5.0], [-1, 0]) == [1.0, 4.0]


def test_layer_metrics_from_a_synthetic_tracer():
    ticks = iter(float(t) for t in range(100))
    tracer = bench_trace.Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("plaplace.simulate")          # t=0
    for _ in range(2):
        step = tracer.begin("plaplace.step_explicit")  # t=1, 3
        tracer.end(step)                               # t=2, 4
    tracer.samples["plaplace.step_explicit"] += [(0.25, 10), (0.75, 10)]
    tracer.end(outer)                                  # t=5
    m = bench_trace.layer_metrics(tracer)
    assert m["plaplace.simulate.calls"] == 1
    assert m["plaplace.simulate.self_s"] == 3.0
    assert m["plaplace.step_explicit.calls"] == 2
    assert m["plaplace.step_explicit.self_s"] == 2.0
    assert m["plaplace.step_explicit.us_per_call"] == 1e6
    assert m["plaplace.step_explicit.nodes_per_s"] == 10.0
    assert m["plaplace.step_explicit.active_frac"] == 0.5
    assert m["fluid2d.project.us_per_call"] == 0.0


def test_active_fraction_counts_the_window_and_halo():
    import numpy as np

    v = np.zeros(10)
    assert bench_trace.active_fraction(v) == 0.0
    v[4:6] = 1.0
    assert bench_trace.active_fraction(v) == 0.4   # nodes 3..6
    v[0] = 1.0
    assert bench_trace.active_fraction(v) == 0.7   # nodes 0..6
    w = np.zeros((10, 10))
    w[2, 5] = 1.0
    assert bench_trace.active_fraction(w) == 0.09  # 3 x 3 nodes


def test_traced_spans_calls_and_restores_every_binding():
    from pflab import core, experiments, plaplace
    from pflab.energetics import TrajectoryTails

    before = _bindings()
    tracer = bench_trace.Tracer()
    with bench_trace.traced(tracer):
        # imported by name into experiments: both names carry one wrapper
        assert experiments.simulate is plaplace.simulate
        assert experiments.simulate is not before[("pflab.plaplace", "simulate")]
        assert experiments.lp_norm is core.lp_norm
        assert TrajectoryTails.time_integral is not \
            before[("TrajectoryTails", "time_integral")]
        grid = core.GridSpec.line(-1.0, 1.0, 8)
        experiments.lp_norm(core.ScalarField.zeros(grid), 2.0)
    assert tracer.names == ["core.lp_norm"]
    assert _bindings() == before

    try:
        with bench_trace.traced(bench_trace.Tracer()):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert _bindings() == before


def test_every_span_names_an_existing_public_function():
    import importlib

    for modname, names in bench_trace.LAYERS.items():
        module = importlib.import_module(f"pflab.{modname}")
        for name in names:
            assert not any(part.startswith("_") for part in name.split("."))
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"{modname}.{name}"


def test_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(wl.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        bench_trace.per_layer_specs()
    traced = set(bench_trace.layer_metrics(bench_trace.Tracer()))
    assert traced | {"trace.overhead_s"} == {m["name"] for m in spec["per_layer"]}
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_seeded_inputs_are_deterministic(tmp_path):
    assert wl.seeded_inputs(3) == wl.seeded_inputs(3)
    assert wl.seeded_inputs(3) != wl.seeded_inputs(4)
    for seed in range(50):
        inputs = wl.seeded_inputs(seed)
        assert wl.SHIFT_CELLS[0] <= inputs["shift_cells"] <= wl.SHIFT_CELLS[1]
        assert wl.FIELD_SEED_RANGE[0] <= inputs["field_seed"] <= wl.FIELD_SEED_RANGE[1]

    for workload in wl.WORKLOADS:
        a = wl.build_cases(workload, 3, str(tmp_path))
        b = wl.build_cases(workload, 3, str(tmp_path))
        c = wl.build_cases(workload, 4, str(tmp_path))
        assert [x.cfg.values for x in a] == [x.cfg.values for x in b]
        assert [x.cfg.values for x in a] != [x.cfg.values for x in c]

    hs = wl.build_cases("halfspace-explicit-1d", 3, str(tmp_path))[0]
    (lo, hi), = hs.cfg["bounds"]
    h = (7.5 + 7.8) / 2048
    assert abs((lo + 7.8) / h - wl.seeded_inputs(3)["shift_cells"]) < 1e-9
    assert abs((hi - lo) - 15.3) < 1e-12
    weak = wl.build_cases("fluid-tg-2d", 3, str(tmp_path))[1]
    assert weak.cfg["seed"] == wl.seeded_inputs(3)["field_seed"]


def test_digest_ignores_the_manifest(tmp_path):
    (tmp_path / "report.txt").write_text("passed = True\n")
    (tmp_path / "trace.csv").write_text("t,front\n")
    (tmp_path / "manifest.txt").write_text("run_stamp = 1\n")
    first = wl.digest(str(tmp_path))
    (tmp_path / "manifest.txt").write_text("run_stamp = 2\n")
    assert wl.digest(str(tmp_path)) == first
    (tmp_path / "trace.csv").write_text("t,front\n0,1\n")
    assert wl.digest(str(tmp_path)) != first
