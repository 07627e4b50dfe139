#!/usr/bin/env python3
"""pflab benchmark: time to a verified result on three solver workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; pflab is imported from the ``src/`` next to this
directory and nowhere else.  Each pass over the workload's cases runs in
a fresh interpreter, as a command-line run of pflab would, and passes
follow one another until ``--seconds`` have passed and at least two
untraced passes (or one untraced and one traced pair) have run.
A pass is timed from the first call into pflab to the last verified
report; its set-up (importing pflab, building the configs) is timed
apart.  Every case must pass its own gate, and every pass must produce
the same output digests as the first one and as earlier runs of the
same code and seed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones.  The last line of standard output is the JSON result.
Scratch output goes to ``.perfbench_work/`` at the checkout's root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# A run starts no round of passes that would end after RUN_BUDGET_S, and
# gives the set-up samples after them SETUP_RESERVE_S more, so the whole
# run ends within its 180 s limit.
RUN_BUDGET_S = 160
SETUP_RESERVE_S = 10
MIN_PASSES = 2  # untraced passes per run, so wall_s is never a lone sample
SETUP_SAMPLES = 5  # set-ups timed per run: one per pass, the rest set-up only
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
import bench_trace  # noqa: E402
import bench_workloads as wl  # noqa: E402

# the spans predicted to hold most of the self time on each workload
PREDICTED = {
    "halfspace-explicit-1d": ("plaplace.step_explicit", "plaplace.simulate"),
    "barenblatt-implicit-2d": ("plaplace.step_implicit_proximal",),
    "fluid-tg-2d": tuple(s for s in bench_trace.SPANS if s.startswith("fluid2d.")),
}


class BenchError(Exception):
    """The benchmark itself cannot run: no pflab here, or a pass crashed."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-dir", help="run one pass in this process, writing "
                    "its outputs under PASS_DIR, and print it as JSON")
    ap.add_argument("--setup-only", action="store_true",
                    help="with --pass-dir: stop after set-up")
    return ap.parse_args(argv)


def find_pflab() -> None:
    """Put this checkout's ``src`` first on the path; fail unless pflab
    would be imported from there."""
    import importlib.util

    sys.path.insert(0, SRC)
    spec = importlib.util.find_spec("pflab")
    origin = os.path.abspath(spec.origin) if spec and spec.origin else ""
    if not origin.startswith(SRC + os.sep):
        raise BenchError(f"pflab not found under {SRC} (found {origin or 'none'})")


def machine_facts() -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    threads = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
        with open("/proc/self/status") as fh:
            threads = next((int(ln.split()[1]) for ln in fh
                            if ln.startswith("Threads:")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "pass_process_threads": threads,
        "load": "closed loop, one caller, one pass process at a time",
    }


def one_pass(args) -> dict:
    """Set up, run and verify one pass in this process."""
    find_pflab()
    start = time.perf_counter()
    cases = wl.build_cases(args.workload, args.seed, args.pass_dir)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        return {"setup_s": setup_s}
    for case in cases:
        os.makedirs(case.outdir, exist_ok=True)
    tracer = bench_trace.Tracer() if args.trace else None
    with bench_trace.traced(tracer) if tracer else contextlib.nullcontext():
        start, cpu_start = time.perf_counter(), time.process_time()
        outcomes = wl.run_cases(args.workload, cases)
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # printed beside wall_s: a pass whose wall time grew while its CPU
        # time did not waited on the machine, not on pflab
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_rel": wl.err_rel(args.workload, outcomes),
        "cases": [],
        "machine": machine_facts(),
    }
    for out in outcomes:
        error = out.error
        if error is None and not (out.report or {}).get("passed"):
            error = "report not marked passed"
        result["cases"].append({
            "name": out.case.name, "error": error,
            "outputs": wl.key_outputs(out),
            "digest": wl.digest(out.case.outdir) if error is None else None})
    if tracer:
        result["layers"] = bench_trace.layer_metrics(tracer)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.csv"))
    return result


def spawn_pass(args, trace: int, pass_dir: str, timeout: float,
               setup_only=False) -> dict:
    """Run one pass in a fresh interpreter and wait for it to end."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--pass-dir", pass_dir]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded the run's {RUN_BUDGET_S} s budget") from exc
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Verifier:
    """Counts cases attempted and failed, and holds each case's digest
    from the first pass so every later pass can be compared to it."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.err_rel = None

    def check(self, label: str, result: dict) -> None:
        for case in result["cases"]:
            self.attempted += 1
            error, dig = case["error"], case["digest"]
            first = self.digests.setdefault(case["name"], dig) if dig else None
            if dig and dig != first:
                error = f"digest differs from the first pass ({first[:16]})"
            self.failed += error is not None
            status = "ok" if error is None else f"FAIL {error}"
            print(f"case {label} {case['name']}: {status} "
                  f"{json.dumps(case['outputs'])} digest={dig}", flush=True)
        if self.err_rel is None:
            self.err_rel = result["err_rel"]

    def check_record(self, seed: int, source: str) -> None:
        """Compare digests with those an earlier run of the same code and
        seed recorded, or record them; a mismatch fails the case."""
        folder = os.path.join(WORK, "digests")
        os.makedirs(folder, exist_ok=True)
        for name, dig in sorted(self.digests.items()):
            path = os.path.join(folder, f"{self.workload}-seed{seed}-{source[:16]}-{name}")
            if os.path.exists(path):
                with open(path) as fh:
                    recorded = fh.read().strip()
                if recorded != dig:
                    self.failed += 1
                    print(f"case {name}: FAIL digest {dig[:16]} differs from an "
                          f"earlier run's {recorded[:16]}", flush=True)
                continue
            tmp = f"{path}.{os.getpid()}"
            with open(tmp, "w") as fh:
                fh.write(dig + "\n")
            os.replace(tmp, path)


def dominant_summary(workload: str, layers: dict) -> str:
    self_s = {s: layers[f"{s}.self_s"] for s in bench_trace.SPANS}
    total = sum(self_s.values())
    if total <= 0:
        return "no self time recorded"
    top = sorted(self_s.items(), key=lambda kv: -kv[1])[:5]
    share = sum(self_s[s] for s in PREDICTED[workload]) / total
    verdict = "confirmed" if share > 0.5 else "NOT confirmed"
    tops = ", ".join(f"{s} {v / total:.1%}" for s, v in top)
    return f"top self time: {tops}; predicted spans hold {share:.1%}: {verdict}"


def measure(args, workdir: str, verifier: Verifier) -> dict:
    """Rounds of passes until ``--seconds`` have passed: an untraced pass
    and, with ``--trace 1``, a traced one after it."""
    kinds = (0, 1) if args.trace else (0,)
    min_rounds = 1 if args.trace else MIN_PASSES
    passes = {kind: [] for kind in kinds}
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S

    def left():
        return deadline - time.perf_counter()

    rounds = 0
    while True:
        round_start = time.perf_counter()
        rounds += 1
        for kind in kinds:
            result = spawn_pass(args, kind, os.path.join(
                workdir, f"pass-{rounds}-{kind}"), left())
            if rounds == 1 and kind == 0:
                print("machine " + json.dumps(result["machine"]), flush=True)
            verifier.check(f"pass={rounds}" + (" traced" if kind else ""), result)
            passes[kind].append(result)
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and rounds >= min_rounds:
            break
        if time.perf_counter() - round_start > left():
            print(f"perfbench: stopping after {rounds} round(s): another "
                  f"would overrun the {RUN_BUDGET_S} s budget", flush=True)
            break

    def median(kind, key):
        return statistics.median(r[key] for r in passes[kind])

    for kind in kinds:
        print(("traced " if kind else "") + f"passes={len(passes[kind])} "
              f"wall_s={[r['wall_s'] for r in passes[kind]]} "
              f"cpu_s={[r['cpu_s'] for r in passes[kind]]}", flush=True)
    if not args.trace:
        setups = [r["setup_s"] for r in passes[0]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn_pass(args, 0, os.path.join(workdir, "setup"),
                                     left() + SETUP_RESERVE_S,
                                     setup_only=True)["setup_s"])
        print(f"setup_s={setups}", flush=True)
        return {"wall_s": (median(0, "wall_s"), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (median(0, "peak_rss_mb"), "MB"),
                "err_rel": (verifier.err_rel, "1")}
    units = {name: unit for name, unit, _ in bench_trace.per_layer_specs()}
    layers = {name: statistics.median(r["layers"][name] for r in passes[1])
              for name in passes[1][0]["layers"]}
    layers["trace.overhead_s"] = median(1, "wall_s") - median(0, "wall_s")
    print(f"spans of the last traced pass: {WORK}/spans-{args.workload}.csv",
          flush=True)
    print(dominant_summary(args.workload, layers), flush=True)
    return {name: (value, units[name]) for name, value in layers.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    # one caller and one BLAS thread: a pass never runs more threads than
    # cores, whatever the environment asks for
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.pass_dir:
        print(json.dumps(one_pass(args)))
        return 0
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    verifier = Verifier(args.workload)
    try:
        find_pflab()
        print(f"workload {args.workload}: seed {args.seed} -> inputs "
              f"{json.dumps(wl.seeded_inputs(args.seed))}", flush=True)
        metrics = measure(args, workdir, verifier)
        verifier.check_record(args.seed, wl.source_digest(os.path.join(SRC, "pflab")))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": verifier.failed == 0 and verifier.err_rel is not None,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
