"""phi4lab benchmark: one closed-loop client running one workload's tasks.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

Run from the root of a phi4lab checkout; the library is imported from its
``src`` directory.  The next task starts only after the previous one has
returned and passed its oracle check.  Tasks run in whole cycles (see
workloads.py) until another cycle would end after ``--seconds``; at
least one cycle always runs.  Every cycle repeats the same tasks.  Wall
times are scaled to a reference host speed by a probe run between tasks
(probe.py), and a task's time is the least of its scaled times over the
cycles (README.md says why).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one cycle
with every task once untraced and once traced, prints the per-layer metrics
and writes the spans to perfbench/out/.  ``--workload all`` runs each
workload in a fresh process and prints every metric with its unit.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the run
(task counts, tail percentile, failures, Python, numpy, BLAS, nproc and the
BLAS thread count).  Exit status 0 when a result was printed, failed tasks
included (they show as correct = false); 2, with no result, when phi4lab
cannot be imported from this checkout.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
WORKLOADS = ("series", "stability", "fields", "rgflow")
# One BLAS/OpenMP thread: a single closed-loop client is measured, and a
# second thread on a two-core box would compete with it and with neighbours.
BLAS_THREADS = 1
SETUP_REPEATS = 9
# A probe runs after the first task that ends this long after the last
# probe, and at the end of every cycle.
PROBE_EVERY_S = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="twelve cheap tasks per cycle, for the self-test")
    parser.add_argument("--inject-fault", action="store_true",
                        help="give the first task a wrong oracle value, for the self-test")
    return parser.parse_args(argv)


def fix_threads():
    # numpy reads these when it is first imported, which is why this module
    # imports numpy, and the modules that import it, only inside functions
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_phi4lab():
    """A fresh import of phi4lab from this checkout's src directory."""
    src = str(CHECKOUT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "phi4lab" or m.startswith("phi4lab.")]:
        del sys.modules[name]
    package = importlib.import_module("phi4lab")
    if not Path(package.__file__).resolve().is_relative_to(CHECKOUT / "src"):
        raise ImportError(f"phi4lab imported from {package.__file__}, not from {src}")
    return package


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS}


def setup(workload, seed, tiny, gauge):
    """Import phi4lab afresh and build the seeded cycle; the setup time is the
    median of SETUP_REPEATS rounds, each scaled by the probes around it, and
    the last round's cycle is used."""
    import workloads
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = import_phi4lab()
        cycle = workloads.build(workload, seed, package, tiny)
        raw = time.perf_counter() - start
        times.append(raw * gauge.factor())
    return package, cycle, statistics.median(times)


def run_task(task, skew, failures, label):
    """Run one checked task; True when it raised nothing and every check held."""
    import workloads
    chk = workloads.Checker(skew)
    try:
        task(chk)
    except Exception as exc:  # a raising task is a failed task, never fatal
        failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return False
    if chk.failed:
        failures.append(f"{label}: failed {', '.join(chk.failed)}")
        return False
    return True


def percentile(values, q):
    import numpy as np
    return float(np.percentile(values, q))


def measure(cycle, seconds, inject_fault, gauge):
    """Whole cycles until the next one, if as slow as the slowest so far,
    would end after ``seconds``.

    Returns each task's scaled time per cycle, times[c][i] for task i of
    cycle c, every cycle running the same tasks in the same order, and the
    raw wall times in run order.  The tasks run since the last probe are
    scaled by it and the next one.
    """
    times, raw, failures = [], [], []
    ok = 0
    start = time.perf_counter()
    longest = 0.0
    while True:
        cycle_start = last_probe = time.perf_counter()
        row, held = [], []
        for i, (kind, task) in enumerate(cycle):
            t0 = time.perf_counter()
            ok += run_task(task, inject_fault and not times and i == 0, failures,
                           f"cycle {len(times)} task {i} {kind}")
            end = time.perf_counter()
            held.append(end - t0)
            if end - last_probe >= PROBE_EVERY_S or i == len(cycle) - 1:
                factor = gauge.factor()
                row += [t * factor for t in held]
                raw += held
                held = []
                last_probe = time.perf_counter()
        times.append(row)
        now = time.perf_counter()
        longest = max(longest, now - cycle_start)
        if now - start + longest > seconds:
            break
    return {"wall": time.perf_counter() - start, "times": times, "raw": raw, "ok": ok,
            "failures": failures}


def measure_traced(package, cycle, inject_fault, out_path):
    """One cycle, each task untraced then traced on the same inputs."""
    from tracing import Tracer
    tracer = Tracer(package)
    untraced = traced = 0.0
    failures = []
    ok = 0
    for i, (kind, task) in enumerate(cycle):
        t0 = time.perf_counter()
        ok += run_task(task, inject_fault and i == 0, failures, f"task {i} {kind}")
        untraced += time.perf_counter() - t0
        tracer.task = i
        tracer.install()
        try:
            t0 = time.perf_counter()
            ok += run_task(task, inject_fault and i == 0, failures, f"traced task {i} {kind}")
            traced += time.perf_counter() - t0
        finally:
            tracer.uninstall()
    out_path.parent.mkdir(exist_ok=True)
    tracer.write(out_path)
    return {"metrics": tracer.metrics(traced, untraced), "ok": ok,
            "attempted": 2 * len(cycle), "failures": failures,
            "untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans)}


def run_one(args):
    fix_threads()
    from probe import REFERENCE_S, Gauge
    gauge = Gauge()
    try:
        package, cycle, setup_s = setup(args.workload, args.seed, args.tiny, gauge)
    except ImportError as exc:
        print(f"cannot import phi4lab from {CHECKOUT / 'src'}: {exc}", file=sys.stderr)
        return 2
    tasks_per_cycle = len(cycle)
    tail_q = 100.0 * (tasks_per_cycle - 10) / tasks_per_cycle
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "tasks_per_cycle": tasks_per_cycle, "env": environment()}
    if args.trace:
        out_path = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        res = measure_traced(package, cycle, args.inject_fault, out_path)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in res["metrics"].items()}
        attempted, ok = res["attempted"], res["ok"]
        record.update(untraced_s=res["untraced_s"], traced_s=res["traced_s"],
                      spans=res["spans"], spans_file=str(out_path.relative_to(CHECKOUT)))
    else:
        res = measure(cycle, args.seconds, args.inject_fault, gauge)
        per_task = [min(column) for column in zip(*res["times"])]
        attempted, ok = len(res["times"]) * len(cycle), res["ok"]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "tasks_per_s": {"value": len(per_task) / sum(per_task), "unit": "1/s"},
            "task_s.p50": {"value": percentile(per_task, 50), "unit": "s"},
            "task_s.tail": {"value": percentile(per_task, tail_q), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "passed_frac": {"value": ok / attempted, "unit": "fraction"},
        }
        by_kind = {}
        for (kind, _), t in zip(cycle, per_task):
            by_kind.setdefault(kind, []).append(t)
        record.update(cycles=len(res["times"]), tail_percentile=tail_q, wall_s=res["wall"],
                      wall_tasks_per_s=attempted / res["wall"],
                      raw_task_s_p50=percentile(res["raw"], 50),
                      probe_reference_s=REFERENCE_S,
                      probe_s_quartiles=statistics.quantiles(gauge.probes, n=4),
                      kind_p50_s={k: percentile(v, 50) for k, v in by_kind.items()})
    record.update(attempted=attempted, failed=attempted - ok,
                  failed_frac=(attempted - ok) / attempted, failures=res["failures"][:20])
    print(json.dumps(record))
    print(json.dumps({"correct": ok == attempted, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own fresh process, so peak RSS is per workload."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--tiny"] * args.tiny + ["--inject-fault"] * args.inject_fault
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=CHECKOUT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: exit {proc.returncode}, no result")
            status = max(status, proc.returncode or 2)
            continue
        record, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{workload}: {result['attempted']} tasks, {result['failed']} failed, "
              f"correct={result['correct']}, tasks per cycle {record['tasks_per_cycle']}"
              + (f", tail = p{record['tail_percentile']:g}" if "tail_percentile" in record else ""))
        for name, m in result["metrics"].items():
            print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
        status = max(status, int(not result["correct"]))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
