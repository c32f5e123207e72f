"""Self-test of the benchmark, on tiny cycles of every workload.

    python3 perfbench/selftest.py

Run from the root of a phi4lab checkout.  For each workload it checks that
a clean run passes and prints every end-to-end metric (--trace 0) and every
per-layer metric (--trace 1) named in BENCHMARK.json with that unit, and
that a wrong oracle value injected into the first task is counted in
failed and passed_frac.  Last, it checks that the benchmark exits non-zero
without a result in a directory that holds no phi4lab source.  Exit status
0 when every check holds; each failed check is printed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"


def run(args, cwd=CHECKOUT):
    proc = subprocess.run([sys.executable, str(RUN), "--seconds", "1", "--tiny"] + args,
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(["--workload", workload, "--seed", "7", "--trace", str(trace)])
            expect(code == 0 and result is not None, f"{workload} trace {trace}: exit 0 with a result")
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{workload} trace {trace}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: clean run passes")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace {trace}: every {group} metric with its unit")
        code, result = run(["--workload", workload, "--seed", "7", "--trace", "0", "--inject-fault"])
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] >= 1
               and result["metrics"]["passed_frac"]["value"] < 1.0,
               f"{workload}: injected wrong oracle value counted as failed")

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run([sys.executable, str(bare / BENCH_DIR.name / "run.py"),
                               "--workload", "series", "--seed", "1", "--seconds", "1"],
                              capture_output=True, text=True, cwd=bare, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without phi4lab source: non-zero exit and no result")
    finally:
        shutil.rmtree(bare)

    print(f"{len(problems)} failed check(s)" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
