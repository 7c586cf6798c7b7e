"""Fast self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

At tiny sizes it checks that

1. every workload, untraced and traced, prints each metric that
   BENCHMARK.json lists, by name and with its unit, and ends with the JSON
   result line;
2. a failing output check and a raising operation are counted in
   ``error_rate``, and the run goes on after them;
3. the per-layer counts repeat exactly between two traced runs of one seed;
4. in a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

FAILURES = []


def expect(ok: bool, message: str):
    print(("ok    " if ok else "FAIL  ") + message)
    if not ok:
        FAILURES.append(message)


def _run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_metric_lines(spec: dict):
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run_bench(workload, trace)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            last = json.loads(lines[-1])
            expect(set(last) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: JSON line has exactly the four keys")
            expect(last["correct"] and last["failed"] == 0 and last["attempted"] >= 1,
                   f"{where}: correct with {last['attempted']} attempted")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: entry["unit"] for name, entry in last["metrics"].items()}
            expect(got == wanted, f"{where}: metrics and units match BENCHMARK.json")
            printed = all(
                any(line.startswith(f"{name} = ") and f" {unit}" in line
                    for line in lines)
                for name, unit in wanted.items()
            )
            expect(printed, f"{where}: every metric printed by name with its unit")
            expect(any(line.startswith("error_rate = ") for line in lines),
                   f"{where}: error rate printed")


def check_failures_counted(workdir: Path):
    import workloads

    def raises():
        raise RuntimeError("raised on purpose")

    ops = workloads.make_ops("verify", 5, workdir, tiny=True)
    bad = workloads.Op("bad-output", lambda: 0, lambda result: "wrong on purpose")
    boom = workloads.Op("raises", raises, lambda result: None)
    ops = [ops[0], bad, boom] + ops[1:]
    m = run.measure(ops, 0.0, False, workloads)
    result = run.summarize("verify", ops, m, [0.1], 90.0)
    expect(result["failed"] == 2 * m.passes,
           f"failing check and raising op counted ({result['failed']} failed)")
    expect(result["attempted"] == len(ops) * m.passes,
           "every operation after the failures was attempted")
    expect(result["error_rate"] == result["failed"] / result["attempted"]
           and not result["correct"], "error_rate is failed / attempted")
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        run.print_result(result)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(last["failed"] == result["failed"] and last["correct"] is False,
           "JSON result line reports the failures")


def check_counts_repeat(workdir: Path):
    import tracing
    import workloads

    counts = [name for name, unit in tracing.LAYER_METRICS.items()
              if unit in ("count", "B")]
    for workload in run.WORKLOADS:
        seen = []
        for _ in range(2):
            ops = workloads.make_ops(workload, 9, workdir, tiny=True)
            m = run.measure(ops, 0.0, True, workloads)
            values = m.tracer.layer_metrics(m.traced.attempted)
            seen.append({name: values[name] for name in counts})
        expect(seen[0] == seen[1] and any(seen[0].values()),
               f"{workload}: per-layer counts repeat exactly {seen[0]}")


def check_bare_directory():
    bare = run.RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = _run_bench("verify", 0, cwd=bare)
        printed_json = any(line.startswith("{") for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and not printed_json,
               f"bare directory: exit code {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run._limit_blas_threads()
    run._use_checkout_package()
    run.RESULTS.mkdir(exist_ok=True)
    workdir = run.RESULTS / "selftest-work"
    workdir.mkdir(exist_ok=True)
    try:
        check_metric_lines(spec)
        check_failures_counted(workdir)
        check_counts_repeat(workdir)
        check_bare_directory()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
