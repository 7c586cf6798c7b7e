"""qcut benchmark: one workload, one process, one client, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout that holds this file.
Operations run one after another, each starting when the previous one and
its output check have finished.  The run repeats whole passes over the
workload's fixed operation list until the next pass would end after
``--seconds``, so every run has the same size mix.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
passes, with the tracing overhead measured against the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
state every metric with its unit, the tail percentile with its sample count,
and the error rate.  A fuller result file with provenance is written under
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: fresh child processes whose set-up is timed; setup_s is their median
SETUP_PROBES = 3

WORKLOADS = ("verify", "sample", "sample_wide", "zx")

#: end-to-end metrics: name -> unit
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_INCLUDES = (
    "wall time of a fresh python3 process that imports qcut and numpy, builds "
    "the workload's inputs from the seed, runs and checks one warm-up "
    "operation, and exits"
)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at nproc; must run before numpy loads."""
    threads = _nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= threads:
            os.environ[var] = str(threads)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _use_checkout_package():
    """Import qcut from this checkout's src/ or stop with exit code 2."""
    if not (SRC / "qcut" / "__init__.py").is_file():
        print(f"error: no qcut package under {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qcut

    if Path(qcut.__file__).resolve().parent != (SRC / "qcut").resolve():
        print(f"error: imported qcut from {qcut.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # --setup-probe: stop after set-up (timed from the parent process);
    # --tiny: shrink every size, for the self-test
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Tally:
    """Latencies and failures of every attempted operation in a run."""

    def __init__(self):
        self.latencies = []
        self.failures = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def run_pass(ops, tally: Tally, tracer=None):
    """Run every operation once; a failure is recorded and never aborts."""
    for op in ops:
        op_id = tally.attempted
        scope = (tracer.operation(op_id, op.label) if tracer is not None
                 else contextlib.nullcontext())
        problem = None
        start = time.perf_counter()
        try:
            with scope:
                result = op.run()
        except Exception:  # the run must go on; the traceback is reported
            problem = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        if problem is None:
            try:
                problem = op.check(result)
            except Exception:
                problem = "check raised: " + traceback.format_exc(limit=3)
        tally.latencies.append(latency)
        if problem is not None:
            tally.failures.append({"op": op_id, "label": op.label, "problem": problem})


class Measurement:
    """What one timed loop produced: tallies, pass times and the tracer."""

    def __init__(self):
        self.untraced = Tally()
        self.traced = Tally()
        self.pass_times = {"untraced": [], "traced": []}
        self.tracer = None
        self.elapsed = 0.0
        self.passes = 0


def measure(ops, seconds: float, trace: bool, workload_module) -> Measurement:
    """Timed closed loop of whole passes; with ``trace`` the passes alternate
    untraced and traced, starting untraced."""
    out = Measurement()
    if trace:
        import tracing

        out.tracer = tracing.Tracer()
        extra = [(workload_module, "diagram_and_gate", "zx.diagram_build", {})]
    need = 2 if trace else 1
    start = time.perf_counter()
    while True:
        traced = trace and out.passes % 2 == 1
        t0 = time.perf_counter()
        if traced:
            with tracing.installed(out.tracer, extra):
                run_pass(ops, out.traced, out.tracer)
        else:
            run_pass(ops, out.untraced)
        t1 = time.perf_counter()
        out.pass_times["traced" if traced else "untraced"].append(t1 - t0)
        out.passes += 1
        out.elapsed = t1 - start
        if out.passes >= need and out.elapsed * (1 + 1 / out.passes) > seconds:
            return out


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def setup_probes(args) -> list:
    """Wall time of SETUP_PROBES fresh processes doing the run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.strip()}")
    return times


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def provenance(blas_threads: int) -> dict:
    import numpy as np

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": _nproc(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _median_ms_by_label(ops, latencies) -> dict:
    """Median latency of each operation in the list over the run's passes."""
    k = len(ops)
    return {op.label: 1e3 * statistics.median(latencies[i::k])
            for i, op in enumerate(ops) if latencies[i::k]}


def summarize(workload: str, ops, m: Measurement, probes, tail_q: float) -> dict:
    """Metrics, notes and failure counts of one run."""
    failures = m.untraced.failures + m.traced.failures
    attempted = m.untraced.attempted + m.traced.attempted
    lat = m.untraced.latencies
    tail = percentile(lat, tail_q)
    above = sum(1 for x in lat if x > tail)
    notes = {}
    if m.tracer is not None:
        import tracing

        units = tracing.LAYER_METRICS
        values = m.tracer.layer_metrics(m.traced.attempted)
        untraced = statistics.mean(m.pass_times["untraced"])
        traced = statistics.mean(m.pass_times["traced"])
        values["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced
        notes["trace.overhead_pct"] = (
            f"mean traced pass {traced:.4g} s vs untraced {untraced:.4g} s")
    else:
        units = END_TO_END
        succeeded = m.untraced.attempted - len(m.untraced.failures)
        values = {
            "ops_per_s": succeeded / m.elapsed,
            "op_p50_ms": 1e3 * percentile(lat, 50.0),
            "op_tail_ms": 1e3 * tail,
            "setup_s": statistics.median(probes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes["op_tail_ms"] = f"p{tail_q:g} of {len(lat)} operations, {above} above it"
        notes["setup_s"] = f"median of {len(probes)} fresh processes"
    return {
        "workload": workload,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
        "notes": notes,
        "tail": {"percentile": tail_q, "samples": len(lat), "above": above},
        "op_ms_by_label": _median_ms_by_label(ops, lat),
        "passes": m.passes,
        "ops_per_pass": len(ops),
        "timed_s": m.elapsed,
        "pass_times_s": m.pass_times,
        "failures": failures[:20],
    }


def print_result(result: dict):
    """Human-readable lines, then the one-line JSON result last."""
    for failure in result["failures"][:5]:
        print(f"FAILED op {failure['op']} {failure['label']}: {failure['problem']}",
              file=sys.stderr)
    print(f"workload {result['workload']}: {result['passes']} passes of "
          f"{result['ops_per_pass']} operations in {result['timed_s']:.3f} s")
    for name, entry in result["metrics"].items():
        note = result["notes"].get(name)
        print(f"{name} = {entry['value']!r} {entry['unit']}"
              + (f"  ({note})" if note else ""))
    print(f"error_rate = {result['error_rate']!r} "
          f"(failed {result['failed']} of {result['attempted']} attempted)")
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    args = _parse_args(argv)
    blas_threads = _limit_blas_threads()
    _use_checkout_package()
    sys.path.insert(0, str(HERE))
    import workloads

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.make_ops(args.workload, args.seed, workdir, tiny=args.tiny)
        warm = Tally()
        run_pass(ops[:1], warm)
        if args.setup_probe:
            return 0
        own_setup = time.perf_counter() - _START
        probes = setup_probes(args)
        m = measure(ops, args.seconds, bool(args.trace), workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = summarize(args.workload, ops, m, probes,
                       workloads.TAIL_PERCENTILE[args.workload])
    result.update(
        seed=args.seed, seconds=args.seconds, trace=args.trace,
        setup={"probes_s": probes, "this_process_s": own_setup,
               "includes": SETUP_INCLUDES, "warm_up_failures": warm.failures},
        provenance=provenance(blas_threads),
    )
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if m.tracer is not None:
        spans = RESULTS / f"{stem}.spans.jsonl"
        m.tracer.write(spans)
        result["spans_file"] = spans.relative_to(ROOT).as_posix()
    result_path = RESULTS / f"{stem}.json"
    result_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"result file: {result_path.relative_to(ROOT).as_posix()}")
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
