"""Run every workload, untraced and traced, and print one table of each.

Run from the repository root:

    python3 perfbench/report.py --seed 1 --seconds 30

Each workload runs in its own fresh process (``perfbench/run.py``), one after
another, so each peak RSS belongs to that workload alone.  The first table
holds every end-to-end metric with its unit, the tail percentile with its
sample count, and the error rate; the second holds every per-layer metric of
the traced runs, with the tracing overhead.  Exits 1 if any run failed an
output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    path = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                if line.startswith("result file: "))
    return json.loads((ROOT / path).read_text())


def _table(header, rows):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).rjust(w) if i else str(c).ljust(w)
                        for i, (c, w) in enumerate(zip(row, widths))))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    plain = {w: run_one(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    traced = {w: run_one(w, args.seed, args.seconds, 1) for w in WORKLOADS}

    first = plain[WORKLOADS[0]]
    print(f"seed {args.seed}, {args.seconds:g} s per run; provenance: "
          + json.dumps(first["provenance"], sort_keys=True))
    names = list(first["metrics"])
    header = ["workload"] + [f"{n} [{first['metrics'][n]['unit']}]" for n in names]
    header += ["tail pct / samples", "error_rate"]
    rows = []
    for w, r in plain.items():
        rows.append([w] + [f"{r['metrics'][n]['value']:.6g}" for n in names]
                    + [f"p{r['tail']['percentile']:g} / {r['tail']['samples']}",
                       f"{r['error_rate']:.6g}"])
    print()
    _table(header, rows)

    layer_names = list(traced[WORKLOADS[0]]["metrics"])
    rows = []
    for n in layer_names:
        unit = traced[WORKLOADS[0]]["metrics"][n]["unit"]
        rows.append([f"{n} [{unit}]"] + [f"{traced[w]['metrics'][n]['value']:.6g}"
                                         for w in WORKLOADS])
    rows.append(["error_rate"] + [f"{traced[w]['error_rate']:.6g}" for w in WORKLOADS])
    print()
    _table(["per-layer, per operation"] + list(WORKLOADS), rows)
    ok = all(r["correct"] for r in list(plain.values()) + list(traced.values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
