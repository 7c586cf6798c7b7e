"""Mutation survey: one operator swap at a time in named functions of a source
file, each mutant run against a pytest selection.  Run from the repository root:

    python3 tools/mutate.py src/qcut/cuts.py _cut _lifted --tests tests/test_cuts.py
    python3 tools/mutate.py src/qcut/linalg.py Superoperator.compare \\
        --tests "tests/test_linalg.py -k compare" --out survivors.json
    python3 tools/mutate.py --self-check

A function is named as in its module: ``f``, or ``Class.method``.  Mutants
come in source order, one per site: ``+``/``-``, ``*``/``/``, ``<<``/``>>``,
``<``/``<=``, ``>``/``>=``, ``==``/``!=`` and ``and``/``or`` swapped, ``^``
and ``&`` replaced by ``|`` (in binary, augmented, comparison and Boolean
operators), ``not`` dropped with the blanks after it, and 1 added to a
numeric literal.  The repository is copied once into a temporary directory,
where each mutant is written over its file and runs ``python -m pytest -q
-x`` with the selection (no bytecode is written, so no stale module is
read); the working tree is never edited.  A mutant that the selection
passes survives.  Each run is held to :data:`MEMORY_BYTES` of address space
and to three times the unmutated run's time plus 30 s; a mutant that
exceeds either is counted as killed, its process group stopped.  The
survivors are printed and written as JSON to ``--out``.

``--self-check`` surveys three known mutants of ``src/qcut/linalg.py``
against ``tests/test_linalg.py``: ``d - 1`` -> ``d + 1`` and ``== 0`` ->
``!= 0`` in ``_is_power_of_two`` must be killed, and ``np.empty(0, ...)`` ->
``np.empty(1, ...)`` in ``max_abs_diff``, which reads only the array's
dtype, must survive as equivalent.  Exits 0 when the survey ran (or the
self-check held), 1 when the unmutated selection fails or the self-check
does not hold.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*", ast.LShift: ">>",
         ast.RShift: "<<", ast.BitXor: "|", ast.BitAnd: "|", ast.Lt: "<=", ast.LtE: "<",
         ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==", ast.And: "or",
         ast.Or: "and"}
TOKENS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.LShift: "<<",
          ast.RShift: ">>", ast.BitXor: "^", ast.BitAnd: "&", ast.Lt: "<", ast.LtE: "<=",
          ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.And: "and",
          ast.Or: "or"}
#: address space of one test run: a mutant that drops a size cap fails here
#: instead of taking the host's memory
MEMORY_BYTES = 3 * 2**30
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "results")


def _functions(tree: ast.Module, names) -> dict:
    """``{name: node}`` for each named top-level function or ``Class.method``."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.update({f"{node.name}.{f.name}": f for f in node.body
                          if isinstance(f, ast.FunctionDef)})
        elif isinstance(node, ast.FunctionDef):
            found[node.name] = node
    missing = [name for name in names if name not in found]
    if missing:
        sys.exit(f"no function {', '.join(missing)}")
    return {name: found[name] for name in names}


def mutants(source: str, names) -> list:
    """``(function, line, start, stop, old, new)`` per mutant, in source order:
    the byte span ``start:stop`` of the file holds ``old`` and becomes ``new``."""
    data = source.encode()
    starts = [0]
    starts += [i + 1 for i, c in enumerate(data) if c == ord("\n")]

    def at(line, col):
        return starts[line - 1] + col

    out = []
    for name, func in _functions(ast.parse(source), names).items():
        for node in ast.walk(func):
            sites = []  # (op, left operand, right operand)
            if isinstance(node, ast.BinOp):
                sites.append((node.op, node.left, node.right))
            elif isinstance(node, ast.AugAssign):
                sites.append((node.op, node.target, node.value))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                sites += [(op, a, b) for op, a, b in zip(node.ops, operands, operands[1:])]
            elif isinstance(node, ast.BoolOp):
                sites += [(node.op, a, b) for a, b in zip(node.values, node.values[1:])]
            elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
                # drop ``not`` and the blanks after it: its operand stands alone
                start = at(node.lineno, node.col_offset)
                stop = start + 3
                while data[stop:stop + 1] in (b" ", b"\t"):
                    stop += 1
                out.append((name, node.lineno, start, stop, data[start:stop].decode(), ""))
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                start = at(node.lineno, node.col_offset)
                stop = at(node.end_lineno, node.end_col_offset)
                out.append((name, node.lineno, start, stop, data[start:stop].decode(),
                            repr(node.value + 1)))
            for op, a, b in sites:
                if type(op) not in SWAPS:
                    continue
                gap = at(a.end_lineno, a.end_col_offset)
                token = TOKENS[type(op)]
                start = data.index(token.encode(), gap, at(b.lineno, b.col_offset))
                out.append((name, a.end_lineno, start, start + len(token), token,
                            SWAPS[type(op)]))
    return sorted(out, key=lambda m: (m[2], m[5]))


def survey(path: str, names, tests: list, chosen=None) -> dict:
    """Run every mutant (or the ``chosen`` ones) of ``names`` in ``path``."""
    source = (ROOT / path).read_text()
    found = mutants(source, names)
    found = [m for m in found if chosen is None or chosen(m, source)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        env["PYTHONPATH"] = str(copy / "src")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]

        def run(timeout=None) -> str:
            limit = (MEMORY_BYTES, MEMORY_BYTES)
            with subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, start_new_session=True,
                                  preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit)
                                  ) as proc:
                try:
                    return "passed" if proc.wait(timeout) == 0 else "killed"
                except subprocess.TimeoutExpired:
                    os.killpg(proc.pid, signal.SIGKILL)
                    return "timeout"

        began = time.monotonic()
        if run() != "passed":
            sys.exit(f"the unmutated selection fails: {shlex.join(tests)}")
        timeout = 3 * (time.monotonic() - began) + 30
        target, data, survivors = copy / path, source.encode(), []
        for name, line, start, stop, old, new in found:
            target.write_bytes(data[:start] + new.encode() + data[stop:])
            verdict = run(timeout)
            if verdict == "passed":
                verdict = "SURVIVED"
                survivors.append({"function": name, "line": line, "old": old, "new": new,
                                  "source": source.splitlines()[line - 1].strip()})
            print(f"{verdict:8} {path}:{line} {name}: {old} -> {new}", flush=True)
        target.write_bytes(data)
    return {"file": path, "functions": list(names), "tests": tests, "mutants": len(found),
            "killed": len(found) - len(survivors), "survivors": survivors}


def self_check() -> bool:
    def chosen(m, source):
        text = source.splitlines()[m[1] - 1]
        return ((m[0] == "_is_power_of_two" and m[4:] in (("-", "+"), ("==", "!=")))
                or (m[0] == "max_abs_diff" and m[4:] == ("0", "1") and "np.empty(0" in text))

    report = survey("src/qcut/linalg.py", ["_is_power_of_two", "max_abs_diff"],
                    ["tests/test_linalg.py"], chosen)
    survived = [(s["function"], s["old"], s["new"]) for s in report["survivors"]]
    ok = report["mutants"] == 3 and survived == [("max_abs_diff", "0", "1")]
    print("self-check " + ("holds" if ok else f"fails: {report}"))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", nargs="?", help="source file, relative to the repository root")
    parser.add_argument("functions", nargs="*", help="f or Class.method")
    parser.add_argument("--tests", default="tests", help="pytest selection, shell-quoted")
    parser.add_argument("--out", help="JSON report path")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return 0 if self_check() else 1
    if not (args.file and args.functions):
        parser.error("give a file and at least one function, or --self-check")
    report = survey(args.file, args.functions, shlex.split(args.tests))
    print(f"{report['killed']} of {report['mutants']} mutants killed, "
          f"{len(report['survivors'])} survived")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
