"""The tools around the package: the benchmark's tracer
(``perfbench/tracing.py``) patches qcut's functions and methods by name, so
every name it targets must still resolve on its owner, the repository's
pytest configuration must report a failing property test as a failure, and
the CLI's ``norms``, ``verify --all`` and ``zx-check --builtin all`` reports
and the example config's ``sample`` report must match the snapshots
committed under ``tests/data``."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcut

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DATA = ROOT / "tests" / "data"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_every_traced_name_is_defined_on_its_owner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    targets = [(owner, attr) for owner, attr, _, _ in tracing._targets(())]
    assert [(owner.__name__, attr) for owner, attr in targets if attr not in vars(owner)] == []
    # the map PTM is found by scanning for subclasses, so a rename would drop
    # it silently instead of failing the check above
    for owner, attr in [
        (qcut.channels.GeneralizedMap, "to_superoperator"),
        (qcut.cuts.DecompositionTerm, "to_superoperator"),
        (qcut.cuts.Decomposition, "reconstruct"),
        (qcut.cuts, "ptm_of_unitary"),
    ]:
        assert (owner, attr) in targets, (owner.__name__, attr)


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    # a failing example makes Hypothesis import libcst, whose deprecation
    # warning the config's "error" filter would raise inside pytest's report
    # hook: an INTERNALERROR, exit 3, and every later result lost
    pytest.importorskip("hypothesis")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout


def test_verify_report_is_the_same_at_one_and_two_blas_threads():
    # the kernel's gemms may split their sums by thread count; the report
    # must not depend on it
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-m", "qcut.cli", "verify", "--all"], env=env,
                             cwd=ROOT, capture_output=True, timeout=300)
        assert run.returncode == 0, run.stderr.decode()
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] and b"PASS" in outputs[0]


def _cli_stdout(*args) -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-m", "qcut.cli", *args], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout


#: run in a fresh interpreter: the CLI as a child, then the child's exit
#: code, its output and its peak resident set (KiB on Linux) as JSON
RSS_WRAPPER = """
import json, resource, subprocess, sys
run = subprocess.run([sys.executable, "-m", "qcut.cli", *sys.argv[1:]],
                     capture_output=True, text=True, timeout=300)
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([run.returncode, run.stdout, rss]))
"""


@pytest.mark.parametrize("builtin", ["mcz", "mcp"])
def test_zx_check_diagonal_builtin_at_18_qubits_stays_small(builtin):
    # a dense comparison needs 2^36 entries and is refused; the compact one
    # holds a few 2^18-entry arrays
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", RSS_WRAPPER, "zx-check", "--builtin", builtin,
                          "--n", "18"], env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    code, stdout, rss_kib = json.loads(run.stdout)
    assert code == 0 and len(re.findall(r"^\S+: PASS ", stdout, re.M)) == 1, stdout
    assert rss_kib < 150 * 1024


def test_norms_report_matches_its_snapshot():
    assert _cli_stdout("norms") == (DATA / "norms.csv").read_text()


def test_verify_report_matches_its_snapshot():
    # every byte but the rounding-level max|delta|, whose last digits may
    # follow the BLAS build; the PASS verdicts and the summary stay pinned
    def mask(report):
        return re.sub(r"max\|delta\| = \S+", "max|delta| = *", report)

    assert mask(_cli_stdout("verify", "--all")) == mask((DATA / "verify_all.txt").read_text())


def test_zx_check_report_matches_its_snapshot():
    assert _cli_stdout("zx-check", "--builtin", "all") == (DATA / "zx_check_all.txt").read_text()


def test_example_sample_report_matches_its_snapshot(tmp_path):
    # the JSON report of configs/rzz_b_example.json at seed 7, byte for byte
    report = tmp_path / "report.json"
    _cli_stdout("sample", "--config", str(ROOT / "configs" / "rzz_b_example.json"),
                "--seed", "7", "--output", str(report))
    assert report.read_bytes() == (DATA / "rzz_b_example_seed7.json").read_bytes()
