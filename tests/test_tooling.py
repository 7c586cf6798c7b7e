"""The tools around the package: the benchmark's tracer
(``perfbench/tracing.py``) patches qcut's functions and methods by name, so
every name it targets must still resolve on its owner, and the repository's
pytest configuration must report a failing property test as a failure."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import qcut

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

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
