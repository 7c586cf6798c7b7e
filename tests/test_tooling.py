"""The benchmark's tracer (``perfbench/tracing.py``) patches qcut's functions
and methods by name.  A name it targets that ``src/`` no longer defines on
that owner would break a traced run, so every target must still resolve."""

import importlib
from pathlib import Path

import qcut

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
