"""Mutation tests of the config boundary: a valid ``qcut sample`` config of
each family with one field dropped, added or given an odd value either runs
or exits 2 with a one-line error, never with a traceback, and any report it
writes is strict JSON.  A field its object does not read always exits 2.

Hypothesis draws single mutations of the whole config; every single
mutation of the ``decomposition`` object and its controlled ops, the part
the family table parses, is also run one by one."""

import contextlib
import copy
import io
import json
import os
import tempfile
from functools import reduce
from pathlib import Path

import pytest

from qcut.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: one valid decomposition per family, with every field it reads, and the
#: number of qubits it acts on
FAMILIES = {
    "wire_ncc": ({"name": "wire_ncc"}, 1),
    "wire_cc": ({"name": "wire_cc", "cc_basis": "X"}, 1),
    "mcz": ({"name": "mcz", "m": 1, "m_prime": 2}, 3),
    "rzz_a": ({"name": "rzz_a", "theta": "pi/3"}, 2),
    "rzz_b": ({"name": "rzz_b", "theta": 0.4}, 2),
    "multi_z": ({"name": "multi_z", "m": 2, "m_prime": 1, "theta": -1.1}, 3),
    "controlled_sequence": (
        {
            "name": "controlled_sequence",
            "n_targets": 2,
            "controlled_ops": [
                {"targets": [0], "gate": "h"},
                {"targets": [1], "gate": "rz", "theta": "pi/5"},
                {"targets": [0, 1], "gate": "matrix",
                 "matrix": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, [0, 1]]]},
            ],
        },
        3,
    ),
}

#: the odd values a field is replaced with
VALUES = [None, True, -1, 0, 2.5, 10**12, 1e300, "nan", "pi/0", "W", [], {}, ["x"]]

#: the fields an object may gain, each with a value that is valid where the
#: field is read: every field of every object, and a typo
ADDED = {
    "decomposition": {"name": "wire_ncc"}, "initial_state": "plus", "observable": "X",
    "shots": 10, "seed": 1, "n_batches": 1, "output": "report.json",
    "batch_csv": "batches.csv", "name": "wire_ncc", "m": 1, "m_prime": 1,
    "n_targets": 1, "theta": 0.5, "cc_basis": "Y",
    "controlled_ops": [{"targets": [0], "gate": "x"}], "targets": [0], "gate": "x",
    "matrix": [[1, 0], [0, 1]], "typo": 1,
}

#: the mutation value that drops the field
DROP = object()

settings = hypothesis.settings(max_examples=60, deadline=None, database=None)


def base_config(family: str) -> dict:
    """A valid config holding every optional field, so any added one is unread."""
    decomposition, n = FAMILIES[family]
    return {
        "decomposition": copy.deepcopy(decomposition),
        "initial_state": "plus",
        "observable": "X" * n,
        "shots": 1000,
        "seed": 3,
        "n_batches": 4,
        "output": "report.json",
        "batch_csv": "batches.csv",
    }


def at(obj, path):
    return reduce(lambda node, step: node[step], path, obj)


def objects(obj, path=()):
    """The path of every object nested in ``obj``, ``obj`` included."""
    if isinstance(obj, dict):
        yield path
        for key, value in obj.items():
            yield from objects(value, (*path, key))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from objects(value, (*path, k))


def single_mutations(config: dict, root=()) -> list:
    """``(path, value)`` of every one-field mutation of the objects under
    ``root``: each field dropped (``DROP``) or replaced by each of
    ``VALUES``, and each field of ``ADDED`` that an object lacks added."""
    out = []
    for where in objects(at(config, root), root):
        obj = at(config, where)
        for key in obj:
            out += [((*where, key), value) for value in (DROP, *VALUES)]
        out += [((*where, key), value) for key, value in ADDED.items() if key not in obj]
    return out


def reject_constant(name):
    raise ValueError(f"report holds {name}")


def run_sample(config: dict) -> tuple:
    """``(exit code, stderr, report text or None)`` of ``qcut sample`` on
    ``config``, run in-process in a fresh directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["sample", "--config", "config.json"])
            report = Path(config["output"]) if isinstance(config.get("output"), str) else None
            text = report.read_text() if report is not None and report.is_file() else None
        finally:
            os.chdir(cwd)
    return code, err.getvalue(), text


def check_mutation(base: dict, path: tuple, value):
    *where, key = path
    config = copy.deepcopy(base)
    if value is DROP:
        del at(config, where)[key]
    else:
        at(config, where)[key] = copy.deepcopy(value)
    code, err, report = run_sample(config)
    context = (path, value, err)
    assert code in (0, 2), context
    assert "Traceback" not in err, context
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, context
    if key not in at(base, where):
        assert code == 2, ("an unread field was accepted", *context)
    if report is not None:
        json.loads(report, parse_constant=reject_constant)


@pytest.mark.parametrize("family", FAMILIES)
def test_base_configs_run(family):
    code, err, report = run_sample(base_config(family))
    assert (code, err) == (0, "") and report is not None


@pytest.mark.parametrize("family", FAMILIES)
def test_mutated_config_runs_or_exits_2(family):
    base = base_config(family)

    @settings
    @hypothesis.given(mutation=st.sampled_from(single_mutations(base)))
    def check(mutation):
        check_mutation(base, *mutation)

    check()


@pytest.mark.parametrize("family", FAMILIES)
def test_every_decomposition_mutation_runs_or_exits_2(family):
    base = base_config(family)
    for path, value in single_mutations(base, ("decomposition",)):
        check_mutation(base, path, value)
