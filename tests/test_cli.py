import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

import qcut.channels
import qcut.cuts
import qcut.cli
import qcut.linalg
import qcut.zx
from qcut.cli import build_decomposition, build_experiment, main


def write_config(tmp_path, **overrides):
    config = {
        "decomposition": {"name": "rzz_b", "theta": "pi/2"},
        "initial_state": "plus",
        "observable": "XX",
        "shots": 20_000,
        "seed": 7,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single(capsys):
    assert main(["verify", "--deco", "mcz", "--m", "2", "--mprime", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "gamma = 3" in out


def test_verify_names_the_worst_entry_on_fail_only(monkeypatch, capsys):
    assert main(["verify", "--deco", "mcz", "--m", "2", "--mprime", "2"]) == 0
    assert "worst entry" not in capsys.readouterr().out
    build = qcut.cuts.mcz_decomposition

    def flipped(m, m_prime):
        deco = build(m, m_prime)
        t = deco.terms[0]
        terms = (qcut.cuts.DecompositionTerm(-t.q, t.factors, t.label),) + deco.terms[1:]
        return qcut.cuts.Decomposition(deco.name, deco.partition, terms, deco.target_unitary)

    monkeypatch.setattr(qcut.cuts, "mcz_decomposition", flipped)
    assert main(["verify", "--deco", "mcz", "--m", "2", "--mprime", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    out, inp = flipped(2, 2).verify()["worst_entry"]
    assert lines[0].startswith("mcz[2,2]: gamma = 3, max|delta| = ") and "[FAIL]" in lines[0]
    assert lines[1] == f"  worst entry: out {out} <- in {inp}"


def test_verify_theta_angle_syntax(capsys):
    assert main(["verify", "--deco", "rzz_b", "--theta", "pi/6"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_unknown_deco_exits_2(capsys):
    assert main(["verify", "--deco", "nope"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_missing_required_field_exits_2(capsys):
    assert main(["verify", "--deco", "mcz"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--deco", "mcz", "--m", "6", "--mprime", "6"],
        ["zx-check", "--builtin", "mcz", "--n", "15"],
        "sample",
    ],
    ids=["verify-mcz[6,6]", "zx-check-mcz[15]", "sample-mcz[6,6]"],
)
def test_oversize_request_exits_2(tmp_path, capsys, argv):
    if argv == "sample":
        config = write_config(
            tmp_path, decomposition={"name": "mcz", "m": 6, "m_prime": 6},
            observable="X" * 12,
        )
        argv = ["sample", "--config", str(config)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "over the cap of 2^26" in err


@pytest.mark.parametrize(
    "argv,err",
    [
        (["verify", "--all", "--m", "3", "--theta", "9"], "--m, --theta: not read by verify --all"),
        (["verify", "--all", "--deco", "mcz", "--mprime", "1", "--cc-basis", "X"],
         "--deco, --mprime, --cc-basis: not read by verify --all"),
        (["verify", "--deco", "mcz", "--m", "1", "--mprime", "1", "--theta", "1"],
         "decomposition: unknown fields ['theta']"),
        (["verify", "--deco", "rzz_b", "--theta", "1", "--cc-basis", "Y"],
         "decomposition: unknown fields ['cc_basis']"),
        (["verify", "--deco", "wire_cc", "--cc-basis", "W"],
         "decomposition.cc_basis: must be X, Y or Z, got 'W'"),
        (["verify", "--deco", "mcz", "--m", "1000000000000", "--mprime", "1"],
         "decomposition.m: must be an integer in 1..26, got 1000000000000"),
        (["verify", "--deco", "multi_z", "--m", "1", "--mprime", "27", "--theta", "1"],
         "decomposition.m_prime: must be an integer in 1..26, got 27"),
        (["zx-check", "--builtin", "mcz", "--n", "1000000000000"],
         "--n: must be an integer in 1..26, got 1000000000000"),
        (["zx-check", "--builtin", "mcz-fusion", "--n", "3", "--m", "27"],
         "--m: must be an integer in 1..26, got 27"),
    ],
    ids=["all-m-theta", "all-deco-mprime-cc", "mcz-theta", "rzz_b-cc_basis", "cc_basis-W",
         "m-1e12", "mprime-27", "zx-n-1e12", "zx-m-27"],
)
def test_verify_and_zx_check_flags_are_bounded_and_read(capsys, argv, err):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 5
    out = capsys.readouterr()
    assert out.err == f"error: {err}\n" and out.out == ""


def test_largest_named_size_reaches_the_size_cap(capsys):
    # 26 qubits pass the bound and are refused by the builder's own cap
    assert main(["verify", "--deco", "mcz", "--m", "26", "--mprime", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: decomposition: PTM of a cut on 27 qubits needs 2^108 dense entries, "
        "over the cap of 2^26\n"
    )


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# repeated main() calls in one process
# ---------------------------------------------------------------------------


def test_second_call_takes_seed_from_config_after_seed_flag(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    argv = ["sample", "--config", str(config), "--output"]
    assert main([*argv, str(out1), "--seed", "5"]) == 0
    assert main([*argv, str(out2)]) == 0
    assert json.loads(out1.read_text())["seed"] == 5
    assert json.loads(out2.read_text())["seed"] == 7


def test_zx_check_still_rejects_unread_flags_after_sample(tmp_path, capsys):
    assert main(["sample", "--config", str(write_config(tmp_path))]) == 0
    capsys.readouterr()
    assert main(["zx-check", "--builtin", "rzz", "--n", "5"]) == 2
    assert capsys.readouterr().err == "error: --n: not read by zx-check --builtin rzz\n"


def test_usage_error_message_unchanged_after_sample(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        qcut.cli._build_parser().parse_args(["sample", "--seed", "x"])
    assert err.value.code == 2
    fresh = capsys.readouterr().err
    assert main(["sample", "--config", str(write_config(tmp_path))]) == 0
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(["sample", "--seed", "x"])
        assert err.value.code == 2
        assert capsys.readouterr().err == fresh
    assert "invalid int value: 'x'" in fresh


def test_dispatch_runs_a_replaced_command(tmp_path, monkeypatch):
    assert main(["norms", "--csv", str(tmp_path / "norms.csv")]) == 0
    monkeypatch.setattr(qcut.cli, "cmd_norms", lambda args: 42)
    assert main(["norms"]) == 42


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_writes_deterministic_report(tmp_path, capsys):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["sample", "--config", str(config), "--output", str(out1)]) == 0
    assert main(["sample", "--config", str(config), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["seed"] == 7 and report["shots"] == 20_000
    assert abs(report["estimate"] - 1.0) < 5 * report["standard_error"]


def test_sample_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["sample", "--config", str(config), "--output", str(out1)])
    main(["sample", "--config", str(config), "--seed", "8", "--output", str(out2)])
    assert json.loads(out2.read_text())["seed"] == 8
    assert out1.read_bytes() != out2.read_bytes()


def test_sample_requires_seed(tmp_path, capsys):
    config = write_config(tmp_path)
    data = json.loads(config.read_text())
    del data["seed"]
    config.write_text(json.dumps(data))
    assert main(["sample", "--config", str(config)]) == 2
    assert "seed" in capsys.readouterr().err


def test_sample_rejects_unknown_field(tmp_path, capsys):
    config = write_config(tmp_path, typo_field=1)
    assert main(["sample", "--config", str(config)]) == 2
    assert "typo_field" in capsys.readouterr().err


def test_sample_rejects_bad_observable(tmp_path, capsys):
    config = write_config(tmp_path, observable="XQ")
    assert main(["sample", "--config", str(config)]) == 2
    assert "observable" in capsys.readouterr().err


def test_sample_batch_csv(tmp_path, capsys):
    config = write_config(tmp_path, n_batches=4)
    csv_path = tmp_path / "batches.csv"
    assert main(
        ["sample", "--config", str(config), "--batch-csv", str(csv_path)]
    ) == 0
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["batch_index", "partial_mean"]
    assert len(rows) == 5


@pytest.mark.parametrize("in_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("n_batches", [0, None], ids=["zero", "absent"])
def test_sample_batch_csv_without_batches_refuses_before_sampling(tmp_path, capsys, n_batches,
                                                                 in_config):
    csv_path, out = tmp_path / "batches.csv", tmp_path / "report.json"
    overrides = {} if n_batches is None else {"n_batches": n_batches}
    if in_config:
        overrides["batch_csv"] = str(csv_path)
    config = write_config(tmp_path, **overrides)
    argv = ["sample", "--config", str(config), "--output", str(out)]
    assert main(argv + ([] if in_config else ["--batch-csv", str(csv_path)])) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: batch_csv: set n_batches > 0 in the config\n"
    assert captured.out == ""
    assert not out.exists() and not csv_path.exists()


@pytest.mark.parametrize("n_batches", [20, -3, "x", True, 2.5, float("nan")])
def test_sample_rejects_bad_n_batches(tmp_path, capsys, n_batches):
    config = write_config(tmp_path, shots=10, n_batches=n_batches)
    out = tmp_path / "report.json"
    assert main(["sample", "--config", str(config), "--output", str(out)]) == 2
    assert "n_batches" in capsys.readouterr().err
    assert not out.exists()


def test_sample_rejects_n_batches_over_the_dense_cap(tmp_path, capsys):
    config = write_config(tmp_path, shots=10**12, n_batches=10**12)
    assert main(["sample", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: n_batches: must be an integer in 0..67108864, got 1000000000000\n"
    )


def test_sample_rejects_boolean_shots(tmp_path, capsys):
    config = write_config(tmp_path, shots=True)
    assert main(["sample", "--config", str(config)]) == 2
    assert "shots" in capsys.readouterr().err


def test_sample_accepts_n_batches_equal_to_shots(tmp_path):
    config = write_config(tmp_path, shots=10, n_batches=10.0)
    out = tmp_path / "report.json"
    assert main(["sample", "--config", str(config), "--output", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=pytest.fail)
    assert len(report["batch_means"]) == 10
    assert len(report["per_term_means"]) == len(report["per_term_shots"])
    assert "z_score" in report


SEQUENCE = {
    "name": "controlled_sequence",
    "n_targets": 2,
    "controlled_ops": [{"targets": [0], "gate": "x"}],
}


def sequence_with(**overrides):
    return {**SEQUENCE, **overrides}


def op_with(**overrides):
    return sequence_with(controlled_ops=[{"targets": [0], "gate": "x", **overrides}])


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"shots": 10.5}, "shots"),
        ({"shots": 2**63}, "shots"),
        ({"decomposition": {"name": "mcz", "m": "x", "m_prime": 1}}, "decomposition.m"),
        ({"decomposition": {"name": "mcz", "m": 2.7, "m_prime": 1}}, "decomposition.m"),
        ({"decomposition": {"name": "mcz", "m": 2, "m_prime": 0}}, "decomposition.m_prime"),
        (
            {"decomposition": {"name": "multi_z", "m": 1, "m_prime": False, "theta": 1}},
            "decomposition.m_prime",
        ),
        ({"decomposition": sequence_with(n_targets=0)}, "decomposition.n_targets"),
        ({"decomposition": sequence_with(n_targets=[2])}, "decomposition.n_targets"),
        ({"decomposition": sequence_with(controlled_ops=5)}, "decomposition.controlled_ops"),
        ({"decomposition": op_with(targets=["a"])}, "decomposition.controlled_ops[0].targets"),
        ({"decomposition": op_with(targets=[0.5])}, "decomposition.controlled_ops[0].targets"),
        ({"decomposition": op_with(targets=[2])}, "decomposition.controlled_ops[0].targets"),
        ({"decomposition": op_with(targets=0)}, "decomposition.controlled_ops[0].targets"),
    ],
    ids=[
        "seed-negative", "seed-fraction", "seed-bool", "seed-string",
        "shots-fraction", "shots-over-int64", "m-string", "m-fraction",
        "m_prime-zero", "m_prime-bool", "n_targets-zero", "n_targets-list",
        "controlled_ops-int", "targets-string", "targets-fraction",
        "targets-out-of-range", "targets-not-a-list",
    ],
)
def test_sample_rejects_bad_integer_fields(tmp_path, capsys, overrides, field):
    config = write_config(tmp_path, **overrides)
    assert main(["sample", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}:")


def test_sample_rejects_negative_seed_flag(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["sample", "--config", str(config), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed:")


@pytest.mark.parametrize("where", ["config", "flag"])
def test_sample_takes_a_seed_beyond_float_range(tmp_path, capsys, where):
    # an int seed is judged exactly, never converted to float
    seed = 10**400
    config = write_config(tmp_path, **({"seed": seed} if where == "config" else {}))
    out = tmp_path / "report.json"
    flag = ["--seed", str(seed)] if where == "flag" else []
    assert main(["sample", "--config", str(config), "--output", str(out), *flag]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["seed"] == seed


def test_sample_accepts_integral_float_fields(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    exact = {"name": "mcz", "m": 2, "m_prime": 1}
    config = write_config(tmp_path, decomposition=exact, observable="XXX", shots=100)
    assert main(["sample", "--config", str(config), "--output", str(out1)]) == 0
    floats = {"name": "mcz", "m": 2.0, "m_prime": 1.0}
    config = write_config(
        tmp_path, decomposition=floats, observable="XXX", shots=100.0, seed=7.0
    )
    assert main(["sample", "--config", str(config), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "theta",
    ["inf", "-inf", "nan", float("inf"), float("nan"), "pi/0", 10**400],
    ids=["inf-text", "-inf-text", "nan-text", "inf", "nan", "pi/0", "10^400"],
)
@pytest.mark.parametrize(
    "decomposition,field",
    [
        ({"name": "rzz_b"}, "decomposition.theta"),
        ({"name": "multi_z", "m": 2, "m_prime": 1}, "decomposition.theta"),
        (
            sequence_with(controlled_ops=[{"targets": [0], "gate": "rz"}]),
            "decomposition.controlled_ops[0].theta",
        ),
    ],
    ids=["rzz_b", "multi_z", "controlled_rz"],
)
def test_sample_rejects_non_finite_theta(tmp_path, capsys, theta, decomposition, field):
    if decomposition["name"] == "controlled_sequence":
        decomposition["controlled_ops"][0]["theta"] = theta
    else:
        decomposition["theta"] = theta
    config = write_config(tmp_path, decomposition=decomposition)
    assert main(["sample", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}:")


@pytest.fixture
def no_dense_ptm(monkeypatch):
    """Make the dense PTM builder, and every call that returns a map for one,
    raise: the calls a traced run counts in ``linalg.ptm_bytes``."""

    def refuse(*args, **kwargs):
        raise AssertionError("a PTM was built")

    monkeypatch.setattr(qcut.cuts, "ptm_of_unitary", refuse)
    monkeypatch.setattr(qcut.cuts.Decomposition, "reconstruct", refuse)
    monkeypatch.setattr(qcut.cuts.DecompositionTerm, "to_superoperator", refuse)
    monkeypatch.setattr(qcut.channels.GeneralizedMap, "to_superoperator", refuse)
    monkeypatch.setattr(qcut.linalg, "ptm_of_kraus", refuse)
    return refuse


@pytest.fixture
def no_ptm(monkeypatch, no_dense_ptm):
    """Make every PTM builder the package uses raise, down to the slab-streamed
    kernel under ``ptm_of_kraus`` and the slab reduction
    ``Superoperator.compare`` also calls, both looked up in linalg."""
    for name in ("kraus_transform", "abs_argmax"):
        monkeypatch.setattr(qcut.linalg, name, no_dense_ptm)


def test_verify_all_builds_no_dense_ptm(no_dense_ptm, capsys):
    # verify() compares each reconstruction with its target slab by slab
    assert main(["verify", "--all"]) == 0
    assert capsys.readouterr().out.endswith("\n31/31 decompositions verified\n")


@pytest.mark.parametrize(
    "decomposition,observable",
    [
        ({"name": "mcz", "m": 3, "m_prime": 2}, "XXZXX"),
        (
            {
                "name": "controlled_sequence",
                "n_targets": 3,
                "controlled_ops": [
                    {"targets": [0], "gate": "h"},
                    {"targets": [1], "gate": "phase", "theta": "pi/5"},
                    {"targets": [2], "gate": "y"},
                ],
            },
            "XXYZ",
        ),
    ],
    ids=["mcz[3,2]", "controlled_sequence[3]"],
)
def test_sample_builds_no_ptm(tmp_path, no_ptm, decomposition, observable):
    config = write_config(
        tmp_path, decomposition=decomposition, observable=observable, shots=5000
    )
    out = tmp_path / "report.json"
    assert main(["sample", "--config", str(config), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert abs(report["estimate"] - report["exact_value"]) < 5 * report["standard_error"]


def test_sample_multi_z_with_multi_qubit_registers(tmp_path, no_ptm):
    # both registers hold two qubits, so every signed-Z factor is a
    # ladder-conjugated signed Kraus map
    config = write_config(
        tmp_path,
        decomposition={"name": "multi_z", "m": 2, "m_prime": 2, "theta": "pi/3"},
        observable="XXXI",
        shots=1_000_000,
    )
    out = tmp_path / "report.json"
    assert main(["sample", "--config", str(config), "--output", str(out)]) == 0
    report = json.loads(out.read_text(), parse_constant=reject_constant)
    assert report["exact_value"] == pytest.approx(0.5, abs=1e-12)  # cos(pi/3)
    assert abs(report["estimate"] - report["exact_value"]) <= 5 * report["standard_error"]


def reject_constant(name):
    raise ValueError(f"report holds {name}")


NAN_CELL = float("nan")
NAN_MATRIX = [[NAN_CELL, 0], [0, 1]]
PLUS = [[0.5, 0.5], [0.5, 0.5]]


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"decomposition": op_with(gate="matrix", matrix=NAN_MATRIX)},
         "decomposition.controlled_ops[0]"),
        ({"decomposition": op_with(gate="matrix", matrix=[[float("inf"), 0], [0, 1]])},
         "decomposition.controlled_ops[0]"),
        ({"decomposition": op_with(gate="matrix", matrix=[[[1, "nan"], 0], [0, 1]])},
         "decomposition.controlled_ops[0]"),
        ({"decomposition": op_with(gate="matrix", matrix=[[1, 0], [0, 2]])},
         "decomposition.controlled_ops[0]"),
        ({"initial_state": [PLUS, NAN_MATRIX]}, "initial_state[1]"),
        ({"initial_state": [[[0.5, 0.5, 0]], PLUS]}, "initial_state[0]"),
        ({"decomposition": {"name": "wire_cc", "cc_basis": 5}, "observable": "Z",
          "initial_state": "plus"}, "decomposition.cc_basis"),
        ({"decomposition": {"name": "wire_cc", "cc_basis": "W"}, "observable": "Z",
          "initial_state": "plus"}, "decomposition.cc_basis"),
        ({"decomposition": {"name": "wire_cc", "cc_basis": "XY"}, "observable": "Z",
          "initial_state": "plus"}, "decomposition.cc_basis"),
        ({"decomposition": {"name": "wire_cc", "cc_basis": ""}, "observable": "Z",
          "initial_state": "plus"}, "decomposition.cc_basis"),
        # a cell is a JSON number, not a Boolean or a string, alone or as both
        # halves of an [re, im] pair
        ({"decomposition": op_with(gate="matrix", matrix=[[["1", "0"], 0], [0, 1]])},
         "decomposition.controlled_ops[0]"),
        ({"decomposition": op_with(gate="matrix", matrix=[[[True, False], 0], [0, 1]])},
         "decomposition.controlled_ops[0]"),
        ({"decomposition": op_with(gate="matrix", matrix=[[True, 0], [0, 1]])},
         "decomposition.controlled_ops[0]"),
        ({"decomposition": op_with(gate="matrix", matrix=[[[1, False], 0], [0, 1]])},
         "decomposition.controlled_ops[0]"),
        ({"initial_state": [PLUS, [[["1", "0"], 0], [0, 0]]]}, "initial_state[1]"),
        ({"initial_state": [[[[True, False], 0], [0, 0]], PLUS]}, "initial_state[0]"),
        ({"initial_state": [PLUS, [[True, 0], [0, 0]]]}, "initial_state[1]"),
    ],
    ids=[
        "op-nan", "op-inf", "op-nan-imaginary", "op-not-unitary",
        "state-nan", "state-not-square", "cc_basis-int", "cc_basis-W",
        "cc_basis-XY", "cc_basis-empty",
        "op-string-pair", "op-boolean-pair", "op-boolean", "op-boolean-half",
        "state-string-pair", "state-boolean-pair", "state-boolean",
    ],
)
def test_sample_rejects_bad_matrices_and_cc_basis(tmp_path, capsys, overrides, field):
    config = write_config(tmp_path, **overrides)
    assert main(["sample", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}:")
    assert "Traceback" not in err


IDENTITY_2Q = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize(
    "decomposition,err",
    [
        (op_with(gate=["x"]), "decomposition.controlled_ops[0]: unknown gate ['x']"),
        (op_with(gate={}), "decomposition.controlled_ops[0]: unknown gate {}"),
        (op_with(gate=None), "decomposition.controlled_ops[0]: unknown gate None"),
        (op_with(theta=1, matrix=[[1, 0], [0, 1]]),
         "decomposition.controlled_ops[0]: unknown fields ['matrix', 'theta']"),
        (op_with(gate="rz", matrix=[[1, 0], [0, 1]]),
         "decomposition.controlled_ops[0]: unknown fields ['matrix']"),
        (op_with(gate="matrix", theta=1, matrix=[[1, 0], [0, 1]]),
         "decomposition.controlled_ops[0]: unknown fields ['theta']"),
        (op_with(gate="matrix"), "decomposition.controlled_ops[0]: missing fields ['matrix']"),
        (op_with(gate="matrix", matrix="ab"),
         "decomposition.controlled_ops[0]: matrix entries must be numbers or [re, im]"),
        (op_with(gate="matrix", matrix=[[10**400, 0], [0, 1]]),
         "decomposition.controlled_ops[0]: malformed matrix"),
        (op_with(gate="rz", theta=True),
         "decomposition.controlled_ops[0].theta: cannot parse angle True"),
        (sequence_with(controlled_ops=[{"targets": [0, 0], "gate": "matrix",
                                        "matrix": IDENTITY_2Q}]),
         "decomposition: duplicate target qubits in (0, 0)"),
        (sequence_with(controlled_ops=[]),
         "decomposition: need at least one controlled operation"),
        (sequence_with(n_targets=1e12), "decomposition.n_targets: must be an integer in "
                                        "1..26, got 1000000000000.0"),
        ({"name": "mcz", "m": 1e300, "m_prime": 1},
         "decomposition.m: must be an integer in 1..26, got 1e+300"),
        ({"name": "mcz", "m": 1, "m_prime": 1, "theta": 1},
         "decomposition: unknown fields ['theta']"),
        ({"name": "wire_ncc", "cc_basis": "Y"}, "decomposition: unknown fields ['cc_basis']"),
        ({"name": "mcz", "m": 1}, "decomposition: missing fields ['m_prime']"),
        ({"name": ["x"]}, "decomposition: unknown name ['x']"),
        ({"name": "nope", "m": 1}, "decomposition: unknown name 'nope'"),
        ({"m": 1}, "decomposition: missing fields ['name']"),
        ({"name": "rzz_b", "theta": False}, "decomposition.theta: cannot parse angle False"),
    ],
    ids=[
        "gate-list", "gate-object", "gate-null", "x-theta-matrix", "rz-matrix",
        "matrix-theta", "matrix-missing", "matrix-text", "matrix-overflow", "rz-theta-bool",
        "duplicate-targets", "no-ops", "n_targets-1e12", "m-1e300", "mcz-theta",
        "wire_ncc-cc_basis", "mcz-no-m_prime", "name-list", "name-unknown", "name-missing",
        "theta-bool",
    ],
)
def test_sample_rejects_malformed_decompositions(tmp_path, capsys, decomposition, err):
    config = write_config(tmp_path, decomposition=decomposition)
    start = time.perf_counter()
    assert main(["sample", "--config", str(config)]) == 2
    assert time.perf_counter() - start < 5
    out = capsys.readouterr()
    assert out.err == f"error: {err}\n" and out.out == ""


@pytest.mark.parametrize("state", ["ab", "0x", ""])
def test_sample_rejects_bad_state_strings(tmp_path, capsys, state):
    config = write_config(tmp_path, initial_state=state)
    assert main(["sample", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: initial_state:")


def test_sample_bitstring_and_density_matrix_states(tmp_path):
    config = write_config(tmp_path, initial_state="10", observable="ZZ")
    assert main(["sample", "--config", str(config)]) == 0
    plus = [[0.5, [0.5, 0.0]], [[0.5, 0.0], 0.5]]
    config = write_config(tmp_path, initial_state=[plus, plus], observable="XX")
    assert main(["sample", "--config", str(config)]) == 0


def test_sample_controlled_sequence_config(tmp_path):
    config = write_config(
        tmp_path,
        decomposition={
            "name": "controlled_sequence",
            "n_targets": 2,
            "controlled_ops": [
                {"targets": [0], "gate": "x"},
                {"targets": [1], "gate": "phase", "theta": "pi/5"},
            ],
        },
        initial_state="plus",
        observable="XXI",
    )
    assert main(["sample", "--config", str(config)]) == 0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norms_csv_schema(tmp_path):
    out = tmp_path / "norms.csv"
    assert main(["norms", "--csv", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["name", "parameters", "gamma", "terms", "needs_cc"]
    assert all(len(r) == 5 for r in rows)
    by_name = {}
    for name, params, gamma, *_ in rows[1:]:
        by_name.setdefault(name, []).append((params, float(gamma)))
    assert ("-", 4.0) in by_name["wire_ncc"]
    assert all(g == 3.0 for _, g in by_name["mcz"])
    assert ("theta=pi/6", 2.0) in by_name["rzz_b"]


def test_norms_csv_writes_full_catalog(tmp_path, no_ptm):
    out = tmp_path / "norms.csv"
    assert main(["norms", "--csv", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    names = [r[0] for r in rows[1:]]
    # 1 + 3 wire cuts, 5 MCZ splits, 6 + 6 ZZ angles, multi_z, one sequence
    assert len(rows) == 1 + 23
    for name, count in (
        ("wire_ncc", 1), ("wire_cc", 3), ("mcz", 5), ("rzz_a", 6), ("rzz_b", 6),
        ("multi_z", 1), ("controlled_sequence", 1),
    ):
        assert names.count(name) == count
    assert rows[-1] == ["controlled_sequence", "CNOT;phase(pi/5)", "3", "4", "0"]


# ---------------------------------------------------------------------------
# zx-check
# ---------------------------------------------------------------------------


def test_zx_check_builtin_all(capsys):
    assert main(["zx-check", "--builtin", "all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    for token in ("cnot[spiders]", "mcz-fusion", "rule[spider-fusion]"):
        assert token in out


def test_zx_check_unknown_builtin(capsys):
    assert main(["zx-check", "--builtin", "frobnicate"]) == 2


def test_zx_check_file_pair(tmp_path, capsys):
    lhs = tmp_path / "lhs.zx"
    rhs = tmp_path / "rhs.zx"
    lhs.write_text(
        "node in input\nnode s z pi\nnode out output\nedge in s\nedge s out\n"
    )
    rhs.write_text(
        "node in input\nnode a z pi/2\nnode b z pi/2\nnode out output\n"
        "edge in a\nedge a b\nedge b out\n"
    )
    assert main(["zx-check", str(lhs), str(rhs)]) == 0
    rhs.write_text(
        "node in input\nnode a z pi/2\nnode out output\nedge in a\nedge a out\n"
    )
    assert main(["zx-check", str(lhs), str(rhs)]) == 1


ZERO_WIRE = "node in input\nnode s z 0\nnode out output\nedge in s\nedge s out\nscalar 0\n"
WIRE = "node in input\nnode s z 0\nnode out output\nedge in s\nedge s out\n"


@pytest.mark.parametrize(
    "lhs,rhs,code",
    [(ZERO_WIRE, WIRE, 1), (WIRE, ZERO_WIRE, 1), (ZERO_WIRE, ZERO_WIRE, 0)],
    ids=["zero-lhs", "zero-rhs", "zero-both"],
)
def test_zx_check_zero_diagram_equals_only_zero_up_to_a_scalar(tmp_path, capsys, lhs, rhs, code):
    paths = [tmp_path / "lhs.zx", tmp_path / "rhs.zx"]
    for path, text in zip(paths, (lhs, rhs)):
        path.write_text(text)
    assert main(["zx-check", *map(str, paths), "--up-to-scalar"]) == code
    out = capsys.readouterr().out
    assert "nan" not in out.lower()
    assert "scalar ratio = +0+0j" in out
    rep = qcut.zx.verify_rule(*(qcut.zx.parse_diagram(t) for t in (lhs, rhs)), up_to_scalar=True)
    assert not any(np.isnan(v) for v in rep.values() if isinstance(v, (float, complex)))
    assert rep["equal_up_to_scalar"] is (code == 0)


def test_zx_check_single_file_contracts(tmp_path, capsys):
    path = tmp_path / "d.zx"
    path.write_text(
        "node in input\nnode s z 0\nnode out output\nedge in s\nedge s out\n"
    )
    assert main(["zx-check", str(path)]) == 0
    assert "shape: 2 x 2" in capsys.readouterr().out


def test_zx_check_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.zx"
    path.write_text("frobnicate\n")
    assert main(["zx-check", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--builtin", "mcz", "--n", "0"], "--n"),
        (["--builtin", "mcp", "--n", "0"], "--n"),
        (["--builtin", "mcz-fusion", "--n", "0"], "--n"),
        (["--builtin", "mcz-fusion", "--m", "0"], "--m"),
        (["--builtin", "all", "--n", "-1"], "--n"),
        # mcz-fusion splits n qubits as 1 <= m < n, checked before any check runs
        (["--builtin", "mcz-fusion", "--n", "3", "--m", "3"], "--m"),
        (["--builtin", "mcz-fusion", "--m", "4"], "--m"),
        (["--builtin", "mcz-fusion", "--n", "1"], "--n"),
        (["--builtin", "all", "--n", "1"], "--n"),
    ],
    ids=["mcz-n0", "mcp-n0", "fusion-n0", "fusion-m0", "all-n-1", "fusion-m-eq-n",
         "fusion-m-over-default-n", "fusion-n1", "all-n1"],
)
def test_zx_check_rejects_non_positive_sizes(capsys, argv, flag):
    assert main(["zx-check", *argv]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {flag}:") and out.out == ""


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["rzz", "--n", "5"], "--n"),
        (["mcz", "--m", "7"], "--m"),
        (["states", "--theta", "1"], "--theta"),
        (["cnot-variants", "--n", "2", "--theta", "pi"], "--n, --theta"),
        (["mcz-fusion", "--m", "0", "--theta", "1"], "--theta"),
    ],
    ids=["rzz-n", "mcz-m", "states-theta", "cnot-n-theta", "fusion-theta-first"],
)
def test_zx_check_rejects_flags_the_builtin_never_reads(capsys, argv, flags):
    assert main(["zx-check", "--builtin", *argv]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {flags}: not read by zx-check --builtin {argv[0]}\n"
    assert out.out == ""


@pytest.mark.parametrize(
    "argv,err",
    [
        (["FILE", "--n", "3"], "--n: not read by zx-check FILE"),
        (["FILE", "--up-to-scalar"], "--up-to-scalar: not read by zx-check FILE"),
        (["FILE", "FILE", "--m", "2", "--theta", "1"], "--m, --theta: not read by zx-check FILE FILE"),
        (["--builtin", "rules", "--up-to-scalar"],
         "--up-to-scalar: not read by zx-check --builtin rules"),
        (["--builtin", "all", "--up-to-scalar"], "--up-to-scalar: not read by zx-check --builtin all"),
        (["--builtin", "mcz", "FILE"], "zx-check: pass --builtin NAME or diagram files, not both"),
    ],
    ids=["file-n", "file-up-to-scalar", "pair-m-theta", "rules-up-to-scalar",
         "all-up-to-scalar", "builtin-and-file"],
)
def test_zx_check_refuses_flags_and_files_it_never_reads(tmp_path, capsys, argv, err):
    path = tmp_path / "d.zx"
    path.write_text("node in input\nnode s z 0\nnode out output\nedge in s\nedge s out\n")
    assert main(["zx-check", *(str(path) if a == "FILE" else a for a in argv)]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {err}\n"
    assert out.out == ""


def test_zx_check_unknown_builtin_is_named_before_unread_flags(capsys):
    assert main(["zx-check", "--builtin", "frobnicate", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: zx-check: unknown builtin 'frobnicate'\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        (["mcz", "--n", "15"], "contraction with 30 open legs needs 2^30"),
        (["mcp", "--n", "14"], "contraction with 28 open legs needs 2^28"),
        (["all", "--n", "15"], "contraction with 30 open legs needs 2^30"),
    ],
    ids=["mcz-n15", "mcp-n14", "all-n15"],
)
def test_zx_check_flags_a_builtin_reads_reach_the_check(capsys, argv, err):
    # `all` reads every flag; a flag the named check reads goes through to it
    assert main(["zx-check", "--builtin", *argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {err} dense entries, over the cap of 2^26\n"
    )


def test_zx_check_mcz_fusion_runs_past_the_dense_cap(capsys):
    # dense 2^40-entry matrices per side; 2^20 entries on the shared wire indices
    assert main(["zx-check", "--builtin", "mcz-fusion", "--n", "20", "--m", "10"]) == 0
    assert capsys.readouterr().out.startswith("mcz-fusion[n=20,m=10]: PASS")


def test_zx_check_all_accepts_every_flag(capsys):
    assert main(["zx-check", "--builtin", "all", "--n", "3", "--m", "1",
                 "--theta", "pi/3"]) == 0
    out = capsys.readouterr().out
    assert "mcz-fusion[n=3,m=1]: PASS" in out and "FAIL" not in out


def _unreadable(tmp_path, case):
    """A directory, or a file of bytes that are not UTF-8."""
    if case == "directory":
        return tmp_path
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"node s z caf\xe9\n")
    return path


@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_zx_check_unreadable_file_exits_2(tmp_path, capsys, case):
    path = _unreadable(tmp_path, case)
    assert main(["zx-check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: cannot read")


@pytest.mark.parametrize("case", ["directory", "not-utf8"])
def test_sample_unreadable_config_exits_2(tmp_path, capsys, case):
    path = _unreadable(tmp_path, case)
    assert main(["sample", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: cannot read")


@pytest.mark.parametrize(
    "text,field",
    [
        ("null", "config"),
        ("[1, 2]", "config"),
        ('"plus"', "config"),
        (None, "decomposition"),
        ([], "decomposition"),
        (5, "decomposition.controlled_ops[0]"),
    ],
    ids=["config-null", "config-list", "config-string", "decomposition-null",
         "decomposition-list", "controlled-op-int"],
)
def test_sample_rejects_non_object_config_values(tmp_path, capsys, text, field):
    if field == "config":
        config = tmp_path / "config.json"
        config.write_text(text)
    elif field == "decomposition":
        config = write_config(tmp_path, decomposition=text)
    else:
        config = write_config(tmp_path, decomposition=sequence_with(controlled_ops=[text]))
    assert main(["sample", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: must be an object")


@pytest.mark.parametrize(
    "field,value", [("output", 5), ("output", True), ("batch_csv", 5), ("output", None)]
)
def test_sample_rejects_non_string_output_fields(tmp_path, capsys, field, value):
    config = write_config(tmp_path, shots=10, n_batches=2, **{field: value})
    assert main(["sample", "--config", str(config)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {field}: must be a path string") and out.out == ""


@pytest.mark.parametrize("flag", ["--output", "--batch-csv", "norms"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, flag):
    # the directory itself is the output path, so opening it for writing fails
    if flag == "norms":
        argv = ["norms", "--csv", str(tmp_path)]
    else:
        config = write_config(tmp_path, shots=10, n_batches=2)
        argv = ["sample", "--config", str(config), flag, str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}: cannot write")


@pytest.mark.parametrize(
    "line,argv_tail,expected",
    [
        ("node s z abc", None, "line 2:"),
        ("node s z 2pi/x", None, "line 2:"),
        ("node s z pi/0", None, "line 2:"),
        ("scalar 1/0", None, "line 6:"),
        ("scalar 1e999", None, "line 6:"),
        ("node s h nan", None, "line 2:"),
        ("node s z pi/2 junk more", None, "line 2:"),
        ("node s x 0 1", None, "line 2:"),
        ("node s h -1 2", None, "line 2:"),
        ("node in input 0.5", None, "line 1:"),
        ("node out output x", None, "line 3:"),
        (None, ["--builtin", "rzz", "--theta", "abc"], "--theta"),
        (None, ["--builtin", "rzz", "--theta", "nan"], "--theta"),
        (None, ["--builtin", "rzz", "--theta", ""], "--theta"),
    ],
    ids=["angle-text", "angle-divisor-text", "angle-zero-divisor", "scalar-zero-divisor",
         "scalar-overflow", "hbox-nan", "spider-extra-tokens", "x-extra-token",
         "hbox-extra-token", "input-argument", "output-argument", "theta-text", "theta-nan",
         "theta-empty"],
)
def test_zx_check_rejects_bad_numbers(tmp_path, capsys, line, argv_tail, expected):
    if line is not None:
        lines = ["node in input", "node s z 0", "node out output", "edge in s", "edge s out"]
        # a node line replaces the node of the same name, any other is appended
        heads = [" ".join(text.split()[:2]) for text in lines[:3]]
        head = " ".join(line.split()[:2])
        if head in heads:
            lines[heads.index(head)] = line
        else:
            lines.append(line)
        path = tmp_path / "bad.zx"
        path.write_text("\n".join(lines) + "\n")
        argv_tail = [str(path)]
    assert main(["zx-check", *argv_tail]) == 2
    out = capsys.readouterr()
    assert out.err.startswith(f"error: {expected}") and out.out == ""


# ---------------------------------------------------------------------------
# config helpers
# ---------------------------------------------------------------------------


def test_build_decomposition_names():
    for selector, expected_gamma in (
        ({"name": "wire_ncc"}, 4.0),
        ({"name": "wire_cc", "cc_basis": "X"}, 3.0),
        ({"name": "mcz", "m": 1, "m_prime": 2}, 3.0),
        ({"name": "rzz_a", "theta": "pi/4"}, 3.0),
        ({"name": "multi_z", "m": 2, "m_prime": 1, "theta": "pi/2"}, 3.0),
    ):
        assert build_decomposition(selector).one_norm() == pytest.approx(expected_gamma)


def test_readme_config_schema_names_every_family_field_and_gate():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    schema = readme[readme.index("Config schema"):readme.index("The JSON report")]
    gate_fields = {field for _, fields in qcut.cli._GATES.values() for field in fields}
    names = [*qcut.cli._FAMILIES, *qcut.cli._FIELDS, *qcut.cli._GATES, *sorted(gate_fields)]
    assert [name for name in names if f"`{name}`" not in schema] == []


def test_verify_help_lists_the_families_it_can_build(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for line in ("mcz --m --mprime", "multi_z --m --mprime --theta", "wire_cc --cc-basis"):
        assert line in out


def test_build_experiment_shape_checks(tmp_path):
    from qcut.cli import ConfigError

    config = {
        "decomposition": {"name": "wire_ncc"},
        "initial_state": "00",
        "observable": "Z",
        "shots": 10,
        "seed": 1,
    }
    with pytest.raises(ConfigError):
        build_experiment(config)


@pytest.mark.parametrize("above", [False, True], ids=["at-tolerance", "one-ulp-above"])
def test_zx_check_passes_at_exactly_the_tolerance(monkeypatch, capsys, above):
    deviation = qcut.zx.RULE_ATOL if not above else np.nextafter(qcut.zx.RULE_ATOL, 1.0)
    monkeypatch.setattr(qcut.cli, "max_abs_diff", lambda a, b: deviation)
    assert main(["zx-check", "--builtin", "rzz", "--theta", "0.5"]) == int(above)
    verdict = "FAIL" if above else "PASS"
    assert capsys.readouterr().out == f"rzz[0.5]: {verdict}  max|delta| = {deviation:.12g}\n"
