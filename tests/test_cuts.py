import numpy as np
import pytest

import qcut.cuts
from qcut import gates
from qcut.channels import UnitaryChannel
from qcut.cuts import (
    Decomposition,
    DecompositionTerm,
    controlled_sequence_decomposition,
    mcz_decomposition,
    multi_z_rotation_decomposition,
    rzz_decomposition_a,
    rzz_decomposition_b,
    wire_cut_cc,
    wire_cut_ncc,
)
from qcut.linalg import DimensionError, Operator, QcutError, ptm_of_unitary

THETAS = [0.0, np.pi / 6, np.pi / 4, np.pi / 2, -np.pi / 4, 1.234, np.pi]
X = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def phase_gate(theta):
    return Operator(np.diag([1.0, np.exp(1j * theta)]))


# ---------------------------------------------------------------------------
# wire cuts
# ---------------------------------------------------------------------------


def test_wire_cut_ncc():
    deco = wire_cut_ncc()
    report = deco.verify()
    assert report["passed"], report
    # [KNOWN] gamma = 4 without classical communication, net weight 1
    assert deco.one_norm() == pytest.approx(4.0)
    assert deco.sum_q() == pytest.approx(1.0)
    assert not any(t.needs_cc for t in deco.terms)


@pytest.mark.parametrize("basis", ["Y", "X", "Z"])
def test_wire_cut_cc(basis):
    deco = wire_cut_cc(basis)
    report = deco.verify()
    assert report["passed"], report
    # [KNOWN] gamma = 3 with classical communication
    assert deco.one_norm() == pytest.approx(3.0)
    assert deco.sum_q() == pytest.approx(1.0)
    cc_terms = [t for t in deco.terms if t.needs_cc]
    assert len(cc_terms) == 1
    assert cc_terms[0].q == pytest.approx(1.0)
    assert cc_terms[0].is_cptp()


@pytest.mark.parametrize("basis", [5, "W", "XY", "", None])
def test_wire_cut_cc_rejects_bad_basis(basis):
    with pytest.raises(DimensionError, match="cc_basis"):
        wire_cut_cc(basis)


def test_multi_z_factors_are_ladder_conjugated_kraus_maps():
    # each register-local factor keeps the sign pattern of its two-qubit
    # counterpart; a signed-Z factor becomes two one-operator branches
    base = rzz_decomposition_b(0.8)
    deco = multi_z_rotation_decomposition(3, 2, 0.8)
    for t_base, t in zip(base.terms, deco.terms):
        for f_base, f, size in zip(t_base.factors, t.factors, (3, 2)):
            assert f.n_qubits == size
            assert f.signs == f_base.signs
            assert [len(k) for _, k in f.branches] == [len(k) for _, k in f_base.branches]


def test_wire_cut_reconstructs_identity_channel():
    ident = ptm_of_unitary(gates.identity(1))
    for deco in (wire_cut_ncc(), wire_cut_cc()):
        assert deco.reconstruct().max_abs_diff(ident) < 1e-10


# ---------------------------------------------------------------------------
# MCZ
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,m_prime", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_mcz_decomposition(m, m_prime):
    deco = mcz_decomposition(m, m_prime)
    report = deco.verify()
    assert report["passed"], report
    # [KNOWN] gamma = 3 for every register split, with 6 terms
    assert deco.one_norm() == pytest.approx(3.0)
    assert deco.sum_q() == pytest.approx(1.0)
    assert len(deco.terms) == 6
    assert deco.partition == (m, m_prime)
    target = ptm_of_unitary(gates.mcz(m + m_prime))
    assert deco.reconstruct().max_abs_diff(target) < 1e-9


def test_mcz_cptp_terms():
    deco = mcz_decomposition(2, 1)
    # [KNOWN] exactly the two +1/2 phase-gate terms are CPTP
    cptp = [t for t in deco.terms if t.is_cptp()]
    assert len(cptp) == 2
    assert all(t.q == pytest.approx(0.5) for t in cptp)


def test_mcz_size_cap():
    with pytest.raises(QcutError):
        mcz_decomposition(6, 6)


# ---------------------------------------------------------------------------
# R_ZZ
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", THETAS)
def test_rzz_decomposition_a(theta):
    deco = rzz_decomposition_a(theta)
    report = deco.verify()
    assert report["passed"], (theta, report)
    # [KNOWN] scheme (a) has constant gamma = 3
    assert deco.one_norm() == pytest.approx(3.0)
    assert deco.sum_q() == pytest.approx(1.0)


@pytest.mark.parametrize("theta", THETAS)
def test_rzz_decomposition_b(theta):
    deco = rzz_decomposition_b(theta)
    report = deco.verify()
    assert report["passed"], (theta, report)
    # [KNOWN] scheme (b) has gamma = 1 + 2|sin(theta)|, optimal for this cut
    assert deco.one_norm() == pytest.approx(1 + 2 * abs(np.sin(theta)), abs=1e-9)
    assert deco.sum_q() == pytest.approx(1.0)


def test_rzz_b_beats_a_for_small_angles():
    for theta in (0.1, np.pi / 6, np.pi / 4):
        assert rzz_decomposition_b(theta).one_norm() < rzz_decomposition_a(theta).one_norm()


# ---------------------------------------------------------------------------
# multi-qubit Z rotation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,m_prime", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_multi_z_rotation(m, m_prime):
    theta = 0.777
    deco = multi_z_rotation_decomposition(m, m_prime, theta)
    report = deco.verify()
    assert report["passed"], report
    target = ptm_of_unitary(gates.multi_z_rotation(m + m_prime, theta))
    assert deco.reconstruct().max_abs_diff(target) < 1e-9
    # [KNOWN] conjugating the two-qubit scheme keeps gamma = 1 + 2|sin(theta)|
    assert deco.one_norm() == pytest.approx(1 + 2 * abs(np.sin(theta)), abs=1e-9)
    assert deco.sum_q() == pytest.approx(1.0)


def test_multi_z_reduces_to_rzz_b():
    a = multi_z_rotation_decomposition(1, 1, 0.9).reconstruct()
    b = rzz_decomposition_b(0.9).reconstruct()
    assert a.max_abs_diff(b) < 1e-10


# ---------------------------------------------------------------------------
# controlled sequences
# ---------------------------------------------------------------------------


def test_controlled_sequence_cnot_cphase():
    for theta in (np.pi / 5, np.pi / 2):
        ops = [((0,), X), ((1,), phase_gate(theta))]
        deco = controlled_sequence_decomposition(ops, 2)
        report = deco.verify()
        assert report["passed"], (theta, report)
        # [KNOWN] gamma = 3 for any controlled sequence cut at the control
        assert deco.one_norm() == pytest.approx(3.0)
        assert deco.partition == (1, 2)
        cptp = [t for t in deco.terms if t.is_cptp()]
        assert len(cptp) == 1 and cptp[0].q == pytest.approx(1.0)


def test_controlled_sequence_random():
    rng = np.random.default_rng(11)
    for _ in range(3):
        n_targets = int(rng.integers(1, 4))
        ops = []
        for _ in range(int(rng.integers(1, 4))):
            t = int(rng.integers(0, n_targets))
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q_mat, _ = np.linalg.qr(a)
            ops.append(((t,), Operator(q_mat)))
        deco = controlled_sequence_decomposition(ops, n_targets)
        report = deco.verify()
        assert report["passed"], report
        assert deco.one_norm() == pytest.approx(3.0)


def test_controlled_sequence_sum_q_exception():
    # the signed terms cancel in the corner rather than in the weights, so the
    # weights sum to 2 while reconstruction is still exact
    ops = [((0,), X)]
    deco = controlled_sequence_decomposition(ops, 1)
    assert deco.sum_q() == pytest.approx(2.0)
    assert deco.verify()["passed"]


# ---------------------------------------------------------------------------
# container invariants
# ---------------------------------------------------------------------------


def test_decomposition_partition_alignment():
    # a factor boundary in the middle of a register is rejected; a factor that
    # spans the whole system is allowed
    one_qubit = UnitaryChannel(gates.identity(1))
    with pytest.raises(QcutError):
        Decomposition(
            name="bad",
            partition=(1, 2),
            terms=[DecompositionTerm(1.0, [one_qubit] * 3, "split")],
            target_unitary=gates.identity(3),
        )
    Decomposition(
        name="ok",
        partition=(1, 1),
        terms=[DecompositionTerm(1.0, [UnitaryChannel(gates.cnot())], "joint")],
        target_unitary=gates.cnot(),
    )
    # the target is given as its gate, not as a PTM
    with pytest.raises(QcutError):
        Decomposition(
            name="ptm",
            partition=(1, 1),
            terms=[DecompositionTerm(1.0, [UnitaryChannel(gates.cnot())], "joint")],
            target_unitary=ptm_of_unitary(gates.cnot()),
        )


def test_verify_builds_target_ptm_once(monkeypatch):
    calls = []

    def counting(u, **kwargs):
        calls.append(u.n_qubits)
        return ptm_of_unitary(u, **kwargs)

    monkeypatch.setattr(qcut.cuts, "ptm_of_unitary", counting)
    deco = mcz_decomposition(2, 1)
    deco.reconstruct()
    assert calls == []  # building and reconstructing need no target PTM
    first = deco.verify()
    second = deco.verify()
    assert calls == [3]
    assert first == second and first["passed"]
    assert deco.target.max_abs_diff(ptm_of_unitary(gates.mcz(3))) == 0.0
    assert calls == [3]


@pytest.mark.parametrize("theta", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize(
    "build",
    [
        rzz_decomposition_a,
        rzz_decomposition_b,
        lambda theta: multi_z_rotation_decomposition(2, 1, theta),
    ],
    ids=["rzz_a", "rzz_b", "multi_z"],
)
def test_non_finite_angle_rejected(build, theta):
    with pytest.raises(DimensionError):
        build(theta)


def test_sampling_probabilities_normalized():
    deco = rzz_decomposition_b(1.0)
    p = deco.sampling_probabilities()
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0)
