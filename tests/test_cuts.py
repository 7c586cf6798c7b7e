import tracemalloc
from functools import reduce

import numpy as np
import pytest

import qcut.channels
import qcut.cli
import qcut.cuts
import qcut.linalg
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
from qcut.linalg import (
    DimensionError, Operator, QcutError, SizeCapError, Superoperator, diagonal_qubits,
    ptm_of_unitary,
)
from oracles import dense_mcz_decomposition, haar_unitary, ladder_conjugated, ptm_of_map

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
    # counterpart; a signed-Z factor becomes two signed operators
    base = rzz_decomposition_b(0.8)
    deco = multi_z_rotation_decomposition(3, 2, 0.8)
    for t_base, t in zip(base.terms, deco.terms):
        for f_base, f, size in zip(t_base.factors, t.factors, (3, 2)):
            assert f.n_qubits == size
            assert f.signs == f_base.signs
            assert f.ops.shape == (len(f_base.signs), 2**size, 2**size)
    # the parity lift is bit-identical to conjugating by explicit CNOT
    # ladders that fold each register's parity onto the qubit next to the cut
    for m, m_prime in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 1)]:
        for theta in (0.3, -2.1, np.pi):
            base = rzz_decomposition_b(theta)
            deco = multi_z_rotation_decomposition(m, m_prime, theta)
            assert [t.label for t in deco.terms] == [t.label for t in base.terms]
            for t_base, t in zip(base.terms, deco.terms):
                wires = ((m, m - 1), (m_prime, 0))
                for f_base, f, (size, wire) in zip(t_base.factors, t.factors, wires):
                    oracle = ladder_conjugated(f_base, size, wire)
                    assert f.signs == oracle.signs
                    for got, want in zip((f.weights, f.ops), (oracle.weights, oracle.ops)):
                        assert np.array_equal(got, want), (m, m_prime, theta, t.label)


@pytest.mark.parametrize("bit", [gates.parity, gates.all_ones], ids=["parity", "and"])
def test_lift_reads_each_register_index_through_its_bit(bit):
    # a diagonal factor diag(k) on a 3-qubit register is diag(k[bit(3)]);
    # a factor shared by two terms is lifted once
    k = np.diag([0.6, 0.8j])
    shared = qcut.channels.GeneralizedMap([1, -1], [k, np.diag([0.8, 0.6])])
    ident = UnitaryChannel(gates.identity(1))
    terms = [DecompositionTerm(0.5, [shared, ident], "a"), DecompositionTerm(0.5, [shared, shared], "b")]
    deco = qcut.cuts._lifted("t", (3, 1), bit, lambda: terms, gates.identity)
    first, second = (t.factors for t in deco.terms)
    assert first[0] is second[0] and first[1] is ident and second[1] is shared
    signs, (lifted, _) = first[0].weights, first[0].ops
    assert np.array_equal(lifted, np.diag(np.diag(k)[bit(3)])) and signs.tolist() == [1, -1]
    assert bit(3).tolist() == ([0, 1, 1, 0, 1, 0, 0, 1] if bit is gates.parity else [0] * 7 + [1])
    if bit is gates.parity:  # one read-only table per size
        assert bit(3) is bit(3) and not bit(3).flags.writeable


@pytest.mark.parametrize("bit", [gates.parity, gates.all_ones], ids=["parity", "and"])
@pytest.mark.parametrize(
    "kraus",
    [
        gates.hadamard().mat,
        np.array([[1.0, 1e-18], [0.0, 1.0]]),  # below every tolerance, still refused
    ],
    ids=["hadamard", "tiny_off_diagonal"],
)
def test_lift_refuses_non_diagonal_factor(kraus, bit):
    factor = qcut.channels.GeneralizedMap([1], [kraus])
    terms = [DecompositionTerm(1.0, [factor, factor], "t")]
    with pytest.raises(DimensionError, match="exactly diagonal"):
        qcut.cuts._lifted("t", (2, 2), bit, lambda: terms, gates.mcz)


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


def test_mcz_lift_equals_the_register_size_construction():
    # each register factor, lifted from one qubit through the register's AND,
    # is bit-identical to the same map built from register-size gates
    for n in range(2, 6):
        for m in range(1, n):
            deco, oracle = mcz_decomposition(m, n - m), dense_mcz_decomposition(m, n - m)
            for t, t_old in zip(deco.terms, oracle.terms, strict=True):
                assert (t.q, t.label, t.needs_cc) == (t_old.q, t_old.label, t_old.needs_cc)
                for f, f_old in zip(t.factors, t_old.factors, strict=True):
                    assert f.signs == f_old.signs
                    for got, want in zip((f.weights, f.ops), (f_old.weights, f_old.ops), strict=True):
                        assert np.array_equal(got, want), (m, n - m, t.label)


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


@pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
def test_term_refuses_non_finite_coefficient(q):
    with pytest.raises(DimensionError, match="term 'bad' has a non-finite coefficient"):
        DecompositionTerm(q, [UnitaryChannel(gates.identity(1))], "bad")


def test_term_product_is_the_kronecker_product_of_its_factors():
    # two factors with two outcomes each and different sign patterns: a
    # product that paired the signs and operators in different orders would
    # give another map
    factors = [qcut.channels.signed_z_map(), qcut.channels.grouped_pauli_map("X")]
    sup = DecompositionTerm(0.5, factors, "t").to_superoperator()
    dense = reduce(np.kron, [ptm_of_map(f.apply_batch, f.n_qubits) for f in factors])
    assert sup.ops.shape == (4, 4, 4) and sup.weights.tolist() == [1, 1, -1, -1]
    assert np.max(np.abs(sup.matrix - dense)) <= 1e-12


@pytest.mark.parametrize(
    "factor",
    [Superoperator(np.ones(1), np.eye(2)[None]), gates.identity(1)],
    ids=["superoperator", "operator"],
)
def test_term_refuses_a_factor_that_is_not_a_generalized_map(factor):
    # a bare Superoperator reconstructs like a map, but its weights are not
    # +-1 outcome signs, so the sampler would draw its terms wrongly
    with pytest.raises(DimensionError, match="term 'bare' has a (Superoperator|Operator) factor"):
        DecompositionTerm(1.0, [UnitaryChannel(gates.identity(1)), factor], "bare")


@pytest.mark.parametrize("size", [1.7, True, np.nan, np.inf, "1", None, 0, -1])
def test_decomposition_refuses_non_integral_register_sizes(size):
    # the rule ExperimentSpec applies to its seed: a real, finite, integral,
    # non-Boolean number; an integral float is taken as its integer
    term = DecompositionTerm(1.0, [UnitaryChannel(gates.identity(2))], "joint")
    with pytest.raises(DimensionError, match="register size must be an integer >= 1"):
        Decomposition("bad", (size, 1), [term], gates.identity(2))
    with pytest.raises(DimensionError, match="n_targets must be an integer >= 1"):
        controlled_sequence_decomposition([((0,), X)], size)
    deco = Decomposition("ok", (1.0, np.int64(1)), [term], gates.identity(2))
    assert deco.partition == (1, 1) and all(type(s) is int for s in deco.partition)


def _identity_map(n: int) -> UnitaryChannel:
    return UnitaryChannel(gates.identity(n))


@pytest.mark.parametrize(
    "partition,widths,spans",
    [((1, 1, 1), (2, 1), [(0, 2), (2, 3)]),
     ((1, 1, 1), (1, 2), [(0, 1), (1, 3)]),
     ((2, 1), (2, 1), [(0, 1), (1, 2)]),
     ((2, 3), (5,), [(0, 2)]),
     ((1, 2, 1), (1, 2, 1), [(0, 1), (1, 2), (2, 3)])],
    ids=str,
)
def test_spans_name_the_registers_each_factor_covers(partition, widths, spans):
    term = DecompositionTerm(1.0, [_identity_map(w) for w in widths], "t")
    deco = Decomposition("d", partition, [term], gates.identity(sum(partition)))
    got = deco.spans(term)
    assert [span for _, span in got] == spans
    assert [factor for factor, _ in got] == list(term.factors)


def test_spans_of_every_builder_match_its_partition():
    # each built-in term puts one factor on each register, or one on all
    for deco in qcut.cli._verification_suite():
        for t in deco.terms:
            spans = [span for _, span in deco.spans(t)]
            k = len(deco.partition)
            assert spans in ([(r, r + 1) for r in range(k)], [(0, k)]), (deco.name, t.label)


@pytest.mark.parametrize(
    "partition,widths,edge",
    [((2, 1), (1, 2), 1), ((1, 2), (2, 1), 2), ((2, 2), (3, 1), 3), ((3,), (1, 2), 1),
     ((1, 1), (0, 2), 0), ((1, 1), (1, 0, 1), 1)],
    ids=str,
)
def test_decomposition_refuses_a_factor_that_ends_inside_a_register(partition, widths, edge):
    # also a factor on no qubit: it covers no register of its own
    factors = [qcut.channels.GeneralizedMap([1], np.ones((1, 1, 1))) if w == 0
               else _identity_map(w) for w in widths]
    term = DecompositionTerm(1.0, factors, "split")
    with pytest.raises(DimensionError, match=f"term 'split' splits a register at qubit {edge}$"):
        Decomposition("d", partition, [term], gates.identity(sum(partition)))


@pytest.mark.parametrize(
    "build,name",
    [(mcz_decomposition, "mcz[2,1]"),
     (lambda m, mp: multi_z_rotation_decomposition(m, mp, 0.5), "multi_z[2,1,0.5]")],
    ids=["mcz", "multi_z"],
)
@pytest.mark.parametrize("split", [(2, 1), (2.0, 1), (np.int64(2), 1.0)], ids=str)
def test_lifted_cut_names_read_the_checked_register_sizes(build, name, split):
    # two equal decompositions carry one name, however the sizes were passed
    deco = build(*split)
    assert deco.name == name and deco.partition == (2, 1)


def test_lifted_cuts_refuse_sizes_beyond_float_range():
    for build in (mcz_decomposition, lambda m, mp: multi_z_rotation_decomposition(m, mp, 0.3)):
        with pytest.raises(SizeCapError):
            build(10**400, 1)


@pytest.mark.parametrize("split", [(1.7, 1), (True, 2), (2, 0)])
def test_lifted_cuts_refuse_non_integral_register_sizes(split):
    for build in (mcz_decomposition, lambda m, mp: multi_z_rotation_decomposition(m, mp, 0.3)):
        with pytest.raises(DimensionError, match="register size must be an integer >= 1"):
            build(*split)


def test_controlled_sequence_reads_an_iterator_once():
    ops = [((0,), X), ((1,), phase_gate(0.4)), ((0, 1), gates.cnot())]
    listed = controlled_sequence_decomposition(ops, 2)
    streamed = controlled_sequence_decomposition(iter(ops), 2)
    assert streamed.name == listed.name == "controlled_sequence[M=3]"
    assert np.array_equal(streamed.target_unitary.mat, listed.target_unitary.mat)
    assert streamed.verify()["passed"]


def test_verify_builds_target_ptm_once(monkeypatch):
    # a Hadamard makes the decomposition non-diagonal; verify() still compares
    # through the signed Kraus operators and never needs the target's PTM
    calls = []

    def counting(u, **kwargs):
        calls.append(u.n_qubits)
        return ptm_of_unitary(u, **kwargs)

    monkeypatch.setattr(qcut.cuts, "ptm_of_unitary", counting)
    deco = controlled_sequence_decomposition([((0,), gates.hadamard())], 1)
    deco.reconstruct()
    first = deco.verify()
    second = deco.verify()
    assert calls == []  # building, reconstructing and verifying need no target PTM
    assert first == second and first["passed"]
    assert np.array_equal(deco.target.matrix,
                          ptm_of_unitary(gates.controlled(gates.hadamard())).matrix)
    assert deco.target is deco.target
    assert calls == [2]


def _traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_diagonal_verify_builds_no_dense_ptm(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense PTM was built")

    for module in (qcut.cuts, qcut.linalg):
        monkeypatch.setattr(module, "ptm_of_unitary", refuse)
    monkeypatch.setattr(qcut.linalg, "ptm_of_kraus", refuse)
    report = mcz_decomposition(2, 1).verify()
    assert report["passed"] and report["max_abs_deviation"] < 1e-15
    # the kernel's all-diagonal case reads a d x d array, not the 4^6 x 4^6
    # PTM, and its Kraus stacks as (k, d) diagonals: 0.26 MiB measured
    deco = mcz_decomposition(3, 3)
    assert _traced_peak(deco.verify) < 5 * 2**16


def test_diagonal_cuts_verify_from_their_diagonals(monkeypatch):
    # no diagonal scan of a dense stack in the kernel, and no diagonal stack
    # written out as d x d operators; a dense stack a caller gave still reads
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel scanned a dense stack")

    class Refused:
        def __get__(self, obj, owner=None):
            raise AssertionError("a stack of diagonals was written out")

    qcut.cuts._lift.cache_clear()  # lifts the sampler wrote out before
    monkeypatch.setattr(qcut.linalg, "diagonal_qubits", refuse)
    monkeypatch.setattr(qcut.linalg.Superoperator, "ops", Refused())
    decos = [rzz_decomposition_a(0.9), rzz_decomposition_b(0.9)]
    for n in range(2, 6):
        for m in range(1, n):
            decos += [mcz_decomposition(m, n - m), multi_z_rotation_decomposition(m, n - m, 0.9)]
    for deco in decos:
        report = deco.verify()
        assert report["passed"] and report["max_abs_deviation"] < 1e-15, deco.name


def test_controlled_sequence_verify_splits_off_the_control():
    # 4 targets: the kernel's whole array would have 2^2 * 16^4 entries,
    # 4 MiB, and one dense 4^5 x 4^5 complex PTM is 16 MiB; verify() holds the
    # Kraus gathers (under 0.4 MiB) and one slab of at most 1 MiB
    deco = _haar_sequence(4, 64)
    assert deco.verify()["passed"]
    assert _traced_peak(deco.verify) < 3 * 2**20


# ---------------------------------------------------------------------------
# Both verification paths against the dense oracle
# ---------------------------------------------------------------------------


def dense_reconstruct(deco) -> np.ndarray:
    """``sum_nu q_nu F_nu`` from each factor's action on the whole Pauli
    basis (``oracles.ptm_of_map``), combined by ``np.kron``."""
    total = 0
    for t in deco.terms:
        ptms = [ptm_of_map(f.apply_batch, f.n_qubits) for f in t.factors]
        total = total + t.q * reduce(np.kron, ptms)
    return total


def dense_target(deco) -> np.ndarray:
    u = deco.target_unitary.mat
    return ptm_of_map(lambda mats: u @ mats @ u.conj().T, deco.n_qubits)


def _splits():
    for n in range(2, 6):
        for m in range(1, n):
            yield pytest.param(lambda m=m, n=n: mcz_decomposition(m, n - m),
                               id=f"mcz[{m},{n - m}]")
            yield pytest.param(
                lambda m=m, n=n: multi_z_rotation_decomposition(m, n - m, 0.7 * n - m),
                id=f"multi_z[{m},{n - m}]")
    for theta in (0.0, 0.4, -np.pi / 3, np.pi / 2, np.pi):
        yield pytest.param(lambda t=theta: rzz_decomposition_a(t), id=f"rzz_a[{theta:.3g}]")
        yield pytest.param(lambda t=theta: rzz_decomposition_b(t), id=f"rzz_b[{theta:.3g}]")


@pytest.mark.parametrize("build", list(_splits()))
def test_schur_reconstruct_matches_dense(build):
    deco = build()
    assert diagonal_qubits(deco.reconstruct().ops) == tuple(range(deco.n_qubits))
    reference = dense_reconstruct(deco)
    assert np.max(np.abs(deco.reconstruct().matrix - reference)) <= 1e-12
    report = deco.verify()
    dense_dev = np.max(np.abs(reference - dense_target(deco)))
    assert report["passed"] and abs(report["max_abs_deviation"] - dense_dev) <= 1e-12


def test_wire_cuts_and_sequences_have_no_schur_form():
    for deco in (wire_cut_ncc(), wire_cut_cc("X")):
        assert diagonal_qubits(deco.reconstruct().ops) == ()
    # a controlled sequence is diagonal on the shared control and on the
    # targets it leaves alone (here the second, qubit 2)
    deco = controlled_sequence_decomposition([((0,), X)], 2)
    assert diagonal_qubits(deco.reconstruct().ops) == (0, 2)


def _flip_q(deco, index):
    terms = [DecompositionTerm(-t.q if i == index else t.q, t.factors, t.label, t.needs_cc)
             for i, t in enumerate(deco.terms)]
    return Decomposition(deco.name, deco.partition, terms, deco.target_unitary)


def _pauli_position(label: str) -> int:
    return int("".join(str("IXYZ".index(c)) for c in label), 4)


# flipping "I x E_MCZ-MX" or "E_Y0" moves entries other than I <- I
@pytest.mark.parametrize("build,index", [(lambda: mcz_decomposition(2, 2), 4),
                                         (lambda: wire_cut_cc("X"), 1)],
                         ids=["mcz[2,2]", "wire_cc[X]"])
def test_failed_verify_names_the_worst_entry(build, index):
    deco = _flip_q(build(), index)
    report = deco.verify()
    delta = np.abs(dense_reconstruct(deco) - dense_target(deco))
    assert not report["passed"]
    assert abs(report["max_abs_deviation"] - delta.max()) <= 1e-12
    out, inp = report["worst_entry"]
    assert len(out) == len(inp) == deco.n_qubits
    assert abs(delta[_pauli_position(out), _pauli_position(inp)] - delta.max()) <= 1e-12


def _haar_sequence(n_targets: int, seed: int) -> Decomposition:
    rng = np.random.default_rng(seed)
    ops = [((t,), haar_unitary(rng, 2)) for t in range(n_targets)]
    return controlled_sequence_decomposition(ops, n_targets)


def _two_qubit_op_sequence() -> Decomposition:
    rng = np.random.default_rng(77)
    ops = [((2, 0), haar_unitary(rng, 4)), ((1,), haar_unitary(rng, 2))]
    return controlled_sequence_decomposition(ops, 3)


def _non_diagonal():
    yield pytest.param(wire_cut_ncc, id="wire_ncc")
    for basis in "XYZ":
        yield pytest.param(lambda b=basis: wire_cut_cc(b), id=f"wire_cc[{basis}]")
    for k in range(1, 5):
        yield pytest.param(lambda k=k: _haar_sequence(k, 60 + k), id=f"controlled_sequence[{k}]")
    yield pytest.param(_two_qubit_op_sequence, id="controlled_sequence[2q-op]")


@pytest.mark.parametrize("flip", [False, True], ids=["built", "flipped"])
@pytest.mark.parametrize("build", list(_non_diagonal()))
def test_kraus_verify_matches_dense(build, flip):
    deco = build()
    assert diagonal_qubits(deco.reconstruct().ops) != tuple(range(deco.n_qubits))
    if flip:
        deco = _flip_q(deco, 1)
    reference = dense_reconstruct(deco)
    assert np.max(np.abs(deco.reconstruct().matrix - reference)) <= 1e-12
    delta = np.abs(reference - dense_target(deco))
    report = deco.verify()
    assert abs(report["max_abs_deviation"] - delta.max()) <= 1e-12
    assert report["passed"] is not flip
    out, inp = report["worst_entry"]
    assert len(out) == len(inp) == deco.n_qubits
    # ties allowed: any entry whose reference deviation is maximal
    assert abs(delta[_pauli_position(out), _pauli_position(inp)] - delta.max()) <= 1e-12


@pytest.mark.parametrize("theta", [
    np.inf, -np.inf, np.nan,
    # float() of an integer beyond float range raises OverflowError
    pytest.param(10**400, id="1e400"), pytest.param(-(10**400), id="-1e400"),
])
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
    with pytest.raises(DimensionError, match=f"rotation angle must be finite, got {theta!r}"):
        build(theta)


def test_sampling_probabilities_normalized():
    deco = rzz_decomposition_b(1.0)
    p = deco.sampling_probabilities()
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("above", [False, True], ids=["at-tolerance", "one-ulp-above"])
def test_verify_passes_at_exactly_the_tolerance(monkeypatch, above):
    deviation = qcut.cuts.ATOL_RECONSTRUCT
    if above:
        deviation = np.nextafter(deviation, 1.0)
    monkeypatch.setattr(qcut.linalg.Superoperator, "compare",
                        lambda self, other: (deviation, 0, 0))
    report = wire_cut_cc().verify()
    assert report["max_abs_deviation"] == deviation
    assert report["passed"] is not above and report["worst_entry"] == ["I", "I"]
