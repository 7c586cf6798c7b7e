import numpy as np
import pytest

from qcut import gates
from qcut.channels import (
    MEASUREMENT_KETS,
    GeneralizedMap,
    UnitaryChannel,
    ancilla_map,
    e_rzv_map,
    e_v_mx_map,
    e_v_mz_map,
    grouped_pauli_map,
    pauli_measure_prepare,
    rzz_my_map,
    sequence_unitary,
    signed_z_map,
)
from qcut.linalg import (
    KET_PLUS,
    PAULI_Z,
    DimensionError,
    Operator,
    QcutError,
    Superoperator,
    diagonal_qubits,
    embed_matrix,
    ptm_of_kraus,
    ptm_of_unitary,
)
from qcut.cuts import (
    mcz_decomposition,
    multi_z_rotation_decomposition,
    rzz_decomposition_a,
    rzz_decomposition_b,
)
from oracles import (
    apply_map,
    close_to,
    cnot_on,
    cptp_diagnostics,
    dag,
    haar_unitary,
    measure_prepare_map,
    pauli_eigenbasis,
    projector,
    ptm_of_map,
)

X = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


ANTIDIAG_IZ = np.zeros((4, 4))
ANTIDIAG_IZ[0, 3] = ANTIDIAG_IZ[3, 0] = 1.0  # swaps the I and Z components


def random_density(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    rho = a @ a.conj().T
    return Operator(rho / np.trace(rho))


# ---------------------------------------------------------------------------
# UnitaryChannel
# ---------------------------------------------------------------------------


def test_unitary_channel_matches_conjugation():
    ch = UnitaryChannel(gates.cnot())
    rho = random_density(2, 0)
    out = apply_map(ch, rho)
    expected = Operator(gates.cnot().mat @ rho.mat @ dag(gates.cnot()).mat)
    assert close_to(out, expected, atol=1e-12)
    assert ch.is_cptp()
    assert ch.to_superoperator().max_abs_diff(ptm_of_unitary(gates.cnot())) < 1e-12


# ---------------------------------------------------------------------------
# Measure-and-prepare maps
# ---------------------------------------------------------------------------


def test_measure_prepare_validation():
    p0 = gates.basis_state("0")
    p1 = gates.basis_state("1")
    with pytest.raises(QcutError):
        measure_prepare_map([(1.0, p0, p0)])  # effects don't sum to identity
    with pytest.raises(QcutError):
        measure_prepare_map([(1.0, p0, Operator(2.0 * p0.mat)), (1.0, p1, p1)])  # not a state
    # non-Hermitian effects that sum to I and whose lower triangles look PSD
    e0 = Operator(np.array([[1.0, 0.5], [0.0, 0.0]]))
    e1 = Operator(np.array([[0.0, -0.5], [0.0, 1.0]]))
    with pytest.raises(QcutError, match="Hermitian"):
        measure_prepare_map([(1.0, e0, p0), (1.0, e1, p1)])


def test_pauli_measure_prepare_ptm():
    # [DERIVED] E_Z0 maps rho to (rho_00 - rho_11) |0><0| (signed Z measurement)
    ch = pauli_measure_prepare("Z", 0)
    rho = random_density(1, 1)
    out = apply_map(ch, rho)
    expected = (rho.mat[0, 0] - rho.mat[1, 1]) * gates.basis_state("0").mat
    assert np.allclose(out.mat, expected, atol=1e-12)
    assert not ch.is_cptp()  # carries a signed branch


def test_grouped_pauli_map_is_cptp():
    for p in "XYZ":
        ch = grouped_pauli_map(p)
        assert ch.is_cptp(), p
        diag = cptp_diagnostics(ch)
        assert diag["choi_cptp"] and diag["consistent"]


def test_signed_z_map_ptm():
    # [DERIVED] rho -> rho_00 |0><0| - rho_11 |1><1| exchanges the I and Z
    # Pauli components, so the PTM is the I<->Z antidiagonal with zero corner.
    ch = signed_z_map()
    m = ch.to_superoperator().matrix
    assert np.allclose(m, ANTIDIAG_IZ, atol=1e-12)
    assert not np.allclose(m[0], [1, 0, 0, 0])  # not trace preserving
    assert not ch.is_cptp()
    assert ch.signs == (1, -1)


def _rank_one_cases():
    table, z0, z1 = pauli_eigenbasis(), gates.basis_state("0"), gates.basis_state("1")
    for p in "IXYZ":
        for mu in (0, 1):
            terms = [(table[(p, nu)][0], table[(p, nu)][1], table[(p, mu)][1]) for nu in (0, 1)]
            yield pytest.param(lambda p=p, mu=mu: pauli_measure_prepare(p, mu), terms,
                               id=f"E_{p}{mu}")
    for p in "XYZ":
        terms = [(1, table[(p, nu)][1], table[(p, nu)][1]) for nu in (0, 1)]
        yield pytest.param(lambda p=p: grouped_pauli_map(p), terms, id=f"grouped_{p}")
    yield pytest.param(signed_z_map, [(1, z0, z0), (-1, z1, z1)], id="signed_z")


@pytest.mark.parametrize("build, terms", list(_rank_one_cases()))
def test_rank_one_maps_match_measure_prepare(build, terms):
    # the named maps take |s><e| from the eigenkets directly; outcome by
    # outcome they must act as the measure-and-prepare map of the projectors
    ch, ref = build(), measure_prepare_map(terms)
    assert ch.signs == ref.signs
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    for k, ref_k in zip(ch.ops, ref.ops, strict=True):
        images = k @ mats @ k.conj().T
        expected = ref_k @ mats @ ref_k.conj().T
        assert np.max(np.abs(images - expected)) <= 1e-12


def test_cptp_diagnostics_cross_check():
    ch = pauli_measure_prepare("X", 1)
    diag = cptp_diagnostics(ch)
    assert diag["flags_cptp"] == ch.is_cptp()
    assert diag["consistent"]
    assert isinstance(diag["choi_min_eigenvalue"], float)


# ---------------------------------------------------------------------------
# Signed Kraus stacks
# ---------------------------------------------------------------------------


def test_signed_kraus_completeness_enforced():
    p0 = gates.basis_state("0")
    with pytest.raises(QcutError):
        GeneralizedMap([1.0], [p0.mat])
    ch = GeneralizedMap([1.0, -1.0], [p0.mat, gates.basis_state("1").mat])
    m = ch.to_superoperator().matrix
    assert np.allclose(m, ANTIDIAG_IZ, atol=1e-12)
    assert not ch.is_cptp()


# ---------------------------------------------------------------------------
# One-ancilla maps
# ---------------------------------------------------------------------------


def dilation_branch(joint, basis, feedback, mats, outcome):
    """Reference: unnormalized branch ``F_s Tr_a(Pi_s U (rho (x) |+><+|) U^dag) F_s^dag``
    computed on the dilated register (ancilla last), without Kraus operators."""
    d = mats.shape[-1]
    u = joint.mat
    ext = np.einsum("nab,cd->nacbd", mats, projector(KET_PLUS).mat).reshape(-1, 2 * d, 2 * d)
    sigma = (u @ ext @ u.conj().T).reshape(-1, d, 2, d, 2)
    ket = MEASUREMENT_KETS[basis][outcome]
    branch = np.einsum("nakbi,k,i->nab", sigma, ket.conj(), ket)
    if feedback is not None:
        f = feedback[outcome].mat
        branch = f @ branch @ f.conj().T
    return branch


def last_controlled_sequence(ops, n_targets, offset):
    """Dense sequence controlled by the last qubit, target ``t`` on qubit
    ``offset + t``, applied in list order."""
    n = offset + n_targets + 1
    full = np.eye(2**n, dtype=complex)
    for targets, u in ops:
        placed = [n - 1] + [offset + t for t in targets]
        full = embed_matrix(gates.controlled(u).mat, placed, n) @ full
    return Operator(full)


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return Operator(q * (np.diag(r) / np.abs(np.diag(r))))


SEQUENCE = [((0,), X), ((1,), random_unitary(2, 5)), ((0, 1), random_unitary(4, 6))]
SEQUENCE_V = sequence_unitary(SEQUENCE, 2)
RZV_FEEDBACK = tuple(
    Operator(embed_matrix(gates.rz(sign * np.pi / 2).mat, [0], 3)) for sign in (1, -1)
)


@pytest.mark.parametrize(
    "ch, joint, basis, feedback",
    [
        (e_v_mx_map(gates.mcz(1)), gates.mcz(2), "X", None),
        (e_v_mx_map(gates.mcz(3)), gates.mcz(4), "X", None),
        (rzz_my_map(0.7), gates.rzz(0.7), "Y", None),
        (e_v_mx_map(SEQUENCE_V), last_controlled_sequence(SEQUENCE, 2, 0), "X", None),
        (e_v_mz_map(SEQUENCE_V), last_controlled_sequence(SEQUENCE, 2, 0), "Z", None),
        (e_rzv_map(SEQUENCE_V), last_controlled_sequence(SEQUENCE, 2, 1), "Y", RZV_FEEDBACK),
    ],
    ids=["mcz_mx_1", "mcz_mx_3", "rzz_my", "e_v_mx", "e_v_mz", "e_rzv"],
)
def test_kraus_branches_match_ancilla_dilation(ch, joint, basis, feedback):
    # each outcome's K rho K^dag equals the dilated circuit's outcome
    # branch on random inputs
    d = 2**ch.n_qubits
    rng = np.random.default_rng(9)
    mats = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    dilated = [dilation_branch(joint, basis, feedback, mats, k) for k in (0, 1)]
    for k, expected in zip(ch.ops, dilated, strict=True):
        images = k @ mats @ k.conj().T
        assert np.max(np.abs(images - expected)) <= 1e-12
    signed = sum(s * branch for s, branch in zip(ch.signs, dilated))
    assert np.max(np.abs(ch.apply_batch(mats) - signed)) <= 1e-12


def test_mcz_mx_map_ptm():
    # [DERIVED] on one system qubit the X-measured controlled-Z circuit acts
    # as (rho -> Z-diagonal part with sign): signed sum equals the signed-Z map
    ch = e_v_mx_map(gates.mcz(1))
    m = ch.to_superoperator().matrix
    assert np.allclose(m, ANTIDIAG_IZ, atol=1e-12)
    assert ch.signs == (1, -1)
    assert not ch.is_cptp()


def test_mcz_mx_map_branches_are_probabilities():
    ch = e_v_mx_map(gates.mcz(2))
    rho = random_density(2, 2)
    mats = rho.mat[None]
    probs = [
        float(np.real(np.trace(dilation_branch(gates.mcz(3), "X", None, mats, k)[0])))
        for k in (0, 1)
    ]
    assert all(p >= -1e-12 for p in probs)
    assert sum(probs) == pytest.approx(1.0)
    for p, k in zip(probs, ch.ops, strict=True):
        assert np.real(np.trace(k @ rho.mat @ k.conj().T)) == pytest.approx(p, abs=1e-12)


def test_rzz_my_map_equals_scaled_signed_z():
    # [KNOWN] the Y-measured coupling circuit realizes sin(theta) * signed-Z
    for theta in (0.3, np.pi / 2, -1.1):
        m = rzz_my_map(theta).to_superoperator().matrix
        assert np.allclose(m, np.sin(theta) * ANTIDIAG_IZ, atol=1e-12), theta


def test_controlled_sequence_unitary():
    theta = np.pi / 5
    ops = [((0,), X), ((1,), Operator(np.diag([1.0, np.exp(1j * theta)])))]
    u = gates.controlled(sequence_unitary(ops, 2))
    # control = qubit 0: CNOT(0 -> 1) then controlled-phase(0, 2)
    expected = Operator(cnot_on(3, 0, 1).mat @ np.diag(
        [1.0, 1.0, 1.0, 1.0, 1.0, np.exp(1j * theta), 1.0, np.exp(1j * theta)]))
    assert close_to(u, expected, atol=1e-12)


def test_e_rzv_is_cptp_and_others_are_not():
    v = sequence_unitary([((0,), X)], 1)
    assert e_rzv_map(v).is_cptp()
    assert not e_v_mx_map(v).is_cptp()
    assert not e_v_mz_map(v).is_cptp()
    assert e_v_mx_map(v).signs == (1, -1)


def test_ancilla_circuit_identity_recovery():
    # both branches apply the identity and both outcomes count +1
    ch = ancilla_map(gates.identity(1), gates.identity(1), "Z", (1, 1))
    sup = ch.to_superoperator()
    assert sup.max_abs_diff(ptm_of_unitary(gates.identity(1))) < 1e-12
    assert ch.is_cptp()


# ---------------------------------------------------------------------------
# One signed Kraus stack
# ---------------------------------------------------------------------------


def test_branches_define_action_signs_and_ptm():
    # a hand-built two-outcome instrument: amplitude damping with the decay
    # outcome carrying a -1 sign
    g = 0.3
    k0 = np.array([[1, 0], [0, np.sqrt(1 - g)]])
    k1 = np.array([[0, np.sqrt(g)], [0, 0]])
    ch = GeneralizedMap([1, -1], [k0, k1])
    assert ch.n_qubits == 1 and ch.signs == (1, -1) and not ch.is_cptp()
    rho = random_density(1, 4)
    expected = k0 @ rho.mat @ k0.conj().T - k1 @ rho.mat @ k1.conj().T
    assert np.allclose(apply_map(ch, rho).mat, expected, atol=1e-12)
    assert np.array_equal(ch.to_superoperator().matrix, ch.to_superoperator().matrix)
    assert cptp_diagnostics(ch)["consistent"]
    assert all(not array.flags.writeable for array in (ch.weights, ch.ops))


def test_signed_multi_kraus_ptm_matches_dense():
    # four Kraus operators on two qubits, signs (+1, +1, -1, -1):
    # sqrt(p_k) U_k for Haar unitaries U_k, so completeness holds
    rng = np.random.default_rng(8)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    ops = [np.sqrt(pk) * haar_unitary(rng, 4).mat for pk in p]
    ch = GeneralizedMap([1, 1, -1, -1], ops)
    dense = ptm_of_map(ch.apply_batch, 2)
    assert np.max(np.abs(ch.to_superoperator().matrix - dense)) <= 1e-12
    weights, kraus = ch.weights, ch.ops
    assert weights.tolist() == [1, 1, -1, -1] and kraus.shape == (4, 4, 4)


def test_measure_prepare_branches_are_rank_one_kraus():
    # E = |0><0| and rho = |+><+| are rank one, so the zero-weight
    # eigen-components get no operator and each effect has one
    plus = projector(KET_PLUS)
    ch = measure_prepare_map(
        [(1, gates.basis_state("0"), plus), (-1, gates.basis_state("1"), plus)]
    )
    assert ch.ops.shape == (2, 2, 2)
    assert ch.signs == (1, -1)


@pytest.mark.parametrize(
    "signs,ops",
    [
        ([], []),
        ([], np.zeros((0, 2, 2))),  # a (0, d, d) stack
        ([1], [np.eye(2) / 2]),  # incomplete
        ([1, 1], [np.eye(2), np.eye(4)]),  # two registers: a ragged stack
        ([1], [[1.0, 0.0], [0.0, 1.0, 0.0]]),  # ragged rows
        ([1], np.eye(2)),  # one matrix, not a stack
        ([1, -1], [np.eye(2)]),  # more signs than operators
        ([1], [np.eye(2) / np.sqrt(2)] * 2),  # fewer signs than operators
        ([0], [np.eye(2)]),  # sign not +-1
        ([np.nan], [np.eye(2)]),
        ([1], [np.eye(3)]),  # not a qubit register
        ([1], [np.array([[np.nan, 0], [0, 1]])]),  # NaN passes no comparison
    ],
    ids=["empty", "empty-stack", "incomplete", "mixed", "ragged", "flat", "extra-sign",
         "missing-sign", "sign", "nan-sign", "qutrit", "nan"],
)
def test_generalized_map_validation(signs, ops):
    with pytest.raises(DimensionError):
        GeneralizedMap(signs, ops)


@pytest.mark.parametrize(
    "build",
    [signed_z_map, lambda: UnitaryChannel(gates.cnot()), lambda: rzz_my_map(0.4),
     lambda: mcz_decomposition(2, 1).terms[2].factors[0],
     lambda: Superoperator(np.array([0.5, -0.5]), np.array([np.eye(2), PAULI_Z])),
     lambda: mcz_decomposition(2, 1).reconstruct()],
    ids=["signed_z", "unitary", "rzz_my", "lifted", "superoperator", "reconstruct"],
)
def test_generalized_map_cannot_be_rebound(build):
    # a stray assignment must not change a map, least of all a shared constant
    ch = build()
    weights, ops, ptm = ch.weights, ch.ops, ch.matrix
    state = dict(vars(ch))
    for attr in ("weights", "ops", "n_qubits", "matrix", "signs", "extra"):
        with pytest.raises(AttributeError):
            setattr(ch, attr, None)
        with pytest.raises(AttributeError):
            delattr(ch, attr)
    for array in (weights, ops, ptm):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert vars(ch) == state and ch.weights is weights and ch.ops is ops and ch.matrix is ptm
    assert np.array_equal(build().weights, weights) and np.array_equal(build().ops, ops)


def test_generalized_map_copies_its_stack():
    # the caller's array stays the caller's: writing to it changes no map
    ops = np.array([np.eye(2)])
    ch = GeneralizedMap(np.array([1.0]), ops)
    ops[0, 0, 0] = 5
    assert ch.ops[0, 0, 0] == 1 and ops.flags.writeable


def test_completeness_of_diagonals_is_judged_as_of_the_written_out_stack():
    # sum_k |d_k|^2 = (1, 0.5): the same verdict and message from the
    # diagonals, the written-out stack and, with one off-diagonal 1e-300, the
    # stack's rows through A^dag A
    diagonals = np.array([[1, 0.5], [0, 0.5]], dtype=complex)
    written = np.array([np.diag(d) for d in diagonals])
    tiny = written.copy()
    tiny[1, 0, 1] = 1e-300
    for stack in ({"diagonals": diagonals}, {"ops": written}, {"ops": tiny}):
        with pytest.raises(DimensionError) as exc:
            GeneralizedMap([1, -1], **stack)
        assert str(exc.value) == ("Kraus stack (sum K^dag K = I) is not unitary: "
                                  "max|U^dag U - I| = 5.000e-01")
    diagonals[1, 1] = np.sqrt(0.75) * 1j
    ch = GeneralizedMap([1, -1], diagonals=diagonals)
    assert ch.signs == (1, -1) and ch.diagonals.dtype == complex
    assert np.array_equal(ch.ops, [np.diag(d) for d in diagonals])
    assert ch.compare(GeneralizedMap([1, -1], ch.ops))[0] < 1e-15


def test_ancilla_circuit_rejects_non_unitary_joint():
    with pytest.raises(DimensionError, match="not unitary"):
        ancilla_map(gates.identity(1), Operator(np.diag([1, 0.5])), "Z", (1, -1))
    with pytest.raises(DimensionError, match="X, Y or Z"):
        ancilla_map(gates.identity(1), X, "W", (1, -1))


# ---------------------------------------------------------------------------
# Schur form of diagonal maps
# ---------------------------------------------------------------------------


def _diagonal_family_factors():
    decos = [rzz_decomposition_a(0.9), rzz_decomposition_b(-0.4)]
    for n in range(2, 6):
        for m in range(1, n):
            decos.append(mcz_decomposition(m, n - m))
            decos.append(multi_z_rotation_decomposition(m, n - m, 0.3 * n))
    for deco in decos:
        for t in deco.terms:
            for i, f in enumerate(t.factors):
                yield pytest.param(f, id=f"{deco.name}:{t.label}:{i}")


@pytest.mark.parametrize("ch", list(_diagonal_family_factors()))
def test_schur_form_matches_dense_ptm(ch):
    # every Kraus operator is diagonal: the kernel takes its Schur-form case
    assert diagonal_qubits(ch.ops) == tuple(range(ch.n_qubits))
    dense = ptm_of_map(ch.apply_batch, ch.n_qubits)
    assert np.max(np.abs(ptm_of_kraus(ch.weights, ch.ops) - dense)) <= 1e-12


@pytest.mark.parametrize(
    "build,diag",
    [
        (lambda: pauli_measure_prepare("X", 0), ()),
        (lambda: pauli_measure_prepare("I", 1), ()),
        (lambda: grouped_pauli_map("Y"), ()),
        # diagonal on the control and on the untouched second target
        (lambda: e_rzv_map(sequence_unitary([((0,), X)], 2)), (0, 2)),
        (lambda: GeneralizedMap([1], [np.array([[1.0, 1e-300], [0.0, 1.0]])]), ()),
    ],
    ids=["E_X0", "E_I1", "grouped_Y", "e_rzv", "tiny_off_diagonal"],
)
def test_schur_form_needs_exactly_diagonal_kraus(build, diag):
    assert diagonal_qubits(build().ops) == diag


def test_a_dense_map_is_scanned_for_diagonals_only_when_read():
    ch = GeneralizedMap([1, -1], [np.diag([1, 0.6]), np.diag([0, 0.8])])
    assert "diagonals" not in vars(ch)
    assert np.array_equal(ch.diagonals, [[1, 0.6], [0, 0.8]]) and "diagonals" in vars(ch)
