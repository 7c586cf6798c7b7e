import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from qcut import channels, cuts, gates, linalg, sampling, zx
from qcut.linalg import (
    MAX_DENSE_ENTRIES,
    PAULI_X,
    DimensionError,
    Operator,
    PauliString,
    QcutError,
    SizeCapError,
    Superoperator,
    embed_matrix,
    check_dense,
    check_integer,
    check_unitary,
    kraus_transform,
    max_abs_diff,
    pauli_index,
    pauli_label,
    ptm_of_kraus,
    ptm_of_unitary,
)
from oracles import (
    close_to,
    dag,
    devectorize,
    haar_unitary,
    pauli_basis_matrices,
    pauli_eigenbasis,
    projector,
    ptm_of_map,
    vectorize,
)

I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.diag([1.0, -1.0])
PAULIS = [I2, X, Y, Z]


def slow_ptm(u: np.ndarray) -> np.ndarray:
    """Independent PTM oracle: M_ij = Tr[P_i U P_j U^dag] / 2^n, nested loops."""
    n = u.shape[0].bit_length() - 1
    labels = [np.array([[1.0]])]
    for _ in range(n):
        labels = [np.kron(m, p) for m in labels for p in PAULIS]
    m = np.zeros((4**n, 4**n))
    for i, pi in enumerate(labels):
        for j, pj in enumerate(labels):
            m[i, j] = np.real(np.trace(pi @ u @ pj @ u.conj().T)) / 2**n
    return m


def test_operator_validation():
    with pytest.raises(DimensionError):
        Operator(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        Operator(np.zeros((3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_operator_rejects_non_finite_entries(bad):
    with pytest.raises(DimensionError, match="finite"):
        Operator([[bad, 0], [0, 1]])


def unchecked_operator(mat) -> Operator:
    """``Operator(mat)`` past its checks, so a NaN entry reaches the unitarity check."""
    op = object.__new__(Operator)
    object.__setattr__(op, "mat", np.asarray(mat, dtype=complex))
    return op


@pytest.mark.parametrize(
    "mat",
    [np.diag([1.0, 2.0]), np.array([[np.nan, 0], [0, 1]]), np.zeros((2, 2))],
    ids=["scaled", "nan", "zero"],
)
def test_check_unitary_rejects(mat):
    with pytest.raises(DimensionError, match="gate is not unitary"):
        check_unitary(mat, "gate")
    check_unitary(gates.hadamard().mat, "gate")
    # ptm_of_unitary refuses each by the same check
    with pytest.raises(DimensionError, match="input is not unitary"):
        ptm_of_unitary(unchecked_operator(mat))


@pytest.mark.parametrize(
    "diagonal",
    [[1, 2j], [np.nan, 1], [np.exp(0.3j), 1 + 1e-9], [np.exp(0.3j), -1j], [0, 1]],
    ids=["scaled", "nan", "just-off", "unitary", "zero-entry"],
)
def test_check_unitary_judges_a_diagonal_as_the_matrix_product_does(diagonal):
    # a map given by its diagonals is checked by check_unit_sum, the same map
    # given as its matrix by check_unitary's A^dag A product
    values = np.array(diagonal, dtype=complex)
    messages = []
    for build in (lambda: channels.GeneralizedMap([1], diagonals=[values]),
                  lambda: channels.GeneralizedMap([1], [np.diag(values)])):
        try:
            build()
            messages.append(None)
        except DimensionError as exc:
            messages.append(str(exc))
    assert messages[0] == messages[1]
    assert (messages[0] is None) is (diagonal == [np.exp(0.3j), -1j])


def _diagonal_cases():
    for theta in (0.0, 0.37, -np.pi, 2.5):
        yield pytest.param(gates.rz(theta), [np.exp(-0.5j * theta), np.exp(0.5j * theta)],
                           id=f"rz[{theta:.3g}]")
    for n in range(1, 7):
        parity = [bin(k).count("1") % 2 for k in range(2**n)]
        phases = [np.exp(-0.35j * (1 - 2 * p)) for p in parity]
        yield pytest.param(gates.multi_z_rotation(n, 0.7), phases, id=f"multi_z[{n}]")
    for n in range(1, 9):
        values = np.ones(2**n, dtype=complex)
        values[-1] = np.exp(1.1j)
        yield pytest.param(gates.mcp(n, 1.1), values, id=f"mcp[{n}]")


@pytest.mark.parametrize("gate,values", list(_diagonal_cases()))
def test_diagonal_gates_match_dense_diag(gate, values):
    assert np.array_equal(gate.mat, Operator(np.diag(values)).mat)
    assert gate.mat.dtype == complex and not gate.mat.flags.writeable


def test_operator_diagonal_is_read_only():
    op = Operator.diagonal([1.0, 1j])
    assert np.array_equal(op.mat, np.diag([1.0, 1j]))
    with pytest.raises(ValueError):
        op.mat[0, 1] = 1.0
    with pytest.raises(AttributeError):
        op.mat = np.eye(2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_operator_diagonal_rejects_non_finite_values(bad):
    with pytest.raises(DimensionError, match="finite"):
        Operator.diagonal([1.0, bad, 1.0, 1.0])


@pytest.mark.parametrize("values", [np.eye(2), [1.0, 1.0, 1.0], [], 1.0],
                         ids=["2d", "length_3", "empty", "scalar"])
def test_operator_diagonal_rejects_bad_shapes(values):
    with pytest.raises(DimensionError):
        Operator.diagonal(values)


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _block_rows(cols: int) -> int:
    """Rows of ``cols`` complex entries in one block of ``max_abs_diff``."""
    return linalg._SCRATCH_BYTES // (cols * (16 + 8))


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (2,), (5, 3), (2048, 2048), (2, 3, 4),
     (_block_rows(512) - 1, 512), (_block_rows(512) + 1, 512),
     (2 * _block_rows(512) - 1, 512), (2 * _block_rows(512) + 1, 512)],
)
def test_max_abs_diff_equals_dense_max(shape):
    rng = np.random.default_rng(sum(shape))
    a, b = _random_complex(rng, shape), _random_complex(rng, shape)
    got = max_abs_diff(a, b)
    assert type(got) is float
    assert got == np.max(np.abs(a - b))
    assert max_abs_diff(a.real, b.real) == np.max(np.abs(a.real - b.real))


@pytest.mark.parametrize("row", [0, 1, 2 * _block_rows(64) + 3, 4 * _block_rows(64) - 1],
                         ids=["first_row", "first_block", "middle_block", "last_block"])
@pytest.mark.parametrize("which", ["a", "b"])
def test_max_abs_diff_propagates_nan(row, which):
    # the maximum of every other block is finite and positive, so a running
    # maximum that drops a NaN block still returns a plausible number
    rng = np.random.default_rng(5)
    shape = (4 * _block_rows(64), 64)
    a, b = _random_complex(rng, shape), _random_complex(rng, shape)
    (a if which == "a" else b)[row, 7] = complex(np.nan, 0.0)
    assert np.isnan(np.max(np.abs(a - b)))
    assert np.isnan(max_abs_diff(a, b))


def test_max_abs_diff_keeps_inf():
    rng = np.random.default_rng(6)
    a, b = _random_complex(rng, (300, 64)), _random_complex(rng, (300, 64))
    b[150, 0] = np.inf
    assert max_abs_diff(a, b) == np.inf


@pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((4,), (4, 1)), ((2, 2), (2,))])
def test_max_abs_diff_rejects_shape_mismatch(shapes):
    with pytest.raises(DimensionError, match="shape"):
        max_abs_diff(np.zeros(shapes[0]), np.zeros(shapes[1]))


@pytest.mark.parametrize("shape", [(2048, 2048), (4, 2**16)], ids=["square", "wide_rows"])
def test_max_abs_diff_holds_one_block_at_a_time(shape):
    # a full-size difference of two 2048 x 2048 complex arrays would take
    # 64 MiB and its magnitude 32 MiB more; one block of rows fits the
    # budget, and a row over the budget is a block of its own
    rng = np.random.default_rng(8)
    a, b = _random_complex(rng, shape), _random_complex(rng, shape)
    tracemalloc.start()
    try:
        got = max_abs_diff(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == np.max(np.abs(a - b))
    assert peak < max(linalg._SCRATCH_BYTES, shape[1] * (16 + 8)) + 2**16


def test_mcz_gate_memory():
    # one 2^10 x 2^10 complex matrix is 16 MiB; a dense np.diag temporary and
    # a validating copy would double it
    tracemalloc.start()
    try:
        gates.mcz(10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_operator_basics():
    h = gates.hadamard()
    assert h.n_qubits == 1
    assert close_to(h, dag(h))
    # [TRIVIAL] trace of the identity on 2 qubits
    assert gates.identity(2).trace() == pytest.approx(4.0)


def test_pauli_string_operator():
    op = PauliString("XZ").to_operator()
    assert np.allclose(op.mat, np.kron(X, Z))
    with pytest.raises(QcutError):
        PauliString("XQ")


def test_pauli_string_index_lexicographic():
    # [TRIVIAL] lexicographic order I, X, Y, Z with qubit 0 most significant:
    # a Pauli string vectorizes onto the single coefficient at its index
    for letters, index in (("I", 0), ("Z", 3), ("XI", 4), ("ZY", 14)):
        coeffs = vectorize(PauliString(letters).to_operator())
        assert np.flatnonzero(np.abs(coeffs) > 1e-12).tolist() == [index]


def test_pauli_basis_is_orthonormal():
    mats = pauli_basis_matrices(2)
    gram = np.einsum("aij,bij->ab", mats.conj(), mats)
    assert np.allclose(gram, np.eye(16), atol=1e-12)


def test_vectorize_roundtrip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    op = Operator(a)
    assert close_to(devectorize(vectorize(op)), op, atol=1e-12)


def test_vectorize_hermitian_is_real():
    rho = gates.basis_state("01")
    assert np.allclose(vectorize(rho).imag, 0.0, atol=1e-12)


def test_ptm_of_unitary_matches_slow_oracle():
    # [DERIVED] against an independent nested-loop trace formula
    for u in (gates.hadamard(), gates.cnot(), gates.rzz(np.pi / 3)):
        fast = ptm_of_unitary(u).matrix
        assert np.allclose(fast, slow_ptm(u.mat), atol=1e-12)


def test_ptm_single_qubit_rz():
    # [DERIVED] RZ(theta) PTM is a rotation in the X-Y plane
    theta = 0.37
    m = ptm_of_unitary(gates.rz(theta)).matrix
    c, s = np.cos(theta), np.sin(theta)
    expected = np.array(
        [[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]]
    )
    assert np.allclose(m, expected, atol=1e-12)


def test_ptm_kron_order():
    # PTM of a tensor product is the kron of the PTMs, qubit 0 high-order
    a = ptm_of_unitary(gates.hadamard())
    b = ptm_of_unitary(gates.rz(0.5))
    joint = ptm_of_unitary(Operator(np.kron(gates.hadamard().mat, gates.rz(0.5).mat)))
    assert np.max(np.abs(np.kron(a.matrix, b.matrix) - joint.matrix)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ptm_of_unitary_matches_dense_on_haar_unitaries(n):
    # a Haar unitary is non-diagonal and has Y components at every position,
    # so every phase and sign of the kernel is exercised
    u = haar_unitary(np.random.default_rng(40 + n), 2**n).mat
    dense = ptm_of_map(lambda mats: u @ mats @ u.conj().T, n)
    assert np.max(np.abs(ptm_of_unitary(Operator(u)).matrix - dense)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ptm_of_kraus_matches_dense_for_any_operators(n):
    # arbitrary complex operators with signed, non-unit weights: the map is
    # neither trace preserving nor completely positive
    rng = np.random.default_rng(n)
    d = 2**n
    kraus = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
    weights = np.array([0.7, -1.3, 0.25])
    dense = ptm_of_map(
        lambda mats: sum(w * k @ mats @ k.conj().T for w, k in zip(weights, kraus)), n
    )
    scale = np.abs(dense).max()
    assert np.max(np.abs(ptm_of_kraus(weights, kraus) - dense)) <= 1e-12 * scale


def _diagonal_targets():
    for n in range(1, 6):
        yield pytest.param(gates.mcz(n), id=f"mcz[{n}]")
        yield pytest.param(gates.mcp(n, 0.7), id=f"mcp[{n}]")
        yield pytest.param(gates.multi_z_rotation(n, 1.1 - n), id=f"multi_z[{n}]")


@pytest.mark.parametrize("u", list(_diagonal_targets()))
def test_ptm_of_unitary_schur_path_matches_dense(u):
    dense = ptm_of_map(lambda mats: u.mat @ mats @ u.mat.conj().T, u.n_qubits)
    assert np.max(np.abs(ptm_of_unitary(u).matrix - dense)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ptm_of_schur_matches_dense_for_any_multiplier(n):
    # a complex, non-Hermitian S = sum_k w_k a_k conj(a_k)^T from d diagonal
    # operators with complex weights: every block, sign and phase is exercised
    rng = np.random.default_rng(n)
    d = 2**n
    diags = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    weights = rng.normal(size=d) + 1j * rng.normal(size=d)
    s = (diags.T * weights) @ diags.conj()
    kraus = np.zeros((d, d, d), dtype=complex)
    kraus[:, np.arange(d), np.arange(d)] = diags
    dense = ptm_of_map(lambda mats: s * mats, n)
    assert np.max(np.abs(ptm_of_kraus(weights, kraus) - dense)) <= 1e-12
    # every qubit diagonal: A is d x d, one slab
    assert [a.shape for _, a in kraus_transform(weights, kraus)[0]] == [(d, d, 1, 1, 1, 1)]


def test_pauli_index_and_label():
    # X part 0b101 and Z part 0b110: qubit 0 has (x, z) = (1, 1), qubit 1
    # (0, 1) and qubit 2 (1, 0)
    assert pauli_label(pauli_index(0b101, 0b110, 3), 3) == "YZX"
    assert pauli_label(0, 2) == "II" and pauli_label(15, 2) == "ZZ"
    idx = np.arange(4)
    labels = {pauli_label(i, 2) for i in pauli_index(idx[:, None], idx[None, :], 2).ravel()}
    assert len(labels) == 16
    # two ints give the entry the arrays give, in qubit order or not
    for lead in ((), (0, 1, 2), (2,), (1, 0)):
        table = pauli_index(np.arange(8)[:, None], np.arange(8), 3, lead).tolist()
        assert [[pauli_index(x, z, 3, lead) for z in range(8)] for x in range(8)] == table


def test_ptm_of_map_identity_channel():
    m = ptm_of_map(lambda mats: mats, 2)
    assert np.max(np.abs(m - np.eye(16))) < 1e-12
    assert np.allclose(m[0], np.eye(16)[0], atol=1e-10)  # trace preserving
    assert np.max(np.abs(m.imag)) <= 1e-10


def test_ptm_nonunitary_rejected():
    with pytest.raises(QcutError):
        ptm_of_unitary(Operator(np.diag([1.0, 2.0])))


def test_superop_size_cap():
    with pytest.raises(SizeCapError):
        ptm_of_kraus(np.ones(1), np.broadcast_to(np.complex128(0), (1, 2**8, 2**8)))


def _random_superoperator(rng, n: int, m: int = 3, weights=None) -> Superoperator:
    d = 2**n
    kraus = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    return Superoperator(rng.normal(size=m) if weights is None else weights, kraus / d)


def test_superoperator_matrix_is_read_only_and_built_once():
    sup = _random_superoperator(np.random.default_rng(1), 2)
    first = sup.matrix
    assert first is sup.matrix and not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    assert np.array_equal(first, ptm_of_kraus(sup.weights, sup.ops))
    with pytest.raises(AttributeError):
        sup.matrix = np.zeros((16, 16))


def test_superoperator_holds_read_only_views_of_the_callers_stack():
    weights, kraus = np.array([0.5, -0.5]), np.stack([np.eye(2), PAULI_X]).astype(complex)
    sup = Superoperator(weights, kraus)
    assert sup.n_qubits == 1
    assert np.shares_memory(sup.ops, kraus) and np.shares_memory(sup.weights, weights)
    assert not (sup.weights.flags.writeable or sup.ops.flags.writeable)
    assert weights.flags.writeable and kraus.flags.writeable  # the caller's own arrays


@pytest.mark.parametrize(
    "weights,stack",
    [(np.ones(2), {"ops": np.zeros((1, 2, 2))}), (np.ones(1), {"ops": np.zeros((1, 2, 4))}),
     (np.ones(1), {"ops": np.zeros((1, 3, 3))}), (np.ones(1), {"ops": np.zeros((2, 2))}),
     (np.ones(2), {"ops": np.eye(2)}), (np.ones(1), {"diagonals": np.zeros((1, 3))}),
     (np.ones(1), {"diagonals": np.zeros(2)}), (np.ones(1), {"diagonals": np.eye(2)[None]}),
     (np.ones(1), {"ops": np.eye(2)[None], "diagonals": np.ones((1, 2))}), (np.ones(1), {})],
    ids=["weight-count", "not-square", "not-qubits", "not-a-stack", "operator-with-d-weights",
         "diagonals-not-qubits", "one-diagonal-unstacked", "operators-as-diagonals", "both",
         "neither"],
)
def test_superoperator_rejects_a_malformed_stack(weights, stack):
    # a (d, d) operator given as the stack is refused, d weights or not:
    # diagonals are read only when named
    with pytest.raises(DimensionError, match="k weights"):
        Superoperator(weights, **stack)
    if "ops" in stack and "diagonals" not in stack:
        with pytest.raises(DimensionError, match="k weights"):
            channels.GeneralizedMap(np.sign(weights), stack["ops"])


@pytest.mark.parametrize(
    "weights,kraus,given",
    [(["a"], np.eye(2)[None], "<U1 (1,)"),
     (np.ones(1), np.full((1, 2, 2), "0"), "<U1 (1, 2, 2)"),
     (np.array([None]), np.eye(2)[None], "object (1,)"),
     (np.ones(1), np.eye(2)[None].astype(object), "object (1, 2, 2)"),
     ([True], np.eye(2)[None], "bool (1,)"),
     (np.ones(1), np.eye(2, dtype=bool)[None], "bool (1, 2, 2)"),
     (np.ones(1, dtype=np.uint8), np.eye(2)[None], "uint8 (1,)"),
     (np.ones(0), np.zeros((0, 2, 2)), "float64 (0,)")],
    ids=["string-weights", "string-stack", "object-weights", "object-stack",
         "boolean-weights", "boolean-stack", "unsigned-weights", "empty"],
)
def test_superoperator_refuses_a_stack_that_is_not_numbers(weights, kraus, given):
    # refused when built, not later in compare() or .matrix
    with pytest.raises(DimensionError, match=f"k weights.*got .*{re.escape(given)}"):
        Superoperator(weights, kraus)


@pytest.mark.parametrize(
    "weights,kraus",
    [([1, 1], [np.eye(2), np.eye(4)]), ([1], [[[1.0, 0.0], [0.0, 1.0, 0.0]]])],
    ids=["two-sizes", "ragged-rows"],
)
def test_superoperator_refuses_a_ragged_stack(weights, kraus):
    with pytest.raises(DimensionError, match="k weights.*ragged"):
        Superoperator(weights, kraus)


@pytest.mark.parametrize(
    "weights,kraus",
    [(np.array([1, -1]), np.stack([np.eye(2), PAULI_X]).real.astype(int)),
     (np.array([0.5 + 1j]), np.eye(4, dtype=np.float32)[None])],
    ids=["integers", "complex-weights-float32-stack"],
)
def test_superoperator_takes_integer_real_and_complex_stacks(weights, kraus):
    sup = Superoperator(weights, kraus)
    assert sup.compare(sup)[0] == 0.0 and sup.matrix.shape == (4**sup.n_qubits,) * 2


def test_compare_refuses_maps_on_different_qubit_counts():
    rng = np.random.default_rng(2)
    one, two = _random_superoperator(rng, 1), _random_superoperator(rng, 2)
    with pytest.raises(DimensionError, match="qubit count mismatch: 1 vs 2"):
        one.compare(two)
    with pytest.raises(DimensionError):
        two.max_abs_diff(one)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compare_of_a_map_with_itself_is_zero_and_with_its_double_is_not(n):
    sup = _random_superoperator(np.random.default_rng(n), n)
    assert sup.compare(sup)[0] <= 1e-15
    double = Superoperator(2 * sup.weights, sup.ops)
    peak = np.abs(sup.matrix).max()
    assert peak > 1e-3 and abs(double.max_abs_diff(sup) - peak) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compare_finds_the_largest_dense_difference(n):
    # complex weights too: the Schur multipliers of diagonal maps need them
    rng = np.random.default_rng(10 + n)
    a = _random_superoperator(rng, n)
    b = _random_superoperator(rng, n, m=2, weights=rng.normal(size=2) + 1j * rng.normal(size=2))
    delta = np.abs(a.matrix - b.matrix)
    value, row, col = a.compare(b)
    assert abs(value - delta.max()) <= 1e-12 and abs(delta[row, col] - delta.max()) <= 1e-12
    assert a.max_abs_diff(b) == value


def test_pauli_eigenbasis_table():
    # [KNOWN] measure-and-prepare eigenstate table: signs and states per Pauli
    basis = pauli_eigenbasis()
    plus_i = np.array([1.0, 1.0j]) / np.sqrt(2)
    minus_i = np.array([1.0, -1.0j]) / np.sqrt(2)
    assert basis[("I", 0)][0] == 1 and basis[("I", 1)][0] == 1
    assert basis[("X", 1)][0] == -1
    assert close_to(basis[("I", 0)][1], projector(plus_i))
    assert close_to(basis[("I", 1)][1], projector(minus_i))
    assert close_to(basis[("Z", 0)][1], gates.basis_state("0"))
    # eigen-relation P rho = sign * rho for each non-identity row
    for p, mat in (("X", X), ("Y", Y), ("Z", Z)):
        for mu in (0, 1):
            sign, proj = basis[(p, mu)]
            assert np.allclose(mat @ proj.mat, sign * proj.mat, atol=1e-12)


def test_embed_matrix():
    full = embed_matrix(X, [1], 2)
    assert np.allclose(full, np.kron(I2, X))
    full = embed_matrix(gates.cnot().mat, [2, 0], 3)
    # control on qubit 2, target on qubit 0: |xy1> -> |(1-x)y1>
    ket = np.zeros(8)
    ket[0b001] = 1.0
    out = full @ ket
    assert out[0b101] == pytest.approx(1.0)


def _parallel_spiders(n_edges: int) -> zx.ZXDiagram:
    d = zx.ZXDiagram()
    a, b = d.add_z(), d.add_z()
    for _ in range(n_edges):
        d.add_edge(a, b)
    return d


def _wide_hbox(n_legs: int) -> zx.ZXDiagram:
    d = zx.ZXDiagram()
    h, s = d.add_h(), d.add_z()
    for _ in range(n_legs):
        d.add_edge(h, s)
    return d


def test_parallel_spiders_fuse_to_a_scalar():
    # two phase-0 Z spiders on one shared index: sum over it of 1 * 1
    assert np.array_equal(zx.contract(_parallel_spiders(30)), [[2 + 0j]])


@pytest.mark.parametrize(
    "function,args",
    [
        (ptm_of_unitary, (gates.identity(7),)),
        (ptm_of_kraus, (np.ones(1), gates.identity(7).mat[None])),
        (cuts.mcz_decomposition, (4, 3)),
        (cuts.multi_z_rotation_decomposition, (4, 3, 0.5)),
        (cuts.controlled_sequence_decomposition, ([((0,), gates.hadamard())], 6)),
        (zx.contract, (zx.mcz_diagram(14),)),
        (zx.contract, (_wide_hbox(30),)),
        # a zero-stride view: the shape of a 14-qubit operator without its memory
        (Operator, (np.broadcast_to(np.complex128(0), (2**14, 2**14)),)),
        (gates.identity, (14,)),
        (gates.mcz, (14,)),
        (gates.mcp, (14, 0.3)),
        (Operator.diagonal, (np.broadcast_to(np.complex128(1), (2**14,)),)),
        (gates.multi_z_rotation, (14, 0.5)),
        (gates.basis_state, ("0" * 14,)),
        # a stand-in 13-qubit operator, whose controlled form has 14 qubits
        (gates.controlled, (SimpleNamespace(
            n_qubits=13, dim=2**13, mat=np.broadcast_to(np.complex128(0), (2**13, 2**13))),)),
        (channels.sequence_unitary, ([((0,), gates.hadamard())], 14)),
        (linalg.embed_matrix, (linalg.PAULI_X, [0], 14)),
    ],
    ids=["ptm_of_unitary", "ptm_of_kraus", "mcz", "multi_z", "controlled_sequence",
         "zx_open_legs", "zx_node_degree", "operator", "gate_identity", "gate_mcz",
         "gate_mcp", "operator_diagonal", "gate_multi_z", "basis_state", "gate_controlled",
         "sequence_unitary", "embed_matrix"],
)
def test_size_cap_refuses_before_allocating(function, args):
    # each request needs at least 2^28 entries (4 GiB); the cap must refuse it
    # before any array near that size exists
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="over the cap of 2\\^26"):
            function(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


_HUGE = 10**12


class _HugeBits(str):
    """The bitstring ``"0"`` reporting ``_HUGE`` characters."""

    def __len__(self):
        return _HUGE


_CUT = f"PTM of a cut on {_HUGE + 1} qubits needs 2^{4 * _HUGE + 4}"
_GATE = f"operator on {_HUGE} qubits needs 2^{2 * _HUGE}"


@pytest.mark.parametrize(
    "function,args,need",
    [
        (cuts.mcz_decomposition, (_HUGE, 1), _CUT),
        (cuts.multi_z_rotation_decomposition, (_HUGE, 1, 0.5), _CUT),
        (cuts.controlled_sequence_decomposition, ([((0,), gates.hadamard())], _HUGE), _CUT),
        (gates.identity, (_HUGE,), _GATE),
        (gates.mcp, (_HUGE, 0.3), _GATE),
        (gates.multi_z_rotation, (_HUGE, 0.5), _GATE),
        (gates.basis_state, (_HugeBits("0"),), _GATE),
    ],
    ids=["mcz", "multi_z", "controlled_sequence", "gate_identity", "gate_mcp",
         "gate_multi_z", "basis_state"],
)
def test_absurd_size_is_refused_before_its_entry_count_is_computed(function, args, need):
    # 4**n or 16**n at n = 10**12 is an integer of terabits: the exponent is
    # compared with the cap's instead, so the refusal comes at once
    with pytest.raises(SizeCapError) as info:
        function(*args)
    assert str(info.value) == f"{need} dense entries, over the cap of 2^26"


_HADAMARD = [((0,), gates.hadamard())]
_SPEC = sampling.ExperimentSpec(cuts.wire_cut_ncc(), (gates.basis_state("0"),),
                                (Operator(PAULI_X),), shots=100, seed=1)


@pytest.mark.parametrize(
    "bits,function,fits,over,message",
    [
        (6, gates.identity, (3,), (4,), "operator on 4 qubits needs 2^8"),
        (6, gates.multi_z_rotation, (3, 0.5), (4, 0.5), "operator on 4 qubits needs 2^8"),
        (6, gates.mcp, (3, 0.3), (4, 0.3), "operator on 4 qubits needs 2^8"),
        (6, gates.mcp_diagonal, (6, 0.3), (7, 0.3), "diagonal on 7 qubits needs 2^7"),
        (6, gates.controlled, (gates.identity(2),), (gates.identity(3),),
         "operator on 4 qubits needs 2^8"),
        (6, gates.basis_state, ("000",), ("0000",), "operator on 4 qubits needs 2^8"),
        (6, Operator, (np.zeros((8, 8)),), (np.zeros((16, 16)),),
         "operator of dimension 16 needs 2^8"),
        (6, Operator.diagonal, (np.ones(8),), (np.ones(16),),
         "operator of dimension 16 needs 2^8"),
        (6, lambda k: Superoperator(np.ones(k), diagonals=np.ones((k, 8))).ops, (1,), (2,),
         "Kraus stack of 2 operators on 3 qubits needs 2^7"),
        (6, kraus_transform, (np.ones(16), np.stack([PAULI_X] * 16)),
         (np.ones(17), np.stack([PAULI_X] * 17)), "Kraus gathers on 1 qubits needs 68"),
        (6, kraus_transform, (np.ones(1), np.ones((1, 8))), (np.ones(1), np.ones((1, 16))),
         "Pauli transfer array on 4 qubits needs 2^8"),
        (8, ptm_of_unitary, (gates.identity(2),), (gates.identity(3),),
         "superoperator on 3 qubits needs 2^12"),
        (8, ptm_of_kraus, (np.ones(1), np.eye(4)[None]), (np.ones(1), np.eye(8)[None]),
         "superoperator on 3 qubits needs 2^12"),
        (6, embed_matrix, (PAULI_X, [0], 3), (PAULI_X, [0], 4), "operator on 4 qubits needs 2^8"),
        (6, channels.sequence_unitary, (_HADAMARD, 3), (_HADAMARD, 4),
         "operator on 4 qubits needs 2^8"),
        (8, cuts.mcz_decomposition, (1, 1), (2, 1), "PTM of a cut on 3 qubits needs 2^12"),
        (8, cuts.controlled_sequence_decomposition, (_HADAMARD, 1), (_HADAMARD, 2),
         "PTM of a cut on 3 qubits needs 2^12"),
        (6, sampling.run, (_SPEC, 64), (_SPEC, 65), "shot batches needs 65"),
    ],
    ids=["identity", "multi_z", "mcp", "mcp_diagonal", "controlled", "basis_state",
         "operator", "operator_diagonal", "superoperator_ops", "kraus_gathers",
         "kraus_transfer_array", "ptm_of_unitary", "ptm_of_kraus", "embed_matrix",
         "sequence_unitary", "lifted_cut", "controlled_sequence", "shot_batches"],
)
def test_gate_caps_admit_their_stated_size_and_refuse_the_next(
        monkeypatch, bits, function, fits, over, message):
    # with the cap lowered to 2^bits entries, the first cap a request of this
    # kind meets exactly, each check_dense* call of the gates, linalg, the
    # builders and the sampler admits a request of exactly 2^bits entries
    # and refuses the next size up by name
    monkeypatch.setattr(linalg, "MAX_DENSE_ENTRIES", 2**bits)
    monkeypatch.setattr(linalg, "_CAP_BITS", bits)
    function(*fits)
    with pytest.raises(SizeCapError,
                       match=f"^{re.escape(message)} dense entries, over the cap of 2\\^{bits}$"):
        function(*over)


def test_check_dense_boundary():
    assert MAX_DENSE_ENTRIES == 2**26
    check_dense(MAX_DENSE_ENTRIES, "a 13-qubit operator")
    with pytest.raises(SizeCapError, match="a 14-qubit operator needs 2\\^28"):
        check_dense(4 * MAX_DENSE_ENTRIES, "a 14-qubit operator")



@pytest.mark.parametrize(
    "value,expected",
    [(10**400, 10**400), (3, 3), (3.0, 3), (np.int64(3), 3), (np.float64(3.0), 3)],
    ids=["beyond-float", "int", "float", "np-int", "np-float"],
)
def test_check_integer_takes_any_integral_value(value, expected):
    got = check_integer(value, "n", 0)
    assert got == expected and type(got) is int


@pytest.mark.parametrize(
    "value,hi,message",
    [
        (10**400, 26, f"n must be an integer in 1..26, got {10**400}"),
        (-(10**400), None, f"n must be an integer >= 1, got {-(10**400)}"),
        (1e300, 26, "n must be an integer in 1..26, got 1e+300"),
        (float("inf"), None, "n must be an integer >= 1, got inf"),
        (float("-inf"), None, "n must be an integer >= 1, got -inf"),
        (float("nan"), None, "n must be an integer >= 1, got nan"),
        (1.5, None, "n must be an integer >= 1, got 1.5"),
        (True, None, "n must be an integer >= 1, got True"),
        ("3", None, "n must be an integer >= 1, got '3'"),
        (0, 26, "n must be an integer in 1..26, got 0"),
        (27, 26, "n must be an integer in 1..26, got 27"),
    ],
)
def test_check_integer_refuses_with_one_message(value, hi, message):
    # a refusal is always a DimensionError, never an OverflowError or ValueError
    with pytest.raises(DimensionError) as info:
        check_integer(value, "n", 1, hi)
    assert str(info.value) == message
