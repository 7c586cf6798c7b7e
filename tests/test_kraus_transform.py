"""The one signed-Kraus kernel against the dense PTM oracle.

Stacks are diagonal on a chosen qubit set D, so the kernel splits D off; the
maximum of ``|A| / d`` must equal the largest dense PTM entry, ``worst_entry``
must land on a maximal entry, and ``ptm_of_kraus`` must rebuild the dense PTM.
The kernel streams ``A`` in slabs along ``x'_T``: joined, they must be the
whole array, and the largest entry found slab by slab must be the one
``np.argmax`` finds in the whole array, ties included.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qcut import cuts, gates, linalg
from qcut.channels import UnitaryChannel
from qcut.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Operator,
    SizeCapError,
    abs_argmax,
    diagonal_qubits,
    kraus_transform,
    ptm_of_kraus,
    transform_entry,
)
from oracles import haar_unitary, ptm_of_map

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def random_stack(rng, n: int, diag, m: int = 3) -> tuple:
    """``m`` random complex operators on ``n`` qubits, exactly diagonal on the
    qubits ``diag``, each of unit Frobenius norm, with signed weights."""
    d = 2**n
    kraus = rng.normal(size=(m, d, d)) + 1j * rng.normal(size=(m, d, d))
    idx = np.arange(d)
    for q in diag:
        kraus[:, (idx[:, None] ^ idx) >> (n - 1 - q) & 1 == 1] = 0
    kraus /= np.linalg.norm(kraus, axis=(1, 2), keepdims=True)
    weights = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.25, 1.5, size=m)
    return weights, kraus


def dense_ptm(weights, kraus) -> np.ndarray:
    n = kraus.shape[-1].bit_length() - 1
    return ptm_of_map(
        lambda mats: sum(w * k @ mats @ k.conj().T for w, k in zip(weights, kraus)), n
    )


def whole_transform(weights, kraus) -> tuple:
    """``(A, D)``: the kernel's slabs joined along ``x'_T``, each checked to
    start where the one before it ended."""
    slabs, diag = kraus_transform(weights, kraus)
    parts = []
    for start, slab in slabs:
        assert start == sum(part.shape[4] for part in parts)
        parts.append(slab)
    return np.concatenate(parts, axis=4), diag


def whole_argmax(a) -> tuple:
    """Index of the entry ``np.argmax`` finds in the whole ``|A|``."""
    return tuple(int(i) for i in np.unravel_index(np.argmax(np.abs(a)), a.shape))


def check_against_oracle(weights, kraus, diag):
    d = kraus.shape[-1]
    n = d.bit_length() - 1
    dense = dense_ptm(weights, kraus)
    a, found = whole_transform(weights, kraus)
    assert found == tuple(diag)
    d_d = 2 ** len(diag)
    assert a.shape == (d_d, d_d) + (d // d_d,) * 4
    peak, index = abs_argmax(kraus_transform(weights, kraus)[0])
    assert index == whole_argmax(a) and peak == np.abs(a[index])
    assert abs(peak / d - np.abs(dense).max()) <= 1e-12
    row, col = transform_entry(index, found, n)
    assert abs(abs(dense[row, col]) - np.abs(dense).max()) <= 1e-12
    assert np.max(np.abs(ptm_of_kraus(weights, kraus) - dense)) <= 1e-12


def _diagonal_sets():
    for n in range(1, 5):
        sets = {(), (0,), (n // 2,), (n - 1,), tuple(range(n))}
        for diag in sorted(sets):
            yield pytest.param(n, diag, id=f"n{n}-D{''.join(map(str, diag)) or '_'}")


@pytest.mark.parametrize("negate", [False, True], ids=["built", "negated"])
@pytest.mark.parametrize("n,diag", list(_diagonal_sets()))
def test_kernel_matches_dense_oracle(n, diag, negate):
    rng = np.random.default_rng(100 * n + sum(1 << q for q in diag))
    weights, kraus = random_stack(rng, n, diag)
    if negate:
        weights[1] = -weights[1]
    check_against_oracle(weights, kraus, diag)


@pytest.mark.parametrize("n,q", [(1, 0), (3, 0), (3, 1), (3, 2)])
def test_tiny_entry_keeps_a_qubit_off_the_diagonal_set(n, q):
    # one 1e-18 entry off qubit q's diagonal, in one operator of the stack
    rng = np.random.default_rng(n + q)
    weights, kraus = random_stack(rng, n, range(n))
    kraus[1, 0, 1 << (n - 1 - q)] = 1e-18
    assert diagonal_qubits(kraus) == tuple(p for p in range(n) if p != q)
    check_against_oracle(weights, kraus, diagonal_qubits(kraus))


@pytest.mark.parametrize("n,diag", [(7, ()), (8, (0,))], ids=["n7-D_", "n8-D0"])
def test_kernel_cap_counts_its_own_arrays(n, diag):
    # d_D^2 d_T^4 output entries: 2^28 and 2^30, over the cap of 2^26
    weights, kraus = random_stack(np.random.default_rng(n), n, diag, m=1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="over the cap of 2\\^26"):
            kraus_transform(weights, kraus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_kraus_gather_check_refuses_on_its_own():
    # n = 8, qubit 0 diagonal: m d_D d_T^2 = 2^12 * 2 * 2^14 = 2^27 gathered
    # entries, over the cap, checked before the 2^30-entry array; a zero-stride
    # view gives the 4096 operators without their memory
    op = np.kron(np.diag([1, -1]), np.ones((128, 128))).astype(complex)
    kraus = np.broadcast_to(op, (4096, 256, 256))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="Kraus gathers on 8 qubits needs 2\\^27 "):
            kraus_transform(np.ones(4096), kraus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**22


# bytes per x'_T row that kraus_transform documents: its bra gather
# (m d_D d_T^2 complex entries), two transform arrays (d_D^2 d_T^3 complex
# entries each) and its index table (d_D^2 d_T^2 int64 entries)
@pytest.mark.parametrize(
    "n,diag,m,row_bytes",
    [
        (4, (), 2, 141312),  # 16 (2 * 16^2 + 2 * 16^3) + 8 * 16^2
        (4, (1,), 3, 73728),  # 16 (3 * 2 * 8^2 + 2 * 2^2 * 8^3) + 8 * 2^2 * 8^2
        (5, (0, 3), 1, 274432),  # 16 (4 * 8^2 + 2 * 4^2 * 8^3) + 8 * 4^2 * 8^2
    ],
    ids=["n4-D_-m2", "n4-D1-m3", "n5-D03-m1"],
)
@pytest.mark.parametrize("budget_rows,short,rows", [(4, 0, 4), (4, 1, 2), (2, 0, 2), (1, 1, 1)])
def test_slab_rows_follow_the_documented_row_bytes(n, diag, m, row_bytes, budget_rows, short,
                                                   rows):
    # a budget of exactly 4 rows gives 4-row slabs and one byte less gives 2,
    # so a row size off by one byte either way fails; below one row gives one
    weights, kraus = random_stack(np.random.default_rng(n), n, diag, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_SCRATCH_BYTES", budget_rows * row_bytes - short)
        slabs, found = kraus_transform(weights, kraus)
        shapes = [a.shape for _, a in slabs]
    assert found == diag
    assert shapes == [shapes[0]] * (2 ** (n - len(diag)) // rows) and shapes[0][4] == rows


def test_dense_ptm_holds_the_ptm_and_one_slab():
    # n = 5, dense: the whole array A and the PTM are 16 MiB each; the slabs
    # stream A through one 1 MiB budget into the PTM
    u = haar_unitary(np.random.default_rng(5), 32).mat[None]
    tracemalloc.start()
    try:
        ptm_of_kraus(np.ones(1), u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20 + 4 * 2**20


def test_all_diagonal_stack_runs_far_past_the_dense_ptm_cap():
    # 9 qubits: a dense PTM would need 2^36 entries, the kernel's array 2^18
    weights, kraus = random_stack(np.random.default_rng(9), 9, range(9), m=2)
    a, diag = whole_transform(weights, kraus)
    assert diag == tuple(range(9)) and a.shape == (512, 512, 1, 1, 1, 1)
    diags = np.diagonal(kraus, axis1=1, axis2=2)
    s = (diags.T * weights) @ diags.conj()
    # x_D = 0 is the transform of the diagonal of S: its u = 0 entry is the trace
    assert abs(a[0, 0, 0, 0, 0, 0] - np.trace(s)) <= 1e-12 * np.abs(s).sum()


@hypothesis.settings(max_examples=40, deadline=None, database=None)
@hypothesis.given(
    n=st.integers(1, 4), mask=st.integers(0, 15), m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_stacks_match_dense_oracle(n, mask, m, seed):
    diag = tuple(q for q in range(n) if mask >> q & 1)
    weights, kraus = random_stack(np.random.default_rng(seed), n, diag, m)
    check_against_oracle(weights, kraus, diag)


@hypothesis.settings(max_examples=12, deadline=None, database=None)
@hypothesis.given(
    diag=st.sampled_from([(), (0,), (2,), (4,)]), m=st.integers(1, 3),
    budget=st.one_of(st.just(linalg._SCRATCH_BYTES), st.integers(1, 2**23)),
    seed=st.integers(0, 2**32 - 1),
)
def test_streamed_slabs_match_dense_oracle(diag, m, budget, seed):
    # n = 5 spans 16 or 32 one-row slabs at the default budget; a drawn
    # budget gives slabs of several rows, a power of two of them, all alike
    weights, kraus = random_stack(np.random.default_rng(seed), 5, diag, m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_SCRATCH_BYTES", budget)
        check_against_oracle(weights, kraus, diag)
        shapes = {a.shape for _, a in kraus_transform(weights, kraus)[0]}
    (shape,) = shapes
    assert shape[4] & (shape[4] - 1) == 0


def test_index_tables_stay_one_per_power_of_two_rows():
    # every budget the drawn-budget test can draw: the n = 5 kernels share
    # one table per (d_T, rows per slab), at most log2(d_T) + 1 per d_T
    linalg._xor_gather.cache_clear()
    budgets = sorted({int(1.1**i) for i in range(175)} | {linalg._SCRATCH_BYTES, 2**23})
    for diag in [(), (0,), (2,), (4,)]:
        for m in (1, 3):
            weights, kraus = random_stack(np.random.default_rng(m), 5, diag, m)
            for budget in budgets:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(linalg, "_SCRATCH_BYTES", budget)
                    kraus_transform(weights, kraus)  # builds its table before returning
    # d_T = 32 (D empty) and d_T = 16 (one diagonal qubit): 6 + 5 powers of two
    assert 0 < linalg._xor_gather.cache_info().currsize <= 6 + 5


def test_kernel_setup_holds_no_ket_gather():
    # a 4-target controlled sequence and its target: 11 operators, d_D = 2,
    # d_T = 16; a gather of K_k^(t)[c, b ^ x] over every (c, b) would be
    # 11 * 2 * 16^3 entries, 1.4 MiB, and the set-up holds far less
    rng = np.random.default_rng(4)
    deco = cuts.controlled_sequence_decomposition(
        [((t,), haar_unitary(rng, 2)) for t in range(4)], 4)
    rebuilt = deco.reconstruct()
    weights, ops = rebuilt.weights, rebuilt.ops
    weights = np.append(weights, -1.0)
    kraus = np.concatenate([ops, deco.target_unitary.mat[None]])
    assert kraus.shape == (11, 32, 32) and diagonal_qubits(kraus) == (0,)
    assert 16 * 11 * 2 * 16**3 > 2**20
    tracemalloc.start()
    try:
        slabs, _ = kraus_transform(weights, kraus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19
    assert sum(1 for _ in slabs) == 16


def test_slab_argmax_takes_the_first_maximum_in_c_order():
    # x' = 0 holds a maximum at z' = 1; x' = 1 holds an earlier one, at z' = 0
    a = np.zeros((1, 1, 2, 1, 3, 1))
    a[0, 0, 1, 0, 0, 0] = a[0, 0, 0, 0, 1, 0] = a[0, 0, 1, 0, 2, 0] = -2.0
    for step in (1, 2, 3):
        slabs = [(s, a[..., s:s + step, :]) for s in range(0, 3, step)]
        assert abs_argmax(slabs) == (2.0, (0, 0, 0, 0, 1, 0))
    a[0, 0, 1, 0, 2, 0] = a[0, 0, 1, 0, 1, 0] = np.nan  # the first NaN wins
    slabs = [(s, a[..., s:s + 1, :]) for s in range(3)]
    peak, index = abs_argmax(slabs)
    assert np.isnan(peak) and index == whole_argmax(a) == (0, 0, 1, 0, 1, 0)


@pytest.mark.parametrize("paulis,diag", [((PAULI_Y,) * 5, ()),
                                         ((PAULI_X, PAULI_Y, PAULI_Z, PAULI_X, PAULI_Y), (2,))],
                         ids=["YYYYY", "XYZXY"])
def test_verify_breaks_exact_ties_as_whole_array_argmax(paulis, diag):
    # |A| of a Pauli gate against the identity is 0 or 2d on hundreds of
    # entries; the first slab to hold one is not the slab of the first in C order
    deco = cuts.Decomposition("pauli", (5,), [
        cuts.DecompositionTerm(1.0, [UnitaryChannel(Operator(reduce(np.kron, paulis)))], "P")
    ], gates.identity(5))
    rebuilt = deco.reconstruct()
    weights, ops = rebuilt.weights, rebuilt.ops
    a, found = whole_transform(np.append(weights, -1.0), np.concatenate([ops, np.eye(32)[None]]))
    assert found == diag
    index = whole_argmax(a)
    slabs = kraus_transform(np.append(weights, -1.0), np.concatenate([ops, np.eye(32)[None]]))[0]
    first_slab = next(start for start, slab in slabs if np.abs(slab).max() == np.abs(a).max())
    assert first_slab < index[4]
    row, col = transform_entry(index, diag, 5)
    report = deco.verify()
    assert report["max_abs_deviation"] == 2.0
    assert report["worst_entry"] == [linalg.pauli_label(row, 5), linalg.pauli_label(col, 5)]


@st.composite
def controlled_ops(draw):
    n_targets = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, min(2, n_targets)))
        targets = tuple(draw(st.permutations(range(n_targets)))[:size])
        ops.append((targets, haar_unitary(rng, 2**size)))
    return ops, n_targets


@hypothesis.settings(max_examples=25, deadline=None, database=None)
@hypothesis.given(case=controlled_ops())
def test_random_controlled_sequences_verify(case):
    ops, n_targets = case
    deco = cuts.controlled_sequence_decomposition(ops, n_targets)
    report = deco.verify()
    assert report["passed"], report
    assert abs(deco.one_norm() - 3.0) <= 1e-12
    # block-diagonal on the shared control
    assert diagonal_qubits(deco.reconstruct().ops)[:1] == (0,)


def test_sequence_of_a_controlled_gate_on_every_target_has_control_only():
    ops = [((t,), gates.hadamard()) for t in range(3)]
    deco = cuts.controlled_sequence_decomposition(ops, 3)
    assert diagonal_qubits(deco.reconstruct().ops) == (0,)
