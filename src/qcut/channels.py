"""Physical and signed (quasiprobability) maps on small registers.

Every map is one :class:`GeneralizedMap`: a tuple of ``branches``, each a
sign ``a_b = +-1`` with a stack of Kraus operators ``K_bk``, acting as

    rho -> sum_b a_b sum_k K_bk rho K_bk^dag,   sum_b sum_k K_bk^dag K_bk = I.

Each branch is a completely positive map and the branch probabilities
``Tr(sum_k K_bk rho K_bk^dag)`` sum to one, so a map is an instrument whose
outcomes carry signs.  Maps with any ``-1`` sign are not physical channels
but can still be simulated without extra sampling overhead by tracking the
signs of measured outcomes; the sampler does exactly that.  The action, the
signs and the PTM are all derived from the branches, which come from:

* :class:`UnitaryChannel` -- ``rho -> U rho U^dag``: one branch ``[U]``;
* the rank-one measure-and-prepare maps (:func:`pauli_measure_prepare`,
  :func:`grouped_pauli_map`, :func:`signed_z_map`) -- measure ``|e><e|`` and
  prepare ``|s>``: one branch ``[|s><e|]`` per outcome;
* :func:`ancilla_map` -- every one-ancilla map: a ``|+>`` ancilla selects
  the system unitary ``U_0`` or ``U_1``, is measured in a Pauli basis
  ``{|m_s>}``, and an optional outcome-dependent feedback unitary ``F_s``
  follows.  Outcome ``s`` is the branch with the one Kraus operator
  ``F_s (<m_s|0> U_0 + <m_s|1> U_1) / sqrt(2)``.

The rank-one maps take no caller input: each is a process-wide read-only
constant, built and checked once.  The other factories build a new map per call.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from . import gates
from .linalg import (
    ATOL_STRUCT,
    DimensionError,
    KET_0,
    KET_1,
    PAULI_EIGENKETS,
    Operator,
    Superoperator,
    _is_power_of_two,
    check_dense_bits,
    check_unitary,
    embed_matrix,
    ptm_of_kraus,
)

#: Pauli -> (+1 eigenket, -1 eigenket)
MEASUREMENT_KETS = {
    p: (PAULI_EIGENKETS[(p, 0)][1], PAULI_EIGENKETS[(p, 1)][1]) for p in "XYZ"
}


def _check_sign(a) -> int:
    if a not in (1, -1):
        raise DimensionError(f"signs must be +1 or -1, got {a!r}")
    return int(a)


def check_density(rho: Operator, what: str):
    """Raise unless ``rho`` has unit trace and is Hermitian positive semidefinite."""
    if not abs(rho.trace() - 1) <= ATOL_STRUCT:
        raise DimensionError(f"{what} must have unit trace")
    herm_dev = np.abs(rho.mat - rho.mat.conj().T).max()
    if not (herm_dev <= ATOL_STRUCT and np.linalg.eigvalsh(rho.mat).min() >= -ATOL_STRUCT):
        raise DimensionError(f"{what} must be Hermitian positive semidefinite")


class GeneralizedMap:
    """A signed sum of completely positive maps, stored as its branches.

    ``branches`` is a tuple of ``(sign, kraus)`` pairs: ``sign`` is ``+1`` or
    ``-1`` and ``kraus`` a read-only ``(k, d, d)`` stack of Kraus operators,
    a view of the rows of :meth:`kraus`'s one stack.
    Construction enforces ``sum_b sum_k K^dag K = I``.
    """

    def __init__(self, branches: Sequence[tuple]):
        if not branches:
            raise DimensionError("a map needs at least one branch")
        signs = [_check_sign(a) for a, _ in branches]
        stacks = [np.asarray(kraus, dtype=complex) for _, kraus in branches]
        d = stacks[0].shape[-1]
        for kraus in stacks:
            if kraus.ndim != 3 or kraus.shape[1:] != (d, d) or not _is_power_of_two(d):
                raise DimensionError("Kraus operators must share one register of qubits")
        # one read-only stack of every operator; each branch is a view of its rows
        sizes = [len(kraus) for kraus in stacks]
        weights, ops = np.repeat(np.array(signs, float), sizes), np.concatenate(stacks)
        for array in (weights, ops):
            array.setflags(write=False)
        self._kraus = weights, ops
        ends = accumulate(sizes)
        self.branches = tuple((a, ops[end - k:end]) for a, k, end in zip(signs, sizes, ends))
        # rows of the stacked operators: stacked^dag stacked = sum_b sum_k K^dag K
        stacked = ops.reshape(-1, d)
        dev = np.abs(stacked.conj().T @ stacked - np.eye(d)).max()
        if not dev <= ATOL_STRUCT:
            raise DimensionError(
                f"Kraus operators must satisfy sum K^dag K = I, deviation {dev:.3e}"
            )
        self.n_qubits = d.bit_length() - 1

    def apply_batch(self, mats: np.ndarray) -> np.ndarray:
        """``sum_b a_b sum_k K A K^dag`` for a batch ``A`` of shape (B, d, d)."""
        out = np.zeros(mats.shape, dtype=complex)
        for sign, kraus in self.branches:
            accumulate = np.add if sign > 0 else np.subtract
            for k in kraus:
                accumulate(out, k @ mats @ k.conj().T, out=out)
        return out

    @property
    def signs(self) -> tuple:
        return tuple(a for a, _ in self.branches)

    def kraus(self) -> tuple:
        """``(weights, ops)``: every Kraus operator of every branch in one
        read-only ``(k, d, d)`` stack, weighted by its branch's sign; built
        once, at construction."""
        return self._kraus

    def to_superoperator(self) -> Superoperator:
        return ptm_of_kraus(*self.kraus())

    def is_cptp(self) -> bool:
        """True iff every sign is +1 (completeness is enforced at construction)."""
        return all(a == 1 for a in self.signs)

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={self.n_qubits}, branches={len(self.branches)}, "
            f"signs={self.signs})"
        )


class UnitaryChannel(GeneralizedMap):
    """``rho -> U rho U^dag``: one branch holding ``U``, so the completeness
    check is the unitarity check."""

    def __init__(self, u: Operator):
        super().__init__([(1, u.mat[None])])


def ancilla_map(
    u0: Operator,
    u1: Operator,
    basis: str,
    signs: tuple,
    feedback: Optional[tuple] = None,
) -> GeneralizedMap:
    """A ``|+>`` ancilla selects ``u0`` or ``u1`` on the system and is then
    measured in Pauli ``basis``; outcome ``s`` is the branch ``signs[s]`` with
    the one Kraus operator ``F_s (<m_s|0> u0 + <m_s|1> u1) / sqrt(2)``.

    ``feedback``, when given, holds one system unitary ``F_s`` per outcome,
    applied after the ancilla measurement (classically controlled feedback).
    """
    if basis not in MEASUREMENT_KETS:
        raise DimensionError(f"measure basis must be X, Y or Z, got {basis!r}")
    if u0.dim != u1.dim:
        raise DimensionError("u0 and u1 must act on one register")
    check_unitary(u0.mat, "u0")
    check_unitary(u1.mat, "u1")
    branches = []
    for s, (sign, m) in enumerate(zip(signs, MEASUREMENT_KETS[basis], strict=True)):
        k = (np.conj(m[0]) * u0.mat + np.conj(m[1]) * u1.mat) / np.sqrt(2)
        branches.append((sign, [k if feedback is None else feedback[s].mat @ k]))
    return GeneralizedMap(branches)


# ---------------------------------------------------------------------------
# Named maps
# ---------------------------------------------------------------------------


def _rank_one_map(terms: Sequence[tuple]) -> GeneralizedMap:
    """Measure ``|e><e|`` and prepare ``|s>``: term ``(a, e, s)`` of kets is
    the branch ``a`` with the one Kraus operator ``|s><e|``."""
    return GeneralizedMap([(a, [np.outer(s, e.conj())]) for a, e, s in terms])


@cache
def pauli_measure_prepare(p: str, mu: int) -> GeneralizedMap:
    """Measure in the eigenbasis of Pauli ``p`` and always prepare eigenstate
    ``mu``, with the eigenvalue signs attached to the measurement branches."""
    if (p, mu) not in PAULI_EIGENKETS:
        raise DimensionError(f"no eigenbasis entry for ({p!r}, {mu!r})")
    _, prep = PAULI_EIGENKETS[(p, mu)]
    return _rank_one_map([(*PAULI_EIGENKETS[(p, nu)], prep) for nu in (0, 1)])


@cache
def grouped_pauli_map(p: str) -> GeneralizedMap:
    """Measure Pauli ``p`` and re-prepare the observed eigenstate (CPTP)."""
    if p not in MEASUREMENT_KETS:
        raise DimensionError(f"grouped map needs P in X, Y, Z, got {p!r}")
    return _rank_one_map([(1, ket, ket) for ket in MEASUREMENT_KETS[p]])


@cache
def signed_z_map() -> GeneralizedMap:
    """Measure Z, re-prepare the observed state, and flip the sign on outcome 1."""
    return _rank_one_map([(1, KET_0, KET_0), (-1, KET_1, KET_1)])


def rzz_my_map(theta: float) -> GeneralizedMap:
    """ZZ-rotation against a ``|+>`` ancilla followed by a Y-basis ancilla
    measurement with signs ``(+1, -1)``."""
    return ancilla_map(gates.rz(theta), gates.rz(-theta), "Y", (1, -1))


# ---------------------------------------------------------------------------
# Controlled-unitary sequences sharing one control qubit
# ---------------------------------------------------------------------------


def _check_ops(ops: Sequence[tuple], n_targets: int):
    if not ops:
        raise DimensionError("need at least one controlled operation")
    for targets, u in ops:
        targets = tuple(targets)
        if len(set(targets)) != len(targets):
            raise DimensionError(f"duplicate target qubits in {targets}")
        for t in targets:
            if not 0 <= t < n_targets:
                raise DimensionError(
                    f"target {t} out of range for {n_targets} target qubits"
                )
        if u.n_qubits != len(targets):
            raise DimensionError(
                f"unitary on {u.n_qubits} qubits does not match targets {targets}"
            )
        check_unitary(u.mat, "controlled-sequence entry")


def sequence_unitary(ops: Sequence[tuple], n_targets: int) -> Operator:
    """Product ``V`` of the sequence's unitaries on the target register,
    applied in list order; the sequence is validated here, once."""
    check_dense_bits(2 * n_targets, f"operator on {n_targets} qubits")
    ops = tuple(ops)  # read twice: validated, then multiplied
    _check_ops(ops, n_targets)
    full = np.eye(2**n_targets, dtype=complex)
    for targets, u in ops:
        full = embed_matrix(u.mat, targets, n_targets) @ full
    return Operator(full)


def e_v_mx_map(v: Operator) -> GeneralizedMap:
    """Run ``V`` with a ``|+>`` ancilla as control and measure it in X,
    signs ``(+1, -1)``.  Acts on the target register."""
    return ancilla_map(gates.identity(v.n_qubits), v, "X", (1, -1))


def e_v_mz_map(v: Operator) -> GeneralizedMap:
    """As :func:`e_v_mx_map` but with a Z-basis ancilla measurement."""
    return ancilla_map(gates.identity(v.n_qubits), v, "Z", (1, -1))


def e_rzv_map(v: Operator) -> GeneralizedMap:
    """CPTP map on (control, targets): ancilla-controlled ``V``, Y-basis
    ancilla measurement, and outcome-dependent ``R_Z(+-pi/2)`` feedback on the
    control qubit."""
    feedback = tuple(
        Operator(np.kron(gates.rz(sign * np.pi / 2).mat, np.eye(v.dim))) for sign in (1, -1)
    )
    return ancilla_map(
        gates.identity(1 + v.n_qubits), Operator(np.kron(np.eye(2), v.mat)), "Y", (1, 1),
        feedback,
    )
