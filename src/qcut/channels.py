"""Physical and signed (quasiprobability) maps on small registers.

Every map is one :class:`GeneralizedMap`: a :class:`~qcut.linalg.Superoperator`
whose read-only stack ``ops`` of Kraus operators ``K_k`` has one sign
``a_k = +-1`` per operator as its ``weights``, acting as

    rho -> sum_k a_k K_k rho K_k^dag,   sum_k K_k^dag K_k = I.

Each operator is one measurement outcome, occurring with probability
``Tr(K_k rho K_k^dag)``, so a map is an instrument whose outcomes carry
signs.  Maps with any ``-1`` sign are not physical channels but can still be
simulated without extra sampling overhead by tracking the signs of measured
outcomes; the sampler does exactly that.  The action, the signs and the PTM
are all derived from the one stack and its signs, which come from:

* :class:`UnitaryChannel` -- ``rho -> U rho U^dag``: the one operator ``U``;
* the rank-one measure-and-prepare maps (:func:`pauli_measure_prepare`,
  :func:`grouped_pauli_map`, :func:`signed_z_map`) -- measure ``|e><e|`` and
  prepare ``|s>``: one operator ``|s><e|`` per outcome;
* :func:`ancilla_map` -- every one-ancilla map: a ``|+>`` ancilla selects
  the system unitary ``U_0`` or ``U_1``, is measured in a Pauli basis
  ``{|m_s>}``, and an optional outcome-dependent feedback unitary ``F_s``
  follows.  Outcome ``s`` is the operator
  ``F_s (<m_s|0> U_0 + <m_s|1> U_1) / sqrt(2)``.

The rank-one maps take no caller input: each is a process-wide read-only
constant, built and checked once.  The other factories build a new map per call.
"""

from __future__ import annotations

from functools import cache
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
    check_dense_bits,
    check_unit_sum,
    check_unitary,
    embed_matrix,
    read_only,
)

#: Pauli -> (+1 eigenket, -1 eigenket)
MEASUREMENT_KETS = {
    p: (PAULI_EIGENKETS[(p, 0)][1], PAULI_EIGENKETS[(p, 1)][1]) for p in "XYZ"
}


def check_density(rho: Operator, what: str):
    """Raise unless ``rho`` has unit trace and is Hermitian positive semidefinite."""
    if not abs(rho.trace() - 1) <= ATOL_STRUCT:
        raise DimensionError(f"{what} must have unit trace")
    herm_dev = np.abs(rho.mat - rho.mat.conj().T).max()
    if not (herm_dev <= ATOL_STRUCT and np.linalg.eigvalsh(rho.mat).min() >= -ATOL_STRUCT):
        raise DimensionError(f"{what} must be Hermitian positive semidefinite")


class GeneralizedMap(Superoperator):
    """A signed sum of completely positive maps, one per Kraus operator.

    ``signs`` holds one ``+1`` or ``-1`` per row of the ``(k, d, d)`` stack
    ``ops`` or its ``(k, d)`` diagonals; the map is the
    :class:`~qcut.linalg.Superoperator` ``rho -> sum_k a_k K_k rho K_k^dag``
    with the signs as its weights.  :class:`~qcut.linalg.Superoperator`
    checks the stack's shape, count and type; construction then copies the
    stack as complex, checks the signs and enforces ``sum_k K_k^dag K_k = I``
    (``sum_k |d_k|^2 = 1`` on diagonals)."""

    def __init__(self, signs: Sequence, ops=None, *, diagonals=None):
        super().__init__(signs, ops, diagonals=diagonals)
        if not ((self.weights == 1) | (self.weights == -1)).all():
            raise DimensionError(f"signs must be +1 or -1, got {tuple(self.weights.tolist())}")
        form = "ops" if diagonals is None else "diagonals"
        rows = read_only(np.array(getattr(self, form), dtype=complex))
        vars(self).update({"weights": read_only(self.weights.real.astype(float)), form: rows})
        what = "Kraus stack (sum K^dag K = I)"
        if form == "diagonals":
            check_unit_sum(rows, what)
        else:  # rows of the stacked operators: stacked^dag stacked = sum_k K^dag K
            check_unitary(rows.reshape(-1, rows.shape[-1]), what)

    @property
    def signs(self) -> tuple:
        return tuple(int(a) for a in self.weights)

    def to_superoperator(self) -> Superoperator:
        return self

    def is_cptp(self) -> bool:
        """True iff every sign is +1 (completeness is enforced at construction)."""
        return bool((self.weights == 1).all())

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n_qubits}, signs={self.signs})"


class UnitaryChannel(GeneralizedMap):
    """``rho -> U rho U^dag``: the one operator ``U`` with sign ``+1``, so the
    completeness check is the unitarity check."""

    def __init__(self, u: Operator):
        super().__init__([1], u.mat[None])


def ancilla_map(
    u0: Operator,
    u1: Operator,
    basis: str,
    signs: tuple,
    feedback: Optional[tuple] = None,
) -> GeneralizedMap:
    """A ``|+>`` ancilla selects ``u0`` or ``u1`` on the system and is then
    measured in Pauli ``basis``; outcome ``s`` is the Kraus operator
    ``F_s (<m_s|0> u0 + <m_s|1> u1) / sqrt(2)`` with sign ``signs[s]``.

    ``feedback``, when given, holds one system unitary ``F_s`` per outcome,
    applied after the ancilla measurement (classically controlled feedback).
    """
    if basis not in MEASUREMENT_KETS:
        raise DimensionError(f"measure basis must be X, Y or Z, got {basis!r}")
    if u0.dim != u1.dim:
        raise DimensionError("u0 and u1 must act on one register")
    check_unitary(u0.mat, "u0")
    check_unitary(u1.mat, "u1")
    ops = []
    for s, m in enumerate(MEASUREMENT_KETS[basis]):
        k = (np.conj(m[0]) * u0.mat + np.conj(m[1]) * u1.mat) / np.sqrt(2)
        ops.append(k if feedback is None else feedback[s].mat @ k)
    return GeneralizedMap(signs, ops)


# ---------------------------------------------------------------------------
# Named maps
# ---------------------------------------------------------------------------


def _rank_one_map(terms: Sequence[tuple]) -> GeneralizedMap:
    """Measure ``|e><e|`` and prepare ``|s>``: term ``(a, e, s)`` of kets is
    the Kraus operator ``|s><e|`` with sign ``a``."""
    return GeneralizedMap([a for a, _, _ in terms], [np.outer(s, e.conj()) for _, e, s in terms])


@cache
def pauli_measure_prepare(p: str, mu: int) -> GeneralizedMap:
    """Measure in the eigenbasis of Pauli ``p`` and always prepare eigenstate
    ``mu``, with the eigenvalue signs attached to the measurement outcomes."""
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
                raise DimensionError(f"target {t} out of range for {n_targets} target qubits")
        if u.n_qubits != len(targets):
            raise DimensionError(
                f"unitary on {u.n_qubits} qubits does not match targets {targets}")
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
