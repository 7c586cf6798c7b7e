"""Physical and signed (quasiprobability) maps on small registers.

A :class:`GeneralizedMap` is one of four variants:

* :class:`UnitaryChannel` -- ``rho -> U rho U^dag``;
* :class:`SignedMeasurePrepare` -- ``rho -> sum_v a_v Tr(E_v rho) rho_v`` with
  ``a_v = +-1`` and POVM elements ``E_v``;
* :class:`SignedKraus` -- ``rho -> sum_v a_v K_v rho K_v^dag`` with
  ``sum_v K_v^dag K_v = I``;
* :class:`AncillaCircuit` -- attach a one-qubit ancilla, apply a joint
  unitary, measure the ancilla in a Pauli basis, optionally apply an
  outcome-dependent feedback unitary, and weight the two outcome branches
  with ``+-1`` signs.

Maps with any ``-1`` sign are not physical channels but can still be
simulated without extra sampling overhead by tracking the signs of measured
outcomes; the sampler does exactly that.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import gates
from .linalg import (
    ATOL_STRUCT,
    DimensionError,
    KET_0,
    KET_1,
    KET_MINUS,
    KET_MINUS_I,
    KET_PLUS,
    KET_PLUS_I,
    Operator,
    Superoperator,
    embed_matrix,
    pauli_eigenbasis,
    projector,
    ptm_of_map,
    ptm_of_unitary,
    vectorize,
)

#: Choi positivity tolerance; looser than equality checks because eigenvalue
#: computation amplifies rounding.
CHOI_ATOL = 1e-9

MEASUREMENT_KETS = {
    "X": (KET_PLUS, KET_MINUS),
    "Y": (KET_PLUS_I, KET_MINUS_I),
    "Z": (KET_0, KET_1),
}


def _check_sign(a) -> int:
    if a not in (1, -1):
        raise DimensionError(f"signs must be +1 or -1, got {a!r}")
    return int(a)


def _check_density(rho: Operator, what: str):
    if abs(rho.trace() - 1) > ATOL_STRUCT:
        raise DimensionError(f"{what} must have unit trace")
    eigs = np.linalg.eigvalsh(rho.mat)
    if eigs.min() < -ATOL_STRUCT:
        raise DimensionError(f"{what} must be positive semidefinite")


class GeneralizedMap:
    """Base class; concrete variants implement ``apply_batch`` and ``signs``."""

    n_qubits: int

    def apply_batch(self, mats: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply(self, a: Operator) -> Operator:
        """Exact linear action on an operator."""
        if a.n_qubits != self.n_qubits:
            raise DimensionError(
                f"map acts on {self.n_qubits} qubits, operator has {a.n_qubits}"
            )
        return Operator(self.apply_batch(a.mat[None, :, :])[0])

    @property
    def signs(self) -> tuple:
        raise NotImplementedError

    def to_superoperator(self) -> Superoperator:
        cached = getattr(self, "_ptm", None)
        if cached is None:
            cached = ptm_of_map(self.apply_batch, self.n_qubits)
            self._ptm = cached
        return cached

    def choi_matrix(self) -> np.ndarray:
        d = 2**self.n_qubits
        units = np.zeros((d * d, d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                units[i * d + j, i, j] = 1.0
        images = self.apply_batch(units).reshape(d, d, d, d)  # [i, j, a, b]
        return np.transpose(images, (2, 0, 3, 1)).reshape(d * d, d * d)

    def is_cptp(self) -> bool:
        """True iff every sign is +1 (completeness is enforced at construction)."""
        return all(a == 1 for a in self.signs)

    def cptp_diagnostics(self) -> dict:
        """Cross-check of the sign-based CPTP flag against the Choi matrix."""
        choi = self.choi_matrix()
        min_eig = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min())
        d = 2**self.n_qubits
        tr_out = np.trace(choi.reshape(d, d, d, d), axis1=0, axis2=2)
        tp_dev = float(np.max(np.abs(tr_out - np.eye(d))))
        choi_cptp = min_eig >= -CHOI_ATOL and tp_dev <= CHOI_ATOL
        return {
            "flags_cptp": self.is_cptp(),
            "choi_min_eigenvalue": min_eig,
            "trace_preservation_deviation": tp_dev,
            "choi_cptp": choi_cptp,
            "consistent": self.is_cptp() == choi_cptp,
        }


def is_cptp(m: GeneralizedMap) -> bool:
    return m.is_cptp()


class UnitaryChannel(GeneralizedMap):
    def __init__(self, u: Operator):
        dev = np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(u.dim)))
        if dev > ATOL_STRUCT:
            raise DimensionError(f"not unitary: max|U^dag U - I| = {dev:.3e}")
        self.u = u
        self.n_qubits = u.n_qubits

    @property
    def signs(self) -> tuple:
        return (1,)

    def apply_batch(self, mats: np.ndarray) -> np.ndarray:
        return self.u.mat @ mats @ self.u.mat.conj().T

    def to_superoperator(self) -> Superoperator:
        cached = getattr(self, "_ptm", None)
        if cached is None:
            cached = ptm_of_unitary(self.u, check=False)
            self._ptm = cached
        return cached

    def __repr__(self):
        return f"UnitaryChannel(n={self.n_qubits})"


class SignedMeasurePrepare(GeneralizedMap):
    """``rho -> sum_v a_v Tr(E_v rho) rho_v`` with signs ``a_v = +-1``."""

    def __init__(self, terms: Sequence[tuple]):
        if not terms:
            raise DimensionError("measure-and-prepare map needs at least one term")
        self.terms = [(_check_sign(a), e, rho) for a, e, rho in terms]
        n = self.terms[0][1].n_qubits
        total = np.zeros((2**n, 2**n), dtype=complex)
        for _, e, rho in self.terms:
            if e.n_qubits != n or rho.n_qubits != n:
                raise DimensionError("POVM elements and states must share one register")
            if np.linalg.eigvalsh(e.mat).min() < -ATOL_STRUCT:
                raise DimensionError("POVM elements must be positive semidefinite")
            _check_density(rho, "prepared state")
            total += e.mat
        if np.max(np.abs(total - np.eye(2**n))) > ATOL_STRUCT:
            raise DimensionError("POVM elements must sum to the identity")
        self.n_qubits = n

    @property
    def signs(self) -> tuple:
        return tuple(a for a, _, _ in self.terms)

    def apply_batch(self, mats: np.ndarray) -> np.ndarray:
        out = np.zeros_like(mats)
        for a, e, rho in self.terms:
            weights = np.einsum("ij,nji->n", e.mat, mats)
            out += a * weights[:, None, None] * rho.mat[None, :, :]
        return out

    def to_superoperator(self) -> Superoperator:
        cached = getattr(self, "_ptm", None)
        if cached is None:
            mat = np.zeros((4**self.n_qubits,) * 2, dtype=complex)
            for a, e, rho in self.terms:
                mat += a * np.outer(vectorize(rho), vectorize(e).conj())
            cached = Superoperator(self.n_qubits, mat)
            self._ptm = cached
        return cached

    def __repr__(self):
        return f"SignedMeasurePrepare(n={self.n_qubits}, terms={len(self.terms)})"


class SignedKraus(GeneralizedMap):
    """``rho -> sum_v a_v K_v rho K_v^dag`` with ``sum K^dag K = I``.

    Exact-math representation only: the sampler cannot execute it without an
    explicit ancilla realization.
    """

    def __init__(self, terms: Sequence[tuple]):
        if not terms:
            raise DimensionError("Kraus map needs at least one term")
        self.terms = [(_check_sign(a), k) for a, k in terms]
        n = self.terms[0][1].n_qubits
        total = np.zeros((2**n, 2**n), dtype=complex)
        for _, k in self.terms:
            if k.n_qubits != n:
                raise DimensionError("Kraus operators must share one register")
            total += k.mat.conj().T @ k.mat
        if np.max(np.abs(total - np.eye(2**n))) > ATOL_STRUCT:
            raise DimensionError("Kraus operators must satisfy sum K^dag K = I")
        self.n_qubits = n

    @property
    def signs(self) -> tuple:
        return tuple(a for a, _ in self.terms)

    def apply_batch(self, mats: np.ndarray) -> np.ndarray:
        out = np.zeros_like(mats)
        for a, k in self.terms:
            out += a * (k.mat @ mats @ k.mat.conj().T)
        return out

    def __repr__(self):
        return f"SignedKraus(n={self.n_qubits}, terms={len(self.terms)})"


class AncillaCircuit(GeneralizedMap):
    """One-ancilla realization of a signed two-outcome map.

    The ancilla is always the last tensor factor.  ``outcome_feedback``, when
    given, holds one system-sized unitary per outcome, applied after the
    ancilla measurement (classically controlled feedback).
    """

    def __init__(
        self,
        system_qubits: int,
        ancilla_init: Operator,
        joint_unitary: Operator,
        measure_basis: str,
        outcome_signs: tuple,
        outcome_feedback: Optional[tuple] = None,
    ):
        if system_qubits < 1:
            raise DimensionError("need at least one system qubit")
        if ancilla_init.n_qubits != 1:
            raise DimensionError("ancilla_init must be a single-qubit state")
        _check_density(ancilla_init, "ancilla_init")
        if joint_unitary.n_qubits != system_qubits + 1:
            raise DimensionError(
                f"joint unitary must act on {system_qubits + 1} qubits, "
                f"got {joint_unitary.n_qubits}"
            )
        dev = np.max(
            np.abs(
                joint_unitary.mat.conj().T @ joint_unitary.mat
                - np.eye(joint_unitary.dim)
            )
        )
        if dev > ATOL_STRUCT:
            raise DimensionError("joint_unitary is not unitary")
        if measure_basis not in MEASUREMENT_KETS:
            raise DimensionError(f"measure_basis must be X, Y or Z, got {measure_basis!r}")
        if len(outcome_signs) != 2:
            raise DimensionError("outcome_signs must have exactly two entries")
        if outcome_feedback is not None:
            if len(outcome_feedback) != 2:
                raise DimensionError("outcome_feedback must have exactly two entries")
            for f in outcome_feedback:
                if f is not None and f.n_qubits != system_qubits:
                    raise DimensionError("feedback unitaries must act on the system")
        self.n_qubits = system_qubits
        self.ancilla_init = ancilla_init
        self.joint_unitary = joint_unitary
        self.measure_basis = measure_basis
        self.outcome_signs = tuple(_check_sign(a) for a in outcome_signs)
        self.outcome_feedback = outcome_feedback

    @property
    def signs(self) -> tuple:
        return self.outcome_signs

    def branch_batch(self, mats: np.ndarray, outcome: int) -> np.ndarray:
        """Unnormalized post-measurement branch ``Tr_a(Pi_s U (rho (x) anc) U^dag)``.

        The branch includes the outcome's feedback unitary but not its sign;
        its trace is the outcome probability for a unit-trace input.
        """
        d = 2**self.n_qubits
        u = self.joint_unitary.mat
        ext = np.einsum("nab,cd->nacbd", mats, self.ancilla_init.mat).reshape(
            -1, 2 * d, 2 * d
        )
        sigma = (u @ ext @ u.conj().T).reshape(-1, d, 2, d, 2)
        ket = MEASUREMENT_KETS[self.measure_basis][outcome]
        branch = np.einsum("nakbi,k,i->nab", sigma, ket.conj(), ket)
        if self.outcome_feedback is not None:
            f = self.outcome_feedback[outcome]
            if f is not None:
                branch = f.mat @ branch @ f.mat.conj().T
        return branch

    def apply_batch(self, mats: np.ndarray) -> np.ndarray:
        return self.outcome_signs[0] * self.branch_batch(mats, 0) + self.outcome_signs[
            1
        ] * self.branch_batch(mats, 1)

    def __repr__(self):
        return (
            f"AncillaCircuit(n={self.n_qubits}, basis={self.measure_basis}, "
            f"signs={self.outcome_signs})"
        )


# ---------------------------------------------------------------------------
# Named single-qubit wire-cut maps
# ---------------------------------------------------------------------------


def pauli_measure_prepare(p: str, mu: int) -> SignedMeasurePrepare:
    """Measure in the eigenbasis of Pauli ``p`` and always prepare eigenstate
    ``mu``, with the eigenvalue signs attached to the measurement branches."""
    table = pauli_eigenbasis()
    if (p, mu) not in table:
        raise DimensionError(f"no eigenbasis entry for ({p!r}, {mu!r})")
    _, prep = table[(p, mu)]
    terms = []
    for nu in (0, 1):
        a_nu, proj = table[(p, nu)]
        terms.append((a_nu, proj, prep))
    return SignedMeasurePrepare(terms)


def grouped_pauli_map(p: str) -> SignedMeasurePrepare:
    """Measure Pauli ``p`` and re-prepare the observed eigenstate (CPTP)."""
    table = pauli_eigenbasis()
    if p not in "XYZ":
        raise DimensionError(f"grouped map needs P in X, Y, Z, got {p!r}")
    terms = []
    for nu in (0, 1):
        _, proj = table[(p, nu)]
        terms.append((1, proj, proj))
    return SignedMeasurePrepare(terms)


def signed_z_map() -> SignedMeasurePrepare:
    """Measure Z, re-prepare the observed state, and flip the sign on outcome 1."""
    return SignedMeasurePrepare(
        [
            (1, projector(KET_0), projector(KET_0)),
            (-1, projector(KET_1), projector(KET_1)),
        ]
    )


def mcz_mx_map(m: int) -> AncillaCircuit:
    """MCZ between an ``m``-qubit register and a ``|+>`` ancilla, followed by an
    X-basis ancilla measurement with signs ``(+1, -1)``."""
    if m < 1:
        raise DimensionError(f"need m >= 1, got {m}")
    return AncillaCircuit(
        system_qubits=m,
        ancilla_init=projector(KET_PLUS),
        joint_unitary=gates.mcz(m + 1),
        measure_basis="X",
        outcome_signs=(1, -1),
    )


def rzz_my_map(theta: float) -> AncillaCircuit:
    """ZZ-rotation against a ``|+>`` ancilla followed by a Y-basis ancilla
    measurement with signs ``(+1, -1)``."""
    return AncillaCircuit(
        system_qubits=1,
        ancilla_init=projector(KET_PLUS),
        joint_unitary=gates.rzz(theta),
        measure_basis="Y",
        outcome_signs=(1, -1),
    )


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
        dev = np.max(np.abs(u.mat.conj().T @ u.mat - np.eye(u.dim)))
        if dev > ATOL_STRUCT:
            raise DimensionError("controlled-sequence entries must be unitary")


def _sequence_with_control(
    ops: Sequence[tuple], n_targets: int, control_index: int, target_offset: int, n: int
) -> Operator:
    """Product of controlled gates on an ``n``-qubit space, applied in list order."""
    full = np.eye(2**n, dtype=complex)
    for targets, u in ops:
        placed = [control_index] + [target_offset + t for t in targets]
        full = embed_matrix(gates.controlled(u).mat, placed, n) @ full
    return Operator(full)


def controlled_sequence_unitary(ops: Sequence[tuple], n_targets: int) -> Operator:
    """The full sequence on (control qubit 0, targets 1..n_targets)."""
    _check_ops(ops, n_targets)
    return _sequence_with_control(ops, n_targets, 0, 1, n_targets + 1)


def e_v_mx_map(ops: Sequence[tuple], n_targets: int) -> AncillaCircuit:
    """Run the sequence with a ``|+>`` ancilla as control and measure it in X,
    signs ``(+1, -1)``.  Acts on the target register."""
    _check_ops(ops, n_targets)
    joint = _sequence_with_control(ops, n_targets, n_targets, 0, n_targets + 1)
    return AncillaCircuit(
        system_qubits=n_targets,
        ancilla_init=projector(KET_PLUS),
        joint_unitary=joint,
        measure_basis="X",
        outcome_signs=(1, -1),
    )


def e_v_mz_map(ops: Sequence[tuple], n_targets: int) -> AncillaCircuit:
    """As :func:`e_v_mx_map` but with a Z-basis ancilla measurement."""
    _check_ops(ops, n_targets)
    joint = _sequence_with_control(ops, n_targets, n_targets, 0, n_targets + 1)
    return AncillaCircuit(
        system_qubits=n_targets,
        ancilla_init=projector(KET_PLUS),
        joint_unitary=joint,
        measure_basis="Z",
        outcome_signs=(1, -1),
    )


def e_rzv_map(ops: Sequence[tuple], n_targets: int) -> AncillaCircuit:
    """CPTP map on (control, targets): ancilla-controlled sequence, Y-basis
    ancilla measurement, and outcome-dependent ``R_Z(+-pi/2)`` feedback on the
    control qubit."""
    _check_ops(ops, n_targets)
    n_sys = 1 + n_targets
    joint = _sequence_with_control(ops, n_targets, n_sys, 1, n_sys + 1)
    feedback = tuple(
        Operator(embed_matrix(gates.rz(sign * np.pi / 2).mat, [0], n_sys))
        for sign in (+1, -1)
    )
    return AncillaCircuit(
        system_qubits=n_sys,
        ancilla_init=projector(KET_PLUS),
        joint_unitary=joint,
        measure_basis="Y",
        outcome_signs=(1, 1),
        outcome_feedback=feedback,
    )
