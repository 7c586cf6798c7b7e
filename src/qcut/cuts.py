"""Quasiprobability decompositions of cut gates and wires.

A :class:`Decomposition` is a list of weighted terms ``(q, F)`` whose
superoperators sum to a target channel: ``E = sum_nu q_nu F_nu``.  Each term
factors into maps acting on contiguous register blocks, so the two sides of a
cut can be executed independently.  The 1-norm ``gamma = sum |q_nu|`` sets
the sampling overhead ``gamma^2`` of Monte-Carlo reconstruction.

Built-in decompositions:

* :func:`wire_cut_ncc` -- single-qubit identity, 8 measure-and-prepare terms,
  ``gamma = 4``, no classical communication;
* :func:`wire_cut_cc` -- single-qubit identity with one grouped
  measure-and-reprepare term (classical communication), ``gamma = 3``;
* :func:`mcz_decomposition` -- multi-controlled Z across an (m, m') split,
  ``gamma = 3`` for any split: the CZ cut lifted through each register's AND;
* :func:`rzz_decomposition_a` / :func:`rzz_decomposition_b` -- two-qubit ZZ
  rotation, ``gamma = 3`` resp. ``gamma = 1 + 2|sin(theta)|``;
* :func:`multi_z_rotation_decomposition` -- ``exp(-i theta/2 Z^n)``: the
  ``R_ZZ`` cut lifted through each register's parity, as local CNOT ladders
  would fold it;
* :func:`controlled_sequence_decomposition` -- a sequence of single-qubit
  controlled unitaries sharing one control, ``gamma = 3``.

Every map that takes no input from a caller (the wire cuts', the CZ cut's
and the ``R_ZZ`` cuts' angle-free maps, and their register lifts, held as
diagonals) is a process-wide read-only constant, built and checked once; terms are built per call.
"""

from __future__ import annotations

import math
from functools import cache, cached_property

import numpy as np

from . import channels as ch
from . import gates
from .linalg import (
    PAULI_EIGENKETS,
    DimensionError,
    Immutable,
    Operator,
    Superoperator,
    check_dense_bits,
    check_integer,
    pauli_label,
    ptm_of_unitary,
)

#: reconstruction tolerance: sum of term PTMs vs. the target channel
ATOL_RECONSTRUCT = 1e-9


class DecompositionTerm(Immutable):
    """One weighted product term ``q * (F_1 (x) F_2 (x) ...)``.

    ``factors``, each a :class:`~qcut.channels.GeneralizedMap`, act on
    contiguous qubit blocks, high-order first; each must cover a whole number
    of the parent decomposition's registers (:meth:`Decomposition.spans`).
    ``needs_cc`` marks terms whose execution needs a measurement outcome
    communicated across the cut.  Immutable after construction: terms are
    shared between the decompositions built from one cached cut.
    """

    def __init__(self, q: float, factors, label: str, needs_cc: bool = False):
        vars(self).update(q=float(q), factors=tuple(factors), label=str(label),
                          needs_cc=bool(needs_cc))
        if not math.isfinite(self.q):
            raise DimensionError(f"term {label!r} has a non-finite coefficient {q!r}")
        if not self.factors:
            raise DimensionError(f"term {label!r} has no factors")
        bare = [type(f).__name__ for f in self.factors if not isinstance(f, ch.GeneralizedMap)]
        if bare:  # the sampler draws each factor's outcomes with their +-1 signs
            raise DimensionError(f"term {label!r} has a {bare[0]} factor, not a GeneralizedMap")

    @property
    def n_qubits(self) -> int:
        return sum(f.n_qubits for f in self.factors)

    def is_cptp(self) -> bool:
        return all(f.is_cptp() for f in self.factors)

    def to_superoperator(self) -> Superoperator:
        """The term's unweighted tensor-product map."""
        return _product_sum([self], weighted=False)

    def __repr__(self):
        return f"DecompositionTerm(q={self.q:+.6g}, label={self.label!r})"


def _product_sum(terms, weighted: bool = True) -> Superoperator:
    """Every term's product Kraus operators ``K_1 (x) K_2 (x) ...``, one per
    choice of one operator per factor, weighted by their signs times ``q_nu``
    if ``weighted``: their diagonals if every factor has them."""
    form = "diagonals" if all(f.diagonals is not None for t in terms for f in t.factors) else "ops"
    weights, stacks = [], []
    for t in terms:
        w, stack = [t.q if weighted else 1.0], None
        for f in t.factors:
            s, w = getattr(f, form), [x * a for x in w for a in f.weights.tolist()]
            if stack is not None:  # [(i, j), (a, c)], or [(i, j), (a, c), (b, d)] for operators
                d = (stack.shape[-1] * s.shape[-1],) * (s.ndim - 1)
                s = stack[(slice(None), None) * s.ndim] * s[(None, slice(None)) * s.ndim]
                s = s.reshape(len(w), *d)
            stack = s
        weights += w
        stacks.append(stack)
    return Superoperator(np.array(weights), **{form: np.concatenate(stacks)})


class Decomposition(Immutable):
    """A named quasiprobability decomposition with its target gate.

    The target is kept as its unitary.  :attr:`target` and :meth:`reconstruct`
    each return one signed Kraus sum (:class:`~qcut.linalg.Superoperator`)
    whose ``4^n x 4^n`` PTM is built only when ``.matrix`` is read; building,
    sampling and verifying a decomposition read none.  Immutable after
    construction; :attr:`target` is cached on first read.
    """

    def __init__(self, name: str, partition, terms, target_unitary: Operator):
        vars(self).update(
            name=str(name), terms=tuple(terms), target_unitary=target_unitary,
            partition=tuple(check_integer(s, "register size", 1) for s in partition))
        if not isinstance(target_unitary, Operator):
            raise DimensionError(
                f"target_unitary must be an Operator, got {type(target_unitary).__name__}")
        if not self.terms:
            raise DimensionError("decomposition needs at least one term")
        n = sum(self.partition)
        if target_unitary.n_qubits != n:
            raise DimensionError(
                f"target acts on {target_unitary.n_qubits} qubits, partition covers {n}")
        for t in self.terms:
            if t.n_qubits != n:
                raise DimensionError(f"term {t.label!r} covers {t.n_qubits} qubits, expected {n}")
            self.spans(t)

    def spans(self, term: DecompositionTerm) -> list:
        """``(factor, (first, stop))`` per factor of ``term``: the factor acts
        on registers ``first .. stop - 1`` of the partition.  A factor that
        ends inside a register, or covers none, raises :class:`DimensionError`."""
        out, stop, covered, edge = [], 0, 0, 0
        for factor in term.factors:
            first, edge = stop, edge + factor.n_qubits
            while covered < edge and stop < len(self.partition):
                covered, stop = covered + self.partition[stop], stop + 1
            if covered != edge or stop == first:
                raise DimensionError(f"term {term.label!r} splits a register at qubit {edge}")
            out.append((factor, (first, stop)))
        return out

    @cached_property
    def target(self) -> Superoperator:
        """The target gate's channel, checked the first time it is read."""
        return ptm_of_unitary(self.target_unitary)

    @property
    def n_qubits(self) -> int:
        return sum(self.partition)

    def one_norm(self) -> float:
        return float(sum(abs(t.q) for t in self.terms))

    def sum_q(self) -> float:
        return float(sum(t.q for t in self.terms))

    def sampling_probabilities(self) -> np.ndarray:
        gamma = self.one_norm()
        return np.array([abs(t.q) / gamma for t in self.terms])

    def reconstruct(self) -> Superoperator:
        """The map ``sum_nu q_nu F_nu`` (:func:`_product_sum`)."""
        return _product_sum(self.terms)

    def verify(self) -> dict:
        """Compare the reconstruction with the target PTM entry by entry, from
        diagonals when all are diagonal: ``max_abs_deviation`` is the largest
        ``|delta|`` and ``worst_entry`` the output and input Pauli strings of that entry."""
        n = self.n_qubits
        deviation, row, col = _product_sum(self.terms).compare(
            Superoperator(np.ones(1), self.target_unitary.mat[None]))
        return {
            "name": self.name,
            "n_terms": len(self.terms),
            "one_norm": self.one_norm(),
            "sum_q": self.sum_q(),
            "max_abs_deviation": deviation,
            "worst_entry": [pauli_label(row, n), pauli_label(col, n)],
            "passed": bool(deviation <= ATOL_RECONSTRUCT),
        }

    def __repr__(self):
        return (
            f"Decomposition({self.name!r}, partition={self.partition}, "
            f"terms={len(self.terms)}, gamma={self.one_norm():.6g})"
        )


# ---------------------------------------------------------------------------
# Wire cuts
# ---------------------------------------------------------------------------


def _fixed_preparation_terms(paulis: str) -> list:
    """For each Pauli ``p`` and eigenstate ``mu``: measure ``p`` and always
    prepare ``mu``, with coefficient ``a/2`` for the eigenvalue sign ``a``."""
    return [DecompositionTerm(PAULI_EIGENKETS[(p, mu)][0] / 2, [ch.pauli_measure_prepare(p, mu)],
                              f"E_{p}{mu}") for p in paulis for mu in (0, 1)]


def wire_cut_ncc() -> Decomposition:
    """Single-qubit identity as eight fixed-preparation measure-and-prepare
    maps with coefficients ``a/2``; ``gamma = 4``, no communication."""
    return Decomposition("wire_ncc", (1,), _fixed_preparation_terms("IXYZ"), gates.identity(1))


def wire_cut_cc(cc_basis: str = "Y") -> Decomposition:
    """Single-qubit identity with one grouped CPTP term; ``gamma = 3``.

    ``cc_basis`` picks the Pauli whose measure-and-reprepare channel absorbs
    the identity expansion and carries the classical communication; the other
    two Paulis keep their fixed-preparation terms with ``q = +-1/2``.
    """
    if cc_basis not in ("X", "Y", "Z"):
        raise DimensionError(f"cc_basis must be X, Y or Z, got {cc_basis!r}")
    grouped = DecompositionTerm(1.0, [ch.grouped_pauli_map(cc_basis)], f"E_{cc_basis}", True)
    others = _fixed_preparation_terms("".join(p for p in "XYZ" if p != cc_basis))
    return Decomposition(f"wire_cc[{cc_basis}]", (1,), [grouped, *others], gates.identity(1))


# ---------------------------------------------------------------------------
# Two-qubit cuts lifted to registers, and the MCZ gate cut
# ---------------------------------------------------------------------------


@cache
def _lift(factor: ch.GeneralizedMap, size: int, bit) -> ch.GeneralizedMap:
    """``factor`` on a register of ``size > 1`` qubits: each Kraus operator
    ``diag(k)`` becomes ``diag(k[bit(size)])``, held as diagonals.  Built once per
    process per map, size and Boolean function: never pass it a map built from a caller's input."""
    if factor.diagonals is None:
        raise DimensionError("a lifted factor must be exactly diagonal")
    return ch.GeneralizedMap(factor.signs, diagonals=factor.diagonals[:, bit(size)])


def _lifted(name: str, partition: tuple, bit, terms, target) -> Decomposition:
    """The two-qubit cut ``terms()`` lifted to the registers of ``partition``,
    against the gate ``target(n)``; both are built, and ``name`` formatted
    with the register sizes, after the size checks.

    On a register of ``size > 1`` qubits each factor is :func:`_lift`-ed
    through a Boolean function ``bit`` of the basis index, a constant checked
    at first build: any nonzero off-diagonal Kraus entry, however small,
    raises :class:`DimensionError`.
    """
    partition = tuple(check_integer(size, "register size", 1) for size in partition)
    n = sum(partition)
    check_dense_bits(4 * n, f"PTM of a cut on {n} qubits")
    return Decomposition(name.format(*partition), partition, [
        DecompositionTerm(t.q, [f if size == 1 else _lift(f, size, bit)
                                for f, size in zip(t.factors, partition)], t.label, t.needs_cc)
        for t in terms()
    ], target(n))


@cache
def _cz_terms() -> tuple:
    """The CZ cut of Ufrecht et al. on one-qubit maps, labelled as its MCZ
    lift; built once per process."""
    mx, z = ch.e_v_mx_map(gates.mcz(1)), ch.UnitaryChannel(gates.mcz(1))
    ident = _fixed_channels()[0]
    plus, minus = (ch.UnitaryChannel(gates.mcp(1, s * np.pi / 2)) for s in (1, -1))
    return (
        DecompositionTerm(0.5, [plus, plus], "MCP(+1pi/2) x MCP(+1pi/2)"),
        DecompositionTerm(0.5, [minus, minus], "MCP(-1pi/2) x MCP(-1pi/2)"),
        DecompositionTerm(0.5, [mx, ident], "E_MCZ-MX x I"),
        DecompositionTerm(-0.5, [mx, z], "E_MCZ-MX x MCZ"),
        DecompositionTerm(0.5, [ident, mx], "I x E_MCZ-MX"),
        DecompositionTerm(-0.5, [z, mx], "MCZ x E_MCZ-MX"),
    )


def mcz_decomposition(m: int, m_prime: int) -> Decomposition:
    """Multi-controlled Z on ``m + m'`` qubits cut into local maps; ``gamma = 3``.

    The isometries ``|0> -> |0...0>`` and ``|1> -> |1...1>`` on each side
    turn MCZ into CZ, so the CZ cut's one-qubit maps are lifted by
    :func:`_lifted` through each register's AND (:func:`~qcut.gates.all_ones`).
    """
    return _lifted("mcz[{},{}]", (m, m_prime), gates.all_ones, _cz_terms, gates.mcz)


# ---------------------------------------------------------------------------
# ZZ-rotation cuts
# ---------------------------------------------------------------------------


def _check_angle(theta) -> float:
    try:
        value = float(theta)
    except OverflowError:  # an integer beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise DimensionError(f"rotation angle must be finite, got {theta!r}")
    return value


def _rz_channel(theta: float) -> ch.UnitaryChannel:
    return ch.UnitaryChannel(gates.rz(theta))


@cache
def _fixed_channels() -> tuple:
    """The identity, ``R_Z(pi)`` and ``R_Z(+-pi/2)`` channels, built once per process."""
    return (ch.UnitaryChannel(gates.identity(1)),
            *(_rz_channel(a) for a in (np.pi, np.pi / 2, -np.pi / 2)))


def rzz_decomposition_a(theta: float) -> Decomposition:
    """Ancilla-based cut of ``R_ZZ(theta)``; ``gamma = 3`` for every angle.

    Terms with an exactly zero coefficient are dropped.
    """
    theta = _check_angle(theta)
    my = ch.rzz_my_map(theta)
    ez = ch.signed_z_map()
    ident, flip, plus, minus = _fixed_channels()
    raw = [
        (0.5 * (1 + np.cos(theta)), [ident, ident], "I x I"),
        (0.5 * (1 - np.cos(theta)), [flip, flip], "RZ(pi) x RZ(pi)"),
        (0.5, [plus, my], "RZ(+pi/2) x E_RZZ-MY"),
        (-0.5, [minus, my], "RZ(-pi/2) x E_RZZ-MY"),
        (0.5, [ez, _rz_channel(theta)], "EbarZ x RZ(+theta)"),
        (-0.5, [ez, _rz_channel(-theta)], "EbarZ x RZ(-theta)"),
    ]
    terms = [DecompositionTerm(q, f, lab) for q, f, lab in raw if q != 0.0]
    return Decomposition(f"rzz_a[{theta:.12g}]", (1, 1), terms, gates.rzz(theta))


def _rzz_b_terms(theta: float) -> list:
    """The terms of :func:`rzz_decomposition_b` for a checked angle; its maps
    are angle-independent, each built once per process."""
    s = np.sin(theta)
    ez = ch.signed_z_map()
    ident, flip, plus, minus = _fixed_channels()
    raw = [
        (0.5 * (1 + np.cos(theta)), [ident, ident], "I x I"),
        (0.5 * (1 - np.cos(theta)), [flip, flip], "RZ(pi) x RZ(pi)"),
        (0.5 * s, [plus, ez], "RZ(+pi/2) x EbarZ"),
        (-0.5 * s, [minus, ez], "RZ(-pi/2) x EbarZ"),
        (0.5 * s, [ez, plus], "EbarZ x RZ(+pi/2)"),
        (-0.5 * s, [ez, minus], "EbarZ x RZ(-pi/2)"),
    ]
    return [DecompositionTerm(q, f, lab) for q, f, lab in raw if q != 0.0]


def rzz_decomposition_b(theta: float) -> Decomposition:
    """Ancilla-free cut of ``R_ZZ(theta)``; ``gamma = 1 + 2|sin(theta)|``.

    Obtained by folding the sine of the rotation angle into the coefficients,
    so all remaining maps are angle-independent.  Zero-coefficient terms are
    dropped (at ``theta = 0`` only ``I x I`` survives).
    """
    theta = _check_angle(theta)
    return Decomposition(f"rzz_b[{theta:.12g}]", (1, 1), _rzz_b_terms(theta), gates.rzz(theta))


# ---------------------------------------------------------------------------
# Multi-qubit Z rotation
# ---------------------------------------------------------------------------


def multi_z_rotation_decomposition(m: int, m_prime: int, theta: float) -> Decomposition:
    """Cut of ``exp(-i theta/2 Z^(m+m'))`` across the (m, m') boundary.

    On hardware, local CNOT ladders fold each register's parity onto the
    qubit adjacent to the cut, reducing the gate to a two-qubit ZZ rotation;
    every term of the two-qubit protocol runs between them, so
    ``gamma = 1 + 2|sin(theta)|`` is unchanged.  Those terms' factors are
    diagonal, so :func:`_lifted` builds each conjugated factor through the
    register's parity, with no ladder matrix.
    """
    theta = _check_angle(theta)
    return _lifted(f"multi_z[{{}},{{}},{theta:.12g}]", (m, m_prime), gates.parity,
                   lambda: _rzz_b_terms(theta), lambda n: gates.multi_z_rotation(n, theta))


# ---------------------------------------------------------------------------
# Controlled-unitary sequences
# ---------------------------------------------------------------------------


def controlled_sequence_decomposition(ops, n_targets: int) -> Decomposition:
    """Cut separating the shared control qubit from the ``n_targets`` targets.

    ``ops`` is a list of ``(target-qubits, unitary)`` pairs applied in order,
    all controlled on the same qubit; ``gamma = 3``.  The CPTP term realizes
    the whole sequence with an ancilla as control plus outcome-conditioned
    ``R_Z(+-pi/2)`` feedback on the control qubit; its communication is
    internal to the joint map, so no term is flagged as needing communication
    across the cut.
    """
    n_targets = check_integer(n_targets, "n_targets", 1)
    ops, n = tuple(ops), 1 + n_targets  # an iterator is read once
    check_dense_bits(4 * n, f"PTM of a cut on {n} qubits")
    v = ch.sequence_unitary(ops, n_targets)
    mx = ch.e_v_mx_map(v)
    mz = ch.e_v_mz_map(v)
    ident, flip, _, _ = _fixed_channels()
    terms = [
        DecompositionTerm(1.0, [ch.e_rzv_map(v)], "E_RZV"),
        DecompositionTerm(0.5, [ident, mx], "I x E_V-MX"),
        DecompositionTerm(-0.5, [flip, mx], "RZ(pi) x E_V-MX"),
        DecompositionTerm(1.0, [ch.signed_z_map(), mz], "EbarZ x E_V-MZ"),
    ]
    return Decomposition(f"controlled_sequence[M={len(ops)}]", (1, n_targets), terms,
                         gates.controlled(v))
