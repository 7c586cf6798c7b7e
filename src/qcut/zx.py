"""ZX-diagram construction and exact tensor contraction.

Diagrams are open tensor networks of Z-spiders, X-spiders and H-boxes with an
explicit global scalar.  Contraction is exact, so rewrite rules and cut
insertions can be certified numerically including all scalar factors.

Conventions:

* Z-spider with phase ``alpha``: a copy tensor, 1 when every leg is 0,
  ``e^{i alpha}`` when every leg is 1, 0 otherwise.  Arity 0 contributes the
  scalar ``1 + e^{i alpha}``.
* X-spider: the Z-spider conjugated by a Hadamard on every leg (the same data
  in the ``|+>/|->`` basis).
* H-box with label ``a`` (default -1): ``a`` on the all-1 assignment, 1
  otherwise.  The arity-2 box with ``a = -1`` equals ``sqrt(2) H``.

Contraction never builds a spider densely: all legs of a Z spider share one
index carrying the weights ``(1, e^{i alpha})``, so cups, caps, bare wires and
wire crossings are just connectivity, invariant under node relabeling and edge
reordering.  :func:`contract` writes the result out with every open leg on its
own index; :func:`verify_rule` compares two diagrams on the indices they share.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
import string
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import QcutError, check_dense_bits, max_abs_diff

#: matrix equality tolerance for rule certification
RULE_ATOL = 1e-10

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)


class ZXError(QcutError):
    """Malformed diagram or invalid contraction request."""


def hbox_tensor(label: complex, arity: int) -> np.ndarray:
    """Dense tensor of an H-box: ``label`` at all-ones, 1 elsewhere."""
    if arity == 0:
        return np.array(complex(label))
    t = np.ones((2,) * arity, dtype=complex)
    t[(1,) * arity] = label
    return t


@dataclass
class ZXDiagram:
    """Open ZX tensor network with ordered boundaries and a global scalar.

    Built incrementally via ``add_*`` methods; :func:`insert_cut_fragment`
    returns a new diagram, and :func:`contract` is pure.
    """

    nodes: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    scalar: complex = 1.0 + 0j
    cut_edge: Optional[tuple] = None
    _next_id: int = 0

    def _add_node(self, kind: str, param: complex) -> int:
        nid = self._next_id
        self.nodes[nid] = (kind, param)
        self._next_id += 1
        return nid

    def add_z(self, phase: float = 0.0) -> int:
        return self._add_node("z", float(phase))

    def add_x(self, phase: float = 0.0) -> int:
        return self._add_node("x", float(phase))

    def add_h(self, label: complex = -1.0) -> int:
        return self._add_node("h", complex(label))

    def add_input(self) -> int:
        nid = self._add_node("b", 0.0)
        self.inputs.append(nid)
        return nid

    def add_output(self) -> int:
        nid = self._add_node("b", 0.0)
        self.outputs.append(nid)
        return nid

    def add_edge(self, u: int, v: int):
        if u not in self.nodes or v not in self.nodes:
            raise ZXError(f"edge ({u}, {v}) references unknown nodes")
        if u == v:
            raise ZXError(f"self-loop on node {u} is not supported")
        self.edges.append((u, v))

    def multiply_scalar(self, s: complex):
        self.scalar *= s

    def copy(self) -> "ZXDiagram":
        return ZXDiagram(
            nodes=dict(self.nodes),
            edges=list(self.edges),
            inputs=list(self.inputs),
            outputs=list(self.outputs),
            scalar=self.scalar,
            cut_edge=self.cut_edge,
            _next_id=self._next_id,
        )

    def __repr__(self):
        return (
            f"ZXDiagram(nodes={len(self.nodes)}, edges={len(self.edges)}, "
            f"in={len(self.inputs)}, out={len(self.outputs)})"
        )


def _einsum(operands: list, arrays: list, result: list) -> np.ndarray:
    """``np.einsum`` over label lists in letters local to this call; the size cap
    keeps each piece within 26 labels, so two operands fit in numpy's 52."""
    letter: dict = {}
    for label in itertools.chain(*operands, result):
        letter.setdefault(label, string.ascii_letters[len(letter)])
    spec = ",".join("".join(letter[x] for x in labels) for labels in operands)
    return np.einsum(spec + "->" + "".join(letter[x] for x in result), *arrays)


def contract(d: ZXDiagram) -> np.ndarray:
    """Contract to a dense ``2^out x 2^in`` matrix, global scalar included:
    :func:`_contract_compact` with each open leg on its own index.  Output axes
    follow the output boundary list (first entry most significant), then the
    input boundaries likewise."""
    n_open = len(d.inputs) + len(d.outputs)
    check_dense_bits(n_open, f"contraction with {n_open} open legs")
    return _embed(*_contract_compact(d)).reshape(2 ** len(d.outputs), 2 ** len(d.inputs))


def _embed(axes: list, result: list, t: np.ndarray) -> np.ndarray:
    """``t`` (axes ``result``) in a zero array with one axis per label in
    ``axes``: on the diagonal where labels repeat, constant over those it lacks."""
    missing = [x for x in dict.fromkeys(axes) if x not in result]
    out = np.zeros((1,) + (2,) * len(axes), dtype=complex)
    _einsum([[None] + axes], [out], [None] + missing + result)[...] = t
    return out[0]


def _contract_compact(d: ZXDiagram) -> tuple:
    """The open legs' index labels (outputs, then inputs), the labels the
    final tensor carries, and that tensor with the global scalar applied.

    Each edge is an index and each Z spider merges the indices of its legs.
    An X spider weights a fresh index joined to each leg by a Hadamard; an
    H-box is dense over its legs; a boundary leaves its index open, and two
    boundaries share one (as on a bare wire).  A greedy loop contracts the
    pair of pieces with the smallest result by one ``np.einsum`` each.
    """
    parent = list(range(len(d.edges)))  # union-find over edge indices

    def find(e: int) -> int:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    legs: dict = {nid: [] for nid in d.nodes}
    for e, (u, v) in enumerate(d.edges):
        if u == v:
            raise ZXError(f"self-loop on node {u} is not supported")
        for w in (u, v):
            legs[w].append(e)
            if d.nodes[w][0] == "z":
                parent[find(e)] = find(legs[w][0])

    pieces: dict = {}  # id -> (label list, ndarray)
    where: dict = {}  # label -> ids of the pieces that carry it
    new_id = itertools.count()

    def add(labels: list, t: np.ndarray) -> int:
        k = next(new_id)
        pieces[k] = (labels, t)
        for x in labels:
            where.setdefault(x, set()).add(k)
        return k

    fresh = itertools.count(len(d.edges))
    for nid, (kind, param) in d.nodes.items():
        labels = [find(e) for e in legs[nid]]
        if kind == "b":
            if len(labels) != 1:
                raise ZXError(f"boundary node {nid} has degree {len(labels)}, expected 1")
        elif kind == "h":
            check_dense_bits(len(labels), f"H-box {nid} with {len(labels)} legs")
            add(labels, hbox_tensor(param, len(labels)))
        elif kind in ("z", "x"):
            center = labels[0] if kind == "z" and labels else next(fresh)
            add([center], np.array([1.0, np.exp(1j * float(np.real(param)))]))
            if kind == "x":
                for label in labels:
                    add([center, label], _HADAMARD)
        else:
            raise ZXError(f"unknown node kind {kind!r}")

    order = [find(legs[nid][0]) for nid in d.outputs + d.inputs]
    is_open = set(order)

    def kept(pair: tuple) -> list:
        labels = dict.fromkeys(pieces[pair[0]][0] + pieces[pair[1]][0])
        return [x for x in labels if x in is_open or where[x] - set(pair)]

    heap: list = []  # (result size, pair); entries of contracted pieces are skipped

    def push(k: int) -> None:
        # only the pairs with the newest piece k change when it appears
        for j in set().union(*(where[x] for x in pieces[k][0])):
            if j < k:
                heapq.heappush(heap, (len(kept((j, k))), (j, k)))

    for k in pieces:
        push(k)
    while len(pieces) > 1:
        while heap and not pieces.keys() >= set(heap[0][1]):
            heapq.heappop(heap)
        # with no index shared, the parts left are disconnected: join the two smallest
        pair = heapq.heappop(heap)[1] if heap else tuple(
            sorted(sorted(pieces, key=lambda k: len(pieces[k][0]))[:2])
        )
        labels = kept(pair)
        check_dense_bits(len(labels), f"contraction step with {len(labels)} legs")
        (la, ta), (lb, tb) = (pieces.pop(k) for k in pair)
        for x in la + lb:
            where[x] -= set(pair)
        push(add(labels, _einsum([la, lb], [ta, tb], labels)))

    labels, t = next(iter(pieces.values()), ([], np.array(1.0 + 0j)))
    result = [x for x in dict.fromkeys(labels) if x in is_open]
    # ``*`` on the numpy scalar of a full sum rounds differently from this ufunc
    return order, result, np.multiply(_einsum([labels], [t], result), d.scalar)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def wire_diagram(n: int = 1) -> ZXDiagram:
    """``n`` parallel bare wires (the identity)."""
    d = ZXDiagram()
    for _ in range(n):
        i = d.add_input()
        o = d.add_output()
        d.add_edge(i, o)
    return d


def state_diagram(kind: str, phase: float = 0.0) -> ZXDiagram:
    """Single spider with one output and no inputs (a ``sqrt(2)``-scaled ket)."""
    d = ZXDiagram()
    s = d.add_z(phase) if kind == "z" else d.add_x(phase)
    o = d.add_output()
    d.add_edge(s, o)
    return d


CNOT_VARIANTS = ("spiders", "hbox", "crossed")


def cnot_diagram(variant: str = "spiders") -> ZXDiagram:
    """CNOT with control on qubit 0, in one of three equivalent presentations.

    ``spiders``: Z-spider control wired to an X-spider target, scalar sqrt(2).
    ``hbox``: the target wire conjugated by arity-2 H-boxes around a CZ
    (two H-boxes contribute a factor 2, compensated by scalar 1/2).
    ``crossed``: the ``spiders`` form built upside down with crossed wires.
    """
    d = ZXDiagram()
    if variant == "spiders":
        i0, i1 = d.add_input(), d.add_input()
        o0, o1 = d.add_output(), d.add_output()
        c = d.add_z()
        t = d.add_x()
        for a, b in ((i0, c), (c, o0), (i1, t), (t, o1), (c, t)):
            d.add_edge(a, b)
        d.multiply_scalar(np.sqrt(2.0))
    elif variant == "hbox":
        i0, i1 = d.add_input(), d.add_input()
        o0, o1 = d.add_output(), d.add_output()
        c = d.add_z()
        t = d.add_z()
        h_mid = d.add_h()
        h_in = d.add_h()
        h_out = d.add_h()
        for a, b in (
            (i0, c),
            (c, o0),
            (i1, h_in),
            (h_in, t),
            (t, h_out),
            (h_out, o1),
            (c, h_mid),
            (h_mid, t),
        ):
            d.add_edge(a, b)
        d.multiply_scalar(0.5)
    elif variant == "crossed":
        i1, i0 = d.add_input(), d.add_input()  # reversed boundary registration
        o1, o0 = d.add_output(), d.add_output()
        d.inputs = [i0, i1]
        d.outputs = [o0, o1]
        c = d.add_z()
        t = d.add_x()
        for a, b in ((i0, c), (c, o0), (i1, t), (t, o1), (c, t)):
            d.add_edge(a, b)
        d.multiply_scalar(np.sqrt(2.0))
    else:
        raise ZXError(f"unknown CNOT variant {variant!r}; pick from {CNOT_VARIANTS}")
    return d


def mcp_diagram(n: int, theta: float) -> ZXDiagram:
    """Multi-controlled phase: one Z-spider per qubit around an n-ary H-box
    with label ``e^{i theta}``.  Contracts exactly to ``diag(1,...,1,e^{i theta})``."""
    if n < 1:
        raise ZXError(f"need n >= 1, got {n}")
    d = ZXDiagram()
    h = d.add_h(np.exp(1j * theta))
    for _ in range(n):
        i = d.add_input()
        o = d.add_output()
        s = d.add_z()
        d.add_edge(i, s)
        d.add_edge(s, o)
        d.add_edge(s, h)
    return d


def mcz_diagram(n: int) -> ZXDiagram:
    """Multi-controlled Z (label -1 H-box); ``mcz_diagram(1)`` is the Z gate."""
    return mcp_diagram(n, np.pi)


def split_mcz_three_hboxes(n: int, m: int) -> ZXDiagram:
    """MCZ on ``n`` qubits rewritten with three H-boxes and scalar 1/2.

    The n-ary H-box is split by H-box fusion into an upper box over the first
    ``m`` qubits, a lower box over the remaining ``n - m``, and an arity-2 box
    between them.  ``cut_edge`` marks the wire between the upper and middle
    boxes, where a single wire cut severs the gate.
    """
    if not 1 <= m < n:
        raise ZXError(f"need 1 <= m < n, got m={m}, n={n}")
    d = ZXDiagram()
    h_up = d.add_h()
    h_mid = d.add_h()
    h_down = d.add_h()
    for q in range(n):
        i = d.add_input()
        o = d.add_output()
        s = d.add_z()
        d.add_edge(i, s)
        d.add_edge(s, o)
        d.add_edge(s, h_up if q < m else h_down)
    d.add_edge(h_up, h_mid)
    d.add_edge(h_mid, h_down)
    d.multiply_scalar(0.5)
    d.cut_edge = (h_up, h_mid)
    return d


def rzz_diagram(theta: float) -> ZXDiagram:
    """Two-qubit ZZ-rotation as a phase gadget.

    The scalar ``sqrt(2) e^{-i theta/2}`` makes the contraction equal
    ``exp(-i theta/2 Z (x) Z)`` exactly, not merely up to phase.  ``cut_edge``
    marks the wire connecting the gadget to the second qubit's spider.
    """
    d = ZXDiagram()
    gadget = d.add_x()
    phase = d.add_z(theta)
    d.add_edge(gadget, phase)
    spiders = []
    for _ in range(2):
        i = d.add_input()
        o = d.add_output()
        s = d.add_z()
        d.add_edge(i, s)
        d.add_edge(s, o)
        spiders.append(s)
    d.add_edge(spiders[0], gadget)
    d.add_edge(gadget, spiders[1])
    d.multiply_scalar(np.sqrt(2.0) * np.exp(-1j * theta / 2))
    d.cut_edge = (gadget, spiders[1])
    return d


# ---------------------------------------------------------------------------
# Wire-cut fragments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CutFragment:
    """One measure/prepare spider pair replacing a cut wire.

    ``weight`` is the quasiprobability coefficient attached to this fragment;
    summing ``weight * (M rho M^dag)`` over a protocol's fragments, where M is
    the contraction with the fragment inserted, reproduces the uncut channel.
    ``scalar`` (1/2) is the wire-cut normalization absorbed into the diagram.
    ``needs_cc`` marks fragments whose prepared state depends on the measured
    outcome (classical communication across the cut).
    """

    name: str
    weight: float
    measure_kind: str
    measure_phase: float
    prepare_kind: str
    prepare_phase: float
    scalar: float = 0.5
    needs_cc: bool = False


def wire_cut_fragments(cc_basis: str = "Y") -> list:
    """The ten fragments of the single-wire cut with classical communication.

    ``cc_basis`` selects which Pauli's term is grouped into a single CPTP
    measure-and-reprepare channel (weight +1 per outcome, classical
    communication required); the other two Paulis contribute four
    measure-and-prepare fragments each with weights +-1/2 and no
    communication.
    """
    half = math.pi / 2
    if cc_basis == "Y":
        grouped = [
            CutFragment("Y:+i", 1.0, "z", -half, "x", -half, needs_cc=True),
            CutFragment("Y:-i", 1.0, "z", +half, "x", +half, needs_cc=True),
        ]
        peng = _peng_fragments("X", "z", (0.0, math.pi), (0.0, math.pi)) + (
            _peng_fragments("Z", "x", (0.0, math.pi), (0.0, math.pi))
        )
    elif cc_basis == "X":
        grouped = [
            CutFragment("X:+", 1.0, "z", 0.0, "z", 0.0, needs_cc=True),
            CutFragment("X:-", 1.0, "z", math.pi, "z", math.pi, needs_cc=True),
        ]
        # arity-1 Z(phi) is the ket |0> + e^{i phi}|1> but the bra <0| + e^{i phi}<1|,
        # so the Y eigenstates take opposite phases on the measure and prepare side
        peng = _peng_fragments("Y", "z", (-half, +half), (+half, -half)) + (
            _peng_fragments("Z", "x", (0.0, math.pi), (0.0, math.pi))
        )
    elif cc_basis == "Z":
        grouped = [
            CutFragment("Z:0", 1.0, "x", 0.0, "x", 0.0, needs_cc=True),
            CutFragment("Z:1", 1.0, "x", math.pi, "x", math.pi, needs_cc=True),
        ]
        peng = _peng_fragments("X", "z", (0.0, math.pi), (0.0, math.pi)) + (
            _peng_fragments("Y", "z", (-half, +half), (+half, -half))
        )
    else:
        raise ZXError(f"cc_basis must be X, Y or Z, got {cc_basis!r}")
    return grouped + peng


def _peng_fragments(
    pauli: str, kind: str, meas_phases: tuple, prep_phases: tuple
) -> list:
    """Four fixed-preparation fragments for one Pauli: measure either outcome,
    always prepare eigenstate ``mu``.

    The fragment weight is the channel coefficient ``+-1/2`` times the
    eigenvalue ``(-1)^outcome`` of the observed measurement result (the sign
    the sampling protocol tracks classically).
    """
    out = []
    for mu, (prep_phase, q) in enumerate(
        ((prep_phases[0], 0.5), (prep_phases[1], -0.5))
    ):
        for outcome, meas_phase in enumerate(meas_phases):
            out.append(
                CutFragment(
                    f"{pauli}{mu}:a{outcome}",
                    q * (1 if outcome == 0 else -1),
                    kind,
                    meas_phase,
                    kind,
                    prep_phase,
                )
            )
    return out


def insert_cut_fragment(d: ZXDiagram, edge: tuple, fragment: CutFragment) -> ZXDiagram:
    """Replace ``edge = (source, sink)`` by the fragment's disconnected
    measure/prepare spider pair; the measure spider attaches to ``source``."""
    u, v = edge
    idx = next(
        (k for k, e in enumerate(d.edges) if e == (u, v) or e == (v, u)), None
    )
    if idx is None:
        raise ZXError(f"edge {edge} not found in diagram")
    out = d.copy()
    out.cut_edge = None
    del out.edges[idx]
    meas = out._add_node(fragment.measure_kind, float(fragment.measure_phase))
    prep = out._add_node(fragment.prepare_kind, float(fragment.prepare_phase))
    out.add_edge(u, meas)
    out.add_edge(prep, v)
    out.multiply_scalar(fragment.scalar)
    return out


# ---------------------------------------------------------------------------
# Rule certification
# ---------------------------------------------------------------------------


def verify_rule(lhs: ZXDiagram, rhs: ZXDiagram, up_to_scalar: bool = False) -> dict:
    """Contract both sides and report agreement over the common refinement of
    their open-leg indices, where legs share an index only if they share one on
    both sides; every dense entry outside it is 0 on both sides.

    With ``up_to_scalar`` the report includes the least-squares complex ratio
    ``c`` minimizing ``|rhs - c * lhs|`` and the residual after rescaling.
    """
    if len(lhs.inputs) != len(rhs.inputs) or len(lhs.outputs) != len(rhs.outputs):
        raise ZXError(
            f"boundary signature mismatch: ({len(lhs.inputs)}, {len(lhs.outputs)}) "
            f"vs ({len(rhs.inputs)}, {len(rhs.outputs)})"
        )
    sides = [_contract_compact(lhs), _contract_compact(rhs)]
    shared = list(dict.fromkeys(zip(sides[0][0], sides[1][0])))
    check_dense_bits(len(shared), f"comparison over {len(shared)} shared open-leg indices")
    # each side's compact tensor is dropped once it is embedded
    a, b = (_embed([k[i] for k in shared], *sides.pop(0)[1:]).ravel() for i in (0, 1))
    deviation = max_abs_diff(a, b)
    report = {
        "max_abs_deviation": deviation,
        "equal": deviation <= RULE_ATOL,
    }
    if up_to_scalar:
        norm = np.vdot(a, a)
        ratio = complex(np.vdot(a, b) / norm) if abs(norm) > 0 else complex("nan")
        residual = max_abs_diff(b, ratio * a)
        report["scalar_ratio"] = ratio
        report["scalar_residual"] = residual
        report["equal_up_to_scalar"] = residual <= RULE_ATOL
    return report


def spider_fusion_rule(alpha: float = 0.3, beta: float = 1.1) -> tuple:
    """Two connected Z-spiders fuse into one with the summed phase."""
    lhs = ZXDiagram()
    i, o = lhs.add_input(), lhs.add_output()
    s1, s2 = lhs.add_z(alpha), lhs.add_z(beta)
    for a, b in ((i, s1), (s1, s2), (s2, o)):
        lhs.add_edge(a, b)
    rhs = ZXDiagram()
    i, o = rhs.add_input(), rhs.add_output()
    s = rhs.add_z(alpha + beta)
    rhs.add_edge(i, s)
    rhs.add_edge(s, o)
    return lhs, rhs


def color_change_rule(alpha: float = 0.7) -> tuple:
    """H-boxes on every leg of a Z-spider turn it into an X-spider.

    Each arity-2 H-box is ``sqrt(2) H``, so the left side carries a
    compensating scalar ``1/2`` for the two legs.
    """
    lhs = ZXDiagram()
    i, o = lhs.add_input(), lhs.add_output()
    s = lhs.add_z(alpha)
    h1, h2 = lhs.add_h(), lhs.add_h()
    for a, b in ((i, h1), (h1, s), (s, h2), (h2, o)):
        lhs.add_edge(a, b)
    lhs.multiply_scalar(0.5)
    rhs = ZXDiagram()
    i, o = rhs.add_input(), rhs.add_output()
    s = rhs.add_x(alpha)
    rhs.add_edge(i, s)
    rhs.add_edge(s, o)
    return lhs, rhs


def hbox_fusion_rule(n: int = 3, m: int = 1) -> tuple:
    """An n-ary H-box vs. its three-H-box split (scalar 1/2 included)."""
    return mcz_diagram(n), split_mcz_three_hboxes(n, m)


def identity_removal_rule() -> tuple:
    """A phase-0 arity-2 Z-spider equals the bare wire."""
    lhs = ZXDiagram()
    i, o = lhs.add_input(), lhs.add_output()
    s = lhs.add_z(0.0)
    lhs.add_edge(i, s)
    lhs.add_edge(s, o)
    return lhs, wire_diagram(1)


def pi_commutation_rule(alpha: float = 0.9) -> tuple:
    """Pushing X(pi) through Z(alpha) flips the phase and emits ``e^{i alpha}``."""
    lhs = ZXDiagram()
    i, o = lhs.add_input(), lhs.add_output()
    x = lhs.add_x(math.pi)
    z = lhs.add_z(alpha)
    for a, b in ((i, x), (x, z), (z, o)):
        lhs.add_edge(a, b)
    rhs = ZXDiagram()
    i, o = rhs.add_input(), rhs.add_output()
    z = rhs.add_z(-alpha)
    x = rhs.add_x(math.pi)
    for a, b in ((i, z), (z, x), (x, o)):
        rhs.add_edge(a, b)
    rhs.multiply_scalar(np.exp(1j * alpha))
    return lhs, rhs


BUILTIN_RULES = {
    "spider-fusion": spider_fusion_rule,
    "color-change": color_change_rule,
    "hbox-fusion": hbox_fusion_rule,
    "identity-removal": identity_removal_rule,
    "pi-commutation": pi_commutation_rule,
}


# ---------------------------------------------------------------------------
# Text diagram format (one statement per line)
#
#   node <name> input|output|z|x|h [phase-or-label]
#   edge <name> <name>
#   scalar <complex>
#
# Phases accept "pi/2", "-3pi/4", "0.25", "2*pi/3"; H-box labels and the
# scalar accept Python complex literals or "a/b" fractions.  Boundary order
# follows the order of node statements.  Lines starting with "#" are comments.
# ---------------------------------------------------------------------------


def _parse_number(text: str, what: str, convert):
    """``convert`` applied to ``text`` without spaces; text that does not
    parse, a zero divisor and a non-finite result all raise :class:`ZXError`."""
    try:
        value = convert(text.strip().replace(" ", ""))
    except (ValueError, ArithmeticError):
        value = None
    if value is None or not cmath.isfinite(value):
        raise ZXError(f"cannot parse {what} {text!r}: expected a finite number")
    return value


def _angle(s: str) -> float:
    head, pi, tail = s.lower().replace("*", "").partition("pi")
    if not pi:
        return float(head)
    if tail and not tail.startswith("/"):
        raise ValueError(tail)
    coeff = float(head + "1" if head in ("", "+", "-") else head)  # "-pi" is -1 pi
    return coeff * math.pi / (float(tail[1:]) if tail else 1.0)


def _scalar(s: str) -> complex:
    if "/" in s and "j" not in s:
        num, _, den = s.partition("/")
        return complex(float(num) / float(den))
    return complex(s)


def parse_angle(text: str) -> float:
    """Parse an angle like ``pi/2``, ``-3pi/4``, ``2*pi/3`` or ``1.25``."""
    return _parse_number(text, "angle", _angle)


def _parse_scalar(text: str) -> complex:
    return _parse_number(text, "scalar", _scalar)


def parse_diagram(text: str) -> ZXDiagram:
    """Parse the text diagram format documented in the README."""
    d = ZXDiagram()
    names: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "node":
                if len(parts) < 3:
                    raise ZXError("node needs a name and a kind")
                _, name, kind = parts[:3]
                if name in names:
                    raise ZXError(f"duplicate node name {name!r}")
                arg = parts[3] if len(parts) > 3 else None
                if kind == "input":
                    names[name] = d.add_input()
                elif kind == "output":
                    names[name] = d.add_output()
                elif kind in ("z", "x"):
                    phase = parse_angle(arg) if arg else 0.0
                    names[name] = d.add_z(phase) if kind == "z" else d.add_x(phase)
                elif kind == "h":
                    label = _parse_scalar(arg) if arg else -1.0
                    names[name] = d.add_h(label)
                else:
                    raise ZXError(f"unknown node kind {kind!r}")
            elif parts[0] == "edge":
                if len(parts) != 3:
                    raise ZXError("edge needs exactly two node names")
                for name in parts[1:]:
                    if name not in names:
                        raise ZXError(f"unknown node {name!r}")
                d.add_edge(names[parts[1]], names[parts[2]])
            elif parts[0] == "scalar":
                if len(parts) != 2:
                    raise ZXError("scalar needs exactly one value")
                d.multiply_scalar(_parse_scalar(parts[1]))
            else:
                raise ZXError(f"unknown statement {parts[0]!r}")
        except ZXError as exc:
            raise ZXError(f"line {lineno}: {exc}") from None
    return d
