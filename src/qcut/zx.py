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

:func:`insert_wire_cut` cuts a diagram's ``cut_edge`` with the terms of a
single-qubit wire-cut decomposition: each rank-one Kraus operator ``|s><e|``
becomes an arity-1 spider pair, so the diagrams it returns contract to the
cut channel's outcomes exactly.
"""

from __future__ import annotations

import cmath
import heapq
import itertools
import math
import string
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .linalg import QcutError, check_dense_bits, max_abs_diff, read_only

#: matrix equality tolerance for rule certification
RULE_ATOL = 1e-10

_HADAMARD = read_only(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0))


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

    Built incrementally via ``add_*`` methods.  ``cut_edge``, when set, is
    the ``(source, sink)`` wire that :func:`insert_wire_cut` cuts; it returns
    new diagrams, and :func:`contract` is pure.
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
        return replace(self, nodes=dict(self.nodes), edges=list(self.edges),
                       inputs=list(self.inputs), outputs=list(self.outputs))

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


def _qubit_wire(d: ZXDiagram) -> int:
    """Add an input, an output and a phase-0 Z spider wired between them, in
    that order; returns the spider."""
    i, o, s = d.add_input(), d.add_output(), d.add_z()
    d.add_edge(i, s)
    d.add_edge(s, o)
    return s


def wire_diagram(n: int = 1) -> ZXDiagram:
    """``n`` parallel bare wires (the identity); ``cut_edge`` is the first."""
    d = ZXDiagram()
    for _ in range(n):
        i = d.add_input()
        o = d.add_output()
        d.add_edge(i, o)
    d.cut_edge = d.edges[0] if n else None
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
        d.add_edge(_qubit_wire(d), h)
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
        d.add_edge(_qubit_wire(d), h_up if q < m else h_down)
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
    spiders = [_qubit_wire(d) for _ in range(2)]
    d.add_edge(spiders[0], gadget)
    d.add_edge(gadget, spiders[1])
    d.multiply_scalar(np.sqrt(2.0) * np.exp(-1j * theta / 2))
    d.cut_edge = (gadget, spiders[1])
    return d


# ---------------------------------------------------------------------------
# Wire cuts
# ---------------------------------------------------------------------------


def _arity1_spider(v: np.ndarray) -> tuple:
    """``(kind, phase, t)``: X(0) or X(pi) when one entry of ``v`` is 0, else Z
    with the phase of ``v[1] / v[0]``; ``t`` is the spider's tensor."""
    small = RULE_ATOL * np.abs(v).max()
    if min(abs(v[0]), abs(v[1])) <= small:
        kind, phase = "x", 0.0 if abs(v[1]) <= small else math.pi
    else:
        kind, phase = "z", cmath.phase(v[1] / v[0])
    t = np.array([1.0, cmath.exp(1j * phase)])
    return kind, phase, t @ _HADAMARD if kind == "x" else t


def insert_wire_cut(d: ZXDiagram, deco) -> list:
    """Cut ``d.cut_edge = (source, sink)`` with the single-qubit decomposition
    ``deco``: one ``(term, sign, diagram)`` per outcome, each term's
    quasiprobability weight being ``term.q * sign``.

    Every term must have one factor whose Kraus operators are each rank one,
    ``K = |s><e|`` (as in :func:`~qcut.cuts.wire_cut_ncc` and
    :func:`~qcut.cuts.wire_cut_cc`).  In ``diagram`` the cut edge is replaced
    by the arity-1 spider ``<e|`` on ``source`` and ``|s>`` on ``sink``, with
    the scalar that makes the pair contract to ``K`` exactly.
    """
    if d.cut_edge is None:
        raise ZXError("diagram has no cut_edge to insert a wire cut at")
    u, v = d.cut_edge
    idx = next((n for n, e in enumerate(d.edges) if e in ((u, v), (v, u))), None)
    if idx is None:
        raise ZXError(f"cut_edge {d.cut_edge} is not an edge of the diagram")
    out = []
    for term in deco.terms:
        factor = term.factors[0]
        if len(term.factors) != 1 or factor.n_qubits != 1:
            raise ZXError(f"term {term.label!r}: a wire cut needs one single-qubit factor")
        for sign, k in zip(factor.signs, factor.ops):
            i, j = np.unravel_index(np.argmax(np.abs(k)), k.shape)
            (m_kind, m_phase, m_t), (p_kind, p_phase, p_t) = map(_arity1_spider, (k[i], k[:, j]))
            pair = np.outer(p_t, m_t)
            scale = np.vdot(pair, k) / np.vdot(pair, pair)
            if not max_abs_diff(scale * pair, k) <= RULE_ATOL:
                raise ZXError(f"term {term.label!r}: Kraus operator is not |s><e| "
                              "with s and e spider states")
            cut = d.copy()
            cut.cut_edge = None
            del cut.edges[idx]
            cut.add_edge(u, cut._add_node(m_kind, m_phase))
            cut.add_edge(cut._add_node(p_kind, p_phase), v)
            cut.multiply_scalar(scale)
            out.append((term, sign, cut))
    return out


# ---------------------------------------------------------------------------
# Rule certification
# ---------------------------------------------------------------------------


def verify_rule(lhs: ZXDiagram, rhs: ZXDiagram, up_to_scalar: bool = False) -> dict:
    """Contract both sides and report agreement over the common refinement of
    their open-leg indices, where legs share an index only if they share one on
    both sides; every dense entry outside it is 0 on both sides.

    With ``up_to_scalar`` the report includes the least-squares complex ratio
    ``c`` minimizing ``|rhs - c * lhs|`` and the residual after rescaling.  A
    side whose entries are all within ``RULE_ATOL`` of 0 is a zero side: its
    ratio is 0, and it equals only another zero side up to a scalar.
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
        zero_a, zero_b = (bool(np.abs(x).max() <= RULE_ATOL) for x in (a, b))
        with np.errstate(invalid="ignore"):  # a NaN entry makes the ratio NaN
            ratio = 0j if zero_a else complex(np.vdot(a, b) / np.vdot(a, a))
        residual = max_abs_diff(b, ratio * a)
        report["scalar_ratio"] = ratio
        report["scalar_residual"] = residual
        report["equal_up_to_scalar"] = residual <= RULE_ATOL and zero_a == zero_b
    return report


def _chain(nodes, scalar: complex = 1.0) -> ZXDiagram:
    """One wire: an input, then each ``(kind, param)`` node, then an output."""
    d = ZXDiagram()
    path = [d.add_input(), *(getattr(d, f"add_{kind}")(p) for kind, p in nodes), d.add_output()]
    for a, b in zip(path, path[1:]):
        d.add_edge(a, b)
    d.multiply_scalar(scalar)
    return d


def spider_fusion_rule() -> tuple:
    """Two connected Z-spiders fuse into one with the summed phase."""
    return _chain([("z", 0.3), ("z", 1.1)]), _chain([("z", 0.3 + 1.1)])


def color_change_rule() -> tuple:
    """H-boxes on every leg of a Z-spider turn it into an X-spider.

    Each arity-2 H-box is ``sqrt(2) H``, so the left side carries a
    compensating scalar ``1/2`` for the two legs.
    """
    return _chain([("h", -1.0), ("z", 0.7), ("h", -1.0)], 0.5), _chain([("x", 0.7)])


def hbox_fusion_rule() -> tuple:
    """The 3-ary H-box vs. its three-H-box split at m = 1 (scalar 1/2 included)."""
    return mcz_diagram(3), split_mcz_three_hboxes(3, 1)


def identity_removal_rule() -> tuple:
    """A phase-0 arity-2 Z-spider equals the bare wire."""
    return _chain([("z", 0.0)]), wire_diagram(1)


def pi_commutation_rule() -> tuple:
    """Pushing X(pi) through Z(0.9) flips the phase and emits ``e^{0.9 i}``."""
    return (_chain([("x", math.pi), ("z", 0.9)]),
            _chain([("z", -0.9), ("x", math.pi)], np.exp(0.9j)))


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
#   node <name> input|output
#   node <name> z|x|h [phase-or-label]
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
                _, name, kind, *args = parts
                if name in names:
                    raise ZXError(f"duplicate node name {name!r}")
                extra = args[0 if kind in ("input", "output") else 1:]
                if extra:
                    raise ZXError(f"unexpected {' '.join(extra)!r} after {kind} node {name!r}")
                arg = args[0] if args else None
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
