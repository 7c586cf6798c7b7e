import dataclasses
import tracemalloc

import numpy as np
import pytest

from qcut import gates, zx
from qcut.channels import GeneralizedMap, UnitaryChannel
from qcut.cuts import (
    Decomposition,
    DecompositionTerm,
    mcz_decomposition,
    wire_cut_cc,
    wire_cut_ncc,
)
from qcut.linalg import SizeCapError
from qcut.zx import (
    BUILTIN_RULES,
    CNOT_VARIANTS,
    ZXDiagram,
    ZXError,
    cnot_diagram,
    contract,
    hbox_tensor,
    insert_wire_cut,
    mcp_diagram,
    mcz_diagram,
    parse_angle,
    parse_diagram,
    rzz_diagram,
    split_mcz_three_hboxes,
    state_diagram,
    verify_rule,
    wire_diagram,
)
from oracles import (
    cap_diagram,
    compose,
    cup_diagram,
    degree,
    dense_verify_rule,
    effect_diagram,
    swap_diagram,
    tensor,
    with_nan_phase,
)

SQ2 = np.sqrt(2)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _one_spider(kind: str, phase: float, n_in: int, n_out: int) -> ZXDiagram:
    d = ZXDiagram()
    s = d.add_z(phase) if kind == "z" else d.add_x(phase)
    for _ in range(n_in):
        d.add_edge(d.add_input(), s)
    for _ in range(n_out):
        d.add_edge(s, d.add_output())
    return d


def test_z_spider_tensor():
    # [TRIVIAL] 1 at all-0, e^{i alpha} at all-1, else 0
    t = contract(_one_spider("z", 0.7, 0, 3)).reshape(2, 2, 2)
    assert t[0, 0, 0] == pytest.approx(1.0)
    assert t[1, 1, 1] == pytest.approx(np.exp(0.7j))
    assert t[0, 1, 0] == 0 and t[1, 1, 0] == 0


def test_x_spider_is_hadamard_conjugated_z():
    h = gates.hadamard().mat
    z = contract(_one_spider("z", 1.1, 1, 1))
    x = contract(_one_spider("x", 1.1, 1, 1))
    assert np.allclose(x, h @ z @ h, atol=1e-12)


def test_arity0_spiders_and_hbox():
    lone = contract(_one_spider("z", 0.4, 0, 0))
    assert lone.shape == (1, 1)
    assert lone[0, 0] == pytest.approx(1 + np.exp(0.4j))
    assert hbox_tensor(0.3 + 0.1j, 0) == pytest.approx(0.3 + 0.1j)


def test_hbox_tensor():
    # [TRIVIAL] label at all-1, 1 elsewhere; arity-2 label -1 = sqrt(2) H
    t = hbox_tensor(-1.0, 2)
    assert np.allclose(t, SQ2 * gates.hadamard().mat, atol=1e-12)
    t3 = hbox_tensor(2.0j, 3)
    assert t3[1, 1, 1] == 2.0j and t3[0, 1, 1] == 1.0


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------


def test_contract_wire_and_swap():
    assert np.allclose(contract(wire_diagram(2)), np.eye(4), atol=1e-12)
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(contract(swap_diagram()), swap, atol=1e-12)


def test_contract_states_and_effects():
    # [DERIVED] Z-spider states are sqrt(2) |+/-_phase>
    plus = contract(state_diagram("z", 0.0)).ravel()
    assert np.allclose(plus, [1, 1], atol=1e-12)
    one = contract(state_diagram("x", np.pi)).ravel()
    assert np.allclose(one, SQ2 * np.array([0, 1]), atol=1e-12)
    bra = contract(effect_diagram("z", np.pi / 2)).ravel()
    # effect is the phase-conjugate row vector <0| + e^{i phi} <1|
    assert np.allclose(bra, [1, np.exp(1j * np.pi / 2)], atol=1e-12)


def test_cup_cap_snake():
    # [DERIVED] snake identity: (cap x wire) . (wire x cup) = wire
    left = tensor(cap_diagram(), wire_diagram(1))
    right = tensor(wire_diagram(1), cup_diagram())
    snake = compose(right, left)
    assert np.allclose(contract(snake), np.eye(2), atol=1e-12)


@pytest.mark.parametrize("variant", CNOT_VARIANTS)
def test_cnot_variants(variant):
    assert np.allclose(contract(cnot_diagram(variant)), gates.cnot().mat, atol=1e-10)


def test_mcz_and_mcp_diagrams():
    for n in (1, 2, 3, 4):
        assert np.allclose(contract(mcz_diagram(n)), gates.mcz(n).mat, atol=1e-10)
    theta = 1.234
    for n in (1, 2, 3):
        assert np.allclose(
            contract(mcp_diagram(n, theta)), gates.mcp(n, theta).mat, atol=1e-10
        )


def test_rzz_diagram_exact_including_global_phase():
    for theta in (0.0, np.pi / 6, np.pi / 2, 1.234, np.pi):
        assert np.allclose(contract(rzz_diagram(theta)), gates.rzz(theta).mat, atol=1e-10)


def test_scalar_subdiagram_absorbed():
    d = wire_diagram(1)
    lone = d.add_z(np.pi / 3)  # arity-0 spider contributes 1 + e^{i pi/3}
    assert degree(d, lone) == 0
    assert np.allclose(contract(d), (1 + np.exp(1j * np.pi / 3)) * np.eye(2), atol=1e-12)


def test_compose_and_tensor_match_matrix_algebra():
    d1, d2 = cnot_diagram(), rzz_diagram(0.8)
    assert np.allclose(
        contract(compose(d1, d2)), contract(d2) @ contract(d1), atol=1e-10
    )
    assert np.allclose(
        contract(tensor(state_diagram("x", np.pi), state_diagram("x", 0.0))).ravel(),
        np.kron(SQ2 * np.array([0, 1]), SQ2 * np.array([1, 0])),
        atol=1e-12,
    )


def test_dangling_and_self_loop_errors():
    d = ZXDiagram()
    a = d.add_z()
    with pytest.raises(ZXError):
        d.add_edge(a, a)
    d2 = wire_diagram(1)
    extra = d2.add_input()
    b = d2.add_z()
    d2.add_edge(extra, b)
    d2.add_edge(b, d2.add_output())
    assert contract(d2).shape == (4, 4)


def test_long_chain_matches_matrix_product():
    # 30 X spiders and 30 H-boxes in a row: more indices than np.einsum has
    # letters, so the contraction must go step by step
    rng = np.random.default_rng(3)
    h = gates.hadamard().mat
    d = ZXDiagram()
    prev = d.add_input()
    expected = np.eye(2, dtype=complex)
    for _ in range(30):
        alpha, label = rng.uniform(0, 2 * np.pi, size=2)
        x, box = d.add_x(alpha), d.add_h(np.exp(1j * label))
        for a, b in ((prev, x), (x, box)):
            d.add_edge(a, b)
        prev = box
        box_mat = np.array([[1, 1], [1, np.exp(1j * label)]])
        expected = box_mat @ h @ np.diag([1, np.exp(1j * alpha)]) @ h @ expected
    d.add_edge(prev, d.add_output())
    assert len(d.edges) > 52
    got = contract(d)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", ["z", "x"])
@pytest.mark.parametrize("n_edges", [2, 3])
def test_parallel_edges_between_spiders(kind, n_edges):
    # [DERIVED] same-colour spiders fuse however many edges join them
    d = ZXDiagram()
    add = d.add_z if kind == "z" else d.add_x
    a, b = add(0.4), add(1.3)
    for _ in range(n_edges):
        d.add_edge(a, b)
    d.add_edge(d.add_input(), a)
    d.add_edge(b, d.add_output())
    want = contract(_one_spider(kind, 1.7, 1, 1))
    assert np.allclose(contract(d), want, atol=1e-12)


def test_closed_diagram_is_a_1x1_matrix():
    # [DERIVED] a cup closed by a cap is the trace of the identity on a qubit
    loop = compose(cup_diagram(), cap_diagram())
    assert not loop.inputs and not loop.outputs
    got = contract(loop)
    assert got.shape == (1, 1) and got[0, 0] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------


def test_builtin_rules_hold_exactly():
    for name, build in BUILTIN_RULES.items():
        report = verify_rule(*build())
        assert report["equal"], f"{name}: {report['max_abs_deviation']}"


def test_verify_rule_detects_scalar_mismatch():
    lhs = wire_diagram(1)
    rhs = wire_diagram(1)
    rhs.multiply_scalar(2.0)
    report = verify_rule(lhs, rhs)
    assert not report["equal"]
    report = verify_rule(lhs, rhs, up_to_scalar=True)
    assert report["equal_up_to_scalar"]
    assert report["scalar_ratio"] == pytest.approx(2.0)


@pytest.mark.parametrize("nan_side", ["lhs", "rhs"])
def test_verify_rule_reports_nan_as_unequal(nan_side):
    good = rzz_diagram(0.3)
    bad = with_nan_phase(good)
    assert np.isnan(contract(bad)).any() and not np.isnan(contract(bad)).all()
    lhs, rhs = (bad, good) if nan_side == "lhs" else (good, bad)
    report = verify_rule(lhs, rhs)
    assert np.isnan(report["max_abs_deviation"])
    assert report["equal"] is False


def test_verify_rule_memory():
    # each side contracts to a 2^10 x 2^10 complex matrix (16 MiB); a dense
    # difference and its magnitude would add 24 MiB on top of both
    lhs, rhs = mcz_diagram(10), split_mcz_three_hboxes(10, 5)
    tracemalloc.start()
    try:
        report = verify_rule(lhs, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["equal"]
    assert peak < 40 * 2**20


def test_verify_rule_compares_on_shared_indices_past_the_dense_cap():
    # a dense comparison needs 2^32 entries per side; the wires' shared
    # indices need 2^16
    lhs, rhs = mcz_diagram(16), split_mcz_three_hboxes(16, 8)
    tracemalloc.start()
    try:
        report = verify_rule(lhs, rhs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["equal"]
    assert peak < 4 * 2**20


def test_verify_rule_caps_the_shared_indices_before_allocating():
    # every wire shifted by one qubit: no input shares an index with the same
    # output on both sides, so the 28 legs stay apart
    shifted = ZXDiagram()
    ins = [shifted.add_input() for _ in range(14)]
    outs = [shifted.add_output() for _ in range(14)]
    for k, i in enumerate(ins):
        shifted.add_edge(i, outs[(k + 1) % 14])
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="^comparison over 28 shared open-leg indices "
                                               "needs 2\\^28 dense entries"):
            verify_rule(wire_diagram(14), shifted)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("zero_side", ["lhs", "rhs", "both"])
def test_verify_rule_calls_a_zero_side_equal_only_to_zero_up_to_a_scalar(zero_side):
    zero = wire_diagram(1)
    zero.multiply_scalar(0.0)
    small = wire_diagram(1)
    small.multiply_scalar(1e-11)  # within RULE_ATOL of 0: also a zero side
    for z in (zero, small):
        lhs, rhs = {"lhs": (z, wire_diagram(1)), "rhs": (wire_diagram(1), z),
                    "both": (z, zero)}[zero_side]
        report = verify_rule(lhs, rhs, up_to_scalar=True)
        assert report["equal_up_to_scalar"] is (zero_side == "both")
        assert report["zero_side"] == zero_side
        assert not any(np.isnan(report[k]) for k in
                       ("max_abs_deviation", "scalar_ratio", "scalar_residual"))
        if zero_side != "rhs":
            assert report["scalar_ratio"] == 0
        assert report == dense_verify_rule(lhs, rhs, up_to_scalar=True)


def test_builders_wire_each_qubit_through_one_spider_in_a_fixed_order():
    # input, output, then the phase-0 Z spider between them: node ids (and so
    # the contraction order and every printed deviation) depend on this order
    d = mcp_diagram(2, 0.5)
    assert [d.nodes[k][0] for k in sorted(d.nodes)] == ["h", "b", "b", "z", "b", "b", "z"]
    assert d.edges == [(1, 3), (3, 2), (3, 0), (4, 6), (6, 5), (6, 0)]
    assert (d.inputs, d.outputs) == ([1, 4], [2, 5])
    split = split_mcz_three_hboxes(3, 1)
    assert split.edges[:3] == [(3, 5), (5, 4), (5, 0)] and split.edges[-2:] == [(0, 1), (1, 2)]
    rzz = rzz_diagram(0.7)
    assert rzz.edges == [(0, 1), (2, 4), (4, 3), (5, 7), (7, 6), (4, 0), (0, 7)]
    assert rzz.cut_edge == (0, 7)


def test_copy_keeps_every_field_and_shares_no_container():
    d = split_mcz_three_hboxes(3, 1)
    d.multiply_scalar(0.5j)
    c = d.copy()
    assert c == d
    for f in dataclasses.fields(d):
        value = getattr(d, f.name)
        if isinstance(value, (dict, list)):
            assert getattr(c, f.name) is not value, f.name
    sizes = [len(d.nodes), len(d.edges), len(d.inputs), len(d.outputs)]
    c.add_edge(c.add_input(), 0)
    assert c != d and [len(d.nodes), len(d.edges), len(d.inputs), len(d.outputs)] == sizes


def test_verify_rule_rejects_shape_mismatch():
    with pytest.raises(ZXError):
        verify_rule(wire_diagram(1), wire_diagram(2))


def test_mcz_three_hbox_split():
    # [KNOWN] three H-boxes with label -1 and scalar 1/2 reproduce MCZ
    for n, m in ((2, 1), (3, 1), (3, 2), (4, 2), (5, 3)):
        split = split_mcz_three_hboxes(n, m)
        report = verify_rule(mcz_diagram(n), split)
        assert report["equal"], (n, m, report["max_abs_deviation"])


# ---------------------------------------------------------------------------
# wire cuts
# ---------------------------------------------------------------------------


def _wire_cut(basis: str) -> Decomposition:
    return wire_cut_ncc() if basis == "ncc" else wire_cut_cc(basis)


@pytest.mark.parametrize("basis", ["Y", "X", "Z", "ncc"])
def test_wire_cut_fragments_resolve_identity(basis):
    # [KNOWN] each outcome's spider pair contracts to its rank-one
    # Kraus operator, and summing weight * (pair (x) conj(pair)) over the
    # outcomes reproduces the identity channel
    deco = _wire_cut(basis)
    outcomes = insert_wire_cut(wire_diagram(1), deco)
    kraus = [k for t in deco.terms for k in t.factors[0].ops]
    assert len(outcomes) == len(kraus)
    total = np.zeros((4, 4), dtype=complex)
    for (term, sign, d), k in zip(outcomes, kraus):
        pair = contract(d)
        assert np.max(np.abs(pair - k)) <= 1e-15, term.label
        total += term.q * sign * np.kron(pair, pair.conj())
    assert np.max(np.abs(total - np.eye(4))) < 1e-10
    # each outcome of a term is its own diagram, so gamma = sum |w| / 2
    assert sum(abs(t.q * sign) for t, sign, _ in outcomes) / 2 == deco.one_norm()
    assert sum(t.needs_cc for t, _, _ in outcomes) == 2 * sum(t.needs_cc for t in deco.terms)


def _cut_gates():
    for n in range(2, 6):
        for m in range(1, n):
            yield f"mcz[{n},{m}]", split_mcz_three_hboxes(n, m), gates.mcz(n)
    for theta in (0.3, 1.234):
        yield f"rzz[{theta}]", rzz_diagram(theta), gates.rzz(theta)


@pytest.mark.parametrize("basis", ["Y", "X", "Z", "ncc"])
def test_wire_cut_at_cut_edge_cuts_the_gate(basis):
    # [DERIVED] the paper's construction: a wire cut inserted at cut_edge
    # cuts the whole gate.  Every outcome contracts to a diagonal m, and
    # sum w m conj(m)^T equals u conj(u)^T for the gate's diagonal u.
    deco = _wire_cut(basis)
    for label, d, gate in _cut_gates():
        u = np.diag(gate.mat)
        total = np.zeros((len(u), len(u)), dtype=complex)
        for term, sign, cut in insert_wire_cut(d, deco):
            mat = contract(cut)
            m = np.diag(mat)
            assert np.array_equal(mat, np.diag(m)), (label, term.label)
            total += term.q * sign * np.outer(m, m.conj())
        assert np.max(np.abs(total - np.outer(u, u.conj()))) <= 1e-12, label


def _one_factor_cut(factor) -> Decomposition:
    return Decomposition("cut", (1,), [DecompositionTerm(1.0, [factor], "F")], gates.identity(1))


@pytest.mark.parametrize(
    "d,deco,match",
    [
        (split_mcz_three_hboxes(2, 1), mcz_decomposition(1, 1), "one single-qubit factor"),
        (mcz_diagram(2), wire_cut_cc("Y"), "no cut_edge"),
        (split_mcz_three_hboxes(2, 1), _one_factor_cut(UnitaryChannel(gates.identity(1))),
         r"not \|s><e\|"),
        # measure Z and prepare cos(0.3)|0> + sin(0.3)|1>, which no spider is
        (split_mcz_three_hboxes(2, 1), _one_factor_cut(GeneralizedMap(
            [1, 1], [np.outer([np.cos(0.3), np.sin(0.3)], e) for e in np.eye(2)])),
         r"not \|s><e\|"),
        (dataclasses.replace(wire_diagram(1), cut_edge=(0, 7)), wire_cut_cc("Y"), "not an edge"),
    ],
    ids=["two-factors", "no-cut-edge", "unitary", "non-spider-state", "missing-edge"],
)
def test_insert_wire_cut_refuses(d, deco, match):
    with pytest.raises(ZXError, match=match):
        insert_wire_cut(d, deco)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def test_parse_angle():
    assert parse_angle("pi/2") == pytest.approx(np.pi / 2)
    assert parse_angle("-3pi/4") == pytest.approx(-3 * np.pi / 4)
    assert parse_angle("2*pi/3") == pytest.approx(2 * np.pi / 3)
    assert parse_angle("0.25") == pytest.approx(0.25)
    with pytest.raises(ZXError):
        parse_angle("pie")


def test_parse_diagram_roundtrip():
    text = """
    # Z(pi) on a single wire
    node in input
    node s z pi
    node out output
    edge in s
    edge s out
    scalar 1/2
    """
    d = parse_diagram(text)
    assert np.allclose(contract(d), 0.5 * np.diag([1.0, -1.0]), atol=1e-12)


def test_parse_diagram_errors_are_line_anchored():
    with pytest.raises(ZXError, match="line 2"):
        parse_diagram("node a z\nnode a x\n")
    with pytest.raises(ZXError, match="line 1"):
        parse_diagram("edge a b\n")
    with pytest.raises(ZXError, match="line 1"):
        parse_diagram("frobnicate\n")


@pytest.mark.parametrize("above", [False, True], ids=["at-tolerance", "one-ulp-above"])
def test_verify_rule_is_equal_at_exactly_the_tolerance(monkeypatch, above):
    deviation = zx.RULE_ATOL if not above else np.nextafter(zx.RULE_ATOL, 1.0)
    monkeypatch.setattr(zx, "max_abs_diff", lambda a, b: deviation)
    report = zx.verify_rule(*BUILTIN_RULES["spider-fusion"]())
    assert report["max_abs_deviation"] == deviation and report["equal"] is not above
