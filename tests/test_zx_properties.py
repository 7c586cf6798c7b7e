"""Property tests: contraction depends only on the diagram's connectivity,
and ``verify_rule`` reports what the dense comparison of both sides reports."""

import cmath
import random

import numpy as np
import pytest

from qcut import zx
from oracles import cap_diagram, compose, cup_diagram, dense_verify_rule, with_nan_phase

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _builtin_diagrams() -> dict:
    diagrams = {f"cnot[{v}]": zx.cnot_diagram(v) for v in zx.CNOT_VARIANTS}
    for n in range(1, 5):
        diagrams[f"mcz[{n}]"] = zx.mcz_diagram(n)
        diagrams[f"mcp[{n}]"] = zx.mcp_diagram(n, 0.7)
        for m in range(1, n):
            diagrams[f"split[{n},{m}]"] = zx.split_mcz_three_hboxes(n, m)
    diagrams["rzz"] = zx.rzz_diagram(1.1)
    for name, rule in zx.BUILTIN_RULES.items():
        lhs, rhs = rule()
        diagrams[f"{name}:lhs"] = lhs
        diagrams[f"{name}:rhs"] = rhs
    return diagrams


DIAGRAMS = _builtin_diagrams()
EXPECTED = {name: zx.contract(d) for name, d in DIAGRAMS.items()}


def _scrambled(d: zx.ZXDiagram, rnd) -> zx.ZXDiagram:
    """The same network under new node labels, a new node order, a new edge
    order and randomly swapped edge endpoints; boundary order is kept."""
    old = list(d.nodes)
    relabel = dict(zip(old, rnd.sample(range(10 * len(old)), len(old))))
    rnd.shuffle(old)
    edges = [(relabel[u], relabel[v]) for u, v in d.edges]
    edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    rnd.shuffle(edges)
    return zx.ZXDiagram(
        nodes={relabel[nid]: d.nodes[nid] for nid in old},
        edges=edges,
        inputs=[relabel[nid] for nid in d.inputs],
        outputs=[relabel[nid] for nid in d.outputs],
        scalar=d.scalar,
        _next_id=max(relabel.values()) + 1,
    )


@hypothesis.settings(max_examples=150, deadline=None, database=None)
@hypothesis.given(name=st.sampled_from(sorted(DIAGRAMS)), rnd=st.randoms(use_true_random=False))
def test_contract_ignores_labels_and_edge_order(name, rnd):
    got = zx.contract(_scrambled(DIAGRAMS[name], rnd))
    assert np.max(np.abs(got - EXPECTED[name])) <= 1e-12


#: the pair pool: the diagrams above plus closed ones and a NaN spider phase
POOL = {
    **DIAGRAMS,
    "closed[loop]": compose(cup_diagram(), cap_diagram()),
    "closed[hbox]": zx.parse_diagram("node s z 0.4\nnode h h 0.5\nedge s h\nscalar 0.3+0.2j"),
    "rzz[nan]": with_nan_phase(zx.rzz_diagram(1.1)),
}


def _signature(d: zx.ZXDiagram) -> tuple:
    return len(d.inputs), len(d.outputs)


PAIRS = [(a, b) for a in sorted(POOL) for b in sorted(POOL)
         if _signature(POOL[a]) == _signature(POOL[b])]


def _agree(got, want, atol: float) -> bool:
    return (cmath.isnan(got) and cmath.isnan(want)) or abs(got - want) <= atol


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(pair=st.sampled_from(PAIRS), rnd=st.randoms(use_true_random=False))
# leg groupings that differ: both mcz wires tie input to output, the cnot
# target's legs stay apart; H-boxes separate the color-change legs, the
# identity-removal right side is a bare wire
@hypothesis.example(pair=("mcz[2]", "cnot[spiders]"), rnd=random.Random(0))
@hypothesis.example(pair=("color-change:lhs", "identity-removal:rhs"), rnd=random.Random(0))
@hypothesis.example(pair=("closed[loop]", "closed[hbox]"), rnd=random.Random(0))
@hypothesis.example(pair=("rzz[nan]", "rzz"), rnd=random.Random(0))
def test_verify_rule_matches_the_dense_comparison(pair, rnd):
    lhs, rhs = (_scrambled(POOL[name], rnd) for name in pair)
    got = zx.verify_rule(lhs, rhs, up_to_scalar=True)
    want = dense_verify_rule(lhs, rhs, up_to_scalar=True)
    deviation, expected = got["max_abs_deviation"], want["max_abs_deviation"]
    assert deviation == expected or (np.isnan(deviation) and np.isnan(expected))
    assert got["equal"] == want["equal"]
    assert _agree(got["scalar_ratio"], want["scalar_ratio"], 1e-12)
    assert _agree(got["scalar_residual"], want["scalar_residual"], 1e-12)
    assert got["equal_up_to_scalar"] == want["equal_up_to_scalar"]
