"""Property test: contraction depends only on the diagram's connectivity."""

import numpy as np
import pytest

from qcut import zx

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
