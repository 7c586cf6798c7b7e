"""Property tests of the ZZ- and multi-Z-rotation cuts over the whole range
of finite rotation angles: every angle verifies, and the 1-norm keeps its
closed form (``1 + 2|sin theta|`` for the ancilla-free cuts, 3 for the
ancilla cut)."""

import numpy as np
import pytest

from qcut.cuts import (
    multi_z_rotation_decomposition,
    rzz_decomposition_a,
    rzz_decomposition_b,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: the edges of the angle range: half turns, tiny and subnormal angles, and
#: angles far outside one period
EDGE_ANGLES = [np.pi, -np.pi, 1e-300, -1e-300, 5e-324, 1e6, -1e6]

angles = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_ANGLES))
settings = hypothesis.settings(max_examples=100, deadline=None, database=None)


def check(deco, gamma):
    report = deco.verify()
    assert report["passed"], report
    assert report["max_abs_deviation"] <= 1e-9
    assert abs(deco.one_norm() - gamma) <= 1e-12, (deco.one_norm(), gamma)


@settings
@hypothesis.given(theta=angles)
def test_rzz_b_verifies_at_every_angle(theta):
    check(rzz_decomposition_b(theta), 1 + 2 * abs(np.sin(theta)))


@settings
@hypothesis.given(theta=angles, m=st.integers(1, 3), m_prime=st.integers(1, 3))
def test_multi_z_verifies_at_every_angle(theta, m, m_prime):
    check(multi_z_rotation_decomposition(m, m_prime, theta), 1 + 2 * abs(np.sin(theta)))


@settings
@hypothesis.given(theta=angles)
def test_rzz_a_verifies_at_every_angle(theta):
    check(rzz_decomposition_a(theta), 3.0)
