"""The maps that take no input from a caller are built once per process and
shared read-only: the same maps as a cold build, a bounded cache, arrays that
refuse writes, and no map construction on a repeated build."""

import sys

import numpy as np
import pytest

from qcut import channels, cli, cuts, gates, linalg, zx
from qcut.cuts import (
    DecompositionTerm,
    controlled_sequence_decomposition,
    mcz_decomposition,
    multi_z_rotation_decomposition,
    rzz_decomposition_a,
)
from oracles import haar_unitary


def package_caches() -> list:
    """Every function-level cache in the loaded qcut modules."""
    found = {
        id(obj): obj
        for name, module in list(sys.modules.items())
        if name == "qcut" or name.startswith("qcut.")
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    }
    return list(found.values())


def clear_caches():
    for cached in package_caches():
        cached.cache_clear()


def cache_size() -> int:
    return sum(cached.cache_info().currsize for cached in package_caches())


def assert_same_maps(got, want):
    assert (got.name, got.partition) == (want.name, want.partition)
    for t, t_want in zip(got.terms, want.terms, strict=True):
        assert (t.q, t.label, t.needs_cc) == (t_want.q, t_want.label, t_want.needs_cc), got.name
        for f, f_want in zip(t.factors, t_want.factors, strict=True):
            assert f.signs == f_want.signs, (got.name, t.label)
            for a, b in zip((f.weights, f.ops), (f_want.weights, f_want.ops), strict=True):
                assert a.shape == b.shape and np.array_equal(a, b), (got.name, t.label)


def cold_suite() -> list:
    """``verify --all``'s decompositions, each built right after every cache
    is cleared, so none reuses a map another one built."""
    suite, built = cli._verification_suite(), []
    while True:
        clear_caches()
        deco = next(suite, None)
        if deco is None:
            return built
        built.append(deco)


def warm_multi_z_first():
    # every multi_z split up to five qubits, before any MCZ split is built
    for n in range(2, 6):
        for m in range(1, n):
            multi_z_rotation_decomposition(m, n - m, 0.9)


@pytest.mark.parametrize("warm_up", [lambda: None, warm_multi_z_first],
                         ids=["mcz_first", "multi_z_first"])
def test_warm_caches_build_the_maps_of_a_cold_build(warm_up):
    cold = cold_suite()
    clear_caches()
    warm_up()
    warm = list(cli._verification_suite())
    assert len(warm) == len(cold) == 31
    for got, want in zip(warm, cold, strict=True):
        assert_same_maps(got, want)


@pytest.mark.parametrize("order", [(gates.all_ones, gates.parity), (gates.parity, gates.all_ones)],
                         ids=["and_first", "parity_first"])
def test_lift_of_one_map_keeps_and_and_parity_apart(order):
    # the same map lifted to the same size through both Boolean functions:
    # each lift is diag(k[bit(2)]), built here without any cache
    clear_caches()
    ez = channels.signed_z_map()
    for bit in order:
        deco = cuts._lifted("t", (2, 2), bit, lambda: [DecompositionTerm(1.0, [ez, ez], "t")],
                            gates.identity)
        for lifted in deco.terms[0].factors:
            assert lifted.signs == ez.signs
            for kraus, base in zip(lifted.ops, ez.ops, strict=True):
                assert np.array_equal(kraus, np.diag(np.diag(base)[bit(2)])), bit.__name__
    assert gates.all_ones(2).tolist() != gates.parity(2).tolist()


def test_caller_inputs_leave_the_cache_size_unchanged():
    rng = np.random.default_rng(23)
    thetas = rng.uniform(-np.pi, np.pi, 50)
    rzz_decomposition_a(0.2), multi_z_rotation_decomposition(2, 3, 0.2)
    controlled_sequence_decomposition([((0,), haar_unitary(rng, 2))], 1)
    size = cache_size()
    assert size > 0
    for theta in thetas:
        rzz_decomposition_a(theta)
        multi_z_rotation_decomposition(2, 3, theta)
    for _ in range(50):
        controlled_sequence_decomposition([((0,), haar_unitary(rng, 2))], 1)
    assert cache_size() == size


def test_every_cached_map_refuses_writes():
    clear_caches()
    first, second = list(cli._verification_suite()), list(cli._verification_suite())
    shared = {
        id(f): f
        for d1, d2 in zip(first, second)
        for t1, t2 in zip(d1.terms, d2.terms)
        for f, f2 in zip(t1.factors, t2.factors)
        if f is f2
    }
    # every factor of the wire, MCZ, rzz_b and multi_z families is shared
    for deco in first:
        if not deco.name.startswith(("rzz_a", "controlled_sequence")):
            assert all(id(f) in shared for t in deco.terms for f in t.factors), deco.name
    for f in shared.values():
        for array in (f.weights, f.ops):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(AttributeError):
            f.weights = f.ops
        with pytest.raises(AttributeError):
            f.ops = f.weights
    for d in (1, 2, 4, 8, 16, 32):
        table = linalg._hadamard(d)
        assert linalg._hadamard(d) is table and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 2
    # the kernel's index tables: a 4-target controlled sequence's verify()
    # builds the one for d_T = 16 and one x' row of 2 x 2 blocks
    controlled_sequence_decomposition([((t,), gates.hadamard()) for t in range(4)], 4).verify()
    assert linalg._xor_gather.cache_info().currsize == 1
    for d_t, rows in ((16, 4), (1, 1), (8, 32)):
        table = linalg._xor_gather(d_t, rows)
        assert linalg._xor_gather(d_t, rows) is table and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    assert linalg._xor_gather.cache_info().currsize == 3


def test_second_mcz_build_constructs_no_map(monkeypatch):
    mcz_decomposition(2, 3)
    built = []
    construct = channels.GeneralizedMap.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(channels.GeneralizedMap, "__init__", counting)
    deco = mcz_decomposition(2, 3)
    assert built == []
    assert deco.verify()["passed"]
    clear_caches()  # the count sees a cold build
    mcz_decomposition(2, 3)
    assert built


def test_terms_and_decompositions_refuse_assignment_and_deletion():
    # the CZ cut's terms are shared by every MCZ build: a stray assignment
    # would change every later decomposition in the process
    shared = cuts._cz_terms()
    deco = mcz_decomposition(2, 1)
    for obj, attrs in ((shared[0], ("q", "factors", "label", "needs_cc", "extra")),
                       (deco, ("name", "partition", "terms", "target_unitary", "extra"))):
        state = dict(vars(obj))
        for attr in attrs:
            with pytest.raises(AttributeError, match="immutable"):
                setattr(obj, attr, 0.9)
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, attr)
        assert vars(obj) == state
    assert shared[0].q == 0.5 and cuts._cz_terms() is shared
    report = mcz_decomposition(2, 1).verify()
    assert report["passed"] and report["one_norm"] == 3.0
    # the target stays a cached property of an immutable decomposition
    assert deco.target is deco.target and "target" in vars(deco)


def test_operators_refuse_deletion():
    for op in (gates.hadamard(), *(entry for entry, _ in cli._GATES.values() if entry)):
        mat = op.mat
        with pytest.raises(AttributeError, match="immutable"):
            del op.mat
        with pytest.raises(AttributeError, match="immutable"):
            op.mat = None
        assert op.mat is mat


@pytest.mark.parametrize(
    "name",
    ["linalg.PAULI_I", "linalg.PAULI_X", "linalg.PAULI_Y", "linalg.PAULI_Z",
     "linalg.KET_0", "linalg.KET_1", "linalg.KET_PLUS", "linalg.KET_MINUS",
     "linalg.KET_PLUS_I", "linalg.KET_MINUS_I", "linalg._I_POWERS", "zx._HADAMARD"],
)
def test_module_arrays_are_read_only(name):
    module, attr = name.split(".")
    array = getattr({"linalg": linalg, "zx": zx}[module], attr)
    before = array.copy()
    assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 7
    assert np.array_equal(array, before)
