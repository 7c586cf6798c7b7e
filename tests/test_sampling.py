import dataclasses
import json
import sys
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qcut import gates
from qcut.cuts import (
    Decomposition,
    DecompositionTerm,
    controlled_sequence_decomposition,
    mcz_decomposition,
    multi_z_rotation_decomposition,
    rzz_decomposition_a,
    rzz_decomposition_b,
    wire_cut_cc,
    wire_cut_ncc,
)
from qcut.linalg import (
    MAX_DENSE_ENTRIES,
    DimensionError,
    Operator,
    PauliString,
    QcutError,
    SizeCapError,
)
from qcut.sampling import (
    BATCH_CHUNK,
    MAX_SHOTS,
    PROB_FLOOR,
    ExperimentSpec,
    exact_expectation,
    run,
    term_support,
    term_value_distributions,
)
from oracles import (
    devectorize,
    execute_term,
    haar_unitary,
    measure_prepare_map,
    outcome_probabilities,
    outcome_value_distributions,
    prepared_term,
    term_blocks,
    unsigned,
    vectorize,
)

X = Operator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def plus_state(n):
    d = 2**n
    return Operator(np.full((d, d), 1.0 / d, dtype=complex))


def spec_for(deco, state_bits, obs, shots=200_000, seed=0):
    states, observables, pos = [], [], 0
    for s in deco.partition:
        if state_bits == "plus":
            states.append(plus_state(s))
        else:
            states.append(gates.basis_state(state_bits[pos : pos + s]))
        observables.append(PauliString(obs[pos : pos + s]).to_operator())
        pos += s
    return ExperimentSpec(
        decomposition=deco,
        initial_state=tuple(states),
        observable=tuple(observables),
        shots=shots,
        seed=seed,
    )


def exact_direct(deco, spec):
    """Independent oracle: apply the target superoperator to the joint state."""
    rho = Operator(np.array([[1.0 + 0j]]))
    obs = Operator(np.array([[1.0 + 0j]]))
    for s, o in zip(spec.initial_state, spec.observable):
        rho = Operator(np.kron(rho.mat, s.mat))
        obs = Operator(np.kron(obs.mat, o.mat))
    out = devectorize(deco.target.matrix @ vectorize(rho))
    return float(np.real(np.trace(obs.mat @ out.mat)))


CASES = [
    (wire_cut_cc(), "1", "Z", -1.0),
    (wire_cut_ncc(), "plus", "X", 1.0),
    (mcz_decomposition(2, 1), "plus", "XXX", None),
    (rzz_decomposition_b(np.pi / 2), "plus", "XX", None),
    (multi_z_rotation_decomposition(1, 1, 0.8), "plus", "XI", None),
]


@pytest.mark.parametrize("deco,state,obs,known", CASES)
def test_exact_expectation_matches_direct_oracle(deco, state, obs, known):
    spec = spec_for(deco, state, obs, shots=1000)
    value = exact_expectation(spec)
    assert value == pytest.approx(exact_direct(deco, spec), abs=1e-10)
    if known is not None:
        assert value == pytest.approx(known, abs=1e-10)


@pytest.mark.parametrize("deco,state,obs,known", CASES)
def test_run_unbiased_within_5_sigma(deco, state, obs, known):
    spec = spec_for(deco, state, obs, shots=200_000, seed=5)
    report = run(spec)
    exact = exact_expectation(spec)
    assert abs(report.estimate - exact) < 5 * report.standard_error + 1e-12
    # [KNOWN] true single-shot variance is bounded by gamma^2 - <O>^2; the
    # empirical variance gets statistical slack ~ Var * sqrt(2 / shots)
    slack = 5 * report.gamma**2 * np.sqrt(2 / spec.shots)
    assert report.single_shot_variance <= report.gamma**2 - exact**2 + slack
    assert report.gamma == pytest.approx(deco.one_norm())
    assert sum(report.per_term_shots) == spec.shots


def test_controlled_sequence_sampling():
    theta = np.pi / 5
    ops = [((0,), X), ((1,), Operator(np.diag([1.0, np.exp(1j * theta)])))]
    deco = controlled_sequence_decomposition(ops, 2)
    spec = spec_for(deco, "plus", "XXI", shots=200_000, seed=9)
    report = run(spec)
    exact = exact_expectation(spec)
    assert abs(report.estimate - exact) < 5 * report.standard_error + 1e-12


def test_determinism_identical_reports():
    spec = spec_for(rzz_decomposition_b(1.0), "plus", "XX", shots=50_000, seed=123)
    r1 = run(spec, n_batches=5)
    r2 = run(spec, n_batches=5)
    assert r1.to_dict() == r2.to_dict()
    r3 = run(spec_for(rzz_decomposition_b(1.0), "plus", "XX", shots=50_000, seed=124))
    assert r3.estimate != r1.estimate


def test_sign_tracking_matters():
    # dropping the classically-tracked signs produces a biased estimator
    spec = spec_for(wire_cut_cc(), "1", "Z", shots=300_000, seed=2)
    signed = run(spec)
    dropped = run(dataclasses.replace(spec, decomposition=unsigned(spec.decomposition)))
    assert abs(signed.estimate - (-1.0)) < 5 * signed.standard_error
    assert abs(dropped.estimate - (-1.0)) > 10 * dropped.standard_error


def test_execute_term_oracle_agrees_with_vectorized_run():
    # sequential single-shot oracle: per-term means weighted by q * gamma signs
    deco = rzz_decomposition_b(np.pi / 2)
    spec = spec_for(deco, "plus", "XX", shots=1, seed=0)
    rng = np.random.default_rng(42)
    gamma = deco.one_norm()
    total = 0.0
    shots_per_term = 4000
    for term in deco.terms:
        acc = 0.0
        for _ in range(shots_per_term):
            sign, lam = execute_term(term, spec, rng)
            acc += sign * lam
        total += np.sign(term.q) * gamma * (abs(term.q) / gamma) * acc / shots_per_term
    assert total == pytest.approx(exact_expectation(spec), abs=0.1)


def test_batch_means():
    spec = spec_for(wire_cut_cc(), "0", "Z", shots=10_000, seed=8)
    report = run(spec, n_batches=4)
    assert len(report.batch_means) == 4
    assert np.mean(report.batch_means) == pytest.approx(report.estimate, abs=1e-9)


def test_batch_count_is_capped_before_allocating():
    spec = spec_for(wire_cut_cc(), "0", "Z", shots=10**12, seed=8)
    with pytest.raises(SizeCapError, match="shot batches needs"):
        run(spec, n_batches=10**12)
    with pytest.raises(SizeCapError):
        run(spec, n_batches=MAX_DENSE_ENTRIES + 1)


def test_report_to_dict_is_json_plain():
    spec = spec_for(wire_cut_ncc(), "0", "Z", shots=1000, seed=1)
    report = run(spec, n_batches=2)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert "estimate" in payload
    # one key per field, in field order, each tuple as a list
    got = report.to_dict()
    assert list(got) == [f.name for f in dataclasses.fields(report)]
    for name, value in got.items():
        field = getattr(report, name)
        assert value == (list(field) if isinstance(field, tuple) else field), name
        assert not isinstance(value, tuple), name
    assert len(got["batch_means"]) == 2 and len(got["per_term_means"]) == len(report.per_term_shots)


def test_multi_z_large_register_samples_within_5_sigma():
    # the ladder-conjugated signed-Z factors are signed Kraus maps; each
    # outcome is sampled with p = tr(K rho K^dag) like any other instrument
    deco = multi_z_rotation_decomposition(2, 2, 0.8)
    assert deco.verify()["passed"]
    spec = spec_for(deco, "plus", "XXXI", shots=1_000_000, seed=3)
    report = run(spec)
    exact = exact_expectation(spec)
    assert exact == pytest.approx(exact_direct(deco, spec), abs=1e-10)
    assert abs(exact) > 0.1  # the state and observable see the rotation
    assert abs(report.estimate - exact) <= 5 * report.standard_error


def test_spec_validation():
    deco = wire_cut_ncc()
    with pytest.raises(QcutError):
        spec_for(deco, "0", "Z", shots=0)
    with pytest.raises(QcutError):
        ExperimentSpec(
            decomposition=deco,
            initial_state=(gates.basis_state("0"),),
            observable=(2.0 * PauliString("Z").to_operator(),),  # eigenvalues > 1
            shots=10,
            seed=0,
        )
    with pytest.raises(QcutError):
        ExperimentSpec(
            decomposition=deco,
            initial_state=(gates.basis_state("00"),),  # wrong register size
            observable=(PauliString("ZZ").to_operator(),),
            shots=10,
            seed=0,
        )


@pytest.mark.parametrize("seed", [-1, 1.5, True, float("nan"), float("inf"), "7"])
def test_spec_rejects_bad_seed(seed):
    with pytest.raises(DimensionError, match="seed"):
        spec_for(wire_cut_cc(), "0", "Z", shots=10, seed=seed)


@pytest.mark.parametrize("shots", [0, 1.5, True, float("nan"), float("inf"), MAX_SHOTS + 1,
                                   2**70, "7"])
def test_spec_rejects_bad_shots(shots):
    with pytest.raises(DimensionError, match=f"shots must be an integer in 1..{MAX_SHOTS}, got"):
        spec_for(wire_cut_cc(), "0", "Z", shots=shots, seed=0)


@pytest.mark.parametrize("n_batches", [-1, 11, 1.5, True, float("nan"), "2", None])
def test_run_rejects_bad_n_batches(n_batches):
    spec = spec_for(wire_cut_cc(), "0", "Z", shots=10, seed=0)
    with pytest.raises(DimensionError, match="n_batches must be an integer in 0..10, got"):
        run(spec, n_batches=n_batches)


def test_integral_shots_and_batches_are_taken_as_ints():
    assert spec_for(wire_cut_cc(), "0", "Z", shots=MAX_SHOTS, seed=0).shots == MAX_SHOTS
    report = run(spec_for(wire_cut_cc(), "0", "Z", shots=100.0, seed=7), n_batches=np.int64(4))
    assert type(report.shots) is int and len(report.batch_means) == 4
    assert report == run(spec_for(wire_cut_cc(), "0", "Z", shots=100, seed=7), n_batches=4)


@pytest.mark.parametrize("seed", [7, np.int64(7), np.uint32(7), 7.0])
def test_spec_accepts_integral_seed(seed):
    report = run(spec_for(wire_cut_cc(), "0", "Z", shots=100, seed=seed))
    assert type(report.seed) is int
    assert report == run(spec_for(wire_cut_cc(), "0", "Z", shots=100, seed=7))


def random_spec(deco, seed, shots=1):
    """Random pure register states and random non-Pauli product observables,
    so that term supports have several distinct values."""
    rng = np.random.default_rng(seed)
    states, observables = [], []
    for size in deco.partition:
        v = rng.normal(size=2**size) + 1j * rng.normal(size=2**size)
        v /= np.linalg.norm(v)
        states.append(Operator(np.outer(v, v.conj())))
        obs = np.array([[1.0 + 0j]])
        for _ in range(size):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            lam = rng.uniform(-1, 1, size=2)
            obs = np.kron(obs, u @ np.diag(lam) @ u.conj().T)
        observables.append(Operator(obs))
    return ExperimentSpec(
        decomposition=deco,
        initial_state=tuple(states),
        observable=tuple(observables),
        shots=shots,
        seed=seed,
    )


def chi2_threshold(df, z=5.0):
    """Upper chi-square quantile at a normal z-score (Wilson-Hilferty)."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * np.sqrt(c)) ** 3


@pytest.mark.parametrize(
    "deco",
    [
        wire_cut_ncc(),
        mcz_decomposition(2, 1),
        rzz_decomposition_b(np.pi / 2),
        multi_z_rotation_decomposition(2, 2, 0.8),
    ],
    ids=lambda d: d.name,
)
def test_term_support_matches_execute_term_histogram(deco):
    # the counts sampler draws from term_support; the sequential oracle must
    # land on the same values with the same frequencies
    spec = random_spec(deco, seed=11)
    rng = np.random.default_rng(2024)
    shots = 2000
    for term in deco.terms:
        values, probs = term_support(spec, term)
        assert np.all(np.diff(values) > 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        observed = np.zeros(len(values))
        for _ in range(shots):
            sign, lam = execute_term(term, spec, rng)
            hit = np.flatnonzero(np.abs(values - sign * lam) <= 1e-9)
            assert len(hit) == 1, f"{sign * lam} not in the support of {term}"
            observed[hit[0]] += 1
        # pool support values with fewer than 5 expected shots into one bin
        expected = shots * probs
        small = expected < 5
        if small.any():
            expected = np.append(expected[~small], expected[small].sum())
            observed = np.append(observed[~small], observed[small].sum())
        if len(expected) < 2:
            continue
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert stat < chi2_threshold(len(expected) - 1), (term, stat)


def dense_exact(spec):
    """Oracle: sum_nu q_nu <O, PTM_nu vec(rho)> through the dense reconstruct()."""
    rho = np.array([[1.0 + 0j]])
    obs = np.array([[1.0 + 0j]])
    for rho_r, obs_r in zip(spec.initial_state, spec.observable):
        rho = np.kron(rho, rho_r.mat)
        obs = np.kron(obs, obs_r.mat)
    out = spec.decomposition.reconstruct().matrix @ vectorize(Operator(rho))
    return float(np.real(np.vdot(vectorize(Operator(obs)), out)))


def _random_sequence(seed, n_targets):
    rng = np.random.default_rng(seed)
    return [((t,), haar_unitary(rng, 2)) for t in range(n_targets)]


@pytest.mark.parametrize(
    "deco",
    [wire_cut_ncc(), mcz_decomposition(2, 1), rzz_decomposition_b(np.pi / 2),
     multi_z_rotation_decomposition(2, 2, 0.8),
     controlled_sequence_decomposition(_random_sequence(5, 2), 2)],
    ids=lambda d: d.name,
)
def test_prepared_oracle_draws_the_enumerated_outcome_law(deco):
    # the law execute_term draws from, read off its prepared tables: outcome
    # k with its share of the outcome weights, then eigenvalue a with its
    # share of the post-state's weights
    spec = random_spec(deco, seed=11)
    for term in deco.terms:
        prepared = prepared_term(term, spec)
        assert prepared_term(term, spec) is prepared
        reference = outcome_value_distributions(term, spec)
        assert len(prepared) == len(reference)
        for (signs, outcome_cdf, lam, lam_cdfs), (values, probs) in zip(prepared, reference):
            law = {}
            outcome_p = np.diff(outcome_cdf, prepend=0.0) / outcome_cdf[-1]
            for sign, p, cdf in zip(signs, outcome_p, lam_cdfs):
                if p > PROB_FLOOR:
                    for v, q in zip(sign * lam, p * np.diff(cdf, prepend=0.0) / cdf[-1]):
                        law[v] = law.get(v, 0.0) + q
            for v, q in zip(values.tolist(), probs.tolist()):
                law[v] = law.get(v, 0.0) - q
            assert max(abs(q) for q in law.values()) <= 1e-12, term.label


@pytest.mark.parametrize(
    "deco",
    [
        wire_cut_ncc(),
        wire_cut_cc("X"),
        mcz_decomposition(2, 1),
        mcz_decomposition(1, 3),
        rzz_decomposition_a(0.7),
        rzz_decomposition_b(-1.1),
        multi_z_rotation_decomposition(2, 2, 0.8),
        controlled_sequence_decomposition(_random_sequence(5, 2), 2),
    ],
    ids=lambda d: d.name,
)
@pytest.mark.parametrize("local_unitaries", [False, True], ids=["bare", "pre_post"])
def test_block_exact_expectation_matches_dense_reconstruction(deco, local_unitaries):
    # the block-wise sum covers every family, ladder-conjugated multi_z
    # factors on (2, 2) included; local circuits U before and after the cut
    # are folded in as U rho U^dag and U^dag O U
    spec = random_spec(deco, seed=17)
    if local_unitaries:
        rng = np.random.default_rng(18)
        pre = [haar_unitary(rng, 2**s).mat for s in deco.partition]
        post = [haar_unitary(rng, 2**s).mat for s in deco.partition]
        spec = dataclasses.replace(
            spec,
            initial_state=tuple(
                Operator(u @ rho.mat @ u.conj().T) for u, rho in zip(pre, spec.initial_state)
            ),
            observable=tuple(
                Operator(u.conj().T @ obs.mat @ u) for u, obs in zip(post, spec.observable)
            ),
        )
    assert exact_expectation(spec) == pytest.approx(dense_exact(spec), abs=1e-12)


def test_term_support_merges_equal_values():
    # Pauli observables have eigenvalues +-1, so every term's joint support
    # merges down to at most {-1, +1}
    deco = mcz_decomposition(2, 1)
    spec = spec_for(deco, "plus", "XXX", shots=1)
    for term in deco.terms:
        values, probs = term_support(spec, term)
        assert set(values) <= {-1.0, 1.0}
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def pauli_spec(deco, seed):
    """Random pure one-qubit states and a random X/Y/Z string, as the
    benchmark's sample configs draw them."""
    rng = np.random.default_rng(seed)
    n = sum(deco.partition)
    qubits = []
    for _ in range(n):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        qubits.append(np.outer(v, v.conj()))
    paulis = "".join(rng.choice(list("XYZ"), size=n))
    states, observables, pos = [], [], 0
    for size in deco.partition:
        states.append(Operator(reduce(np.kron, qubits[pos : pos + size])))
        observables.append(PauliString(paulis[pos : pos + size]).to_operator())
        pos += size
    return ExperimentSpec(deco, tuple(states), tuple(observables), shots=1, seed=seed)


def assert_matches_outcome_reference(spec):
    for term in spec.decomposition.terms:
        batched = term_value_distributions(spec, term)
        reference = outcome_value_distributions(term, spec)
        assert len(batched) == len(reference)
        for (values, probs), (ref_values, ref_probs) in zip(batched, reference):
            assert values.shape == ref_values.shape
            assert np.array_equal(values, ref_values)
            assert np.max(np.abs(probs - ref_probs)) <= 1e-14


# every family of the benchmark's sample and sample_wide mixes, plus multi_z
BENCHMARK_FAMILIES = [
    wire_cut_ncc(),
    wire_cut_cc("Y"),
    *(mcz_decomposition(m, n - m) for n in (2, 3, 4, 5) for m in range(1, n)),
    rzz_decomposition_a(0.9),
    rzz_decomposition_b(-2.3),
    *(controlled_sequence_decomposition(_random_sequence(k, k), k) for k in (1, 3, 4)),
    multi_z_rotation_decomposition(2, 2, 0.8),
    multi_z_rotation_decomposition(3, 2, -0.4),
]


@pytest.mark.parametrize("deco", BENCHMARK_FAMILIES, ids=lambda d: d.name)
def test_batched_enumeration_matches_branch_reference(deco):
    # values bit-equal (same eigh, same outcome order), probabilities to 1e-14
    assert_matches_outcome_reference(pauli_spec(deco, seed=len(deco.terms)))


@pytest.mark.parametrize(
    "deco,bits,obs",
    [
        (wire_cut_cc(), "0", "Z"),
        (wire_cut_ncc(), "1", "Z"),
        (mcz_decomposition(2, 1), "110", "ZZZ"),
        (rzz_decomposition_b(np.pi / 2), "00", "ZZ"),
        (multi_z_rotation_decomposition(2, 2, 0.8), "0110", "ZZZZ"),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_batched_enumeration_drops_the_branches_the_reference_drops(deco, bits, obs):
    spec = spec_for(deco, bits, obs, shots=1)
    # the case exercises the floor: some outcome of some factor never occurs
    assert any(
        p <= PROB_FLOOR
        for term in deco.terms
        for factor, rho, _ in term_blocks(term, spec)
        for p, _ in outcome_probabilities(factor, rho)
    )
    assert_matches_outcome_reference(spec)


@pytest.mark.parametrize(
    "deco",
    [
        wire_cut_ncc(),
        mcz_decomposition(2, 1),
        rzz_decomposition_b(np.pi / 2),
        multi_z_rotation_decomposition(2, 2, 0.8),
        controlled_sequence_decomposition(_random_sequence(5, 2), 2),
    ],
    ids=lambda d: d.name,
)
def test_batched_enumeration_matches_reference_on_non_pauli_observables(deco):
    assert_matches_outcome_reference(random_spec(deco, seed=11))


def test_batched_enumeration_sums_multi_kraus_and_skips_empty_branches():
    # a measure-and-prepare map that prepares mixed states has two Kraus
    # operators per effect, each its own signed outcome; a zero effect has none
    rng = np.random.default_rng(4)
    u = haar_unitary(rng, 2).mat
    mixed = [Operator(np.diag([0.7, 0.3]).astype(complex)),
             Operator(u @ np.diag([0.4, 0.6]) @ u.conj().T)]
    zero = Operator(np.zeros((2, 2), dtype=complex))
    effects = [Operator(np.diag([1.0, 0.0]).astype(complex)),
               Operator(np.diag([0.0, 1.0]).astype(complex))]
    terms = [(1, effects[0], mixed[0]), (-1, zero, mixed[0]), (-1, effects[1], mixed[1])]
    factor = measure_prepare_map(terms)
    assert factor.signs == (1, 1, -1, -1)
    deco = Decomposition("mp", (1,), [DecompositionTerm(1.0, [factor], "mp")],
                         gates.identity(1))
    spec = random_spec(deco, seed=2)
    assert_matches_outcome_reference(spec)
    # one outcome per operator leaves the law of sign * lambda what one outcome
    # per effect gives: Tr(E rho) rho_v, measured in the observable's eigenbasis
    ((_, rho, obs),) = term_blocks(deco.terms[0], spec)
    lam, vecs = np.linalg.eigh(obs)
    law = {}
    for a, e, prep in terms:
        post = np.trace(e.mat @ rho) * prep.mat
        for v, q in zip(a * lam, np.einsum("ai,ab,bi->i", vecs.conj(), post, vecs).real):
            law[v] = law.get(v, 0.0) + q
    values, probs = term_support(spec, deco.terms[0])
    assert values.tolist() == sorted(v for v, q in law.items() if q > PROB_FLOOR)
    assert np.max(np.abs(probs - [law[v] for v in values.tolist()])) <= 1e-12


@pytest.mark.parametrize(
    "deco,state,obs",
    [
        (mcz_decomposition(2, 1), "plus", "XXX"),
        (mcz_decomposition(1, 2), "010", "ZZZ"),
        (wire_cut_ncc(), "plus", "Z"),
        (wire_cut_cc("X"), "1", "Z"),
        (rzz_decomposition_a(0.7), "plus", "YX"),
        (rzz_decomposition_b(-1.1), "01", "ZZ"),
        (controlled_sequence_decomposition(_random_sequence(5, 2), 2), "plus", "XZX"),
    ],
    ids=lambda v: getattr(v, "name", v),
)
def test_single_shot_variance_within_variance_bound(deco, state, obs):
    # |y| <= gamma on every shot, so the ddof=1 variance is at most
    # shots/(shots-1) * (gamma^2 - estimate^2), also with the estimate near 0
    for shots in (2, 7, 5_000):
        report = run(spec_for(deco, state, obs, shots=shots, seed=shots))
        bound = shots / (shots - 1) * (report.gamma**2 - report.estimate**2)
        assert report.variance_bound == pytest.approx(bound, rel=1e-15, abs=1e-15)
        assert report.single_shot_variance <= report.variance_bound + 1e-9
        assert report.to_dict()["variance_bound"] == report.variance_bound


def test_variance_bound_null_for_one_shot():
    report = run(spec_for(wire_cut_cc(), "0", "Z", shots=1, seed=0))
    assert report.variance_bound is None
    data = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert data["variance_bound"] is None


@pytest.mark.parametrize(
    "make_spec",
    [
        # 6 terms of support <= 2
        lambda: spec_for(rzz_decomposition_b(np.pi / 2), "plus", "XX", shots=10**9, seed=3),
        # 6 terms of support 8 to 16
        lambda: random_spec(mcz_decomposition(2, 1), seed=5, shots=10**9),
    ],
    ids=["rzz_b", "random_mcz"],
)
def test_many_batches_stay_within_a_small_multiple_of_batch_means(make_spec):
    # run() draws the (batches, terms) and (batches, support) count arrays
    # BATCH_CHUNK batches at a time, so the peak does not grow with the
    # support size: about 1.8 times the report's batch means on both specs
    spec = make_spec()
    run(spec, n_batches=10)  # warm caches
    tracemalloc.start()
    try:
        report = run(spec, n_batches=10**5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    means = report.batch_means
    footprint = sys.getsizeof(means) + sum(sys.getsizeof(m) for m in means)
    assert len(means) == 10**5
    assert abs(report.estimate - report.exact_value) < 5 * report.standard_error
    assert peak < 3 * footprint


def test_batches_across_chunks_add_up_to_the_estimate():
    spec = random_spec(mcz_decomposition(2, 1), seed=6, shots=10**6 + 3)
    n_batches = 2 * BATCH_CHUNK + 3
    report = run(spec, n_batches=n_batches)
    sizes = [len(b) for b in np.array_split(np.empty(spec.shots, dtype=bool), n_batches)]
    assert sum(report.per_term_shots) == spec.shots
    assert len(report.batch_means) == n_batches
    total = np.dot(sizes, report.batch_means)
    assert total / spec.shots == pytest.approx(report.estimate, rel=1e-12, abs=1e-12)
    # a batch mean is a mean of shots, each of magnitude at most gamma
    assert max(map(abs, report.batch_means)) <= report.gamma * (1 + 1e-12)


@pytest.mark.parametrize("shots", [10**9, 10**12])
def test_run_memory_does_not_grow_with_shots(shots):
    spec = spec_for(mcz_decomposition(2, 1), "plus", "XXX", shots=shots, seed=4)
    run(spec, n_batches=10)  # warm caches
    tracemalloc.start()
    try:
        report = run(spec, n_batches=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(report.per_term_shots) == shots
    assert len(report.batch_means) == 10
    assert abs(report.estimate - report.exact_value) < 5 * report.standard_error
    assert peak < 2**20


def test_per_term_means_and_z_score():
    deco = rzz_decomposition_b(1.0)
    spec = random_spec(deco, seed=3, shots=100_000)
    report = run(spec, n_batches=3)
    gamma = report.gamma
    total = sum(
        n / spec.shots * gamma * np.sign(term.q) * mean
        for term, n, mean in zip(deco.terms, report.per_term_shots, report.per_term_means)
    )
    assert total == pytest.approx(report.estimate, abs=1e-12)
    z = (report.estimate - report.exact_value) / report.standard_error
    assert report.z_score == pytest.approx(z, rel=1e-12)
    data = report.to_dict()
    assert data["per_term_means"] == list(report.per_term_means)
    assert data["z_score"] == report.z_score


def test_per_term_means_null_for_undrawn_terms():
    # 2 shots over 8 terms: most terms are never drawn
    spec = spec_for(wire_cut_ncc(), "0", "Z", shots=2, seed=0)
    report = run(spec)
    for n, mean in zip(report.per_term_shots, report.per_term_means):
        assert (mean is None) == (n == 0)
    assert json.loads(json.dumps(report.to_dict(), allow_nan=False))


def test_z_score_null_when_standard_error_is_zero():
    # every shot of the identity-like wire cut on |1>, Z is -1 with one shot
    spec = spec_for(wire_cut_cc(), "1", "Z", shots=1, seed=0)
    report = run(spec)
    assert report.standard_error == 0.0
    assert report.z_score is None


def test_single_shot_batches_reproduce_mean_and_variance():
    # with one shot per batch the batch means are the shot values themselves
    spec = spec_for(mcz_decomposition(2, 1), "plus", "XXX", shots=500, seed=6)
    report = run(spec, n_batches=500)
    shots = np.array(report.batch_means)
    assert np.all(np.isclose(np.abs(shots), report.gamma))
    assert np.mean(shots) == pytest.approx(report.estimate, abs=1e-12)
    assert np.var(shots, ddof=1) == pytest.approx(report.single_shot_variance, rel=1e-12)


def test_uneven_batches_follow_array_split_sizes():
    # 10 shots in 4 batches are sized 3, 3, 2, 2
    spec = spec_for(mcz_decomposition(2, 1), "plus", "XXX", shots=10, seed=1)
    report = run(spec, n_batches=4)
    sizes = np.array([3, 3, 2, 2])
    assert np.dot(sizes, report.batch_means) / 10 == pytest.approx(report.estimate, abs=1e-12)
    for mean, size in zip(report.batch_means, sizes):
        # each batch sum is a sum of `size` values of +-gamma
        k = (mean * size / report.gamma + size) / 2
        assert k == pytest.approx(round(k), abs=1e-9)


@pytest.mark.parametrize("n_batches", [-1, 11])
def test_run_rejects_n_batches_outside_shots(n_batches):
    spec = spec_for(wire_cut_cc(), "0", "Z", shots=10, seed=0)
    with pytest.raises(DimensionError):
        run(spec, n_batches=n_batches)
