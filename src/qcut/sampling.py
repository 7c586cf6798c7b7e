"""Monte-Carlo quasiprobability sampling of cut circuits.

The estimator follows the standard sign-tracking protocol: a term ``nu`` is
drawn with probability ``p_nu = |q_nu| / gamma``, each of its maps is
executed as an instrument (branch ``b`` with Kraus operators ``K`` occurs
with probability ``Tr(sum_k K rho K^dag)``, and its ``+-1`` sign is recorded
classically), the observable eigenvalue ``lambda`` is sampled projectively,
and the shot contributes
``y = gamma * sign(q_nu) * (product of branch signs) * lambda``.
The mean of ``y`` is an unbiased estimate of ``<O>`` with single-shot
variance at most ``gamma^2 - <O>^2``.

Because every map is a small dense object, the full discrete distribution of
``y`` for each term can be enumerated exactly, and the number of shots that
land on each support value is a sufficient statistic.  :func:`run` therefore
never materializes individual shots: it draws multinomial counts of shots per
term and then per support value, batch by batch, so its time and memory
depend on the support size and the number of batches but not on the shot
count.  Shots are i.i.d., so this is exactly the distribution of the
shot-by-shot protocol.

The exact value a report is compared with (:func:`exact_expectation`) is the
cut channel's expectation, computed per term and per register block from the
same block states and observables the sampler uses.  Nothing in this module
builds a Pauli transfer matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .channels import GeneralizedMap, check_density
from .linalg import ATOL_STRUCT, DimensionError
from .cuts import Decomposition, DecompositionTerm

#: slack on the |eigenvalue| <= 1 observable bound
EIGENVALUE_SLACK = 1e-12

#: probabilities this close to 0 are treated as exactly 0 (rounding guard)
PROB_FLOOR = 1e-14


@dataclass(frozen=True)
class ExperimentSpec:
    """A cut-circuit sampling experiment.

    All per-register lists follow the decomposition's partition order.
    ``observable`` is a product observable with per-register eigenvalues in
    ``[-1, 1]``.  Local circuits ``U`` before and after the cut channel are
    folded in by the caller: ``U rho U^dag`` as the state, ``U^dag O U`` as
    the observable.
    """

    decomposition: Decomposition
    initial_state: tuple
    observable: tuple
    shots: int
    seed: int

    def __post_init__(self):
        part = self.decomposition.partition
        object.__setattr__(self, "initial_state", tuple(self.initial_state))
        object.__setattr__(self, "observable", tuple(self.observable))
        if self.shots < 1:
            raise DimensionError(f"shots must be >= 1, got {self.shots}")
        seed = self.seed
        if not (
            isinstance(seed, numbers.Real)
            and not isinstance(seed, bool)
            and math.isfinite(seed)
            and seed == int(seed)
            and seed >= 0
        ):
            raise DimensionError(f"seed must be a non-negative integer, got {seed!r}")
        object.__setattr__(self, "seed", int(seed))
        for label, ops in (
            ("initial_state", self.initial_state),
            ("observable", self.observable),
        ):
            if len(ops) != len(part):
                raise DimensionError(
                    f"{label} has {len(ops)} entries for {len(part)} registers"
                )
            for reg, (op, size) in enumerate(zip(ops, part)):
                if op.n_qubits != size:
                    raise DimensionError(
                        f"{label}[{reg}] acts on {op.n_qubits} qubits, "
                        f"register has {size}"
                    )
        for reg, rho in enumerate(self.initial_state):
            check_density(rho, f"initial_state[{reg}]")
        for reg, obs in enumerate(self.observable):
            if np.max(np.abs(obs.mat - obs.mat.conj().T)) > ATOL_STRUCT:
                raise DimensionError(f"observable[{reg}] must be Hermitian")
            lam = np.linalg.eigvalsh(obs.mat)
            if np.max(np.abs(lam)) > 1 + EIGENVALUE_SLACK:
                raise DimensionError(
                    f"observable[{reg}] eigenvalues exceed [-1, 1] "
                    f"(max |lambda| = {np.max(np.abs(lam)):.6g})"
                )


@dataclass(frozen=True)
class SamplingReport:
    estimate: float
    standard_error: float
    shots: int
    gamma: float
    exact_value: float
    per_term_shots: tuple
    seed: int
    single_shot_variance: float
    batch_means: tuple = ()
    #: mean of ``sign * lambda`` over each term's shots (None for 0 shots)
    per_term_means: tuple = ()
    #: (estimate - exact_value) / standard_error (None when the error is 0)
    z_score: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "standard_error": self.standard_error,
            "shots": self.shots,
            "gamma": self.gamma,
            "exact_value": self.exact_value,
            "per_term_shots": list(self.per_term_shots),
            "seed": self.seed,
            "single_shot_variance": self.single_shot_variance,
            "batch_means": list(self.batch_means),
            "per_term_means": list(self.per_term_means),
            "z_score": self.z_score,
        }


# ---------------------------------------------------------------------------
# Term-block plumbing
# ---------------------------------------------------------------------------


def _blocks_of_term(spec: ExperimentSpec, term: DecompositionTerm) -> list:
    """Group the experiment's per-register data by the term's factor layout.

    Returns one entry per factor: (factor, rho_block, obs_block).
    """
    part = spec.decomposition.partition
    edges = np.cumsum((0,) + part)
    blocks = []
    start = 0
    for factor in term.factors:
        stop = start + factor.n_qubits
        regs = [r for r in range(len(part)) if edges[r] >= start and edges[r + 1] <= stop]
        rhos = [spec.initial_state[r].mat for r in regs]
        obss = [spec.observable[r].mat for r in regs]
        blocks.append((factor, reduce(np.kron, rhos), reduce(np.kron, obss)))
        start = stop
    return blocks


def _factor_branches(factor: GeneralizedMap, rho: np.ndarray) -> list:
    """All outcome branches of one factor on a block state.

    Returns (probability, sign, post-state) triples; probabilities sum to 1
    for a unit-trace input.
    """
    out = []
    for sign, kraus in factor.branches:
        post = (kraus @ rho @ kraus.conj().transpose(0, 2, 1)).sum(axis=0)
        p = float(np.real(np.trace(post)))
        if p > PROB_FLOOR:
            out.append((p, sign, post / p))
    return out


def _eigen_distribution(obs: np.ndarray, rho: np.ndarray) -> tuple:
    """Projective measurement of ``obs`` on ``rho``: (eigenvalues, probabilities)."""
    lam, vecs = np.linalg.eigh(obs)
    probs = np.real(np.einsum("ia,ij,ja->a", vecs.conj(), rho, vecs))
    probs = np.clip(probs, 0.0, None)
    return lam, probs / probs.sum()


def _block_value_distribution(factor, rho, obs) -> tuple:
    """Discrete distribution of ``sign * lambda`` for one block."""
    values = []
    probs = []
    for p_branch, sign, state in _factor_branches(factor, rho):
        lam, p_lam = _eigen_distribution(obs, state)
        values.append(sign * lam)
        probs.append(p_branch * p_lam)
    values = np.concatenate(values)
    probs = np.concatenate(probs)
    keep = probs > PROB_FLOOR
    return values[keep], probs[keep] / probs[keep].sum()


def term_value_distributions(spec: ExperimentSpec, term: DecompositionTerm) -> list:
    """Per-block distributions of the signed observable sample for one term."""
    return [
        _block_value_distribution(factor, rho, obs)
        for factor, rho, obs in _blocks_of_term(spec, term)
    ]


def term_support(spec: ExperimentSpec, term: DecompositionTerm) -> tuple:
    """Joint distribution of ``sign * lambda`` over all blocks of one term.

    Blocks are independent, so this is the outer product of the block
    distributions with equal values merged.  Returns ``(values, probs)`` with
    distinct, sorted values.
    """
    values = np.ones(1)
    probs = np.ones(1)
    for block_values, block_probs in term_value_distributions(spec, term):
        values, inverse = np.unique(
            np.multiply.outer(values, block_values).ravel(), return_inverse=True
        )
        probs = np.bincount(
            inverse, weights=np.multiply.outer(probs, block_probs).ravel()
        )
    return values, probs


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------


def exact_expectation(spec: ExperimentSpec) -> float:
    """Exact expectation of the cut channel on this experiment.

    Computed term by term and block by block as
    ``sum_nu q_nu prod_b Tr(O_b F_b(rho_b))``: each factor acts on its own
    block state, so no PTM is built and the cost stays that of the largest
    block.  This is the value the sampler estimates, which equals the target
    gate's expectation only as far as the decomposition reconstructs it.
    """
    total = 0.0
    for term in spec.decomposition.terms:
        value = term.q
        for factor, rho, obs in _blocks_of_term(spec, term):
            image = factor.apply_batch(rho[None, :, :])[0]
            value *= np.einsum("ij,ji->", obs, image)
        total += value
    return float(np.real(total))


def run(spec: ExperimentSpec, n_batches: int = 0) -> SamplingReport:
    """Run the sampling experiment; deterministic given ``(spec, seed)``.

    ``n_batches > 0`` additionally records contiguous shot-batch means, with
    batch sizes as in ``np.array_split``; it must not exceed ``shots``.
    """
    shots = spec.shots
    if not 0 <= n_batches <= shots:
        raise DimensionError(f"n_batches must be in 0..{shots}, got {n_batches}")
    deco = spec.decomposition
    gamma = deco.one_norm()
    p_terms = deco.sampling_probabilities()
    rng = np.random.Generator(np.random.Philox(spec.seed))

    # term index -> (support values of sign * lambda, probabilities), filled
    # the first time a term is drawn; term index -> shots per support value
    supports = {}
    counts = {}
    per_term_shots = np.zeros(len(deco.terms), dtype=np.int64)
    batch_means = []
    k = max(n_batches, 1)
    base, extra = divmod(shots, k)
    for b in range(k):
        size = base + (b < extra)
        term_counts = rng.multinomial(size, p_terms)
        per_term_shots += term_counts
        batch_sum = 0.0
        for nu in map(int, np.flatnonzero(term_counts)):
            if nu not in supports:
                supports[nu] = term_support(spec, deco.terms[nu])
            values, probs = supports[nu]
            drawn = rng.multinomial(term_counts[nu], probs)
            counts[nu] = counts.get(nu, 0) + drawn
            batch_sum += float(np.sign(deco.terms[nu].q) * (drawn @ values))
        batch_means.append(gamma * batch_sum / size)

    per_term_means = [None] * len(deco.terms)
    for nu, c in counts.items():
        per_term_means[nu] = float(c @ supports[nu][0]) / int(per_term_shots[nu])
    ys = {nu: gamma * np.sign(deco.terms[nu].q) * supports[nu][0] for nu in counts}
    estimate = sum(float(counts[nu] @ y) for nu, y in ys.items()) / shots
    variance = 0.0
    if shots > 1:
        squares = sum(float(counts[nu] @ (y - estimate) ** 2) for nu, y in ys.items())
        variance = squares / (shots - 1)
    stderr = float(np.sqrt(variance / shots))
    exact = exact_expectation(spec)
    return SamplingReport(
        estimate=estimate,
        standard_error=stderr,
        shots=shots,
        gamma=gamma,
        exact_value=exact,
        per_term_shots=tuple(int(c) for c in per_term_shots),
        seed=spec.seed,
        single_shot_variance=variance,
        batch_means=tuple(batch_means) if n_batches > 0 else (),
        per_term_means=tuple(per_term_means),
        z_score=(estimate - exact) / stderr if stderr > 0 else None,
    )
