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
land on each support value is a sufficient statistic.  The enumeration works
in the eigenbasis of each block observable, diagonalized once per
:func:`run` call.  :func:`run` never materializes individual shots: one
multinomial draw gives the shots of every term in ``BATCH_CHUNK`` batches,
and one more per drawn term splits them over its support values, so time and
memory depend on the support size and the number of batches but not on the
shot count.  Shots are i.i.d., so this is exactly the distribution of the
shot-by-shot protocol.

The exact value a report is compared with (:func:`exact_expectation`) is the
cut channel's expectation, computed per term and per register block from the
same block states and observables the sampler uses.  Nothing in this module
builds a Pauli transfer matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .channels import check_density
from .linalg import ATOL_STRUCT, DimensionError, check_dense, check_integer
from .cuts import Decomposition, DecompositionTerm

#: slack on the |eigenvalue| <= 1 observable bound
EIGENVALUE_SLACK = 1e-12

#: probabilities this close to 0 are treated as exactly 0 (rounding guard)
PROB_FLOOR = 1e-14

#: batches per count draw in :func:`run`: arrays of BATCH_CHUNK x (terms + support)
BATCH_CHUNK = 1024


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
        object.__setattr__(self, "seed", check_integer(self.seed, "seed", 0))
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
    #: shots/(shots-1) * (gamma^2 - estimate^2), the most single_shot_variance
    #: can be with |y| <= gamma on every shot (None for one shot)
    variance_bound: Optional[float] = None
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
            "variance_bound": self.variance_bound,
            "batch_means": list(self.batch_means),
            "per_term_means": list(self.per_term_means),
            "z_score": self.z_score,
        }


# ---------------------------------------------------------------------------
# Term-block plumbing
# ---------------------------------------------------------------------------


def _term_blocks(spec: ExperimentSpec, term: DecompositionTerm) -> list:
    """``(factor, span)`` per factor of ``term``: ``span`` is the
    ``(first, stop)`` range of the registers the factor acts on."""
    part = spec.decomposition.partition
    blocks, stop = [], 0
    for factor in term.factors:
        first, width = stop, 0
        while width < factor.n_qubits:
            width += part[stop]
            stop += 1
        blocks.append((factor, (first, stop)))
    return blocks


def _block(spec: ExperimentSpec, span: tuple, blocks: dict) -> tuple:
    """``(rho, obs, lambda, V, V^dag rho V)`` of the registers in ``span``, with
    ``obs = V diag(lambda) V^dag``; computed once per span and ``blocks`` dict."""
    if span not in blocks:
        regs = range(*span)
        rho = reduce(np.kron, [spec.initial_state[r].mat for r in regs])
        obs = reduce(np.kron, [spec.observable[r].mat for r in regs])
        lam, vecs = np.linalg.eigh(obs)
        blocks[span] = rho, obs, lam, vecs, vecs.conj().T @ rho @ vecs
    return blocks[span]


def term_value_distributions(
    spec: ExperimentSpec, term: DecompositionTerm, blocks: Optional[dict] = None
) -> list:
    """Per-block distributions ``(values, probs)`` of ``sign * lambda`` for one term.

    With ``obs = V diag(lambda) V^dag`` and ``rho_V = V^dag rho V``, branch
    ``b`` followed by outcome ``lambda_a`` has probability
    ``P_b[a] = sum_k (M_k rho_V M_k^dag)_aa`` over the branch's Kraus
    operators ``M_k = V^dag K_k V``: one batched product per factor.
    ``blocks`` is as in :func:`_block`; :func:`run` passes one dict per call,
    so each span is diagonalized once per call.
    """
    blocks = {} if blocks is None else blocks
    out = []
    for factor, span in _term_blocks(spec, term):
        _, _, lam, vecs, rho_v = _block(spec, span, blocks)
        weights, kraus = factor.kraus()
        m = vecs.conj().T @ kraus @ vecs
        probs = np.maximum(np.einsum("kab,kab->ka", m @ rho_v, m.conj()).real, 0.0)
        # first row of each non-empty branch; a branch's rows add up
        starts = np.cumsum([0] + [len(k) for _, k in factor.branches if len(k)])[:-1]
        if len(m) > len(starts):
            probs = np.add.reduceat(probs, starts)
        values = np.multiply.outer(weights[starts], lam)
        keep = probs > PROB_FLOOR
        probs = probs[keep]
        out.append((values[keep], probs / probs.sum()))
    return out


def term_support(
    spec: ExperimentSpec, term: DecompositionTerm, blocks: Optional[dict] = None
) -> tuple:
    """Joint distribution of ``sign * lambda`` over all blocks of one term.

    Blocks are independent, so this is the outer product of the block
    distributions with equal values merged.  Returns ``(values, probs)`` with
    distinct, sorted values.  ``blocks`` is as in :func:`_block`.
    """
    dists = term_value_distributions(spec, term, blocks)
    values, inverse = np.unique(
        reduce(np.multiply.outer, [v for v, _ in dists]).ravel(), return_inverse=True
    )
    probs = reduce(np.multiply.outer, [p for _, p in dists]).ravel()
    return values, np.bincount(inverse, weights=probs)


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------


def exact_expectation(spec: ExperimentSpec, blocks: Optional[dict] = None) -> float:
    """Exact expectation of the cut channel on this experiment.

    Computed term by term and block by block as
    ``sum_nu q_nu prod_b Tr(O_b F_b(rho_b))``: each factor acts on its own
    block state, so no PTM is built and the cost stays that of the largest
    block.  This is the value the sampler estimates, which equals the target
    gate's expectation only as far as the decomposition reconstructs it.
    ``blocks`` is as in :func:`_block`.
    """
    total, blocks = 0.0, {} if blocks is None else blocks
    for term in spec.decomposition.terms:
        value = term.q
        for factor, span in _term_blocks(spec, term):
            rho, obs = _block(spec, span, blocks)[:2]
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
    rng = np.random.Generator(np.random.Philox(spec.seed))

    # sizes as in np.array_split; per chunk of batches, shots per (batch, term),
    # then per drawn term shots per (batch, support value), summed as they come
    k = max(n_batches, 1)
    check_dense(k, "shot batches")
    sizes = np.full(k, shots // k, dtype=np.int64)
    sizes[: shots % k] += 1
    per_term_shots = np.zeros(len(deco.terms), dtype=np.int64)
    blocks, supports, counts = {}, {}, {}
    batch_sums = np.zeros(k)
    for first in range(0, k, BATCH_CHUNK):
        rows = slice(first, first + BATCH_CHUNK)
        term_counts = rng.multinomial(sizes[rows], deco.sampling_probabilities())
        per_term_shots += term_counts.sum(axis=0)
        for nu in map(int, np.flatnonzero(term_counts.any(axis=0))):
            if nu not in supports:
                supports[nu] = term_support(spec, deco.terms[nu], blocks)
            drawn = rng.multinomial(term_counts[:, nu], supports[nu][1])
            counts[nu] = counts.get(nu, 0) + drawn.sum(axis=0)
            batch_sums[rows] += drawn @ (np.sign(deco.terms[nu].q) * supports[nu][0])

    per_term_means = [None] * len(deco.terms)
    for nu, c in counts.items():
        per_term_means[nu] = float(c @ supports[nu][0]) / int(per_term_shots[nu])
    ys = {nu: gamma * np.sign(deco.terms[nu].q) * supports[nu][0] for nu in counts}
    estimate = sum(float(counts[nu] @ y) for nu, y in ys.items()) / shots
    variance, bound = 0.0, None
    if shots > 1:
        squares = sum(float(counts[nu] @ (y - estimate) ** 2) for nu, y in ys.items())
        variance = squares / (shots - 1)
        bound = shots / (shots - 1) * (gamma**2 - estimate**2)
    stderr = float(np.sqrt(variance / shots))
    exact = exact_expectation(spec, blocks)
    return SamplingReport(
        estimate=estimate,
        standard_error=stderr,
        shots=shots,
        gamma=gamma,
        exact_value=exact,
        per_term_shots=tuple(int(c) for c in per_term_shots),
        seed=spec.seed,
        single_shot_variance=variance,
        variance_bound=bound,
        batch_means=tuple((gamma * batch_sums / sizes).tolist()) if n_batches else (),
        per_term_means=tuple(per_term_means),
        z_score=(estimate - exact) / stderr if stderr > 0 else None,
    )
