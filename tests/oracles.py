"""Reference helpers that only the tests use.

They recompute what the package derives from a map's Kraus stack or an
operator's matrix by the textbook route, so the tests can check the package
against them: the measure-and-prepare map from eigendecompositions, Pauli
coefficients from traces, PTMs from a map's images of the whole Pauli basis,
single shots drawn one at a time, a term's outcome distribution enumerated
outcome by outcome, multi-Z factors conjugated by explicit CNOT ladders, MCZ
factors built as register-size gates, ZX
diagrams glued from small pieces and compared as two dense matrices.
"""

from functools import lru_cache, reduce

import numpy as np

from qcut import gates
from qcut.channels import GeneralizedMap, UnitaryChannel, check_density, e_v_mx_map
from qcut.cuts import Decomposition, DecompositionTerm
from qcut.linalg import (
    ATOL_STRUCT,
    PAULI_EIGENKETS,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DimensionError,
    Operator,
    check_dense,
    embed_matrix,
    max_abs_diff,
)
from qcut.sampling import PROB_FLOOR
from qcut.zx import RULE_ATOL, ZXDiagram, ZXError, contract, parse_diagram

#: Choi positivity tolerance; looser than equality checks because eigenvalue
#: computation amplifies rounding.
CHOI_ATOL = 1e-9

#: eigen-components with at most this weight are rounding noise and get no
#: Kraus operator
KRAUS_FLOOR = 1e-14


def dag(a: Operator) -> Operator:
    return Operator(a.mat.conj().T)


def close_to(a: Operator, b: Operator, atol: float = ATOL_STRUCT) -> bool:
    return a.dim == b.dim and np.max(np.abs(a.mat - b.mat)) <= atol


def apply_map(ch: GeneralizedMap, a: Operator) -> Operator:
    """Exact linear action of ``ch`` on one operator."""
    if a.n_qubits != ch.n_qubits:
        raise DimensionError(
            f"map acts on {ch.n_qubits} qubits, operator has {a.n_qubits}"
        )
    return Operator(ch.apply_batch(a.mat[None, :, :])[0])


def choi_matrix(ch: GeneralizedMap) -> np.ndarray:
    d = 2**ch.n_qubits
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # |i><j| at i*d + j
    images = ch.apply_batch(units).reshape(d, d, d, d)  # [i, j, a, b]
    return np.transpose(images, (2, 0, 3, 1)).reshape(d * d, d * d)


def cptp_diagnostics(ch: GeneralizedMap) -> dict:
    """Cross-check of the sign-based CPTP flag against the Choi matrix."""
    choi = choi_matrix(ch)
    min_eig = float(np.linalg.eigvalsh((choi + choi.conj().T) / 2).min())
    d = 2**ch.n_qubits
    tr_out = np.trace(choi.reshape(d, d, d, d), axis1=0, axis2=2)
    tp_dev = float(np.max(np.abs(tr_out - np.eye(d))))
    choi_cptp = min_eig >= -CHOI_ATOL and tp_dev <= CHOI_ATOL
    return {
        "flags_cptp": ch.is_cptp(),
        "choi_min_eigenvalue": min_eig,
        "trace_preservation_deviation": tp_dev,
        "choi_cptp": choi_cptp,
        "consistent": ch.is_cptp() == choi_cptp,
    }


def projector(ket: np.ndarray) -> Operator:
    return Operator(np.outer(ket, ket.conj()))


def pauli_eigenbasis() -> dict:
    """Table mapping (P, mu) to (sign, rank-1 projector) of ``PAULI_EIGENKETS``."""
    return {key: (a, projector(ket)) for key, (a, ket) in PAULI_EIGENKETS.items()}


# normalized single-qubit Pauli basis tensor (4, 2, 2)
_PB = np.stack([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z]) / np.sqrt(2.0)


def _pauli_coeffs_batch(mats: np.ndarray) -> np.ndarray:
    """Coefficients ``Tr(Pbar_i A)`` for a batch of matrices, shape (B, 4^n)."""
    b, d, _ = mats.shape
    n = d.bit_length() - 1
    t = mats.reshape((b,) + (2,) * (2 * n))
    for k in range(n):
        # axes: (B,) + (4,)*k + rows + cols; row of qubit k at 1+k, col at 1+n
        t = np.tensordot(t, _PB, axes=([1 + k, 1 + n], [2, 1]))
        t = np.moveaxis(t, -1, 1 + k)
    return t.reshape(b, 4**n)


@lru_cache(maxsize=None)
def _basis_cached(n: int) -> np.ndarray:
    if n == 1:
        out = _PB.copy()
    else:
        lo = _basis_cached(n - 1)
        out = np.einsum("iab,jcd->ijacbd", _PB, lo).reshape(
            4**n, 2**n, 2**n
        )
    out.setflags(write=False)
    return out


def pauli_basis_matrices(n: int) -> np.ndarray:
    """All ``4^n`` normalized Pauli-string matrices, shape (4^n, 2^n, 2^n)."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    check_dense(16**n, f"Pauli basis on {n} qubits")
    return _basis_cached(n)


def ptm_of_map(apply_batch, n: int) -> np.ndarray:
    """Read-only PTM of an arbitrary linear map given its batched action on matrices.

    ``apply_batch`` maps a read-only array of shape (B, 2^n, 2^n) to the
    array of images, same shape.
    """
    check_dense(16**n, f"superoperator on {n} qubits")
    images = apply_batch(pauli_basis_matrices(n))
    coeffs = _pauli_coeffs_batch(images)
    ptm = coeffs.T.copy()
    ptm.setflags(write=False)
    return ptm


def haar_unitary(rng, d: int) -> Operator:
    """Haar-random ``d x d`` unitary: QR of a complex Gaussian matrix with the
    phases of ``R``'s diagonal moved into ``Q``."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return Operator(q * (np.diag(r) / np.abs(np.diag(r))))


def vectorize(a: Operator) -> np.ndarray:
    """Coefficients ``Tr(P_i a)`` of ``a`` in the normalized Pauli basis."""
    return np.einsum("iab,ba->i", pauli_basis_matrices(a.n_qubits), a.mat)


def devectorize(coeffs: np.ndarray) -> Operator:
    """Inverse of :func:`vectorize`: ``sum_i c_i P_i``."""
    n = (len(coeffs).bit_length() - 1) // 2
    return Operator(np.einsum("i,iab->ab", coeffs, pauli_basis_matrices(n)))


def measure_prepare_map(terms) -> GeneralizedMap:
    """``rho -> sum_v a_v Tr(E_v rho) rho_v`` for terms ``(a_v, E_v, rho_v)``:
    term ``v`` gives the operators ``sqrt(mu_i lambda_j) |s_j><e_i|``, each
    with sign ``a_v``, from the eigendecompositions
    ``E_v = sum_i mu_i |e_i><e_i|`` and ``rho_v = sum_j lambda_j |s_j><s_j|``,
    dropping weights below ``KRAUS_FLOOR``."""
    if not terms:
        raise DimensionError("measure-and-prepare map needs at least one term")
    d = terms[0][1].dim
    signs, ops = [], []
    for a, e, rho in terms:
        if e.dim != d or rho.dim != d:
            raise DimensionError("POVM elements and states must share one register")
        mu, effect_vecs = np.linalg.eigh(e.mat)
        if not (close_to(e, dag(e)) and mu.min() >= -ATOL_STRUCT):
            raise DimensionError("POVM elements must be Hermitian positive semidefinite")
        check_density(rho, "prepared state")
        lam, state_vecs = np.linalg.eigh(rho.mat)
        weights = np.outer(mu, lam)
        # kraus[i, j] = sqrt(mu_i lambda_j) |s_j><e_i|
        kraus = np.einsum("ij,aj,bi->ijab", np.sqrt(np.abs(weights)), state_vecs,
                          effect_vecs.conj())
        kept = kraus[weights > KRAUS_FLOOR]
        signs += [a] * len(kept)
        ops += list(kept)
    return GeneralizedMap(signs, ops)


def cnot_on(n: int, control: int, target: int) -> Operator:
    """CNOT embedded in an ``n``-qubit register."""
    if control == target or not (0 <= control < n and 0 <= target < n):
        raise DimensionError(f"bad CNOT wiring ({control}->{target}) on {n} qubits")
    return Operator(embed_matrix(gates.cnot().mat, [control, target], n))


def ladder_conjugated(factor: GeneralizedMap, size: int, wire: int) -> GeneralizedMap:
    """A single-qubit ``factor`` on qubit ``wire`` of a ``size``-qubit
    register, each Kraus operator conjugated by the CNOT ladder that folds the
    register's parity onto ``wire``: the textbook form of a multi-Z factor."""
    ladder = np.eye(2**size, dtype=complex)
    for q in range(size):
        if q != wire:
            ladder = cnot_on(size, q, wire).mat @ ladder
    return GeneralizedMap(
        factor.signs,
        [ladder.conj().T @ embed_matrix(k, [wire], size) @ ladder for k in factor.ops],
    )


def dense_mcz_decomposition(m: int, m_prime: int) -> Decomposition:
    """The MCZ cut with every register factor built from register-size gates:
    ``MCP(+-pi/2)``, ``E_MCZ-MX``, ``MCZ`` and the identity on ``m`` or
    ``m'`` qubits, in the package's term order and labels."""
    def factors(size):
        mcp = [UnitaryChannel(gates.mcp(size, sign * np.pi / 2)) for sign in (1, -1)]
        return (*mcp, e_v_mx_map(gates.mcz(size)), UnitaryChannel(gates.mcz(size)),
                UnitaryChannel(gates.identity(size)))

    (pu, mu, mxu, zu, iu), (pl, ml, mxl, zl, il) = factors(m), factors(m_prime)
    terms = [
        DecompositionTerm(0.5, [pu, pl], "MCP(+1pi/2) x MCP(+1pi/2)"),
        DecompositionTerm(0.5, [mu, ml], "MCP(-1pi/2) x MCP(-1pi/2)"),
        DecompositionTerm(0.5, [mxu, il], "E_MCZ-MX x I"),
        DecompositionTerm(-0.5, [mxu, zl], "E_MCZ-MX x MCZ"),
        DecompositionTerm(0.5, [iu, mxl], "I x E_MCZ-MX"),
        DecompositionTerm(-0.5, [zu, mxl], "MCZ x E_MCZ-MX"),
    ]
    return Decomposition(f"mcz[{m},{m_prime}]", (m, m_prime), terms, gates.mcz(m + m_prime))


def _draw(rng, cumulative: np.ndarray) -> int:
    """Index ``i`` with probability ``weights[i] / sum(weights)``, from one
    uniform draw, given ``cumulative = np.cumsum(weights)``."""
    return int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))


def term_blocks(term, spec) -> list:
    """``(factor, rho, obs)`` per factor of ``term``: the Kronecker products of
    the register states and observables the factor covers."""
    registers = iter(zip(spec.decomposition.partition, spec.initial_state, spec.observable))
    blocks = []
    for factor in term.factors:
        states, observables, size = [], [], 0
        while size < factor.n_qubits:
            width, state, observable = next(registers)
            states.append(state.mat)
            observables.append(observable.mat)
            size += width
        blocks.append((factor, reduce(np.kron, states), reduce(np.kron, observables)))
    return blocks


def outcome_probabilities(factor: GeneralizedMap, rho: np.ndarray) -> list:
    """``Tr(K rho K^dag)`` and the post-state ``K rho K^dag``, per Kraus
    operator ``K`` of ``factor``."""
    posts = [k @ rho @ k.conj().T for k in factor.ops]
    return [(max(np.trace(post).real, 0.0), post) for post in posts]


def outcome_value_distributions(term, spec) -> list:
    """Per-block ``(values, probs)`` of ``sign * lambda`` for one term,
    enumerated outcome by outcome: an outcome's probability is the trace of
    its post-state, and the observable is measured on the normalized
    post-state in its own eigenbasis.  Outcomes with probability at most
    ``PROB_FLOOR`` are dropped, and the kept probabilities renormalized."""
    out = []
    for factor, rho, obs in term_blocks(term, spec):
        lam, vecs = np.linalg.eigh(obs)
        values, probs = [], []
        outcomes = zip(factor.signs, outcome_probabilities(factor, rho))
        for sign, (p, post) in outcomes:
            if p > PROB_FLOOR:
                p_lam = np.einsum("ai,ab,bi->i", vecs.conj(), post / p, vecs).real
                p_lam = np.clip(p_lam, 0.0, None)
                values.append(sign * lam)
                probs.append(p * p_lam / p_lam.sum())
        values, probs = np.concatenate(values), np.concatenate(probs)
        keep = probs > PROB_FLOOR
        out.append((values[keep], probs[keep] / probs[keep].sum()))
    return out


@lru_cache(maxsize=256)
def prepared_term(term, spec) -> tuple:
    """What every shot of :func:`execute_term` reads, per block of ``term``:
    ``(signs, outcome_cdf, lam, lam_cdfs)``.  Each factor acts on the
    Kronecker product of the registers it covers; Kraus operator ``K``
    occurs with probability ``Tr(K rho K^dag)`` (``outcome_cdf`` is their
    running sum) and leaves that unnormalized post-state, in which the
    observable's eigenvalue ``lam[a]`` has weight ``<v_a|post|v_a>``
    (``lam_cdfs[k]`` is their running sum for outcome ``k``).  Built once
    per ``(term, spec)``."""
    blocks = []
    for factor, rho, obs in term_blocks(term, spec):
        outcomes = outcome_probabilities(factor, rho)
        lam, vecs = np.linalg.eigh(obs)
        lam_cdfs = tuple(np.cumsum(np.clip(np.einsum("ai,ab,bi->i", vecs.conj(), post, vecs).real,
                                           0.0, None)) for _, post in outcomes)
        blocks.append((factor.signs, np.cumsum([p for p, _ in outcomes]), lam, lam_cdfs))
    return tuple(blocks)


def execute_term(term, spec, rng) -> tuple:
    """Physically simulate one shot of one term from :func:`prepared_term`:
    sample each factor's measurement outcome, then the observable
    eigenvalue of its block in the outcome's post-state.  Returns
    ``(sign, lam)`` with ``sign`` the product of outcome signs and ``lam``
    the product of sampled per-block eigenvalues.
    """
    sign = 1
    lam_total = 1.0
    for signs, outcome_cdf, lam, lam_cdfs in prepared_term(term, spec):
        b = _draw(rng, outcome_cdf)
        sign *= signs[b]
        lam_total *= float(lam[_draw(rng, lam_cdfs[b])])
    return sign, lam_total


def unsigned(deco: Decomposition) -> Decomposition:
    """``deco`` with every outcome sign of every factor set to ``+1``: the
    estimator that drops the classically tracked signs."""
    terms = [
        DecompositionTerm(
            t.q,
            [GeneralizedMap([1] * len(f.signs), f.ops) for f in t.factors],
            t.label,
            t.needs_cc,
        )
        for t in deco.terms
    ]
    return Decomposition(deco.name, deco.partition, terms, deco.target_unitary)


def degree(d: ZXDiagram, nid: int) -> int:
    return sum((u == nid) + (v == nid) for u, v in d.edges)


def tensor(d1: ZXDiagram, d2: ZXDiagram) -> ZXDiagram:
    """Parallel composition with ``d1`` as the high-order (top) factor."""
    out = d1.copy()
    out.cut_edge = None
    offset = out._next_id
    out.nodes.update((nid + offset, data) for nid, data in d2.nodes.items())
    out.edges += [(u + offset, v + offset) for u, v in d2.edges]
    out.inputs += [nid + offset for nid in d2.inputs]
    out.outputs += [nid + offset for nid in d2.outputs]
    out._next_id = offset + d2._next_id
    out.scalar *= d2.scalar
    return out


def compose(d1: ZXDiagram, d2: ZXDiagram) -> ZXDiagram:
    """Sequential composition: run ``d1`` first (matrix ``contract(d2) @ contract(d1)``)."""
    if len(d1.outputs) != len(d2.inputs):
        raise ZXError(f"cannot compose: {len(d1.outputs)} outputs vs {len(d2.inputs)} inputs")
    out = tensor(d1, d2)
    n_in, n_mid = len(d1.inputs), len(d1.outputs)
    # splice: turn the glued boundaries into identity spiders and join them
    for o_nid, i_nid in zip(out.outputs[:n_mid], out.inputs[n_in:]):
        out.nodes[o_nid] = out.nodes[i_nid] = ("z", 0.0)
        out.edges.append((o_nid, i_nid))
    out.inputs, out.outputs = out.inputs[:n_in], out.outputs[n_mid:]
    return out


def swap_diagram() -> ZXDiagram:
    return parse_diagram("node a input\nnode b input\nnode c output\nnode d output\n"
                         "edge a d\nedge b c")


def effect_diagram(kind: str, phase: float = 0.0) -> ZXDiagram:
    """Single spider with one input and no outputs (a ``sqrt(2)``-scaled bra)."""
    return parse_diagram(f"node s {kind} {phase!r}\nnode i input\nedge i s")


def cup_diagram() -> ZXDiagram:
    """No inputs, two outputs: the unnormalized Bell state ``|00> + |11>``."""
    return parse_diagram("node s z\nnode a output\nnode b output\nedge s a\nedge s b")


def cap_diagram() -> ZXDiagram:
    """Two inputs, no outputs: the unnormalized Bell effect ``<00| + <11|``."""
    return parse_diagram("node s z\nnode a input\nnode b input\nedge a s\nedge b s")


def with_nan_phase(d: ZXDiagram) -> ZXDiagram:
    """``d`` with its first Z spider's phase set to NaN."""
    out = d.copy()
    node = next(k for k, (kind, _) in out.nodes.items() if kind == "z")
    out.nodes[node] = ("z", float("nan"))
    return out


def dense_verify_rule(lhs: ZXDiagram, rhs: ZXDiagram, up_to_scalar: bool = False) -> dict:
    """:func:`qcut.zx.verify_rule` computed on both sides' full dense
    ``2^out x 2^in`` contractions."""
    if len(lhs.inputs) != len(rhs.inputs) or len(lhs.outputs) != len(rhs.outputs):
        raise ZXError("boundary signature mismatch")
    a = contract(lhs)
    b = contract(rhs)
    deviation = max_abs_diff(a, b)
    report = {
        "max_abs_deviation": deviation,
        "equal": deviation <= RULE_ATOL,
    }
    if up_to_scalar:
        # a side with every entry within RULE_ATOL of 0 has ratio 0 and
        # equals only another such side
        zero_a, zero_b = (np.max(np.abs(x)) <= RULE_ATOL for x in (a, b))
        norm = np.vdot(a, a)
        if zero_a:
            ratio = 0j
        else:
            ratio = complex(np.vdot(a, b) / norm) if abs(norm) > 0 else complex("nan")
        residual = max_abs_diff(b, ratio * a)
        report["scalar_ratio"] = ratio
        report["scalar_residual"] = residual
        report["equal_up_to_scalar"] = bool(residual <= RULE_ATOL and zero_a == zero_b)
        report["zero_side"] = ("both" if zero_a and zero_b else "lhs" if zero_a
                               else "rhs" if zero_b else None)
    return report
