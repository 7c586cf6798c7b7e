"""Dense complex linear algebra for small multi-qubit systems.

Operators are stored as dense ``2^n x 2^n`` complex matrices, superoperators
as ``4^n x 4^n`` matrices in the normalized Pauli basis (Pauli transfer
matrices, PTMs).  The Pauli basis ordering is lexicographic over ``(I, X, Y,
Z)`` per qubit with qubit 0 as the most significant index, matching the
standard Kronecker-product convention, so PTMs of tensor-product maps are
Kronecker products of the factor PTMs with no permutation bookkeeping.

Indexed by X and Z part, ``P = i^{|x & z|} X^x Z^z``, every PTM entry of
``rho -> sum_k w_k K_k rho K_k^dag`` is a unit phase times one entry of a
Walsh-Hadamard array ``W / d`` (:func:`kraus_transform`), which
:func:`ptm_of_kraus`, the dense PTM builder, phases and reorders.

A map whose Kraus operators are all diagonal acts entrywise,
``E(rho) = S * rho`` with a ``2^n x 2^n`` Schur multiplier ``S``.  Its PTM is
block sparse: ``R_ij`` vanishes unless ``P_i`` and ``P_j`` share their X part,
and :func:`schur_ptm_blocks` returns only those ``8^n`` entries from a
``d x d`` array ``W`` (:func:`schur_transform`).  :func:`ptm_of_unitary` takes
that path for an exactly diagonal unitary.

Everything here is desk-scale by design: :func:`check_dense` caps every dense
array at :data:`MAX_DENSE_ENTRIES` complex entries before it is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

#: tolerance for structural checks (unitarity, Kraus completeness, density matrices)
ATOL_STRUCT = 1e-10

#: complex entries in one dense array: 2^26 x 16 B = 1 GiB, i.e. a 13-qubit
#: operator, a 6-qubit PTM or a 26-leg ZX tensor
MAX_DENSE_ENTRIES = 2**26


class QcutError(Exception):
    """Base class for errors raised by qcut."""


class DimensionError(QcutError):
    """Operands have incompatible or invalid dimensions."""


class SizeCapError(QcutError):
    """An operation would exceed the dense-size cap."""


def check_dense(entries: int, what: str):
    """Raise :class:`SizeCapError` if ``what`` needs over MAX_DENSE_ENTRIES entries."""
    if entries > MAX_DENSE_ENTRIES:
        need = f"2^{entries.bit_length() - 1}" if _is_power_of_two(entries) else entries
        cap = f"2^{MAX_DENSE_ENTRIES.bit_length() - 1}"
        raise SizeCapError(f"{what} needs {need} dense entries, over the cap of {cap}")


def _is_power_of_two(d: int) -> bool:
    return d > 0 and (d & (d - 1)) == 0


class Operator:
    """Dense complex operator on ``n`` qubits.

    Immutable after construction; every entry must be finite.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        shape = np.shape(mat)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise DimensionError(f"operator must be square, got shape {shape}")
        d = shape[0]
        if not _is_power_of_two(d):
            raise DimensionError(f"operator dimension must be a power of two, got {d}")
        check_dense(d * d, f"operator of dimension {d}")
        arr = np.array(mat, dtype=complex)
        if not np.isfinite(arr).all():
            raise DimensionError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @classmethod
    def diagonal(cls, values) -> "Operator":
        """``diag(values)`` written straight into one zero matrix.

        Checks what ``Operator(np.diag(values))`` would: the length is a power
        of two, the matrix fits the cap (before it is allocated) and every
        value is finite; the off-diagonal zeros are finite by construction.
        """
        vec = np.asarray(values, dtype=complex)
        if vec.ndim != 1:
            raise DimensionError(f"diagonal must be a 1-D vector, got shape {vec.shape}")
        d = vec.shape[0]
        if not _is_power_of_two(d):
            raise DimensionError(f"operator dimension must be a power of two, got {d}")
        check_dense(d * d, f"operator of dimension {d}")
        if not np.isfinite(vec).all():
            raise DimensionError("operator entries must be finite")
        arr = np.zeros((d, d), dtype=complex)
        np.fill_diagonal(arr, vec)
        arr.setflags(write=False)
        op = object.__new__(cls)
        object.__setattr__(op, "mat", arr)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("Operator is immutable")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise DimensionError(f"dim mismatch: {self.dim} vs {other.dim}")
        return Operator(self.mat @ other.mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.mat * scalar)

    __rmul__ = __mul__

    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def __repr__(self) -> str:
        return f"Operator(n={self.n_qubits})"


# single-qubit Paulis
PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_LETTERS = "IXYZ"
_PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Paulis, e.g. ``PauliString("XIZ")``."""

    letters: str

    def __post_init__(self):
        if len(self.letters) < 1:
            raise DimensionError("Pauli string must have length >= 1")
        bad = set(self.letters) - set(PAULI_LETTERS)
        if bad:
            raise DimensionError(f"invalid Pauli letters: {sorted(bad)}")

    @property
    def n_qubits(self) -> int:
        return len(self.letters)

    def to_operator(self) -> Operator:
        return Operator(reduce(np.kron, [_PAULIS[letter] for letter in self.letters]))


def check_unitary(mat: np.ndarray, what: str):
    """Raise :class:`DimensionError` unless ``U^dag U = I`` to ``ATOL_STRUCT``
    (a matrix with a NaN entry fails)."""
    dev = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
    if not dev <= ATOL_STRUCT:
        raise DimensionError(f"{what} is not unitary: max|U^dag U - I| = {dev:.3e}")


@dataclass(frozen=True)
class Superoperator:
    """A linear map on operators, stored as its PTM in the normalized Pauli basis."""

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (4**self.n, 4**self.n):
            raise DimensionError(
                f"superoperator for n={self.n} must be {4**self.n} x {4**self.n}, "
                f"got {mat.shape}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def max_abs_diff(self, other: "Superoperator") -> float:
        if self.n != other.n:
            raise DimensionError(f"qubit count mismatch: {self.n} vs {other.n}")
        return max_abs_diff(self.matrix, other.matrix)


#: bytes of the scratch buffer :func:`max_abs_diff` reuses for each block of rows
_DIFF_SCRATCH_BYTES = 2**20


def max_abs_diff(a, b) -> float:
    """``max |a - b|`` over two equal-shape arrays: the float that
    ``np.max(np.abs(a - b))`` returns, NaN included, but taken one block of
    leading rows at a time through one fixed scratch buffer, so no full-size
    temporary is allocated."""
    if np.shape(a) != np.shape(b):
        raise DimensionError(f"shape mismatch: {np.shape(a)} vs {np.shape(b)}")
    a, b = np.atleast_1d(np.asarray(a)), np.atleast_1d(np.asarray(b))
    if a.size == 0:
        raise DimensionError("max_abs_diff of empty arrays")
    diff_type = np.result_type(a, b)
    abs_type = np.empty(0, diff_type).real.dtype
    row_bytes = a[0].size * (diff_type.itemsize + abs_type.itemsize)
    step = min(len(a), max(1, _DIFF_SCRATCH_BYTES // row_bytes))  # rows per block
    scratch = np.empty(step * row_bytes, np.uint8)
    split = step * a[0].size * diff_type.itemsize
    diff = scratch[:split].view(diff_type).reshape((step,) + a.shape[1:])
    mag = scratch[split:].view(abs_type).reshape(diff.shape)
    worst = None
    for start in range(0, len(a), step):
        k = min(step, len(a) - start)
        np.subtract(a[start:start + k], b[start:start + k], out=diff[:k])
        np.abs(diff[:k], out=mag[:k])
        block = mag[:k].max()
        worst = block if worst is None else np.maximum(worst, block)  # keeps a NaN
    return float(worst)


def ptm_of_unitary(u: Operator) -> Superoperator:
    """PTM of the channel ``rho -> U rho U^dag``; an exactly diagonal ``U``
    goes through :func:`ptm_of_schur` with ``S = u conj(u)^T``."""
    n = u.n_qubits
    check_dense(16**n, f"superoperator on {n} qubits")  # before the d x d unitarity products
    check_unitary(u.mat, "input")
    diag = exact_diagonal(u.mat)
    if diag is not None:
        return ptm_of_schur(np.outer(diag, diag.conj()))
    return ptm_of_kraus(np.ones(1), u.mat[None])


# ---------------------------------------------------------------------------
# Diagonal maps in Schur form
# ---------------------------------------------------------------------------


def exact_diagonal(a: np.ndarray):
    """Diagonal of ``a``, or of each matrix in a stack ``(..., d, d)``, when
    every off-diagonal entry is exactly zero; ``None`` otherwise."""
    diag = np.diagonal(a, axis1=-2, axis2=-1)
    return diag if np.count_nonzero(a) == np.count_nonzero(diag) else None


def _popcount(a: np.ndarray, n: int) -> np.ndarray:
    """Set bits of each entry of an integer array with entries below ``2^n``."""
    out = np.zeros_like(a)
    for k in range(n):
        out += (a >> k) & 1
    return out


#: ``i^k`` for ``k mod 4``
_I_POWERS = np.array([1, 1j, -1, -1j])

#: ``[x bit, z bit]`` -> index of the one-qubit Pauli in ``PAULI_LETTERS``
_LETTER_INDEX = np.array([[0, 3], [1, 2]])


def pauli_index(x, z, n: int):
    """Basis index of the Pauli string with X part ``x`` and Z part ``z``
    (bit ``n - 1 - q`` is qubit ``q``); works elementwise on integer arrays."""
    out = 0
    for shift in range(n - 1, -1, -1):
        out = 4 * out + _LETTER_INDEX[(x >> shift) & 1, (z >> shift) & 1]
    return out


def pauli_label(index: int, n: int) -> str:
    """Letters of the Pauli string at basis ``index``, e.g. ``"XZI"``."""
    index = int(index)
    return "".join(PAULI_LETTERS[(index >> 2 * shift) & 3] for shift in range(n - 1, -1, -1))


def schur_of_kraus(weights: np.ndarray, kraus: np.ndarray):
    """Schur multiplier ``S = sum_k w_k diag(K_k) diag(K_k)^dag`` of
    ``rho -> sum_k w_k K_k rho K_k^dag`` when every ``K_k`` is exactly
    diagonal; ``None`` otherwise."""
    diag = exact_diagonal(kraus)
    return None if diag is None else (diag.T * weights) @ diag.conj()


def schur_transform(s: np.ndarray) -> np.ndarray:
    """``W[x, z]``, the Walsh-Hadamard transform over ``b`` of ``s[b ^ x, b]``:
    every PTM entry of ``rho -> s * rho`` is a unit phase times one of ``W / d``."""
    d = s.shape[0]
    n = d.bit_length() - 1
    check_dense(d * d, f"Schur-form transform on {n} qubits")
    idx = np.arange(d)
    w = s[idx[:, None] ^ idx[None, :], idx[None, :]].reshape((d,) + (2,) * n)  # g[x, b]
    for axis in range(1, n + 1):
        lo, hi = np.take(w, 0, axis), np.take(w, 1, axis)
        w = np.stack([lo + hi, lo - hi], axis=axis)
    return w.reshape(d, d)


def schur_ptm_blocks(s: np.ndarray) -> np.ndarray:
    """The nonzero PTM entries of the Schur map ``rho -> s * rho`` (entrywise).

    With ``P = i^{|x & z|} X^x Z^z`` the map keeps the X part, so only entries
    with equal X parts survive.  Returns ``B`` of shape ``(d, d, d)`` with
    ``B[x, z_i, z_j] = R_ij`` for ``P_i = (x, z_i)``, ``P_j = (x, z_j)``:

        B = (-1)^{z_i . x} i^{|x & z_i| + |x & z_j|} W[x, z_i ^ z_j] / d,

    with ``W`` from :func:`schur_transform`.
    """
    d = s.shape[0]
    n = d.bit_length() - 1
    check_dense(d**3, f"Schur-form PTM blocks on {n} qubits")
    w = schur_transform(s)
    idx = np.arange(d)
    overlap = _popcount(idx[:, None] & idx[None, :], n)  # |x & z|
    y_phase = _I_POWERS[overlap % 4]
    x_sign = 1 - 2 * (overlap % 2)
    return (x_sign * y_phase)[:, :, None] * y_phase[:, None, :] * w[:, idx[:, None] ^ idx] / d


def ptm_of_schur(s: np.ndarray) -> Superoperator:
    """Dense PTM of ``rho -> s * rho``: :func:`schur_ptm_blocks` scattered into
    a zero ``4^n x 4^n`` matrix."""
    d = s.shape[0]
    n = d.bit_length() - 1
    check_dense(16**n, f"superoperator on {n} qubits")
    idx = np.arange(d)
    p = pauli_index(idx[:, None], idx[None, :], n)  # p[x, z]
    out = np.zeros((d * d, d * d), dtype=complex)
    out[p[:, :, None], p[:, None, :]] = schur_ptm_blocks(s)
    return Superoperator(n, out)


# ---------------------------------------------------------------------------
# Signed Kraus maps
# ---------------------------------------------------------------------------


def kraus_transform(weights: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """``W[z', z, x', x] = Tr(P' E(P)) / (i^{|x' & z'|} i^{|x & z|})`` for
    ``E(rho) = sum_k w_k K_k rho K_k^dag`` and ``P = i^{|x & z|} X^x Z^z``:

        W = H G H over (c, b),  G[c, b, x', x] = sum_k w_k conj(K_k[c ^ x', b]) K_k[c, b ^ x],

    with the Hadamard matrix ``H[z, c] = (-1)^{|z & c|}``.
    """
    kraus = np.asarray(kraus, dtype=complex)
    m, d, _ = kraus.shape
    n = d.bit_length() - 1
    check_dense(d**3 * max(d, m), f"Pauli transfer array on {n} qubits")
    idx = np.arange(d)
    xor = idx[:, None] ^ idx[None, :]
    bra = np.conj(kraus[:, xor, :]) * np.reshape(weights, (m, 1, 1, 1))  # [k, c, x', b]
    w = bra.transpose(1, 3, 2, 0) @ kraus[:, :, xor].transpose(1, 2, 0, 3)  # G[c, b, x', x]
    del bra
    # H is real: apply it to the (real, imag) pairs as real gemms
    h = 1.0 - 2 * (_popcount(idx[:, None] & idx[None, :], n) % 2)
    w = h @ w.reshape(d, -1).view(float)  # [z', (b, x', x)]
    w = h @ w.reshape(d, d, -1)  # [z', z, (x', x)]
    return w.view(complex).reshape((d,) * 4)


def ptm_of_kraus(weights: np.ndarray, kraus: np.ndarray) -> Superoperator:
    """PTM of ``rho -> sum_k w_k K_k rho K_k^dag`` for real weights ``w_k``
    and a ``(k, d, d)`` stack of operators, from :func:`kraus_transform`."""
    w = kraus_transform(weights, kraus)
    d = w.shape[0]
    n = d.bit_length() - 1
    idx = np.arange(d)
    # X and Z part of each basis index, in basis order
    x, z = np.divmod(np.argsort(pauli_index(idx[:, None], idx[None, :], n).ravel()), d)
    out = w[z[:, None], z[None, :], x[:, None], x[None, :]]
    phase = _I_POWERS[_popcount(x & z, n) % 4]
    out *= phase[:, None]
    out *= phase / d
    return Superoperator(n, out)


# ---------------------------------------------------------------------------
# Pauli eigenbasis (single-qubit stabilizer states)
# ---------------------------------------------------------------------------

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
KET_PLUS_I = np.array([1, 1j], dtype=complex) / np.sqrt(2)
KET_MINUS_I = np.array([1, -1j], dtype=complex) / np.sqrt(2)


#: (P, mu) -> (sign, eigenket).  For X, Y, Z these are the +1/-1 eigenstate
#: pairs; the identity row reuses the Y eigenstates with both signs +1 (the
#: conventional choice for the freedom in expanding the identity).
PAULI_EIGENKETS = {
    ("I", 0): (1, KET_PLUS_I),
    ("I", 1): (1, KET_MINUS_I),
    ("X", 0): (1, KET_PLUS),
    ("X", 1): (-1, KET_MINUS),
    ("Y", 0): (1, KET_PLUS_I),
    ("Y", 1): (-1, KET_MINUS_I),
    ("Z", 0): (1, KET_0),
    ("Z", 1): (-1, KET_1),
}


# ---------------------------------------------------------------------------
# Qubit-subset helpers on raw matrices
# ---------------------------------------------------------------------------


def embed_matrix(a: np.ndarray, qubits: Sequence[int], n: int) -> np.ndarray:
    """Embed an operator acting on ``qubits`` into the full ``n``-qubit space."""
    qubits = list(qubits)
    k = len(qubits)
    if a.shape != (2**k, 2**k):
        raise DimensionError(f"operator shape {a.shape} does not match {k} qubits")
    rest = [q for q in range(n) if q not in qubits]
    full = np.kron(a, np.eye(2 ** (n - k), dtype=complex))
    order = qubits + rest  # qubit occupying axis j of `full`
    axes = [0] * n
    for j, q in enumerate(order):
        axes[q] = j
    t = full.reshape((2,) * (2 * n))
    t = np.transpose(t, axes + [n + ax for ax in axes])
    return t.reshape(2**n, 2**n)
