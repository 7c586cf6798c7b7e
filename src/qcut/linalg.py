"""Dense complex linear algebra for small multi-qubit systems.

Operators are dense ``2^n x 2^n`` complex matrices.  A :class:`Superoperator`
is a signed Kraus sum ``rho -> sum_k w_k K_k rho K_k^dag``, held as its
``weights`` and ``(k, d, d)`` operator stack ``ops``, or, when every ``K_k``
is exactly diagonal, as the ``(k, d)`` stack of their ``diagonals``; its
Pauli transfer matrix (PTM), the ``4^n x 4^n`` matrix in the normalized Pauli
basis, is built only when read.  The basis is ordered lexicographically over
``(I, X, Y, Z)`` per qubit with qubit 0 as the most significant index, so
PTMs of tensor-product maps are Kronecker products of the factor PTMs.

Indexed by X and Z part, ``P = i^{|x & z|} X^x Z^z``, every PTM entry is a
unit phase times one entry of a Walsh-Hadamard array ``A / d`` that
:func:`kraus_transform` yields in slabs of about :data:`_SCRATCH_BYTES`, after
splitting off the qubits on which every ``K_k`` is exactly diagonal.  Two
maps are compared (:meth:`Superoperator.compare`) through the slabs of their
difference, holding the Kraus gathers and one slab at a time;
:func:`ptm_of_kraus`, the one dense builder, phases and scatters each slab
into the PTM.

Everything here is desk-scale by design: :func:`check_dense` caps every dense
array at :data:`MAX_DENSE_ENTRIES` complex entries before it is allocated.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Sequence

import numpy as np

#: tolerance for structural checks (unitarity, Kraus completeness, density matrices)
ATOL_STRUCT = 1e-10

#: complex entries in one dense array: 2^26 x 16 B = 1 GiB, i.e. a 13-qubit
#: operator, a 6-qubit PTM or a 26-leg ZX tensor
MAX_DENSE_ENTRIES = 2**26
_CAP_BITS = MAX_DENSE_ENTRIES.bit_length() - 1


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
        raise SizeCapError(f"{what} needs {need} dense entries, over the cap of 2^{_CAP_BITS}")


def check_dense_bits(bits: int, what: str):
    """:func:`check_dense` of ``2**bits`` entries, comparing the exponent with
    the cap's so that a huge ``bits`` is refused without computing the power."""
    if bits > _CAP_BITS:
        raise SizeCapError(f"{what} needs 2^{bits} dense entries, over the cap of 2^{_CAP_BITS}")


def check_integer(value, what: str, lo: int, hi=None) -> int:
    """``int(value)`` for a real, integral, non-Boolean ``value`` in ``lo..hi``
    (unbounded above when ``hi`` is None), judged without a float conversion."""
    try:  # int() of inf or NaN raises
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and value == int(value))
    except (OverflowError, ValueError):
        ok = False
    if not (ok and value >= lo and (hi is None or value <= hi)):
        span = f"in {lo}..{hi}" if hi is not None else f">= {lo}"
        raise DimensionError(f"{what} must be an integer {span}, got {value!r}")
    return int(value)


def _is_power_of_two(d: int) -> bool:
    return d > 0 and (d & (d - 1)) == 0


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` with its write flag cleared."""
    a.setflags(write=False)
    return a


#: bytes of working set one block of a blocked computation may hold: a slab
#: of :func:`kraus_transform` or the scratch buffer of :func:`max_abs_diff`
_SCRATCH_BYTES = 2**20


class Immutable:
    """Refuses assignment and deletion of every attribute: a constructor
    stores its attributes through ``vars(self)`` or ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Operator(Immutable):
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
        object.__setattr__(self, "mat", read_only(arr))

    @classmethod
    def diagonal(cls, values) -> "Operator":
        """``diag(values)`` written into one zero matrix after the checks of
        ``Operator(np.diag(values))``, the cap's before it is allocated; the
        off-diagonal zeros are finite by construction."""
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
        arr.reshape(-1)[:: d + 1] = vec
        op = object.__new__(cls)
        object.__setattr__(op, "mat", read_only(arr))
        return op

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
PAULI_I = read_only(np.eye(2, dtype=complex))
PAULI_X = read_only(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = read_only(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = read_only(np.array([[1, 0], [0, -1]], dtype=complex))
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
    """Raise :class:`DimensionError` unless ``A^dag A = I`` to ``ATOL_STRUCT``
    (a matrix with a NaN entry fails): unitarity for a square ``A``, and for
    a tall ``A``, such as a Kraus stack's rows, the isometry condition; an
    exactly diagonal square ``A`` by :func:`check_unit_sum` of its diagonal."""
    diag = _exact_diagonals(mat[None]) if mat.shape[0] == mat.shape[1] else None
    if diag is not None:
        return check_unit_sum(diag, what)
    gram = mat.conj().T @ mat
    gram.reshape(-1)[:: len(gram) + 1] -= 1  # A^dag A - I
    _refuse_deviation(np.abs(gram).max(), what)


def check_unit_sum(diagonals: np.ndarray, what: str):
    """:func:`check_unitary` of the rows stacking ``diag(d_k)`` for ``(k, d)``
    diagonals, whose ``A^dag A`` is ``diag(sum_k |d_k|^2)``: no matrix product."""
    _refuse_deviation(np.abs((diagonals.conj() * diagonals).real.sum(axis=0) - 1).max(), what)


def _refuse_deviation(dev, what: str):
    if not dev <= ATOL_STRUCT:
        raise DimensionError(f"{what} is not unitary: max|U^dag U - I| = {dev:.3e}")


def _exact_diagonals(ops: np.ndarray):
    """A view of a ``(k, d, d)`` stack's diagonals, or None if a nonzero entry
    lies off them: :func:`diagonal_qubits`'s rule on every qubit."""
    nonzero, diag = np.count_nonzero(ops), ops.diagonal(0, 1, 2)
    return diag if nonzero <= diag.size and nonzero == np.count_nonzero(diag) else None


class Superoperator(Immutable):
    """The map ``rho -> sum_k w_k K_k rho K_k^dag`` on ``n_qubits`` qubits:
    read-only views of its ``weights`` and ``(k, d, d)`` Kraus stack ``ops``
    (written out on first read when given as :attr:`diagonals`, the ``(k, d)``
    diagonals of exactly diagonal operators, else None), and its PTM
    :attr:`matrix`, built by :func:`ptm_of_kraus` on first read.  No
    attribute can be rebound or deleted.

    The one check of a signed stack: ``k >= 1`` numeric (integer, real or
    complex, not Boolean) weights for ``k`` numeric ``d x d`` operators, or
    their diagonals, with ``d`` a power of two; anything else, a ragged stack
    included, raises :class:`DimensionError` naming what was given."""

    def __init__(self, weights, ops=None, *, diagonals=None):
        form, stack = ("ops", ops) if diagonals is None else ("diagonals", diagonals)
        try:
            weights, stack = np.asarray(weights).view(), np.asarray(stack).view()
        except ValueError:  # a ragged stack
            raise DimensionError("need k weights for a (k, d, d) stack: ragged input") from None
        if not ((ops is None or diagonals is None) and weights.dtype.kind in "ifc"
                and stack.dtype.kind in "ifc" and stack.ndim == (3 if form == "ops" else 2)
                and weights.shape == stack.shape[:1] != (0,) and stack.shape[1] == stack.shape[-1]
                and _is_power_of_two(stack.shape[-1])):
            given = f"{weights.dtype} {weights.shape} and {form} {stack.dtype} {stack.shape}"
            raise DimensionError(f"need k weights for a (k, d, d) stack of numbers on qubits, "
                                 f"or its (k, d) diagonals, got {given}")
        vars(self).update({"weights": read_only(weights), form: read_only(stack),
                           "n_qubits": stack.shape[1].bit_length() - 1})

    @cached_property
    def diagonals(self):
        return _exact_diagonals(self.ops)

    @cached_property
    def ops(self) -> np.ndarray:
        k, d = self.diagonals.shape
        check_dense(k * d * d, f"Kraus stack of {k} operators on {self.n_qubits} qubits")
        out = np.zeros((k, d, d), self.diagonals.dtype)
        out[:, np.arange(d), np.arange(d)] = self.diagonals
        return read_only(out)

    @cached_property
    def matrix(self) -> np.ndarray:
        return ptm_of_kraus(self.weights, self.ops)

    def apply_batch(self, mats: np.ndarray) -> np.ndarray:
        """``sum_k w_k K_k A K_k^dag`` for a batch ``A`` of shape (B, d, d)."""
        out = np.zeros(mats.shape, dtype=complex)
        for w, k in zip(self.weights, self.ops):
            out += w * (k @ mats @ k.conj().T)
        return out

    def compare(self, other: "Superoperator") -> tuple:
        """``(max |delta|, row, col)`` over the PTM entries of ``self - other``:
        :func:`abs_argmax` of :func:`kraus_transform`'s slabs of both stacks,
        ``other``'s weights negated, so no PTM is built: as diagonals if
        ``self`` holds its own, given or found, and ``other`` has them."""
        if self.n_qubits != other.n_qubits:
            raise DimensionError(f"qubit count mismatch: {self.n_qubits} vs {other.n_qubits}")
        compact = vars(self).get("diagonals") is not None and other.diagonals is not None
        stacks = [x.diagonals if compact else x.ops for x in (self, other)]
        slabs, diag = kraus_transform(np.concatenate([self.weights, -other.weights]),
                                      np.concatenate(stacks))
        peak, index = abs_argmax(slabs)
        return (peak / 2**self.n_qubits, *transform_entry(index, diag, self.n_qubits))

    def max_abs_diff(self, other: "Superoperator") -> float:
        return self.compare(other)[0]


def max_abs_diff(a, b) -> float:
    """``max |a - b|`` over two equal-shape arrays: the float that
    ``np.max(np.abs(a - b))`` returns, NaN included, but taken one block of
    leading rows at a time through one scratch buffer of about
    :data:`_SCRATCH_BYTES` (at least one row), so no full-size temporary is
    allocated."""
    if np.shape(a) != np.shape(b):
        raise DimensionError(f"shape mismatch: {np.shape(a)} vs {np.shape(b)}")
    a, b = np.atleast_1d(np.asarray(a)), np.atleast_1d(np.asarray(b))
    if a.size == 0:
        raise DimensionError("max_abs_diff of empty arrays")
    diff_type = np.result_type(a, b)
    abs_type = np.empty(0, diff_type).real.dtype
    row_bytes = a[0].size * (diff_type.itemsize + abs_type.itemsize)
    step = min(len(a), max(1, _SCRATCH_BYTES // row_bytes))  # rows per block
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
    """The channel ``rho -> U rho U^dag`` of a unitary whose PTM fits the cap."""
    n = u.n_qubits
    check_dense_bits(4 * n, f"superoperator on {n} qubits")  # before the d x d unitarity products
    check_unitary(u.mat, "input")
    return Superoperator(np.ones(1), u.mat[None])


# ---------------------------------------------------------------------------
# Signed Kraus maps
# ---------------------------------------------------------------------------


def _popcount(a: np.ndarray, n: int) -> np.ndarray:
    """Set bits of each entry of an integer array with entries below ``2^n``."""
    out = np.zeros_like(a)
    for k in range(n):
        out += (a >> k) & 1
    return out


@cache
def _hadamard(d: int) -> np.ndarray:
    """``H[z, c] = (-1)^{|z & c|}`` on ``d = 2^n`` indices, by Sylvester's
    doubling: one read-only table per ``d``, built once per process."""
    h = np.ones((1, 1))
    while len(h) < d:
        h = np.concatenate([np.concatenate([h, h], 1), np.concatenate([h, -h], 1)])
    return read_only(h)


#: ``i^k`` for ``k mod 4``
_I_POWERS = read_only(np.array([1, 1j, -1, -1j]))


def pauli_index(x, z, n: int, lead: tuple = ()):
    """Basis index of the Pauli string with X part ``x`` and Z part ``z``;
    works elementwise on integer arrays.  Bit ``n - 1 - j`` of ``x`` and
    ``z`` is the ``j``-th qubit of the qubits ``lead`` followed by the rest,
    each run in increasing order (so qubit ``j`` when ``lead`` is empty)."""
    order = [*lead, *(q for q in range(n) if q not in lead)]
    if isinstance(x, int) and order == sorted(order):  # two ints in qubit order: bits as digits
        return int(f"{x ^ z:b}", 4) + 2 * int(f"{z:b}", 4)
    xz, out = x ^ z, 0
    for j, q in enumerate(order):
        # qubit q's base-4 digit is its letter (I, X, Y, Z) = (x ^ z) + 2 z
        shift, digit = n - 1 - j, 2 * (n - 1 - q)
        out = out + ((xz >> shift & 1) << digit) + ((z >> shift & 1) << digit + 1)
    return out


def pauli_label(index: int, n: int) -> str:
    """Letters of the Pauli string at basis ``index``, e.g. ``"XZI"``."""
    index = int(index)
    return "".join(PAULI_LETTERS[(index >> 2 * shift) & 3] for shift in range(n - 1, -1, -1))


def diagonal_qubits(kraus: np.ndarray) -> tuple:
    """Qubits on which every operator of a ``(k, d, d)`` stack is exactly
    diagonal: no nonzero entry, however small, has a row and a column index
    that differ in that qubit's bit."""
    n = np.shape(kraus)[-1].bit_length() - 1
    rows, cols = np.nonzero(kraus.any(axis=0))
    flipped = int(np.bitwise_or.reduce(rows ^ cols, initial=0))
    return tuple(q for q in range(n) if not flipped >> (n - 1 - q) & 1)


@cache
def _xor_gather(d_t: int, r: int) -> np.ndarray:
    """Flat indices ``(b r + j) d_t + (b ^ x)`` over ``(b, j, x)``: taken
    along the last axis of ``W[c, (b, j, e)]``, ``j`` in ``range(r)``, they
    give ``W[c, b, j, b ^ x]``.  One read-only table per ``(d_t, r)``, built
    once per process."""
    b, j, x = np.ogrid[:d_t, :r, :d_t]
    return read_only(((b * r + j) * d_t + (b ^ x)).ravel())


def kraus_transform(weights: np.ndarray, kraus: np.ndarray) -> tuple:
    """``(slabs, D)``: the Walsh-Hadamard array ``A`` of ``E(rho) = sum_k w_k
    K_k rho K_k^dag``, streamed in slabs, and the qubits ``D`` on which every
    ``K_k`` is exactly diagonal (:func:`diagonal_qubits`): every qubit, with
    no scan, when ``kraus`` holds ``(k, d)`` diagonals, not a ``(k, d, d)`` stack.

    With the qubits of ``D`` first and the rest ``T`` after, ``K_k = sum_s
    |s><s| (x) K_k^(s)``.  For ``P = i^{|x & z|} X^x Z^z``, the PTM entry of
    ``P' = (x_D x'_T, z'_D z'_T)`` and ``P = (x_D x_T, z_D z_T)`` is

        i^{|x' & z'|} i^{|x & z|} (-1)^{|z'_D & x_D|} A[x_D, z'_D ^ z_D, z'_T, z_T, x'_T, x_T] / d,

    and every entry whose X parts differ on ``D`` is zero.  ``A`` is the
    transform over the blocks of ``T``'s transform ``F``:

        A[x_D, u] = sum_b (-1)^{|u & b|} F[b ^ x_D, b],   F = H G H over (c, b),
        G[t, s, c, b, x', x] = sum_k w_k conj(K_k^(s)[c ^ x', b]) K_k^(t)[c, b ^ x],

    with the Hadamard matrix ``H[z, c] = (-1)^{|z & c|}``.  ``A`` has
    ``d_D^2 d_T^4`` entries: ``D = ()`` gives the dense ``d^4`` array, and
    ``D`` = every qubit the ``d x d`` transform of the Schur multiplier
    ``G[t, s] = S[t, s]`` of ``E(rho) = S * rho``.

    For each ``c`` one gemm over the Kraus index gives

        W_c[(b, s, x'), (t, e)] = sum_k w_k conj(K_k^(s)[c ^ x', b]) K_k^(t)[c, e],

    and one ``np.take`` through a cached index table (:func:`_xor_gather`)
    reads ``G[t, s, c, b, x', x] = W_c[(b, s, x'), (t, b ^ x)]``.

    No transform mixes ``x'_T``, so ``slabs`` yields ``(start, A[..., start:
    start + k, :])``, a new array, for runs of ``k`` values of ``x'_T``: the
    largest power of two, at least one and at most ``d_T``, whose bra gather,
    index table and two transform arrays fit :data:`_SCRATCH_BYTES`.  The size
    checks and the work all slabs share run before this returns.
    """
    kraus = np.asarray(kraus, dtype=complex)
    m, d = kraus.shape[:2]
    n = d.bit_length() - 1
    diag = diagonal_qubits(kraus) if kraus.ndim == 3 else tuple(range(n))
    d_d = 2 ** len(diag)
    d_t = d // d_d
    check_dense(m * d_d * d_t**2, f"Kraus gathers on {n} qubits")
    check_dense(d_d**2 * d_t**4, f"Pauli transfer array on {n} qubits")
    if kraus.ndim == 3:  # gather the blocks [k, a, a', s]; diagonals are the blocks
        order = [*diag, *(q for q in range(n) if q not in diag)]
        axes = [0, *(1 + q for q in order), *(1 + n + q for q in order)]
        perm = kraus.reshape((m,) + (2,) * (2 * n)).transpose(axes).reshape(m, d_d, d_t, d_d, d_t)
        kraus = perm.diagonal(0, 1, 3)
    blocks = kraus.reshape(m, d_t, d_t, d_d).transpose(3, 1, 2, 0)  # [s, a, a', k]
    i_d, i_t = np.arange(d_d), np.arange(d_t)
    xor, xor_d = i_t[:, None] ^ i_t, i_d[:, None] ^ i_d
    # one gemm per c: rows (b, s, x'), columns (t, e), the Kraus index k between
    bra = np.conj(blocks) * weights
    ket = blocks.transpose(1, 3, 0, 2).reshape(d_t, m, d_d * d_t)  # [c, k, (t, e)]
    h_t, h_d = _hadamard(d_t), _hadamard(d_d)
    # per x' row: the bra gather, two transform arrays and the index table
    row_bytes = 16 * (m * d_d * d_t**2 + 2 * d_d**2 * d_t**3) + 8 * d_d**2 * d_t**2
    # a power of two divides d_t, so every slab has one shape and one table
    step = min(d_t, 1 << max(0, (_SCRATCH_BYTES // row_bytes).bit_length() - 1))
    gather = _xor_gather(d_t, d_d**2 * step) if d_t > 1 else None  # d_T = 1: x = b = e = 0

    def slabs():
        for start in range(0, d_t, step):
            # d_T = 1: the rows are bra's, C-contiguous as the gather's, for the same gemm
            rows = (bra[i_d[:, None], xor[:, None, None, start:start + step], i_t[:, None, None]]
                    if d_t > 1 else np.ascontiguousarray(bra.reshape(d_d, m)))
            w = rows.reshape(d_t, -1, m) @ ket  # [c, (b, s, x'), (t, e)]
            del rows
            if d_t > 1:  # H is real: apply it to the (real, imag) pairs as real gemms
                w = w.reshape(d_t, -1).take(gather, axis=1)  # [c, (b, s, x', t, x)], e = b ^ x
                w = h_t @ w.reshape(d_t, -1).view(float)  # [z', (b, s, x', t, x)]
                w = (h_t @ w.reshape(d_t, d_t, -1)).view(complex)  # [z', z, (s, x', t, x)]
            if diag:
                # [x_D, b, z', z, x', x] = F[t = b ^ x_D, s = b], then H over b
                w = w.reshape(d_t, d_t, d_d, step, d_d, d_t)[:, :, i_d, :, xor_d, :]
                w = (h_d @ w.reshape(d_d, d_d, -1).view(float)).view(complex)
            yield start, w.reshape(d_d, d_d, d_t, d_t, step, d_t)

    return slabs(), diag


def abs_argmax(slabs) -> tuple:
    """``(value, index)`` of the largest ``|A|`` over :func:`kraus_transform`'s
    slabs, taken one slab at a time: the entry ``np.argmax`` of the whole
    ``|A|`` finds, the first maximum in C order or the first NaN, whatever
    the slab order."""
    peak = index = None
    for start, a in slabs:
        delta = np.abs(a)
        at = np.unravel_index(delta.argmax(), delta.shape)
        value = delta[at]
        at = (*at[:4], at[4] + start, at[5])
        # a NaN beats any number, and a tie of either goes to the earlier entry
        if (index is None or value > peak or (value == peak and at < index)
                or np.isnan(value) and (at < index or not np.isnan(peak))):
            peak, index = value, at
    return float(peak), index


def transform_entry(index, diag: tuple, n: int) -> tuple:
    """PTM row and column of the entry ``(x_D, u, z'_T, z_T, x'_T, x_T)`` of
    :func:`kraus_transform`'s array ``A``, taking ``z'_D = 0`` of the
    ``z'_D ^ z_D = u`` entries that share its magnitude."""
    x_d, u, z_out, z_in, x_out, x_in = (int(i) for i in index)
    n_t = n - len(diag)
    return (pauli_index(x_d << n_t | x_out, z_out, n, diag),
            pauli_index(x_d << n_t | x_in, u << n_t | z_in, n, diag))


def ptm_of_kraus(weights: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """Read-only PTM of ``rho -> sum_k w_k K_k rho K_k^dag``: each slab of
    :func:`kraus_transform`'s array, phased and scattered into a zero
    ``4^n x 4^n`` matrix as it comes."""
    d = np.shape(kraus)[-1]
    n = d.bit_length() - 1
    check_dense_bits(4 * n, f"superoperator on {n} qubits")
    slabs, diag = kraus_transform(weights, kraus)
    n_t = n - len(diag)
    d_d, d_t = 2 ** len(diag), 2**n_t
    # [x, z] tables in the kernel's qubit order: Y count |x & z| and basis index
    idx = np.arange(d)
    overlap, count = idx[:, None] & idx, _popcount(idx, n)
    y_phase = _I_POWERS[count[overlap] % 4]
    # rows also take (-1)^{|z'_D & x_D|}
    row_phase = y_phase * _I_POWERS[2 * count[overlap >> n_t] % 4]
    p = pauli_index(idx[:, None], idx, n, diag)
    i_d = np.arange(d_d)
    xor_d = i_d[:, None] ^ i_d
    x_d, zd_out, zd_in, zt_out, zt_in, xt_out, xt_in = np.indices(
        (d_d,) * 3 + (d_t,) * 4, sparse=True)
    z_out, x_in, z_in = zd_out << n_t | zt_out, x_d << n_t | xt_in, zd_in << n_t | zt_in
    col_phase, cols = y_phase[x_in, z_in] / d, p[x_in, z_in]
    out = np.zeros((d * d, d * d), dtype=complex)
    for start, a in slabs:
        x_out = x_d << n_t | xt_out[..., start:start + a.shape[4], :]
        w = a[:, xor_d] if diag else a[:, None]  # no copy of a dense slab
        w *= row_phase[x_out, z_out]
        w *= col_phase
        out[p[x_out, z_out], cols] = w
    return read_only(out)


# ---------------------------------------------------------------------------
# Pauli eigenbasis (single-qubit stabilizer states)
# ---------------------------------------------------------------------------

KET_0 = read_only(np.array([1, 0], dtype=complex))
KET_1 = read_only(np.array([0, 1], dtype=complex))
KET_PLUS = read_only(np.array([1, 1], dtype=complex) / np.sqrt(2))
KET_MINUS = read_only(np.array([1, -1], dtype=complex) / np.sqrt(2))
KET_PLUS_I = read_only(np.array([1, 1j], dtype=complex) / np.sqrt(2))
KET_MINUS_I = read_only(np.array([1, -1j], dtype=complex) / np.sqrt(2))


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
    check_dense_bits(2 * n, f"operator on {n} qubits")
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
