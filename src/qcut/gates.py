"""Common gate and state constructors used across the cut library.

Diagonal gates (``rz``, ``multi_z_rotation``, ``mcp``, ``mcz``) are built with
:meth:`~qcut.linalg.Operator.diagonal`, which writes the phases into one zero
matrix with no dense ``np.diag`` temporary, second copy or full-matrix scan.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .linalg import DimensionError, Operator, _popcount, check_dense_bits, read_only


def identity(n: int = 1) -> Operator:
    check_dense_bits(2 * n, f"operator on {n} qubits")
    return Operator(np.eye(2**n, dtype=complex))


def rz(theta: float) -> Operator:
    return Operator.diagonal([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])


def rzz(theta: float) -> Operator:
    """Two-qubit rotation ``exp(-i theta/2 Z (x) Z)``."""
    return multi_z_rotation(2, theta)


@cache
def parity(n: int) -> np.ndarray:
    """Bit parity ``|x| mod 2`` of every basis index ``x < 2^n``: one
    read-only table per ``n``, built once per process."""
    return read_only(_popcount(np.arange(2**n), n) & 1)


def all_ones(n: int) -> np.ndarray:
    """Bit AND of every basis index ``x < 2^n``: 1 only at ``x = 2^n - 1``."""
    return np.arange(1, 2**n + 1) >> n


def multi_z_rotation(n: int, theta: float) -> Operator:
    """``exp(-i theta/2 Z^(x)n)``: diagonal with phase set by bit parity."""
    check_dense_bits(2 * n, f"operator on {n} qubits")
    return Operator.diagonal(np.exp(-1j * (theta / 2) * (-1.0) ** parity(n)))


def mcz(n: int) -> Operator:
    """Multi-controlled Z: ``diag(1, ..., 1, -1)``. ``mcz(1)`` is Z."""
    return mcp(n, np.pi)


def mcp(n: int, theta: float) -> Operator:
    """Multi-controlled phase: ``diag(1, ..., 1, e^{i theta})``."""
    check_dense_bits(2 * n, f"operator on {n} qubits")
    return Operator.diagonal(mcp_diagonal(n, theta))


def mcp_diagonal(n: int, theta: float) -> np.ndarray:
    """The diagonal ``(1, ..., 1, e^{i theta})`` of :func:`mcp`, ``2^n`` entries."""
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    check_dense_bits(n, f"diagonal on {n} qubits")
    diag = np.ones(2**n, dtype=complex)
    diag[-1] = np.exp(1j * theta)
    return diag


def hadamard() -> Operator:
    return Operator(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))


def cnot() -> Operator:
    return Operator(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], complex))


def controlled(u: Operator) -> Operator:
    """Add one control qubit (high-order factor) to ``u``."""
    check_dense_bits(2 * (u.n_qubits + 1), f"operator on {u.n_qubits + 1} qubits")
    d = u.dim
    out = np.eye(2 * d, dtype=complex)
    out[d:, d:] = u.mat
    return Operator(out)


def basis_state(bits: str) -> Operator:
    """Computational-basis density matrix for a bitstring like ``"110"``."""
    if not bits or set(bits) - {"0", "1"}:
        raise DimensionError(f"invalid bitstring {bits!r}")
    check_dense_bits(2 * len(bits), f"operator on {len(bits)} qubits")
    idx = int(bits, 2)
    d = 2 ** len(bits)
    mat = np.zeros((d, d), dtype=complex)
    mat[idx, idx] = 1.0
    return Operator(mat)
