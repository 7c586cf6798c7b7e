"""Reference helpers that only the tests use.

They recompute what the package derives from a map's branches or an
operator's matrix by the textbook route, so the tests can check the package
against them.
"""

import numpy as np

from qcut.channels import GeneralizedMap
from qcut.linalg import ATOL_STRUCT, DimensionError, Operator

#: Choi positivity tolerance; looser than equality checks because eigenvalue
#: computation amplifies rounding.
CHOI_ATOL = 1e-9


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
