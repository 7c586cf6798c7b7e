"""qcut: quasiprobability circuit cutting with a ZX verification engine."""

from .channels import GeneralizedMap, UnitaryChannel
from .cuts import (
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
from .linalg import (
    DimensionError,
    Operator,
    PauliString,
    QcutError,
    SizeCapError,
    Superoperator,
    ptm_of_kraus,
    ptm_of_unitary,
)
from .sampling import ExperimentSpec, SamplingReport, run
from .zx import ZXDiagram, ZXError, contract, parse_diagram, verify_rule

__all__ = [
    "Decomposition",
    "DecompositionTerm",
    "DimensionError",
    "ExperimentSpec",
    "GeneralizedMap",
    "Operator",
    "PauliString",
    "QcutError",
    "SamplingReport",
    "SizeCapError",
    "Superoperator",
    "UnitaryChannel",
    "ZXDiagram",
    "ZXError",
    "contract",
    "controlled_sequence_decomposition",
    "mcz_decomposition",
    "multi_z_rotation_decomposition",
    "parse_diagram",
    "ptm_of_kraus",
    "ptm_of_unitary",
    "run",
    "rzz_decomposition_a",
    "rzz_decomposition_b",
    "verify_rule",
    "wire_cut_cc",
    "wire_cut_ncc",
]

__version__ = "0.1.0"
