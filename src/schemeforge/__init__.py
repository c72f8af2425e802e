"""Exact analysis of lambda-doubly stochastic rational matrices.

Hoffman polynomials, predistance polynomial bases, and detection of the
commutative association schemes generated by normal lambda-doubly
stochastic matrices, all in exact rational arithmetic with a floating-point
spectral sidecar.
"""

from .exact import Polynomial
from .matrix import RationalMatrix
from .stochastic import MatrixClassification, RejectionCode, classify, random_lambda_ds
from .hoffman import (
    HoffmanHypothesisError,
    HoffmanPolynomial,
    hoffman_polynomial,
    minimal_polynomial,
)
from .predistance import PredistanceBasis, PredistanceHypothesisError, predistance_basis
from .scheme import Rejection, SchemeCertificate, detect_scheme
from .spectral import Spectrum, roots

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "RationalMatrix",
    "classify",
    "MatrixClassification",
    "RejectionCode",
    "random_lambda_ds",
    "minimal_polynomial",
    "hoffman_polynomial",
    "HoffmanPolynomial",
    "HoffmanHypothesisError",
    "predistance_basis",
    "PredistanceBasis",
    "PredistanceHypothesisError",
    "detect_scheme",
    "SchemeCertificate",
    "Rejection",
    "roots",
    "Spectrum",
]
