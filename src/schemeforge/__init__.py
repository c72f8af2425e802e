"""Exact analysis of lambda-doubly stochastic rational matrices.

Hoffman polynomials, predistance polynomial bases, and detection of the
commutative association schemes generated by normal lambda-doubly
stochastic matrices, all in exact rational arithmetic with a floating-point
spectral sidecar.
"""

__version__ = "0.1.0"
