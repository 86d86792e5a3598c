"""Exception types shared across the package.

Input errors are ``ValueError``s: a ``ContractError`` is a broken
precondition, and a ``DimensionError`` is the particular one of a matrix of
the wrong shape.  Numerical failures are ``ArithmeticError``s.
"""


class ContractError(ValueError):
    """An input violates a declared precondition (non-unitary, non-density, ...)."""


class DimensionError(ContractError):
    """A matrix or vector has the wrong shape for its role (only 2x2 and 4x4 exist here)."""


class MatrixFormatError(ValueError):
    """A matrix file or inline matrix object could not be parsed."""


class DecompositionError(ArithmeticError):
    """A numerical decomposition failed to meet its residual bound."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class SynthesisError(DecompositionError):
    """A synthesized circuit failed validation against its target matrix."""
