"""Dense complex vector/matrix helpers for small Hilbert spaces.

Everything here works on plain ``numpy`` arrays of ``complex128``.  State
vectors are capped at dimension 64 (six qubits, enough for every scenario
in this package plus environment padding); larger inputs are rejected
instead of silently slowing down.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9
MAX_DIM = 64


class DimensionMismatchError(ValueError):
    """Operands live in different Hilbert spaces."""


class DependentBasisError(ValueError):
    """Inputs that should be linearly independent are not.

    Carries ``min_gram_eigenvalue``, the smallest eigenvalue of the input
    Gram matrix, as the evidence of (near-)dependence, and ``dependent``,
    the indices of the inputs its eigenvector involves.
    """

    def __init__(self, min_gram_eigenvalue: float, dependent: tuple[int, ...]):
        self.min_gram_eigenvalue = float(min_gram_eigenvalue)
        self.dependent = dependent
        super().__init__(
            f"inputs {', '.join(map(str, dependent))} are linearly dependent "
            f"within tolerance (smallest Gram eigenvalue {self.min_gram_eigenvalue:.3e})"
        )


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """Validate and return a 1-D complex128 copy of ``values``.

    Makes one copy and tests its complex entries for finiteness once;
    rejects non-finite entries and dimensions outside [1, MAX_DIM].
    ``PureState`` calls it once per state.
    """
    v = np.array(values, dtype=np.complex128).ravel()
    if v.size == 0:
        raise ValueError("vector must have at least one amplitude")
    if v.size > MAX_DIM:
        raise ValueError(f"dimension {v.size} exceeds the cap of {MAX_DIM}")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    return v


def inner(u, v) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    a = as_vector(u)
    b = as_vector(v)
    if a.size != b.size:
        raise DimensionMismatchError(
            f"inner product needs equal dimensions, got {a.size} and {b.size}"
        )
    return complex(np.vdot(a, b))


def phase_aligned_distance(u, v) -> float:
    """Euclidean distance between vectors after optimal global phase on v."""
    a = as_vector(u)
    b = as_vector(v)
    if a.size != b.size:
        raise DimensionMismatchError(
            f"phase alignment needs equal dimensions, got {a.size} and {b.size}"
        )
    ov = np.vdot(b, a)
    phase = ov / abs(ov) if abs(ov) > 0.0 else 1.0
    return float(np.linalg.norm(a - phase * b))
