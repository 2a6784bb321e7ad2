"""Dense complex vector/matrix helpers for small Hilbert spaces.

Everything here works on plain ``numpy`` arrays of ``complex128``.  State
vectors are capped at dimension 64 (six qubits, enough for every scenario
in this package plus environment padding); larger inputs are rejected
instead of silently slowing down.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

DEFAULT_TOL = 1e-9
MAX_DIM = 64


class DimensionMismatchError(ValueError):
    """Operands live in different Hilbert spaces."""


class DependentBasisError(ValueError):
    """A basis that should be linearly independent is not.

    Carries ``min_gram_eigenvalue``, the smallest eigenvalue of the basis
    Gram matrix, as the evidence of (near-)dependence, and ``dependent``,
    the indices of the vectors its eigenvector involves, where known.
    """

    def __init__(self, min_gram_eigenvalue: float, dependent: tuple[int, ...] = ()):
        self.min_gram_eigenvalue = float(min_gram_eigenvalue)
        self.dependent = dependent
        what = f"inputs {', '.join(map(str, dependent))} are" if dependent else "basis is"
        super().__init__(
            f"{what} linearly dependent within tolerance "
            f"(smallest Gram eigenvalue {self.min_gram_eigenvalue:.3e})"
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


def tensor(u, v) -> np.ndarray:
    """Kronecker product of two vectors, first factor most significant."""
    a = as_vector(u)
    b = as_vector(v)
    if a.size * b.size > MAX_DIM:
        raise ValueError(
            f"tensor dimension {a.size * b.size} exceeds the cap of {MAX_DIM}"
        )
    return np.kron(a, b)


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


def hermitian_eigenvalues(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, in nondecreasing order.

    Raises if ``m`` is not square or deviates from Hermiticity by more
    than ``tol`` in any entry.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian within {tol} (deviation {dev:.3e})")
    return np.linalg.eigvalsh(a)


def span_coefficients(
    basis: Sequence[np.ndarray],
    target,
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Least-squares expansion of ``target`` over ``basis``.

    Returns ``(coefficients, residual)`` where the coefficients minimise
    ``norm(target - sum_i c_i basis_i)`` and ``residual`` is that minimum.
    The basis must be linearly independent: the smallest eigenvalue of its
    Gram matrix has to exceed ``tol``, otherwise DependentBasisError is
    raised.
    """
    t = as_vector(target)
    cols = [as_vector(b, dim=t.size) for b in basis]
    if not cols:
        raise ValueError("basis must contain at least one vector")
    mat = np.column_stack(cols)
    gram = mat.conj().T @ mat
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    if min_eig <= tol:
        raise DependentBasisError(min_eig)
    coeff = np.linalg.solve(gram, mat.conj().T @ t)
    residual = float(np.linalg.norm(t - mat @ coeff))
    return coeff, residual
