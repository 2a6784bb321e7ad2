"""Linear algebra the benchmark checks the program against.

Everything here is plain numpy and imports nothing from ``qcatalysis``, so a
check built from these helpers never trusts the code it checks.  Vectors
are 1-D complex arrays in A-major order (index ``a * dim_b + b``); a family
of states is a (d, n) matrix with one state per column.
"""

from __future__ import annotations

import math

import numpy as np

SQ2 = 1.0 / math.sqrt(2.0)


def ket(*amplitudes) -> np.ndarray:
    return np.asarray(amplitudes, dtype=np.complex128)


ZERO = ket(1, 0)
ONE = ket(0, 1)
PLUS = ket(SQ2, SQ2)
CIRC = ket(SQ2, 1j * SQ2)


def deletion_residue(angle: float) -> np.ndarray:
    """((1 + e^{iu})|0> + (1 - e^{iu})|1>) / 2, overlap 1/sqrt(2) with |+>."""
    w = np.exp(1j * angle)
    return ket((1.0 + w) / 2.0, (1.0 - w) / 2.0)


def normalized(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def schmidt(vec: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Schmidt coefficients across A|B, nonincreasing."""
    return np.linalg.svd(np.reshape(vec, (dim_a, dim_b)), compute_uv=False)


def second_schmidt(vec: np.ndarray, dim_a: int, dim_b: int) -> float:
    """Zero exactly for a product state; the entanglement scale otherwise."""
    s = schmidt(vec, dim_a, dim_b)
    return float(s[1]) if s.size > 1 else 0.0


def det2(vec: np.ndarray) -> complex:
    """ad - bc of a two-qubit vector; zero exactly for a product state."""
    a, b, c, d = vec
    return complex(a * d - b * c)


def concurrence(vec: np.ndarray) -> float:
    """Wootters concurrence 2|ad - bc| of a normalized two-qubit vector."""
    return 2.0 * abs(det2(vec))


def gram(cols: np.ndarray) -> np.ndarray:
    """G[i, j] = <col_i | col_j>."""
    return cols.conj().T @ cols


def min_eig(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


def span_coefficients(basis: np.ndarray, vec: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares c with basis @ c ~ vec, and the residual norm."""
    c = np.linalg.lstsq(basis, vec, rcond=None)[0]
    return c, float(np.linalg.norm(basis @ c - vec))


def map_coherently(inputs: np.ndarray, outputs: np.ndarray, vec: np.ndarray):
    """Image of ``vec`` under the linear map a_i -> b_i, normalized.

    Returns (image, residual) where residual measures how far ``vec`` lies
    from the span of the inputs.
    """
    c, residual = span_coefficients(inputs, vec)
    return normalized(outputs @ c), residual


def environment_ratios(
    inputs: np.ndarray, outputs: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Forced environment overlaps G_in/G_out and the mask where they are forced."""
    g_in = gram(inputs)
    g_out = gram(outputs)
    known = np.abs(g_out) > tol
    values = np.where(known, g_in / np.where(known, g_out, 1.0), 0.0)
    return values, known


def unitary_error(v: np.ndarray) -> float:
    return float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))))


def reduced_system(vec: np.ndarray, d: int, r: int) -> np.ndarray:
    """System density matrix of a vector on C^d (x) C^r, environment traced out."""
    m = np.reshape(vec, (d, r))
    return m @ m.conj().T


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (r.diagonal() / np.abs(r.diagonal()))[None, :]


def dilation_unitary(inputs: np.ndarray, outputs: np.ndarray, env: np.ndarray) -> np.ndarray:
    """A unitary V on C^d (x) C^r with V (a_i (x) e0) = b_i (x) s_i.

    ``env`` holds the environment states s_i as columns.  V exists exactly
    when the two families have equal Gram matrices; callers check the
    returned matrix rather than trusting it.
    """
    d, n = inputs.shape
    r = env.shape[0]
    e0 = np.zeros(r, dtype=np.complex128)
    e0[0] = 1.0
    x = np.column_stack([np.kron(inputs[:, i], e0) for i in range(n)])
    y = np.column_stack([np.kron(outputs[:, i], env[:, i]) for i in range(n)])
    # x = qx rx with rx invertible; qy = y rx^-1 is orthonormal when the
    # Gram matrices agree, and V maps qx's columns (plus a complement) onto
    # qy's columns (plus a complement)
    qx, rx = np.linalg.qr(x)
    qy = np.linalg.solve(rx.T, y.T).T
    full_x = np.hstack([qx, _complement(qx)])
    full_y = np.hstack([qy, _complement(qy)])
    return full_y @ full_x.conj().T


def _complement(q: np.ndarray) -> np.ndarray:
    u = np.linalg.svd(q, full_matrices=True)[0]
    return u[:, q.shape[1]:]
