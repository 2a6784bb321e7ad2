"""Pure states on small multi-qubit registers, gates, and entanglement measures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    MAX_DIM,
    DimensionMismatchError,
    as_vector,
    inner,
)

_SQ2 = 1.0 / math.sqrt(2.0)

_GATE_MATRICES = {
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "H": np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQ2,
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=np.complex128,
    ),
}


class EntangledStateError(ValueError):
    """A state expected to be a product across the cut is entangled.

    ``second_coefficient`` is the offending second Schmidt coefficient.
    """

    def __init__(self, second_coefficient: float):
        self.second_coefficient = float(second_coefficient)
        super().__init__(
            f"state is entangled across the requested cut "
            f"(second Schmidt coefficient {self.second_coefficient:.3e})"
        )


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector with a subsystem-dimension signature.

    Index convention is row-major with the first subsystem most
    significant: for dims (dimA, dimB) the amplitude of |a>|b> sits at
    index a * dimB + b.
    """

    dims: tuple[int, ...]
    vector: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        total = math.prod(dims)
        if total > MAX_DIM:
            raise ValueError(f"total dimension {total} exceeds the cap of {MAX_DIM}")
        vec = as_vector(self.vector, dim=total)
        n = np.linalg.norm(vec)
        if abs(n - 1.0) > 1e-8:
            raise ValueError(f"state vector must be normalized, norm is {n:.12f}")
        vec.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.size


@dataclass(frozen=True)
class GateSpec:
    """Named qubit gate acting on specific subsystems (control first for CNOT)."""

    name: str
    targets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.name not in _GATE_MATRICES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity = _GATE_MATRICES[self.name].shape[0].bit_length() - 1
        if len(self.targets) != arity:
            raise ValueError(
                f"{self.name} acts on {arity} subsystem(s), "
                f"got targets {self.targets}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"gate targets must be distinct, got {self.targets}")


def ket(bits: str) -> PureState:
    """Computational basis state of one qubit per character, e.g. ket("10")."""
    dims = (2,) * len(bits)
    index = int(bits, 2) if bits else 0
    vec = np.zeros(math.prod(dims), dtype=np.complex128)
    vec[index] = 1.0
    return PureState(dims, vec)


def ket_plus() -> PureState:
    return PureState((2,), np.array([_SQ2, _SQ2]))


def ket_minus() -> PureState:
    return PureState((2,), np.array([_SQ2, -_SQ2]))


def tensor(*states: PureState) -> PureState:
    """Composite state; subsystem order follows the argument order."""
    dims: tuple[int, ...] = ()
    vec = np.ones(1, dtype=np.complex128)
    for s in states:
        dims = dims + s.dims
        vec = np.kron(vec, s.vector)
    return PureState(dims, vec)


def standard_triple(kind: str) -> tuple[PureState, PureState, PureState]:
    """The two three-state single-qubit families of the copying task.

    ``source`` is Bob's starting family (|0>, |0>, |+>): its first two
    members are indistinguishable, so Bob alone cannot map them to the
    ``target`` family (|0>, |1>, |+>), which is pairwise distinct.
    """
    if kind == "source":
        return (ket("0"), ket("0"), ket_plus())
    if kind == "target":
        return (ket("0"), ket("1"), ket_plus())
    raise ValueError(f"unknown state family {kind!r} (expected 'source' or 'target')")


def apply_gate(gate: GateSpec, state: PureState) -> PureState:
    """Apply a named gate to the targeted subsystems, identity elsewhere."""
    n = len(state.dims)
    for t in gate.targets:
        if not 0 <= t < n:
            raise ValueError(f"gate target {t} out of range for {n} subsystems")
        if state.dims[t] != 2:
            raise ValueError(
                f"gate {gate.name} targets qubit subsystems, "
                f"subsystem {t} has dimension {state.dims[t]}"
            )
    u = _GATE_MATRICES[gate.name]
    k = len(gate.targets)
    arr = state.vector.reshape(state.dims)
    arr = np.moveaxis(arr, gate.targets, range(k))
    moved_shape = arr.shape
    arr = u @ arr.reshape(2**k, -1)
    arr = np.moveaxis(arr.reshape(moved_shape), range(k), gate.targets)
    vec = arr.reshape(-1)
    vec = vec / np.linalg.norm(vec)
    return PureState(state.dims, vec)


def _split_shape(state: PureState, split: int) -> tuple[int, int]:
    if not 1 <= split < len(state.dims):
        raise ValueError(
            f"split {split} does not cut {len(state.dims)} subsystems into two parts"
        )
    da = math.prod(state.dims[:split])
    db = math.prod(state.dims[split:])
    return da, db


def schmidt_coefficients(state: PureState, split: int = 1) -> np.ndarray:
    """Schmidt coefficients across the cut dims[:split] | dims[split:].

    Nonincreasing, nonnegative, squares summing to one; the count equals
    min(dimA, dimB).
    """
    da, db = _split_shape(state, split)
    return np.linalg.svd(state.vector.reshape(da, db), compute_uv=False)


def concurrence(state: PureState) -> float:
    """Two-qubit pure-state concurrence 2|ad - bc|."""
    if state.dims != (2, 2):
        raise DimensionMismatchError(
            f"concurrence is defined for dims (2, 2), got {state.dims}"
        )
    a, b, c, d = state.vector
    return min(2.0 * abs(a * d - b * c), 1.0)


def product_factorize(
    state: PureState, split: int = 1, tol: float = DEFAULT_TOL
) -> tuple[PureState, PureState]:
    """Split a product state into its two factors across the cut.

    The first factor is normalized with its first nonzero amplitude real
    positive; any residual global phase lives in the second factor, so
    ``tensor(factorA, factorB)`` reproduces the input.  Raises
    EntangledStateError when the second Schmidt coefficient exceeds ``tol``.
    """
    da, db = _split_shape(state, split)
    m = state.vector.reshape(da, db)
    u, s, _ = np.linalg.svd(m)
    if s.size > 1 and s[1] > tol:
        raise EntangledStateError(s[1])
    factor_a = u[:, 0]
    for amp in factor_a:
        if abs(amp) > 1e-12:
            factor_a = factor_a * (amp.conjugate() / abs(amp))
            break
    factor_b = factor_a.conj() @ m
    factor_b = factor_b / np.linalg.norm(factor_b)
    return (
        PureState(state.dims[:split], factor_a),
        PureState(state.dims[split:], factor_b),
    )


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phase."""
    if a.dims != b.dims:
        raise DimensionMismatchError(
            f"fidelity needs matching dims, got {a.dims} and {b.dims}"
        )
    return min(abs(inner(a.vector, b.vector)) ** 2, 1.0)


def random_state(dims: tuple[int, ...], rng: np.random.Generator) -> PureState:
    """Haar-like random pure state from a seeded generator."""
    total = math.prod(dims)
    vec = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return PureState(tuple(dims), vec / np.linalg.norm(vec))
