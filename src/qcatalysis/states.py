"""Pure states on small multi-qubit registers, gates, and entanglement measures."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    MAX_DIM,
    DimensionMismatchError,
    as_vector,
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

    The one place a state is validated: ``vector`` is a read-only
    complex128 copy, finite, of total dimension ``prod(dims)`` at most
    MAX_DIM, with norm within 1e-8 of one.  Functions taking a PureState
    read ``vector`` without checking it again.

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
        n = math.sqrt(np.vdot(vec, vec).real)
        # an overflowing |z|^2 can make the norm NaN, which no bound rejects
        if not math.isfinite(n) or abs(n - 1.0) > 1e-8:
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
        vec = np.multiply.outer(vec, s.vector).ravel()
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


@functools.lru_cache(maxsize=64)
def _register_operator(
    name: str, targets: tuple[int, ...], lead: tuple[int, ...]
) -> np.ndarray:
    """Read-only matrix of a named gate on the ``targets`` axes of a
    register whose leading axes have sizes ``lead``, identity on the rest:
    the gate contracted with the target axes of every basis column.
    Capped at MAX_DIM, so each cached matrix stays small."""
    k = len(targets)
    d = math.prod(lead)
    if d > MAX_DIM:
        raise ValueError(
            f"gate register axes {lead} exceed the cap of {MAX_DIM}; "
            "put batch axes after the targets"
        )
    u = _GATE_MATRICES[name].reshape((2,) * (2 * k))
    cols = np.eye(d, dtype=np.complex128).reshape(lead + (d,))
    out = np.tensordot(u, cols, axes=(range(k, 2 * k), targets))
    op = np.moveaxis(out, range(k), targets).reshape(d, d)
    op.setflags(write=False)
    return op


def _gate(name: str, targets: tuple[int, ...], reg: np.ndarray) -> np.ndarray:
    """Apply a named gate to the ``targets`` axes of a register array.

    One matrix product of the cached register operator over the leading
    axes up to the last target, whatever their sizes; the axes after it,
    subsystems or batch, are left as they are.  ``reg`` need not be
    normalized.
    """
    op = _register_operator(name, targets, reg.shape[: max(targets) + 1])
    return (op @ reg.reshape(len(op), -1)).reshape(reg.shape)


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
    reg = _gate(gate.name, gate.targets, state.vector.reshape(state.dims))
    return PureState(state.dims, reg)


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


def _schmidt(vecs: np.ndarray, dim_a: int, dim_b: int) -> tuple[np.ndarray, ...]:
    """Schmidt decomposition of every row of ``vecs`` across dim_a | dim_b.

    Returns each row's nonincreasing Schmidt coefficients followed by one
    zero (so a second coefficient always exists) and its leading unit A
    and B factors a and b: the row is s[0] a (x) b plus smaller terms.
    """
    u, s, vh = np.linalg.svd(vecs.reshape(-1, dim_a, dim_b))
    return np.concatenate([s, np.zeros((len(s), 1))], axis=1), u[:, :, 0], vh[:, 0, :]


def product_factorize(
    state: PureState, split: int = 1, tol: float = DEFAULT_TOL
) -> tuple[PureState, PureState]:
    """Split a product state into its two factors across the cut.

    The factors are the leading Schmidt vectors of the decomposition the
    catalyst checks run on all their states at once.  The first factor is
    normalized with its first nonzero amplitude real positive and the
    second carries the opposite phase, so ``tensor(factorA, factorB)``
    reproduces the input.  Raises EntangledStateError when the second
    Schmidt coefficient exceeds ``tol``.
    """
    da, db = _split_shape(state, split)
    s, factor_a, factor_b = (x[0] for x in _schmidt(state.vector, da, db))
    if s[1] > tol:
        raise EntangledStateError(s[1])
    lead = factor_a[np.flatnonzero(np.abs(factor_a) > 1e-12)[0]]
    phase = lead.conjugate() / abs(lead)
    return (
        PureState(state.dims[:split], factor_a * phase),
        PureState(state.dims[split:], factor_b * phase.conjugate()),
    )


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to global phase.

    Reads both vectors as ``PureState`` validated them.
    """
    if a.dims != b.dims:
        raise DimensionMismatchError(
            f"fidelity needs matching dims, got {a.dims} and {b.dims}"
        )
    return min(abs(complex(np.vdot(a.vector, b.vector))) ** 2, 1.0)


def random_states(dims: tuple[int, ...], count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar-like random state vectors as rows, drawn from ``rng``
    exactly as ``count`` successive ``random_state`` calls would draw them."""
    x = rng.standard_normal((count, 2, math.prod(dims)))
    vecs = x[:, 0] + 1j * x[:, 1]
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


def random_state(dims: tuple[int, ...], rng: np.random.Generator) -> PureState:
    """Haar-like random pure state from a seeded generator."""
    return PureState(tuple(dims), random_states(dims, 1, rng)[0])
