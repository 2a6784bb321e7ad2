"""Pure states on small multi-qubit registers, gates, and entanglement measures.

Also the package's vector validation (``as_vector``, which ``PureState``
calls, and the ``inner`` and ``phase_aligned_distance`` built on it), its
one tolerance check (``_checked_tol``) and its shared constants:
``DEFAULT_TOL``, the default tolerance of every decision, and ``MAX_DIM``,
the cap of 64 on a state's total dimension (six qubits), above which
inputs are rejected instead of slowing down.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_TOL",
    "MAX_DIM",
    "DimensionMismatchError",
    "EntangledStateError",
    "GateSpec",
    "PureState",
    "apply_gate",
    "concurrence",
    "fidelity",
    "inner",
    "ket",
    "ket_minus",
    "ket_plus",
    "phase_aligned_distance",
    "product_factorize",
    "random_state",
    "random_states",
    "schmidt_coefficients",
    "standard_triple",
    "tensor",
]

import math
import numbers
import operator

import numpy as np

DEFAULT_TOL = 1e-9
MAX_DIM = 64

_SQ2 = 1.0 / math.sqrt(2.0)

_ARITY = {"X": 1, "Z": 1, "H": 1, "CNOT": 2}


def _index(value, what: str) -> int:
    """``value`` as an int (numpy integers too), never truncated: 2.9 and True raise."""
    if type(value) is not bool:  # bool has no subclasses
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


class DimensionMismatchError(ValueError):
    """Operands live in different Hilbert spaces."""


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


def _same_size(u, v, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``as_vector`` of both, or DimensionMismatchError naming ``what``."""
    a = as_vector(u)
    b = as_vector(v)
    if a.size != b.size:
        raise DimensionMismatchError(f"{what} needs equal dimensions, got {a.size} and {b.size}")
    return a, b


def inner(u, v) -> complex:
    """Inner product <u|v>, conjugate-linear in the first argument."""
    return complex(np.vdot(*_same_size(u, v, "inner product")))


def phase_aligned_distance(u, v) -> float:
    """Euclidean distance between vectors after optimal global phase on v."""
    a, b = _same_size(u, v, "phase alignment")
    ov = np.vdot(b, a)
    phase = ov / abs(ov) if abs(ov) > 0.0 else 1.0
    return float(np.linalg.norm(a - phase * b))


def _checked_tol(tol) -> float:
    """``tol`` as a float, or ValueError unless it is a real number in (0, 1):
    at one every fidelity test 1 - tol is vacuous.  Each layer's entry calls it."""
    # a float skips the numbers.Real test, whose ABC hooks run in Python
    if type(tol) is not float and (isinstance(tol, bool) or not isinstance(tol, numbers.Real)):
        raise ValueError(f"tolerance must be a real number, got {tol!r}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    return float(tol)


def _checked_dims(dims) -> tuple[tuple[int, ...], int]:
    """``dims`` as a tuple of ints and its total dimension, or ValueError
    unless each is a positive integer and the total is at most MAX_DIM."""
    dims = tuple(_index(d, "subsystem dimension") for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = math.prod(dims)
    if total > MAX_DIM:
        raise ValueError(f"total dimension {total} exceeds the cap of {MAX_DIM}")
    return dims, total


class _Record:
    """An immutable record.  Its fields are the parameters of its own
    ``__init__``, which stores them through ``_set``, or else its class
    annotations in order, each bound once, by position or name, by ``_Record.__init__``.

    Assigning or deleting an attribute afterwards raises AttributeError.  An
    ``eq=True`` record compares and hashes by its field tuple, any other by
    identity.  (``@dataclass`` would compile generated methods with ``exec``
    on every start, 0.4-0.9 ms a class.)
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = False):
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]
        else:
            # strings under ``from __future__ import annotations``: nothing is evaluated
            cls._fields = tuple(cls.__annotations__)
        if eq:
            cls.__eq__, cls.__hash__ = _Record._same, _Record._hash

    def __init__(self, *args, **kwargs):
        names = self._fields
        if not kwargs and len(args) == len(names):
            kwargs = dict(zip(names, args))
        elif args or tuple(kwargs) != names:
            fields = dict(zip(names, args), **kwargs)
            if len(args) + len(kwargs) != len(names) or fields.keys() != set(names):
                raise TypeError(f"{type(self).__qualname__} takes each of {names} exactly once")
            kwargs = fields
        self.__dict__.update(kwargs)

    def _set(self, **fields):
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _same(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def _hash(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class PureState(_Record):
    """Normalized state vector with a subsystem-dimension signature.

    The one place a state is validated: ``vector`` is a read-only
    complex128 copy, finite, of total dimension ``prod(dims)`` at most
    MAX_DIM, with norm within 1e-8 of one.  Functions taking a PureState
    read ``vector`` without checking it again.  The protocol branch states
    are the exception: ``teleport`` builds them behind one guard.

    The check copies the amplitudes once and takes one ``vdot``: a finite
    norm implies finite entries, so ``as_vector`` runs only when the size
    is wrong or the norm is not finite, and raises its own message there.

    Index convention is row-major with the first subsystem most
    significant: for dims (dimA, dimB) the amplitude of |a>|b> sits at
    index a * dimB + b.
    """

    def __init__(self, dims: tuple[int, ...], vector: np.ndarray):
        dims, total = _checked_dims(dims)
        vec = np.array(vector, dtype=np.complex128, order="C").ravel()
        n = math.sqrt(np.vdot(vec, vec).real)
        if vec.size != total or not math.isfinite(n):
            # a finite norm has finite entries: only here can as_vector
            # reject, with its own message for the first fault it meets
            as_vector(vec, dim=total)
        # an overflowing |z|^2 can make the norm NaN, which no bound rejects
        if not math.isfinite(n) or abs(n - 1.0) > 1e-8:
            raise ValueError(f"state vector must be normalized, norm is {n:.12f}")
        vec.setflags(write=False)
        self._set(dims=dims, vector=vec)

    def __repr__(self) -> str:
        return f"PureState(dims={self.dims!r})"

    @property
    def dim(self) -> int:
        return self.vector.size


def _own(cls, **fields):
    """A ``cls`` holding ``fields`` as given, without its __init__: for
    read-only arrays the package has just built, valid by construction."""
    obj = object.__new__(cls)
    obj._set(**fields)
    return obj


class GateSpec(_Record, eq=True):
    """Named qubit gate acting on specific subsystems (control first for CNOT)."""

    def __init__(self, name: str, targets: tuple[int, ...]):
        targets = tuple(_index(t, "gate target") for t in targets)
        if name not in _ARITY:
            raise ValueError(f"unknown gate {name!r}")
        if len(targets) != _ARITY[name]:
            raise ValueError(f"{name} acts on {_ARITY[name]} subsystem(s), got targets {targets}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"gate targets must be distinct, got {targets}")
        self._set(name=name, targets=targets)


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


def _gate(name: str, targets: tuple[int, ...], reg: np.ndarray) -> np.ndarray:
    """Apply a named gate to the ``targets`` axes of a register array.

    The gate indexes the slices a, b at 0 and 1 of its last target axis: X
    swaps them, Z negates b, H makes them (a + b) / sqrt(2), (a - b) / sqrt(2)
    and CNOT is X where the control index is 1.  Returns a new array; the
    other axes, subsystems or batch, may sit anywhere and are left as they are.
    """
    lo = [slice(None)] * reg.ndim
    if name == "CNOT":
        lo[targets[0]] = 1
    hi = lo.copy()
    lo[targets[-1]], hi[targets[-1]] = 0, 1
    lo, hi = tuple(lo), tuple(hi)
    a, b = reg[lo], reg[hi]
    out = reg.copy()
    if name == "Z":
        out[hi] = -b
    elif name == "H":
        out[lo], out[hi] = (a + b) * _SQ2, (a - b) * _SQ2
    else:  # X, or CNOT's X on the control's 1 slice
        out[lo], out[hi] = b, a
    return out


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
    if not 1 <= _index(split, "split") < len(state.dims):
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


def _det_form(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric bilinear form with _det_form(u, u) = 2(u0 u3 - u1 u2).

    Along the last axis; |_det_form(u, u)| is the concurrence of a unit
    two-qubit vector u (Wootters, PRL 80, 2245, 1998).
    """
    return (
        u[..., 0] * v[..., 3]
        + u[..., 3] * v[..., 0]
        - u[..., 1] * v[..., 2]
        - u[..., 2] * v[..., 1]
    )


def concurrence(state: PureState) -> float:
    """Two-qubit pure-state concurrence 2|ad - bc|, as |_det_form(v, v)|."""
    if state.dims != (2, 2):
        raise DimensionMismatchError(
            f"concurrence is defined for dims (2, 2), got {state.dims}"
        )
    return min(abs(_det_form(state.vector, state.vector)), 1.0)


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
    tol = _checked_tol(tol)
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
    exactly as ``count`` successive ``random_state`` calls would draw them.

    ``dims`` must pass ``PureState``'s checks and ``count`` must be a
    nonnegative integer; a refused call draws nothing from ``rng``."""
    _, total = _checked_dims(dims)
    count = _index(count, "count")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    x = rng.standard_normal((count, 2, total))
    vecs = x[:, 0] + 1j * x[:, 1]
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


def random_state(dims: tuple[int, ...], rng: np.random.Generator) -> PureState:
    """Haar-like random pure state from a seeded generator."""
    return PureState(tuple(dims), random_states(dims, 1, rng)[0])
