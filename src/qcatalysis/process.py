"""Realizability of specified pure-state transformations on A(x)B.

A transformation is given as ordered pairs {a_i -> b_i} of pure states on
a bipartite system.  Any physical realization is a unitary on the system
plus an environment prepared in a fixed state, sending a_i (x) e0 to
b_i (x) s_i for some unit environment states s_i.  Unitarity pins the
environment overlaps wherever the output overlap is nonzero:

    <a_i|a_j> = <b_i|b_j> <s_i|s_j>

so feasibility reduces to completing the partially determined matrix of
environment overlaps to a positive semidefinite Gram matrix with unit
diagonal.  This module builds that matrix, decides completability, and
when the answer is yes constructs an explicit isometry and applies the
process to superposition inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import DEFAULT_TOL, DependentBasisError
from .states import PureState

REALIZABLE = "realizable"
INFEASIBLE = "infeasible"
UNDETERMINED = "undetermined"

REASON_MODULUS = "modulus_violation"
REASON_OUTPUT_NULL = "output_null_input_not"
REASON_PSD = "psd_violation"
REASON_CYCLE = "cycle_violation"

_RANK_CUTOFF = 1e-9


class OutsideSpanError(ValueError):
    """Input state is not in the span of the specified inputs."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(
            f"input lies outside the span of the specified inputs "
            f"(residual {self.residual:.3e})"
        )


class EnvironmentsDifferError(ValueError):
    """Coherent extension undefined because environment states differ."""

    def __init__(self):
        super().__init__(
            "the completed environment Gram matrix is not all-ones, so the "
            "process does not act coherently on superpositions; use "
            "output_density for the mixed output"
        )


@dataclass(frozen=True, eq=False)
class ProcessSpec:
    """Ordered (input, output) pure-state pairs on a fixed A(x)B split.

    The spec owns the span of its inputs and its one independence rule: a
    smallest input Gram eigenvalue at or below DEFAULT_TOL raises
    DependentBasisError, whatever tolerance a later call is given.  On an
    independent family the check and one complete QR A = QR run once, cached.
    ``require_independent_inputs=False`` admits a dependent family so that
    the overlap-ratio feasibility argument (which never needs independence)
    can certify a negative control; every span-based operation still
    raises on it when first used.
    """

    dim_a: int
    dim_b: int
    pairs: tuple[tuple[PureState, PureState], ...]
    require_independent_inputs: bool = True

    def __post_init__(self):
        pairs = tuple((a, b) for a, b in self.pairs)
        if not pairs:
            raise ValueError("a process needs at least one (input, output) pair")
        want = (int(self.dim_a), int(self.dim_b))
        for idx, (a, b) in enumerate(pairs):
            for which, s in (("input", a), ("output", b)):
                if s.dims != want:
                    raise ValueError(
                        f"pair {idx} {which} has dims {s.dims}, expected {want}"
                    )
        object.__setattr__(self, "dim_a", want[0])
        object.__setattr__(self, "dim_b", want[1])
        object.__setattr__(self, "pairs", pairs)
        if self.require_independent_inputs:
            self._span  # raises DependentBasisError for a dependent family

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def inputs(self) -> tuple[PureState, ...]:
        return tuple(a for a, _ in self.pairs)

    @property
    def outputs(self) -> tuple[PureState, ...]:
        return tuple(b for _, b in self.pairs)

    def input_matrix(self) -> np.ndarray:
        """(d, n) matrix whose columns are the input vectors."""
        return np.column_stack([a.vector for a, _ in self.pairs])

    def output_matrix(self) -> np.ndarray:
        return np.column_stack([b.vector for _, b in self.pairs])

    @cached_property
    def _span(self) -> tuple[np.ndarray, np.ndarray]:
        a = self.input_matrix()
        eigs, vecs = np.linalg.eigh(a.conj().T @ a)
        if eigs[0] <= DEFAULT_TOL:
            # the inputs that the near-null combination involves
            involved = np.flatnonzero(abs(vecs[:, 0]) > DEFAULT_TOL)
            raise DependentBasisError(eigs[0], tuple(involved.tolist()))
        q, r = np.linalg.qr(a, mode="complete")
        span_map = np.linalg.solve(r[: self.n], q[:, : self.n].conj().T)
        q.setflags(write=False)
        span_map.setflags(write=False)
        return q, span_map

    @property
    def span_basis(self) -> np.ndarray:
        """Unitary Q of A = QR: n columns spanning the inputs, then the complement."""
        return self._span[0]

    @property
    def span_map(self) -> np.ndarray:
        """A^+ = R^-1 Q_1^H, taking a vector of the span to its input coefficients."""
        return self._span[1]


@dataclass(frozen=True, eq=False)
class EnvironmentGram:
    """Partially determined matrix of required environment overlaps.

    ``values[i, j]`` holds the forced overlap where ``known[i, j]`` is
    true (diagonal fixed at one); unknown slots are free to complete.
    """

    values: np.ndarray
    known: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128).copy()
        known = np.asarray(self.known, dtype=bool).copy()
        n = values.shape[0]
        if values.shape != (n, n) or known.shape != (n, n):
            raise ValueError("values and known must be square and congruent")
        if not np.array_equal(known, known.T):
            raise ValueError("determined pattern must be symmetric")
        if not np.allclose(values, values.conj().T, atol=1e-12):
            raise ValueError("determined entries must be conjugate-symmetric")
        if not np.all(known.diagonal()) or not np.allclose(values.diagonal(), 1.0):
            raise ValueError("diagonal must be determined and equal to one")
        if np.any(np.abs(values[known]) > 1.0 + DEFAULT_TOL):
            raise ValueError("determined overlaps must have modulus at most one")
        values.setflags(write=False)
        known.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "known", known)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def free_pairs(self) -> list[tuple[int, int]]:
        n = self.n
        return [(i, j) for i in range(n) for j in range(i + 1, n) if not self.known[i, j]]


@dataclass(frozen=True)
class Certificate:
    """Evidence for an infeasibility verdict.

    ``pair`` names the offending (i, j) when one exists.  A psd_violation
    has none: its magnitude is minus the smallest eigenvalue of the worst
    fully determined clique.  A cycle_violation names the chord (u, v) of a
    4-cycle pattern, and its magnitude is the gap between the two disks
    that the chord must lie in (see ``complete_psd``).
    """

    reason: str
    pair: tuple[int, int] | None
    magnitude: float


@dataclass(frozen=True, eq=False)
class FeasibilityVerdict:
    status: str
    completed_gram: np.ndarray | None = None
    certificate: Certificate | None = None

    def __post_init__(self):
        if self.status == REALIZABLE:
            g = np.asarray(self.completed_gram, dtype=np.complex128).copy()
            g.setflags(write=False)
            object.__setattr__(self, "completed_gram", g)

    @property
    def is_realizable(self) -> bool:
        return self.status == REALIZABLE


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        if not np.isfinite(m).all():
            raise ValueError("amplitudes must be finite (no NaN/Inf)")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > DEFAULT_TOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > DEFAULT_TOL:
            raise ValueError("density matrix must have unit trace")
        if float(np.linalg.eigvalsh(m)[0]) < -DEFAULT_TOL:
            raise ValueError("density matrix must be positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def gram_matrix(states) -> np.ndarray:
    """Overlap matrix G[i, j] = <state_i | state_j>."""
    vecs = [s.vector for s in states]
    dims = {s.dims for s in states}
    if len(dims) > 1:
        raise ValueError(f"states must share dims, got {sorted(dims)}")
    m = np.column_stack(vecs)
    return m.conj().T @ m


def environment_gram(
    spec: ProcessSpec, tol: float = DEFAULT_TOL
) -> EnvironmentGram | FeasibilityVerdict:
    """Forced environment overlaps, or an early infeasibility verdict.

    Entry (i, j) is G_in/G_out where the output overlap is nonzero and
    free where both overlaps vanish.  A vanishing output overlap with a
    nonvanishing input one, or a forced modulus above one, is immediately
    infeasible (no unit environment vectors can satisfy it).
    """
    g_in = gram_matrix(spec.inputs)
    g_out = gram_matrix(spec.outputs)
    n = spec.n
    values = np.eye(n, dtype=np.complex128)
    known = np.eye(n, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            gi = g_in[i, j]
            go = g_out[i, j]
            if abs(go) > tol:
                ratio = gi / go
                mag = abs(ratio)
                if mag > 1.0 + tol:
                    return FeasibilityVerdict(
                        INFEASIBLE,
                        certificate=Certificate(REASON_MODULUS, (i, j), mag),
                    )
                if mag > 1.0:
                    ratio = ratio / mag
                values[i, j] = ratio
                values[j, i] = ratio.conjugate()
                known[i, j] = known[j, i] = True
            elif abs(gi) > tol:
                return FeasibilityVerdict(
                    INFEASIBLE,
                    certificate=Certificate(REASON_OUTPUT_NULL, (i, j), abs(gi)),
                )
    return EnvironmentGram(values, known)


def _elimination_order(known: np.ndarray) -> list[int] | None:
    """Maximum-cardinality search order of the pattern, or None if not chordal.

    Index 0 is visited first, then always the unvisited index with the most
    visited neighbours (the lowest one on ties).  The pattern is chordal
    exactly when the earlier-visited neighbours of every index form a
    clique, that is when the reversed visit order is a perfect elimination
    ordering.
    """
    n = known.shape[0]
    adjacent = known & ~np.eye(n, dtype=bool)
    weight = np.zeros(n, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    order = []
    for _ in range(n):
        v = int(np.argmax(np.where(visited, -1, weight)))
        order.append(v)
        visited[v] = True
        weight += adjacent[v]
    for clique in _order_cliques(known, order):
        if not known[np.ix_(clique, clique)].all():
            return None
    return order


def _order_cliques(known: np.ndarray, order: list[int]):
    """Each index with its earlier-visited neighbours.

    On a chordal pattern these are cliques, and every maximal clique is
    among them.
    """
    for k, v in enumerate(order):
        yield [v] + [w for w in order[:k] if known[v, w]]


def _chordal_fill(g: np.ndarray, known: np.ndarray, order: list[int], tol: float) -> None:
    """Fill every free entry of a chordal pattern in place.

    Index v is joined to each earlier-visited index w it is not yet joined
    to, in visit order.  The earlier indices are then pairwise joined, so
    the pattern stays chordal and the common neighbours S of v and w form
    the one clique the new entry closes: G_vw = G_vS G_SS^+ G_Sw, or zero
    when S is empty.
    """
    for k, v in enumerate(order):
        for w in order[:k]:
            if known[v, w]:
                continue
            s = np.flatnonzero(known[v] & known[w])
            z = 0.0
            if s.size:
                pinv = np.linalg.pinv(g[np.ix_(s, s)], rcond=tol, hermitian=True)
                z = g[v, s] @ pinv @ g[s, w]
            g[v, w] = z
            g[w, v] = np.conj(z)
            known[v, w] = known[w, v] = True


def _cycle_chord(g: np.ndarray, free, tol: float) -> tuple[complex | None, float]:
    """Chord of a 4-cycle pattern, or None, with the gap between its disks.

    For free pairs (u, v) and (k, l), the chord z = G_uv makes the triangle
    {u, v, m} PSD exactly on the disk |z - G_um G_mv| <= r_m with
    r_m = sqrt((1 - |G_um|^2)(1 - |G_mv|^2)).  The chord is a centre lying
    in the other disk, or else the point at distance r_k from the first
    centre towards the second.
    """
    (u, v), (k, l) = free
    centres = []
    radii = []
    for m in (k, l):
        a, b = g[u, m], g[m, v]
        centres.append(a * b)
        radii.append(math.sqrt(max(0.0, (1.0 - abs(a) ** 2) * (1.0 - abs(b) ** 2))))
    (c1, c2), (r1, r2) = centres, radii
    dist = abs(c1 - c2)
    gap = dist - r1 - r2
    if gap > tol:
        return None, gap
    if dist <= r2 + tol:
        return c1, gap
    if dist <= r1 + tol:
        return c2, gap
    return c1 + r1 * (c2 - c1) / dist, gap


def _psd_violation(worst: float, tol: float) -> FeasibilityVerdict | None:
    """Infeasible when ``worst``, the smallest eigenvalue over fully determined
    blocks, is below -tol; its psd_violation has magnitude -worst."""
    if worst < -tol:
        return FeasibilityVerdict(
            INFEASIBLE, certificate=Certificate(REASON_PSD, None, -worst)
        )
    return None


def _checked(g: np.ndarray, tol: float) -> FeasibilityVerdict:
    if float(np.linalg.eigvalsh(g)[0]) >= -tol:
        return FeasibilityVerdict(REALIZABLE, completed_gram=g)
    return FeasibilityVerdict(UNDETERMINED)


def complete_psd(eg: EnvironmentGram, tol: float = DEFAULT_TOL) -> FeasibilityVerdict:
    """Decide exactly whether the determined overlaps complete to a PSD matrix.

    No search is involved.  The pattern is decided by the first rule that
    applies:

    - Coherent: every determined off-diagonal overlap lies within ``tol``
      of one, or none is determined.  Every free entry is set to one, the
      completion under which the process acts coherently on superpositions.
    - Chordal: by Grone, Johnson, Sa and Wolkowicz (Linear Algebra Appl. 58,
      1984) a completion exists exactly when every fully determined clique
      is PSD.  A clique with an eigenvalue below -tol gives Infeasible with
      a psd_violation of minus the smallest clique eigenvalue.  Otherwise
      the free entries are filled one at a time, keeping the pattern
      chordal, by G_ij = G_iS G_SS^+ G_Sj over the common determined
      neighbours S of i and j (zero for an empty S); with positive definite
      cliques this is the maximum-determinant completion.
    - 4-cycle, the only pattern on four indices that is not chordal: free
      pairs (u, v) and (k, l) sharing no index.  The chord G_uv must lie in
      one disk for each of k and l (see ``_cycle_chord``).  Disjoint disks
      give Infeasible with a cycle_violation on (u, v) whose magnitude is
      the gap between them; otherwise the chord is set to a point of both
      and (k, l) is filled by the chordal rule.
    - Any other pattern that is not chordal (five indices or more) is
      Infeasible with a psd_violation when a fully determined triangle has
      an eigenvalue below -tol, and Undetermined otherwise.

    A completion is Realizable only when its smallest eigenvalue is at
    least -tol; otherwise the verdict is Undetermined, never Infeasible.
    """
    g = np.array(eg.values, dtype=np.complex128)
    known = np.array(eg.known, dtype=bool)
    off_diagonal = known & ~np.eye(eg.n, dtype=bool)
    if np.all(np.abs(g[off_diagonal] - 1.0) <= tol):
        g[~known] = 1.0
        return _checked(g, tol)
    order = _elimination_order(known)
    if order is not None:
        worst = min(
            float(np.linalg.eigvalsh(g[np.ix_(c, c)])[0])
            for c in _order_cliques(known, order)
        )
        violation = _psd_violation(worst, tol)
        if violation is not None:
            return violation
    elif eg.n == 4:
        free = eg.free_pairs()
        z, gap = _cycle_chord(g, free, tol)
        if z is None:
            return FeasibilityVerdict(
                INFEASIBLE, certificate=Certificate(REASON_CYCLE, free[0], gap)
            )
        (u, v), _ = free
        g[u, v] = z
        g[v, u] = np.conj(z)
        known[u, v] = known[v, u] = True
        order = _elimination_order(known)
    else:
        # every fully determined triangle, in one batch
        t = np.array(list(itertools.combinations(range(eg.n), 3)))
        i, j, k = t.T
        t = t[known[i, j] & known[i, k] & known[j, k]]
        worst = np.linalg.eigvalsh(g[t[:, :, None], t[:, None, :]])[:, 0].min(initial=1.0)
        return _psd_violation(float(worst), tol) or FeasibilityVerdict(UNDETERMINED)
    _chordal_fill(g, known, order, tol)
    return _checked(g, tol)


def decide_feasibility(spec: ProcessSpec, tol: float = DEFAULT_TOL) -> FeasibilityVerdict:
    """environment_gram followed by complete_psd."""
    result = environment_gram(spec, tol)
    if isinstance(result, FeasibilityVerdict):
        return result
    return complete_psd(result, tol)


def environment_vectors(completed_gram: np.ndarray) -> np.ndarray:
    """Unit environment states s_i realizing the completed Gram matrix.

    Returns an (r, n) matrix S with S^dagger S equal to the Gram matrix,
    r being its rank at eigenvalue _RANK_CUTOFF; column i is s_i in the
    minimal environment space.
    """
    g = np.asarray(completed_gram, dtype=np.complex128)
    eigvals, eigvecs = np.linalg.eigh(g)
    keep = eigvals > _RANK_CUTOFF
    lam = eigvals[keep][::-1]
    w = eigvecs[:, keep][:, ::-1]
    return np.sqrt(lam)[:, None] * w.conj().T


def construct_isometry(
    spec: ProcessSpec,
    verdict: FeasibilityVerdict,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Explicit unitary on A(x)B(x)E realizing a Realizable verdict.

    The environment has dimension r = rank(completed Gram); the unitary
    sends a_i (x) e0 to b_i (x) s_i, the columns of Y.  ``tol`` bounds the
    mismatch of the input and dressed-output Gram matrices, never input
    independence, which is ProcessSpec's rule.  As a_i (x) e0 = (Q_1 (x) e0) R,
    the columns Q_1 (x) e0 go to Y R^-1 = Y A^+ Q_1; the rest of Q (x) I_r
    goes to an orthonormal complement of those.
    """
    if not verdict.is_realizable:
        raise ValueError("construct_isometry needs a Realizable verdict")
    q = spec.span_basis
    sig = environment_vectors(verdict.completed_gram)
    r = sig.shape[0]
    d, n = q.shape[0], spec.n
    a = spec.input_matrix()
    # column i is b_i (x) s_i
    y = (spec.output_matrix()[:, None, :] * sig[None, :, :]).reshape(d * r, n)
    mismatch = float(np.max(np.abs(a.conj().T @ a - y.conj().T @ y)))
    if mismatch > max(tol, 1e-9) * 10.0:
        raise RuntimeError(
            f"input and dressed-output Gram matrices differ by {mismatch:.3e}; "
            "this indicates an inconsistent verdict"
        )
    qy = y @ spec.span_map @ q[:, :n]
    full_y = np.hstack([qy, np.linalg.svd(qy)[0][:, n:]])
    # Q (x) I_r with its columns ordered by environment index: Q (x) e0 first
    full_x = np.kron(q, np.eye(r)).reshape(d * r, d, r).transpose(0, 2, 1)
    return full_y @ full_x.reshape(d * r, d * r).conj().T


def _coherent_gram_check(verdict: FeasibilityVerdict, tol: float) -> bool:
    g = verdict.completed_gram
    return bool(np.max(np.abs(g - 1.0)) <= tol)


def _expand_input(spec: ProcessSpec, state: PureState, tol: float) -> np.ndarray:
    if state.dims != (spec.dim_a, spec.dim_b):
        raise ValueError(
            f"input dims {state.dims} do not match the process "
            f"({spec.dim_a}, {spec.dim_b})"
        )
    coeff = spec.span_map @ state.vector
    residual = float(np.linalg.norm(state.vector - spec.input_matrix() @ coeff))
    if residual > tol:
        raise OutsideSpanError(residual)
    return coeff


def apply_process(
    spec: ProcessSpec,
    verdict: FeasibilityVerdict,
    state: PureState,
    tol: float = DEFAULT_TOL,
) -> PureState:
    """Coherent action on a superposition of the specified inputs.

    Valid only when all environment overlaps equal one: the environment
    then decouples and the process acts linearly, sending sum_i c_i a_i
    to sum_i c_i b_i, with c = A^+ v from the spec's ``span_map``.  ``tol``
    bounds only the residual |v - A c| (OutsideSpanError), never independence.
    """
    if not verdict.is_realizable:
        raise ValueError("apply_process needs a Realizable verdict")
    if not _coherent_gram_check(verdict, tol):
        raise EnvironmentsDifferError()
    coeff = _expand_input(spec, state, tol)
    out = spec.output_matrix() @ coeff
    out = out / np.linalg.norm(out)
    return PureState((spec.dim_a, spec.dim_b), out)


def output_density(
    spec: ProcessSpec,
    verdict: FeasibilityVerdict,
    state: PureState,
    tol: float = DEFAULT_TOL,
) -> DensityMatrix:
    """System output with the environment traced out.

    For input sum_i c_i a_i the dilation leaves b_i entangled with the
    environment state s_i, so the system output is

        rho = sum_ij c_i conj(c_j) <s_j|s_i> |b_i><b_j|

    normalized to unit trace.  Pure (purity one) exactly when the
    environment overlaps on the support of c are all one.
    """
    if not verdict.is_realizable:
        raise ValueError("output_density needs a Realizable verdict")
    coeff = _expand_input(spec, state, tol)
    e = verdict.completed_gram
    weights = np.outer(coeff, coeff.conj()) * e.conj()
    b = spec.output_matrix()
    rho = b @ weights @ b.conj().T
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho)
