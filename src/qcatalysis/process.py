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
process to superposition inputs.  Every family has a span, dependent ones
included: ``ProcessSpec`` builds it on its earliest independent inputs.
"""

from __future__ import annotations

__all__ = [
    "INFEASIBLE",
    "REALIZABLE",
    "UNDETERMINED",
    "Certificate",
    "DensityMatrix",
    "EnvironmentGram",
    "EnvironmentsDifferError",
    "FeasibilityVerdict",
    "OutsideSpanError",
    "ProcessSpec",
    "apply_process",
    "complete_psd",
    "construct_isometry",
    "decide_feasibility",
    "environment_gram",
    "environment_vectors",
    "output_density",
]

import itertools
import math
from functools import cached_property

import numpy as np

from .states import DEFAULT_TOL, MAX_DIM, PureState, _checked_tol, _index, _own, _Record

REALIZABLE = "realizable"
INFEASIBLE = "infeasible"
UNDETERMINED = "undetermined"

REASON_MODULUS = "modulus_violation"
REASON_OUTPUT_NULL = "output_null_input_not"
REASON_PSD = "psd_violation"
REASON_CYCLE = "cycle_violation"

_RANK_CUTOFF = 1e-9  # a Gram eigenvalue at most this is zero, whatever the tolerance


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


class ProcessSpec(_Record):
    """Ordered (input, output) pure-state pairs on a fixed A(x)B split.

    The input and output matrices A and B (one column per pair) and their
    Gram matrices A^H A and B^H B are built once, read-only, and every layer
    reads them from here.  Any family of at most MAX_DIM pairs is a spec:
    feasibility reads only the Gram matrices, never the span.  The span is
    built where first needed, cached, on the earliest independent inputs:
    input i is kept when the Gram matrix of i and the inputs kept before it
    has its smallest eigenvalue above _RANK_CUTOFF, whatever tolerance a call
    is given.  By Cauchy interlacing, a family whose whole Gram matrix
    passes keeps every input.
    """

    def __init__(self, dim_a: int, dim_b: int, pairs: tuple[tuple[PureState, PureState], ...]):
        pairs = tuple((a, b) for a, b in pairs)
        if not pairs:
            raise ValueError("a process needs at least one (input, output) pair")
        if len(pairs) > MAX_DIM:
            raise ValueError(f"{len(pairs)} pairs exceed the cap of {MAX_DIM}")
        want = (_index(dim_a, "dim_a"), _index(dim_b, "dim_b"))
        for idx, (a, b) in enumerate(pairs):
            for which, s in (("input", a), ("output", b)):
                if s.dims != want:
                    raise ValueError(
                        f"pair {idx} {which} has dims {s.dims}, expected {want}"
                    )
        self._set(dim_a=want[0], dim_b=want[1], pairs=pairs)

    @property
    def n(self) -> int:
        return len(self.pairs)

    def input_matrix(self) -> np.ndarray:
        """(d, n) matrix A whose columns are the input vectors; read-only."""
        return self._arrays[0]

    def output_matrix(self) -> np.ndarray:
        """(d, n) matrix B whose columns are the output vectors; read-only."""
        return self._arrays[1]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """A, B and their Gram matrices A^H A and B^H B, built once, read-only."""
        a = np.column_stack([a.vector for a, _ in self.pairs])
        b = np.column_stack([b.vector for _, b in self.pairs])
        arrays = (a, b, a.conj().T @ a, b.conj().T @ b)
        for m in arrays:
            m.setflags(write=False)
        return arrays

    @cached_property
    def _span(self) -> tuple[np.ndarray, np.ndarray, int]:
        a, _, g_in, _ = self._arrays
        kept = []
        for i in range(self.n):
            if np.linalg.eigvalsh(g_in[np.ix_(kept + [i], kept + [i])])[0] > _RANK_CUTOFF:
                kept.append(i)
        rank = len(kept)
        q, r = np.linalg.qr(a[:, kept], mode="complete")
        span_map = np.zeros((self.n, a.shape[0]), dtype=np.complex128)
        span_map[kept] = np.linalg.solve(r[:rank], q[:, :rank].conj().T)
        q.setflags(write=False)
        span_map.setflags(write=False)
        return q, span_map, rank

    @property
    def rank(self) -> int:
        """Number of inputs the span keeps, the dimension of their span."""
        return self._span[2]

    @property
    def span_basis(self) -> np.ndarray:
        """Unitary Q of A_K = QR, A_K the kept inputs: ``rank`` columns, then the complement."""
        return self._span[0]

    @property
    def span_map(self) -> np.ndarray:
        """A^+ = R^-1 Q_1^H on the kept inputs, zero rows for the others."""
        return self._span[1]


def _span_residuals(spec: ProcessSpec, vectors: np.ndarray) -> np.ndarray:
    """Distance of each vector (last axis) to the inputs' span: the norm of its part on the
    complement, ``span_basis`` past ``rank``, eps-sized in rounding unlike |v - A A^+ v|."""
    w = vectors @ spec.span_basis[:, spec.rank :].conj()
    return np.sqrt((w.conj() * w).real.sum(axis=-1))  # np.linalg.norm's formula, no dispatch


class EnvironmentGram(_Record):
    """Partially determined matrix of required environment overlaps.

    ``values[i, j]`` holds the forced overlap where ``known[i, j]`` is
    true (diagonal fixed at one); unknown slots are free to complete.
    """

    def __init__(self, values: np.ndarray, known: np.ndarray):
        values = np.asarray(values, dtype=np.complex128).copy()
        known = np.asarray(known, dtype=bool).copy()
        if values.ndim != 2 or values.shape[0] != values.shape[1] or known.shape != values.shape:
            raise ValueError("values and known must be square and congruent")
        if (known != known.T).any():
            raise ValueError("determined pattern must be symmetric")
        if not (np.abs(values - values.conj().T) <= 1e-12).all():
            raise ValueError("determined entries must be conjugate-symmetric")
        if not (known.diagonal().all() and (np.abs(values.diagonal() - 1.0) <= 1e-12).all()):
            raise ValueError("diagonal must be determined and equal to one")
        if np.any(np.abs(values[known]) > 1.0 + DEFAULT_TOL):
            raise ValueError("determined overlaps must have modulus at most one")
        values.setflags(write=False)
        known.setflags(write=False)
        self._set(values=values, known=known)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def free_pairs(self) -> list[tuple[int, int]]:
        n = self.n
        return [(i, j) for i in range(n) for j in range(i + 1, n) if not self.known[i, j]]


class Certificate(_Record, eq=True):
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


class FeasibilityVerdict(_Record):
    def __init__(
        self,
        status: str,
        completed_gram: np.ndarray | None = None,
        certificate: Certificate | None = None,
    ):
        if status not in (REALIZABLE, INFEASIBLE, UNDETERMINED):
            raise ValueError(f"unknown verdict status {status!r}")
        if status == REALIZABLE:
            # None reads as a 0-d NaN array, refused with the rest
            g = np.asarray(completed_gram, dtype=np.complex128).copy()
            if g.ndim != 2 or g.shape[0] != g.shape[1] or not np.isfinite(g).all():
                raise ValueError("a realizable verdict needs a finite square completed_gram")
            g.setflags(write=False)
            completed_gram = g
        self._set(status=status, completed_gram=completed_gram, certificate=certificate)

    @property
    def is_realizable(self) -> bool:
        return self.status == REALIZABLE


def _infeasible(reason: str, pair: tuple[int, int] | None, magnitude: float) -> FeasibilityVerdict:
    """Infeasible, certified by ``reason`` on ``pair`` at ``magnitude``; the only builder."""
    return FeasibilityVerdict(INFEASIBLE, certificate=Certificate(reason, pair, magnitude))


class DensityMatrix(_Record):
    """Hermitian, trace-one, positive semidefinite matrix."""

    def __init__(self, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=np.complex128).copy()
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
        self._set(matrix=m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def environment_gram(
    spec: ProcessSpec, tol: float = DEFAULT_TOL
) -> EnvironmentGram | FeasibilityVerdict:
    """Forced environment overlaps, or an early infeasibility verdict.

    Entry (i, j) is G_in/G_out where the output overlap is nonzero and
    free where both overlaps vanish.  A vanishing output overlap with a
    nonvanishing input one, or a forced modulus above one, is immediately
    infeasible (no unit environment vectors can satisfy it).
    """
    tol = _checked_tol(tol)
    _, _, g_in, g_out = spec._arrays
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
                    return _infeasible(REASON_MODULUS, (i, j), mag)
                if mag > 1.0:
                    ratio = ratio / mag
                values[i, j] = ratio
                values[j, i] = ratio.conjugate()
                known[i, j] = known[j, i] = True
            elif abs(gi) > tol:
                return _infeasible(REASON_OUTPUT_NULL, (i, j), abs(gi))
    # Hermitian with a unit diagonal and moduli at most one, as built
    values.setflags(write=False)
    known.setflags(write=False)
    return _own(EnvironmentGram, values=values, known=known)


def _order_cliques(known: np.ndarray) -> list[list[int]] | None:
    """Each index with its earlier-visited neighbours, in maximum-cardinality
    search order, or None if the pattern is not chordal.

    Index 0 is visited first, then always the unvisited index with the most
    visited neighbours (the lowest one on ties).  The pattern is chordal
    exactly when every such list is a clique, that is when the reversed
    visit order is a perfect elimination ordering; the walk stops at the
    first list that is not.  On a chordal pattern every maximal clique is
    among the lists, and their first entries are the visit order.
    """
    rows = known.tolist()
    weight = [0] * len(rows)
    order = []
    cliques = []
    for _ in rows:
        v = weight.index(max(weight))
        clique = [v] + [w for w in order if rows[v][w]]
        if not all(rows[a][b] for a in clique for b in clique):
            return None
        cliques.append(clique)
        order.append(v)
        weight = [c + k if c >= 0 else c for c, k in zip(weight, rows[v])]
        weight[v] = -1  # a visited index is never chosen again
    return cliques


def _chordal_fill(g: np.ndarray, known: np.ndarray, order: list[int], tol: float) -> None:
    """Fill every free entry of a chordal pattern in place.

    Index v is joined to each earlier-visited index w it is not yet joined
    to, in visit order.  The earlier indices are then pairwise joined, so
    the pattern stays chordal and the common neighbours S of v and w form
    the one clique the new entry closes: G_vw = G_vS G_SS^+ G_Sw (zero for
    an empty S), G_SS^+ G_Sw being one least-squares solve that cuts
    singular values at or below ``tol`` times the largest, as pinv does.
    """
    for k, v in enumerate(order):
        for w in order[:k]:
            if known[v, w]:
                continue
            s = np.flatnonzero(known[v] & known[w])
            z = g[v, s] @ np.linalg.lstsq(g[np.ix_(s, s)], g[s, w], rcond=tol)[0] if s.size else 0.0
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


def complete_psd(eg: EnvironmentGram, tol: float = DEFAULT_TOL) -> FeasibilityVerdict:
    """Decide exactly whether the determined overlaps complete to a PSD matrix.

    No search is involved.  The pattern is decided by the first rule that
    applies:

    - Coherent (``_coherent``, which ``_realized`` reads too): every
      determined off-diagonal overlap lies within ``tol`` of one, or none is
      determined; the diagonal is not read.  Every free entry is set to one,
      the completion under which the process acts coherently on superpositions.
    - Chordal: by Grone, Johnson, Sa and Wolkowicz (Linear Algebra Appl. 58,
      1984) a completion exists exactly when every fully determined clique
      is PSD.  The free entries are filled one at a time, keeping the
      pattern chordal, by G_ij = G_iS G_SS^+ G_Sj over the common determined
      neighbours S of i and j (zero for an empty S), each one least-squares
      solve cutting singular values at or below tol times the largest; with
      positive definite cliques this is the maximum-determinant completion.
      The cliques are principal blocks of it, so their eigenvalues interlace
      its (Cauchy) and are taken only when its check below fails: one below
      -tol gives Infeasible with a psd_violation of minus the smallest.
      Taking them first could differ only where rounding puts a clique's and
      the completion's smallest eigenvalues on either side of -tol.
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
    least -tol; otherwise the verdict is Undetermined, or Infeasible when a
    chordal pattern's clique is not PSD.
    """
    tol = _checked_tol(tol)
    # free entries start at one; every rule below reads determined entries
    # only until it has filled the free ones
    g = np.where(eg.known, eg.values, 1.0)
    cliques = []  # fully determined blocks whose eigenvalues certify a failed check
    if not _coherent(g, tol):
        known = np.array(eg.known)
        cliques = walk = _order_cliques(known)
        if cliques is None and eg.n == 4:
            free = eg.free_pairs()
            z, gap = _cycle_chord(g, free, tol)
            if z is None:
                return _infeasible(REASON_CYCLE, free[0], gap)
            (u, v), _ = free
            g[u, v] = z
            g[v, u] = np.conj(z)
            known[u, v] = known[v, u] = True
            walk, cliques = _order_cliques(known), []  # the chord certifies nothing
        elif cliques is None:
            # every fully determined triangle, in one batch
            t = np.array(list(itertools.combinations(range(eg.n), 3)))
            i, j, k = t.T
            t = t[known[i, j] & known[i, k] & known[j, k]]
            worst = float(np.linalg.eigvalsh(g[t[:, :, None], t[:, None, :]])[:, 0].min(initial=1.0))
            return _infeasible(REASON_PSD, None, -worst) if worst < -tol else FeasibilityVerdict(UNDETERMINED)
        _chordal_fill(g, known, [c[0] for c in walk], tol)
    if float(np.linalg.eigvalsh(g)[0]) >= -tol:
        g.setflags(write=False)  # a fresh array, which the verdict owns
        return _own(FeasibilityVerdict, status=REALIZABLE, completed_gram=g, certificate=None)
    # the fill leaves the determined entries as they were
    worst = min((float(np.linalg.eigvalsh(g[np.ix_(c, c)])[0]) for c in cliques), default=1.0)
    return _infeasible(REASON_PSD, None, -worst) if worst < -tol else FeasibilityVerdict(UNDETERMINED)


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
    sends a_i (x) e0 to b_i (x) s_i, the columns of Y.  Past ``_realized``,
    ``tol`` bounds the mismatch of the input and dressed-output Gram matrices,
    which the rank cut of ``environment_vectors`` can open, never the span,
    which is ProcessSpec's.  With Q_1 the first ``rank`` columns of the
    spec's ``span_basis``, a_i (x) e0 = (Q_1 (x) e0) Q_1^H a_i, so the columns
    Q_1 (x) e0 go to Y A^+ Q_1; matching Gram matrices make Y satisfy every
    linear relation among the inputs, dependent families included.  The rest
    of Q (x) I_r goes to an orthonormal complement of those.
    """
    sig = environment_vectors(_realized(spec, verdict, tol, "construct_isometry"))
    q = spec.span_basis
    r = sig.shape[0]
    d, n, rank = q.shape[0], spec.n, spec.rank
    _, b, g_in, _ = spec._arrays
    # column i is b_i (x) s_i
    y = (b[:, None, :] * sig[None, :, :]).reshape(d * r, n)
    _refuse_mismatch(float(np.max(np.abs(g_in - y.conj().T @ y))), tol)
    qy = y @ spec.span_map @ q[:, :rank]
    full_y = np.hstack([qy, np.linalg.svd(qy)[0][:, rank:]])
    # Q (x) I_r with its columns ordered by environment index: Q (x) e0 first
    full_x = np.kron(q, np.eye(r)).reshape(d * r, d, r).transpose(0, 2, 1)
    return full_y @ full_x.reshape(d * r, d * r).conj().T


def _refuse_mismatch(mismatch: float, tol: float) -> None:
    if mismatch > max(tol, 1e-9) * 10.0:
        raise RuntimeError(
            f"input and dressed-output Gram matrices differ by {mismatch:.3e}; "
            "this indicates an inconsistent verdict"
        )


def _coherent(g: np.ndarray, tol: float) -> bool:
    """Every off-diagonal entry of ``g`` lies within ``tol`` of one; the
    diagonal, one to 1e-12 in every EnvironmentGram, is not read."""
    deviation = np.abs(g - 1.0)
    deviation.flat[:: g.shape[0] + 1] = 0.0
    return bool((deviation <= tol).all())


def _realized(
    spec: ProcessSpec, verdict: FeasibilityVerdict, tol: float, user: str, coherent: bool = False
) -> np.ndarray:
    """Completed Gram G of ``verdict``, refused in this order: a ``tol`` that
    ``_checked_tol`` refuses, not Realizable (ValueError naming ``user``), not
    ``_coherent`` where ``coherent`` asks it (EnvironmentsDifferError), or
    decided for another spec (RuntimeError): G must be (n, n) with
    |G_in - G_out o G| <= 10 max(tol, 1e-9)."""
    _checked_tol(tol)
    if not verdict.is_realizable:
        raise ValueError(f"{user} needs a Realizable verdict")
    g = verdict.completed_gram
    if coherent and not _coherent(g, tol):
        raise EnvironmentsDifferError()
    _, _, g_in, g_out = spec._arrays
    mismatch = float(np.max(np.abs(g_in - g_out * g))) if g.shape == g_in.shape else math.inf
    _refuse_mismatch(mismatch, tol)
    return g


def _expand_input(spec: ProcessSpec, state: PureState, tol: float) -> np.ndarray:
    if state.dims != (spec.dim_a, spec.dim_b):
        raise ValueError(
            f"input dims {state.dims} do not match the process "
            f"({spec.dim_a}, {spec.dim_b})"
        )
    residual = float(_span_residuals(spec, state.vector))
    if residual > tol:
        raise OutsideSpanError(residual)
    return spec.span_map @ state.vector


def apply_process(
    spec: ProcessSpec,
    verdict: FeasibilityVerdict,
    state: PureState,
    tol: float = DEFAULT_TOL,
) -> PureState:
    """Coherent action on a superposition of the specified inputs.

    Valid only when all environment overlaps equal one: the environment
    then decouples and the process acts linearly, sending sum_i c_i a_i
    to sum_i c_i b_i, with c = A^+ v from the spec's ``span_map``, which sits
    on the kept inputs of a dependent family; the coherent outputs obey the
    inputs' linear relations, so any expansion gives the same image.  ``tol``
    bounds the distance of v to the span, the norm of its component on the
    span's complement (``_span_residuals``; OutsideSpanError), never the
    span, and an image of norm at most ``tol`` has no output state
    (ValueError).  The verdict must pass ``_realized`` as coherent.
    """
    _realized(spec, verdict, tol, "apply_process", coherent=True)
    coeff = _expand_input(spec, state, tol)
    out = spec.output_matrix() @ coeff
    norm = np.linalg.norm(out)
    if norm <= tol:
        raise ValueError(f"the input's image vanishes within tolerance (norm {norm:.3e})")
    return PureState((spec.dim_a, spec.dim_b), out / norm)


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

    normalized to unit trace.  Pure (purity one) when the environment Gram
    has rank one on the support of c: there the s_i differ by phases only.
    The verdict must pass ``_realized``, coherent or not.
    """
    e = _realized(spec, verdict, tol, "output_density")
    coeff = _expand_input(spec, state, tol)
    weights = np.outer(coeff, coeff.conj()) * e.conj()
    b = spec.output_matrix()
    rho = b @ weights @ b.conj().T
    rho = rho / np.trace(rho).real
    return DensityMatrix(rho)
