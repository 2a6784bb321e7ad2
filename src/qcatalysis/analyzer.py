"""Catalysis classification: intact catalysts and entangling witnesses.

A realizable process whose first factor is returned untouched is a
catalysis.  It counts as *quantum* catalysis when the interaction can
create entanglement out of a separable superposition input, since with
classical communication one entangled pair already enables faithful
transmission of an arbitrary qubit.
"""

from __future__ import annotations

__all__ = [
    "NOT_CATALYSIS",
    "NO_WITNESS_FOUND",
    "QUANTUM_CATALYSIS",
    "CatalysisReport",
    "DeletionFamilyPoint",
    "WitnessRecord",
    "catalyst_intact",
    "circular_pair_input",
    "classify",
    "cloning_process",
    "deletion_family_sweep",
    "deletion_process",
    "deletion_residue",
    "find_entangling_witness",
    "uninformed_cloning_process",
]

import functools
import math

import numpy as np

from .process import (
    FeasibilityVerdict,
    ProcessSpec,
    _coherent,
    _realized,
    apply_process,
    decide_feasibility,
)
from .states import (
    DEFAULT_TOL,
    PureState,
    _checked_tol,
    _det_form,
    _index,
    _Record,
    _schmidt,
    concurrence,
    ket,
    ket_plus,
    standard_triple,
    tensor,
)

QUANTUM_CATALYSIS = "quantum_catalysis"
NO_WITNESS_FOUND = "no_entangling_witness_found"
NOT_CATALYSIS = "not_catalysis"

# a candidate input counts as separable below this entanglement score and
# its output as an entangling witness above this one
SEPARABLE_CUTOFF = 1e-9
WITNESS_CUTOFF = 1e-6

# the A-factor scan: a Fibonacci lattice on the Bloch sphere (spacing about 0.08
# rad), then a Newton ascent from each of its best local maxima: at most
# _ASCENT_EVALS scores, a first trust radius of about one lattice spacing, a last
# step below _ASCENT_STOP; a later start wins only by more than _START_MARGIN
_GRID_POINTS = 2048
_MAX_STARTS = 8
_START_MARGIN = 1e-9
_ASCENT_EVALS = 40
_ASCENT_RADIUS = 0.1
_ASCENT_STOP = 1e-10

# alternating projections per start in the search for other dimensions
_PROJECTION_STEPS = 200

# the named product inputs |+>|0> and |i>|i> of the canonical stage on two qubits
_CIRCULAR = np.array([1.0, 1.0j]) / math.sqrt(2.0)
_CIRCULAR_PAIR = np.kron(_CIRCULAR, _CIRCULAR)
_PLUS_ZERO = np.kron([1.0, 1.0], [1.0, 0.0]) / math.sqrt(2.0)
_NAMED_2X2 = np.array([_PLUS_ZERO, _CIRCULAR_PAIR])

# the magic basis, _det_form(q_j, q_l) = delta_jl; a slope t at which Re m + t Im m has
# the real eigenvectors of a symmetric unitary m; four points' pair midpoints and triples
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]) / math.sqrt(2.0)
_PENCIL_SLOPE = (math.sqrt(5.0) - 1.0) / 2.0
_PAIR_WEIGHTS = (np.eye(4)[:, None] + np.eye(4))[np.triu_indices(4, 1)] / 2.0
_TRIPLES = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


class WitnessRecord(_Record):
    """Separable input that the process maps to an entangled output."""

    input: PureState
    output: PureState
    concurrence_in: float
    concurrence_out: float
    coefficients: np.ndarray


class PairIntactness(_Record, eq=True):
    # its own __init__: classify builds one per pair, 0.3 us each faster than _Record's
    def __init__(
        self,
        index: int,
        input_is_product: bool,
        output_is_product: bool,
        catalyst_fidelity: float | None,
        intact: bool,
    ):
        self._set(
            index=index,
            input_is_product=input_is_product,
            output_is_product=output_is_product,
            catalyst_fidelity=catalyst_fidelity,
            intact=intact,
        )


class CatalysisReport(_Record):
    verdict: FeasibilityVerdict
    pair_reports: tuple[PairIntactness, ...]
    catalyst_intact: bool
    coherence_preserving: bool
    classification: str
    witness: WitnessRecord | None
    reason: str | None
    bob_alone_impossible: bool


class DeletionFamilyPoint(_Record, eq=True):
    """One point of the residual-state sweep for the deletion task."""

    u: float
    v: float
    overlap: complex
    out_concurrence: float | None


def _catalysed(bob_in, bob_out) -> ProcessSpec:
    """Bob's task s_i -> r_i beside Alice's target t_i: t_i s_i -> t_i r_i."""
    triples = zip(standard_triple("target"), bob_in, bob_out, strict=True)
    return ProcessSpec(2, 2, tuple((tensor(t, s), tensor(t, r)) for t, s, r in triples))


def cloning_process() -> ProcessSpec:
    """Copy Alice's target state onto Bob: a_i = t_i s_i -> t_i t_i."""
    return _catalysed(standard_triple("source"), standard_triple("target"))


def uninformed_cloning_process() -> ProcessSpec:
    """Cloning attempt where Bob starts in |0> regardless of i.

    Bob holds no information about Alice's state, so no physical process
    can produce the copies; the feasibility check certifies this.  The
    inputs are dependent (|+>|0> is a combination of the first two), which
    the overlap-ratio argument never reads.
    """
    return _catalysed((ket("0"),) * 3, standard_triple("target"))


def deletion_process(
    residues: tuple[PureState, PureState, PureState] | None = None,
) -> ProcessSpec:
    """Erase Bob's copy, leaving residue r_i: t_i t_i -> t_i r_i.

    The default residues are the source family, making this the exact
    inverse of the cloning process.
    """
    if residues is None:
        residues = standard_triple("source")
    return _catalysed(standard_triple("target"), residues)


def deletion_residue(angle: float) -> PureState:
    """Single-qubit state ((1 + e^{iu})|0> + (1 - e^{iu})|1>) / 2.

    For every angle this state has overlap exactly 1/sqrt(2) with |+>,
    the reversibility constraint on deletion residues; angle 0 gives |0>.
    """
    w = np.exp(1j * angle)
    return PureState((2,), np.array([(1.0 + w) / 2.0, (1.0 - w) / 2.0]))


def _catalyst_checks(spec: ProcessSpec, tol: float) -> tuple[tuple[PairIntactness, ...], bool]:
    """Per-pair intactness and the Bob flag, from one Schmidt decomposition.

    A state is a product when its second Schmidt coefficient is at most
    ``tol``.  The Bob flag is set when two pairs whose states are all
    products share their input B factor (fidelity at least 1 - tol) but
    not their output one (fidelity at most 1 - tol).
    """
    tol = _checked_tol(tol)
    n = spec.n
    rows = np.concatenate([spec.input_matrix().T, spec.output_matrix().T])
    s, a, b = _schmidt(rows, spec.dim_a, spec.dim_b)
    product = s[:, 1] <= tol
    both = product[:n] & product[n:]
    overlaps = np.minimum(np.abs(np.sum(a[:n].conj() * a[n:], axis=1)) ** 2, 1.0)
    flags = product.tolist()
    reports = tuple(
        PairIntactness(i, flags[i], flags[n + i], f if ok else None, ok and f >= 1.0 - tol)
        for i, (f, ok) in enumerate(zip(overlaps.tolist(), both.tolist()))
    )
    b_in, b_out = b[:n][both], b[n:][both]
    same_in = np.abs(b_in.conj() @ b_in.T) ** 2 >= 1.0 - tol
    distinct_out = np.abs(b_out.conj() @ b_out.T) ** 2 <= 1.0 - tol
    k = np.arange(len(b_in))
    return reports, bool((same_in & distinct_out & (k[:, None] < k)).any())


def catalyst_intact(
    spec: ProcessSpec, tol: float = DEFAULT_TOL
) -> tuple[PairIntactness, ...]:
    """Per-pair check that the first factor survives unchanged.

    A pair is intact when both its input and output factorize across the
    A|B cut (second Schmidt coefficient at most ``tol``) and the two A
    factors agree up to global phase (fidelity at least 1 - ``tol``).  One
    batched Schmidt decomposition of the 2n states decides every pair.
    """
    return _catalyst_checks(spec, tol)[0]


def _entanglement_scores(vecs: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Twice the product of the two largest Schmidt coefficients, per unit row.

    Zero exactly for product states.  On two qubits it is the concurrence,
    computed exactly as |_det_form(u, u)| = 2|u0 u3 - u1 u2| (Wootters, PRL
    80, 2245, 1998); other dimensions take the singular values only.
    """
    if (dim_a, dim_b) == (2, 2):
        return np.minimum(np.abs(_det_form(vecs, vecs)), 1.0)
    s = np.linalg.svd(vecs.reshape(-1, dim_a, dim_b), compute_uv=False)
    if s.shape[1] < 2:
        return np.zeros(len(s))
    return np.minimum(2.0 * s[:, 0] * s[:, 1], 1.0)


def _stage_candidates_canonical(
    spec: ProcessSpec, span_map: np.ndarray, tol: float
) -> np.ndarray:
    """Coefficients of each sum a_i + a_j, then, on two qubits, of each
    named product input lying within ``tol`` of the span."""
    k = np.arange(spec.n)
    i, j = np.nonzero(k[:, None] < k)  # np.triu_indices(n, 1), at a fifth of its cost
    eye = np.eye(spec.n, dtype=np.complex128)
    rows = eye[i] + eye[j]
    if (spec.dim_a, spec.dim_b) == (2, 2):
        named = _NAMED_2X2 @ span_map.T
        miss = _NAMED_2X2 - named @ spec.input_matrix().T
        rows = np.vstack([rows, named[np.sqrt((miss.conj() * miss).real.sum(axis=1)) <= tol]])
    return rows


def _spinor_grid(count: int) -> np.ndarray:
    """Unit spinors of a Fibonacci lattice on the Bloch sphere, one per column."""
    k = np.arange(count) + 0.5
    z = 1.0 - 2.0 * k / count
    phase = np.exp(1j * math.pi * (1.0 + math.sqrt(5.0)) * k)
    return np.stack([np.sqrt((1.0 + z) / 2.0) + 0j, phase * np.sqrt((1.0 - z) / 2.0)])


# the monomials v = (x0^2, x0 x1, x1^2) of a spinor x are x[_MONO_LEFT] * x[_MONO_RIGHT]
_MONO_LEFT = np.array([0, 0, 1])
_MONO_RIGHT = np.array([0, 1, 1])
_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
_PAIR_LEFT, _PAIR_RIGHT = np.triu_indices(3, 1)
_QUARTIC_POWERS = np.arange(5)[:, None]


def _grid_neighbours(grid: np.ndarray) -> np.ndarray:
    """(6, N) indices of the nearest lattice points of each column of ``grid``.

    On a Fibonacci lattice the nearest neighbours of point k lie at k +- F_j
    for Fibonacci numbers F_j, so only those offsets are compared.  On the
    2048-point grid these are the six nearest points everywhere but at the
    two poles, whose sixth is the eighth nearest.
    """
    n = grid.shape[1]
    fib = [1, 2]
    while fib[-1] + fib[-2] < n:
        fib.append(fib[-1] + fib[-2])
    # -|<x_k|x_k+f>| by offset f = +F_j, then -F_j; 1 where k + f is off the grid
    far = np.ones((2 * len(fib), n))
    for row, f in enumerate(fib):
        pair = -np.abs(np.sum(grid[:, :-f].conj() * grid[:, f:], axis=0))
        far[row, :-f] = pair
        far[len(fib) + row, f:] = pair
    order = np.argsort(far, axis=0, kind="stable")[:6]
    return np.arange(n) + np.array(fib + [-f for f in fib])[order]


def _spinor_tables(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The quartics x0^(4-k) x1^k (5, N) of a (2, N) batch of spinors, and the
    real features (9, N) of their monomials v: |v_a|^2, Re and Im conj(v_a) v_b, a < b."""
    v = xs[_MONO_LEFT] * xs[_MONO_RIGHT]
    cross = v[_PAIR_LEFT].conj() * v[_PAIR_RIGHT]
    quartic = xs[0] ** (4 - _QUARTIC_POWERS) * xs[1] ** _QUARTIC_POWERS
    return quartic, np.vstack([(v.conj() * v).real, cross.real, cross.imag])


def _quartic_scores(c: np.ndarray, gram: np.ndarray, quartic: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """2|p| / h per column of _spinor_tables: p = c @ quartic, h = v^H gram v."""
    upper = gram[_PAIR_LEFT, _PAIR_RIGHT]
    weights = np.concatenate([gram.diagonal().real, 2.0 * upper.real, -2.0 * upper.imag])
    return 2.0 * np.abs(c @ quartic) / np.maximum(weights @ feats, 1e-300)


@functools.cache
def _scan_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The spinor grid, its neighbour table and its _spinor_tables; read-only.

    Built on the first rank-3 scan, so that a process that never scans
    never pays for them (0.48 MB, a few ms).
    """
    grid = _spinor_grid(_GRID_POINTS)
    tables = (grid, _grid_neighbours(grid), *_spinor_tables(grid))
    for m in tables:
        m.setflags(write=False)
    return tables


def _best_in_span(image: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Input v in the column span of ``basis`` whose image has maximal concurrence.

    With image @ basis = QR, the best v is basis R^-1 z for the top Takagi
    vector z of S_jl = _det_form(q_j, q_l).  Re(z^T S z) is the real
    quadratic form [[Re S, -Im S], [-Im S, -Re S]] in (Re z, Im z), whose
    top eigenvector gives z even when the top singular value of S is
    degenerate.
    """
    q, r = np.linalg.qr(image @ basis)
    s = _det_form(q.T[:, None, :], q.T[None, :, :])
    k = s.shape[0]
    top = np.linalg.eigh(np.block([[s.real, -s.imag], [-s.imag, -s.real]]))[1][:, -1]
    return basis @ np.linalg.solve(r, top[:k] + 1j * top[k:])


def _full_span_witness(image: np.ndarray) -> list[np.ndarray]:
    """The best product input of the whole two-qubit space, in closed form.

    With m_jl = _det_form of the images of _MAGIC's columns j and l, a
    symmetric unitary m = O diag(w) O^T (O real), the input _MAGIC O z is a
    product when sum_k p_k = 0, p = z^2, and its output has concurrence
    |sum_k p_k w_k| / sum_k |p_k| <= max_k |w_k - c| for every c: at best the
    radius of the smallest circle around the w_k, reached at p_k = l_k
    conj(w_k - c) for weights l >= 0 of its centre c = l @ w, the midpoint of
    the two farthest w_k or the origin inside a triangle of them (a perfect
    entangler).  The support with the largest sum_k l_k |w_k - c|^2 wins; no
    candidate when the w_k coincide (local and local∘SWAP maps).
    """
    q = image @ _MAGIC
    m = _det_form(q.T[:, None, :], q.T[None, :, :])
    o = np.linalg.eigh(m.real + _PENCIL_SLOPE * m.imag)[1]
    # each column's largest entry positive, so LAPACK's signs cannot pick the witness
    o *= np.sign(o[np.abs(o).argmax(axis=0), np.arange(4)])
    w = np.einsum("jk,jl,lk->k", o, m, o)
    if np.abs(w - w[0]).max() <= WITNESS_CUTOFF:
        return []
    # the weight of each corner of a triangle is the cross product of the other two
    ends = w[_TRIPLES]
    cross = (np.roll(ends, -1, axis=1).conj() * np.roll(ends, -2, axis=1)).imag
    holds = (cross > 0).all(axis=1) | (cross < 0).all(axis=1)
    triangles = np.zeros((int(holds.sum()), 4))
    shares = cross[holds] / cross[holds].sum(axis=1, keepdims=True)
    np.put_along_axis(triangles, _TRIPLES[holds], shares, axis=1)
    weights = np.vstack([_PAIR_WEIGHTS, triangles])
    centres = weights @ w
    best = (weights * np.abs(w - centres[:, None]) ** 2).sum(axis=1).argmax()
    return [np.sqrt(weights[best] * (w - centres[best]).conj()) @ (_MAGIC @ o).T]


def _score_terms(c: list, g: list, z: complex) -> tuple[float, complex, complex, float]:
    """2|p| / h at x = (1, z) and f_z, f_zz, f_zzbar of f = log(|p| / h), all 0 where p = 0.

    p = sum_k c_k z^k; h = v^H g v = u @ v, v = (1, z, z^2), u = conj(v)^T g; log|p| is
    harmonic, so only h reaches f_zzbar."""
    p = (((c[4] * z + c[3]) * z + c[2]) * z + c[1]) * z + c[0]
    if p == 0:
        return 0.0, 0j, 0j, 0.0
    ratio = (((4.0 * c[4] * z + 3.0 * c[3]) * z + 2.0 * c[2]) * z + c[1]) / p
    curve = ((12.0 * c[4] * z + 6.0 * c[3]) * z + 2.0 * c[2]) / p
    w = z.conjugate()
    u0, u1, u2 = (g[0][k] + w * (g[1][k] + w * g[2][k]) for k in range(3))
    h = (u0 + z * (u1 + z * u2)).real
    e = (u1 + 2.0 * z * u2) / h
    mixed = (g[1][1].real + 4.0 * (g[1][2] * z).real + 4.0 * g[2][2].real * (z * w).real) / h
    return 2.0 * abs(p) / h, ratio / 2.0 - e, (curve - ratio * ratio) / 2.0 - 2.0 * u2 / h + e * e, abs(e) ** 2 - mixed


def _ascend(c: np.ndarray, gram: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Trust-region Newton ascent of log(|p| / h) from the spinor x: (score, spinor).

    In the chart x = (1, z), or x = (z, 1) with c and gram reversed, where |z| <= 1 at
    the start.  With a = f_z, A = f_zz and B = f_zzbar, the step is Newton's,
    (conj(A) a - B conj(a)) / (B^2 - |A|^2), where the real Hessian is negative definite
    (B < -|A|), else the gradient 2 conj(a), clipped to the trust radius; a step that
    lowers the score is not taken and quarters the radius.
    """
    flip = abs(x[1]) > abs(x[0])
    c, g = (c[::-1], gram[::-1, ::-1]) if flip else (c, gram)
    c, g, z = c.tolist(), g.tolist(), complex(x[0] / x[1] if flip else x[1] / x[0])
    (score, a, aa, b), radius = _score_terms(c, g, z), _ASCENT_RADIUS
    for _ in range(_ASCENT_EVALS - 1):
        newton = b < -abs(aa)
        step = (aa.conjugate() * a - b * a.conjugate()) / (b * b - abs(aa) ** 2) if newton else 2.0 * a.conjugate()
        length = min(abs(step), radius)
        if length <= _ASCENT_STOP:
            break
        step *= length / abs(step)
        trial = _score_terms(c, g, z + step)
        if trial[0] >= score:
            z, (score, a, aa, b) = z + step, trial
            radius = max(radius, 2.0 * length)
        else:
            radius = length / 4.0
    return score, np.array([z, 1.0] if flip else [1.0, z])


def _scan(c: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Unit spinor x maximizing 2|p(x)| / h(x) (_quartic_scores), which x -> lambda x keeps.

    The grid's local maxima (no lower than their six nearest neighbours), best first,
    at most _MAX_STARTS, each start an _ascend; the first that ends within
    _START_MARGIN of the best one wins.
    """
    grid, neighbours, quartic, feats = _scan_tables()
    scores = _quartic_scores(c, gram, quartic, feats)
    peaks = (scores >= scores[neighbours].max(axis=0)).nonzero()[0]
    peaks = peaks[(-scores[peaks]).argsort(kind="stable")[:_MAX_STARTS]]
    final, ends = zip(*(_ascend(c, gram, grid[:, k]) for k in peaks.tolist()))
    x = ends[next(i for i, score in enumerate(final) if score >= max(final) - _START_MARGIN)]
    return x / math.sqrt(abs(x[0]) ** 2 + abs(x[1]) ** 2)


def _stage_candidates_2x2(spec: ProcessSpec) -> list[np.ndarray]:
    """Best product inputs x (x) y of the span on two qubits, by rank of the span.

    The admissible B factors y of an A factor x are the null space of
    W^H (x (x) I), with W an orthonormal basis of the span's complement.

    - rank 4: the closed form of _full_span_witness.
    - rank 3, complement vector w entangled: y(x) is unique for every x,
      and x is scanned.  The image of x (x) y(x) is o = mono @ v, linear in
      the monomials v = (x0^2, x0 x1, x1^2) through a 4x3 map built once
      per call; x scores its concurrence 2|o0 o3 - o1 o2| / |o|^2, the
      quartic v^T D v / 2 (D_ab = _det_form of mono's columns a, b) over
      v^H G v, G = mono^H mono.
    - rank 3, w = p (x) q a product: at the exceptional x = p_perp, where
      w^H (x (x) I) = 0, every y is admissible; elsewhere y = q_perp.  Both
      lines are solved exactly.
    - rank 2: V c, V the span's basis, is a product exactly when c^T L c = 0
      for L_jl = _det_form(v_j, v_l); the two roots are the candidates, and
      when L vanishes every input of the span is a product.
    - rank 1: the span's one ray.

    On a line of product vectors (a two-dimensional subspace) the best
    input is the top Takagi vector of the output determinant form.  Every
    candidate is a product vector up to rounding; the rank-3 scan ends on
    the best local maximum that its grid finds.  The rank is the spec's ``rank``, the number
    of kept inputs, and the columns of its ``span_basis`` after it are W.
    """
    u = spec.span_basis
    rank = spec.rank
    if rank == 1:
        return [u[:, 0]]
    # span vector -> output: B A^+
    image = spec.output_matrix() @ spec.span_map
    if rank == 4:
        return _full_span_witness(image)
    if rank == 3:
        wm = u[:, 3].reshape(2, 2)
        # wm is unit: s_min = |det| / s_max, s_max^2 = (1 + sqrt(1 - 4|det|^2)) / 2
        det = abs(_det_form(u[:, 3], u[:, 3])) / 2.0
        if det / math.sqrt(0.5 + math.sqrt(max(0.25 - det * det, 0.0))) <= SEPARABLE_CUTOFF:
            # the complement vector is a product p (x) q: the product vectors
            # of the span are the lines p_perp (x) C^2, where every y is
            # admissible (the exceptional x), and C^2 (x) q_perp
            lu, _, lvh = np.linalg.svd(wm)
            eye = np.eye(2)
            return [
                _best_in_span(image, np.kron(lu[:, 1:], eye)),
                _best_in_span(image, np.kron(eye, lvh[1:].T)),
            ]
        # y(x) = x @ follow spans the null space of w^H (x (x) I) = x @ conj(wm)
        follow = wm.conj() @ _QUARTER_TURN
        # image(x (x) y(x)) = sum_ac x_a x_c quad[:, a, c] = mono @ v
        quad = image.reshape(4, 2, 2) @ follow.T
        mono = np.stack([quad[:, 0, 0], quad[:, 0, 1] + quad[:, 1, 0], quad[:, 1, 1]], axis=1)

        d = _det_form(mono.T[:, None, :], mono.T[None, :, :])
        c = np.array([d[0, 0] / 2.0, d[0, 1], d[0, 2] + d[1, 1] / 2.0, d[1, 2], d[2, 2] / 2.0])
        x = _scan(c, mono.conj().T @ mono)
        return [(x[:, None] * (x @ follow)).ravel()]
    v = u[:, :2]
    lq = _det_form(v.T[:, None, :], v.T[None, :, :])
    if np.abs(lq).max() <= SEPARABLE_CUTOFF:
        return [_best_in_span(image, v)]
    # roots (w, q0) and (q2, w) of q0 s^2 + q1 s + q2, s = c0 / c1, stably
    q0, q1, q2 = lq[0, 0], 2.0 * lq[0, 1], lq[1, 1]
    disc = np.sqrt(q1 * q1 - 4.0 * q0 * q2)
    w = -(q1 + disc) / 2.0 if abs(q1 + disc) >= abs(q1 - disc) else -(q1 - disc) / 2.0
    return [v @ r / np.linalg.norm(r) for r in (np.array([w, q0]), np.array([q2, w])) if r.any()]


def _stage_candidates_projected(spec: ProcessSpec, projector: np.ndarray) -> np.ndarray:
    """Product vectors of the span found by alternating projection (any dims).

    Each computational-basis product vector |i>|j> is projected onto the
    span by ``projector`` and replaced by the best unit product
    approximation of the projection, repeatedly.  Starts that settle on a
    product vector in the span give candidates.  The search is not
    exhaustive: it finds at most one product vector per start and does not
    maximize the output entanglement.
    """
    da, db = spec.dim_a, spec.dim_b
    vecs = np.eye(da * db, dtype=np.complex128)
    for _ in range(_PROJECTION_STEPS):
        proj = vecs @ projector.T
        lu, _, lvh = np.linalg.svd(proj.reshape(-1, da, db))
        nxt = (lu[:, :, 0, None] * lvh[:, None, 0, :]).reshape(-1, da * db)
        done = np.max(np.abs(nxt - vecs)) <= 1e-14
        vecs = nxt
        if done:
            break
    return vecs


def _stage_best(
    spec: ProcessSpec, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, float, np.ndarray] | None:
    """Best (by output entanglement) separable candidate of one stage, or None.

    The candidates are the rows of ``coeffs @ A^T`` with norm above 1e-12.
    Their unit rows and their unit images under B are stacked and scored
    at once by _entanglement_scores; the first best row wins.
    Returns the fields of its WitnessRecord, with the input and output as
    unit rows: input, output, both scores and the coefficients of the input.
    """
    in_rows = coeffs @ spec.input_matrix().T
    # row norms by np.linalg.norm's own formula, without its dispatch
    norms = np.sqrt((in_rows.conj() * in_rows).real.sum(axis=1))
    idx = (norms > 1e-12).nonzero()[0]
    if not idx.size:
        return None
    out_rows = coeffs[idx] @ spec.output_matrix().T
    out_norms = np.sqrt((out_rows.conj() * out_rows).real.sum(axis=1))[:, None]
    # an entangled candidate's image may be zero: its row stays zero and scores 0
    out_units = np.divide(out_rows, out_norms, out=np.zeros_like(out_rows), where=out_norms > 0)
    units = np.concatenate([in_rows[idx] / norms[idx, None], out_units])
    ent = _entanglement_scores(units, spec.dim_a, spec.dim_b)
    k = idx.size
    sep = ent[:k] <= SEPARABLE_CUTOFF
    if not sep.any():
        return None
    best = int(np.where(sep, ent[k:], -1.0).argmax())
    if ent[k + best] <= WITNESS_CUTOFF:
        return None
    row = idx[best]
    return units[best], units[k + best], float(ent[best]), float(ent[k + best]), coeffs[row] / norms[row]


def find_entangling_witness(
    spec: ProcessSpec,
    verdict: FeasibilityVerdict,
    tol: float = DEFAULT_TOL,
) -> WitnessRecord | None:
    """Search for a separable input mapped to an entangled output.

    The span lives on ProcessSpec, built on its earliest independent inputs
    whatever ``tol``, so a dependent family is searched like any other.
    Every stage expands its candidates over the inputs through the spec's
    one map, its ``span_map`` A^+ = R^-1 Q_1^H, and a witness's coefficients
    sit on the kept inputs; ``tol`` loosens only the residual below which a
    named state counts as inside the span.

    Two stages run in a fixed order.  The canonical stage tries uniform
    pairwise superpositions of the specified inputs and, on two qubits, the
    product states |+>|0> and |i>|i> when they lie within ``tol`` of the
    span.  The product-vector stage then searches the separable inputs of
    the span directly: on two qubits exactly, but on rank-3 spans with an
    entangled complement by Newton ascents from a Bloch-sphere grid's peaks;
    in other dimensions by alternating projection (not exhaustive).
    It is skipped when the canonical stage already scores one, and its
    witness replaces the canonical one only when strictly higher; within a
    stage earlier candidates break ties.  Each stage is scored once
    (_entanglement_scores), and one record is built for the winner.  The
    verdict must pass process's ``_realized`` as coherent.
    """
    _realized(spec, verdict, tol, "witness search", coherent=True)
    span_map = spec.span_map
    best = _stage_best(spec, _stage_candidates_canonical(spec, span_map, tol))
    if best is None or best[3] < 1.0 - 1e-12:
        if (spec.dim_a, spec.dim_b) == (2, 2):
            inputs = _stage_candidates_2x2(spec)
        else:
            q = spec.span_basis[:, : spec.rank]
            inputs = _stage_candidates_projected(spec, q @ q.conj().T)
        inputs = np.array(inputs, dtype=np.complex128).reshape(-1, span_map.shape[1])
        found = _stage_best(spec, inputs @ span_map.T)
        if found is not None and (best is None or found[3] > best[3]):
            best = found
    if best is None:
        return None
    dims = (spec.dim_a, spec.dim_b)
    return WitnessRecord(PureState(dims, best[0]), PureState(dims, best[1]), *best[2:])


def classify(spec: ProcessSpec, tol: float = DEFAULT_TOL) -> CatalysisReport:
    """Full catalysis verdict for a specified process.

    Infeasible or undetermined feasibility, or a disturbed catalyst, gives
    NotCatalysis with the reason.  Otherwise a witness search runs when the
    environment overlaps are all one (``_coherent``, which sets
    ``coherence_preserving``); absence of a witness is reported as such and
    never promoted to a claim of classical catalysis, and carries no reason.
    Dependent inputs are searched like independent ones.
    """
    verdict = decide_feasibility(spec, tol)
    pair_reports, bob_flag = _catalyst_checks(spec, tol)
    intact = all(p.intact for p in pair_reports)
    coherent = verdict.is_realizable and _coherent(verdict.completed_gram, tol)

    witness = None
    reason = None
    if not verdict.is_realizable:
        classification = NOT_CATALYSIS
        if verdict.certificate is not None:
            c = verdict.certificate
            at = f" at pair {c.pair}" if c.pair is not None else ""
            reason = f"{c.reason}{at} (magnitude {c.magnitude:.6g})"
        else:
            reason = "feasibility undetermined (no exact completion rule applies)"
    elif not intact:
        first_bad = next(p.index for p in pair_reports if not p.intact)
        classification = NOT_CATALYSIS
        reason = f"catalyst disturbed at pair {first_bad}"
    elif coherent:
        witness = find_entangling_witness(spec, verdict, tol)
        classification = QUANTUM_CATALYSIS if witness is not None else NO_WITNESS_FOUND
    else:
        classification = NO_WITNESS_FOUND
    return CatalysisReport(
        verdict=verdict,
        pair_reports=pair_reports,
        catalyst_intact=intact,
        coherence_preserving=coherent,
        classification=classification,
        witness=witness,
        reason=reason,
        bob_alone_impossible=bob_flag,
    )


def circular_pair_input() -> PureState:
    """Product state (|0> + i|1>)(|0> + i|1>) / 2 on two qubits."""
    return PureState((2, 2), _CIRCULAR_PAIR)


def deletion_family_sweep(
    steps: int, tol: float = DEFAULT_TOL
) -> list[DeletionFamilyPoint]:
    """Sweep the deletion residues over their one remaining invariant.

    With the third residue fixed to |+> and the first residue angle fixed
    to zero, residues are deletion_residue(0) and deletion_residue(delta)
    with delta = v - u covering [0, 2pi) in ``steps`` points.  Each point
    decides feasibility and records the residue overlap (1 + e^{i delta}) / 2
    together with the concurrence of the process output on the
    distinguished separable input; no witness search runs.  A point whose
    feasibility is not decided realizable has no output, and its
    ``out_concurrence`` is None.

    The law: that concurrence equals |<r(u)|r(v)>| for any residue angles.
    The input is |i>|i> = ((1-i)/2)|00> - ((1+i)/2)|11> + i|++>, so with
    r(u) = ((1+w)|0> + (1-w)|1>)/2, w = e^{iu}, the output's 2x2 amplitude
    matrix has determinant i(w_0 + w_1)/4, and C = 2|det| =
    |1 + e^{i(v-u)}|/2 = |<r(u)|r(v)>|: zero exactly at orthogonal residues.
    """
    if _index(steps, "steps") < 2:
        raise ValueError("sweep needs at least 2 steps")
    points = []
    probe = circular_pair_input()
    for k in range(steps):
        delta = 2.0 * math.pi * k / steps
        residues = (deletion_residue(0.0), deletion_residue(delta), ket_plus())
        spec = deletion_process(residues)
        verdict = decide_feasibility(spec, tol)
        out = apply_process(spec, verdict, probe, tol) if verdict.is_realizable else None
        conc = concurrence(out) if out is not None else None
        overlap = complex((1.0 + np.exp(1j * delta)) / 2.0)
        points.append(DeletionFamilyPoint(0.0, delta, overlap, conc))
    return points
