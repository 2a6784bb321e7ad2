"""Shared random generators, independent oracles, record checks and a
fresh-interpreter runner for the test suite."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qcatalysis import (
    EnvironmentGram,
    ProcessSpec,
    PureState,
    ket,
    random_state,
    random_states,
    tensor,
)
from qcatalysis import analyzer
from qcatalysis.cli import _PROTOCOL_INPUTS
from qcatalysis.teleport import _nonlocal_cnot_rows, _teleport_rows

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the default JSON and text report of every scenario, and of check on four
# saved spec files, as committed; regenerate a file only for a deliberate
# change of the report
GOLDEN_REPORTS = Path(__file__).parent / "data" / "reports"


def golden_report(name: str, fmt: str) -> bytes:
    """The committed ``fmt`` ("json" or "text") report named ``name``."""
    return (GOLDEN_REPORTS / f"{name}.{'txt' if fmt == 'text' else fmt}").read_bytes()


def run_fresh_python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the package from
    ``src``, with its stdout buffered as a user's is, and a 120-s timeout;
    ``kwargs`` go to ``subprocess.run``."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, timeout=120, **kwargs)


def assert_record(record, fields: tuple[str, ...], eq: bool, hidden: tuple[str, ...] = ()):
    """``record`` has the field tuple ``fields``; assigning or deleting any of
    them, or a new name, raises AttributeError and changes nothing; its repr
    names the class and each field not ``hidden``; it compares and hashes by
    identity unless ``eq``."""
    assert record._fields == fields
    before = [getattr(record, name) for name in fields]
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert all(getattr(record, name) is value for name, value in zip(fields, before))
    assert not hasattr(record, "not_a_field")
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields if name not in hidden)
    assert repr(record) == f"{type(record).__name__}({shown})"
    identity = (type(record).__eq__, type(record).__hash__) == (object.__eq__, object.__hash__)
    assert identity is not eq


def assert_value_record(cls, values: tuple, changed: tuple):
    """Two ``cls(*values)`` are equal and hash as the tuple ``values``; one
    field ``changed`` makes them unequal; neither the tuple nor an object of
    another type with the same fields equals a record."""
    a, b, c = cls(*values), cls(*values), cls(*changed)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert a != c and not a == c
    assert a != values and a.__eq__(values) is NotImplemented
    assert a != SimpleNamespace(**dict(zip(a._fields, values)))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * (r.diagonal() / np.abs(r.diagonal()))[None, :]


def random_generic_spec(rng: np.random.Generator) -> ProcessSpec:
    """Random in/out pairs with well-conditioned (independent) inputs."""
    dim_a = int(rng.integers(2, 4))
    dim_b = int(rng.integers(2, 4))
    n = int(rng.integers(1, 5))
    while True:
        inputs = [random_state((dim_a, dim_b), rng) for _ in range(n)]
        gram = np.array(
            [[np.vdot(a.vector, b.vector) for b in inputs] for a in inputs]
        )
        if np.linalg.eigvalsh(gram)[0] > 1e-6:
            break
    outputs = [random_state((dim_a, dim_b), rng) for _ in range(n)]
    return ProcessSpec(dim_a, dim_b, tuple(zip(inputs, outputs)))


def random_realizable_spec(
    rng: np.random.Generator,
) -> tuple[ProcessSpec, np.ndarray]:
    """Spec known to be realizable, built from the dilation the engine must find.

    Draw random outputs b_i and random unit environment vectors s_i; the
    admissible input overlaps are then forced to <b_i|b_j><s_i|s_j>, and a
    Cholesky factor of that Gram matrix provides concrete inputs.  Returns
    the spec together with the environment Gram matrix <s_i|s_j> it was
    built from.
    """
    while True:
        dim_a = int(rng.integers(2, 4))
        dim_b = int(rng.integers(2, 4))
        d = dim_a * dim_b
        n = int(rng.integers(1, 5))
        r = int(rng.integers(1, n + 1))
        outputs = [random_state((dim_a, dim_b), rng) for _ in range(n)]
        sig = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        sig = sig / np.linalg.norm(sig, axis=0)[None, :]
        env_gram = sig.conj().T @ sig
        g_out = np.array(
            [[np.vdot(a.vector, b.vector) for b in outputs] for a in outputs]
        )
        g_in = g_out * env_gram
        if np.linalg.eigvalsh((g_in + g_in.conj().T) / 2.0)[0] <= 1e-6:
            continue
        factor = np.linalg.cholesky(g_in).conj().T  # g_in = factor^H factor
        inputs = []
        for i in range(n):
            vec = np.zeros(d, dtype=np.complex128)
            vec[:n] = factor[:, i]
            inputs.append(PureState((dim_a, dim_b), vec / np.linalg.norm(vec)))
        return ProcessSpec(dim_a, dim_b, tuple(zip(inputs, outputs))), env_gram


def random_factored_spec(rng: np.random.Generator) -> ProcessSpec:
    """Random pairs on 2x2, 2x3 or 3x2 that probe the catalyst checks.

    n is 1 to 4.  A state is entangled with probability 0.15, otherwise a
    product whose A and B factors come from a pool of two per side with
    probability 3/4 (so pairs share factors) or are fresh.  An output keeps
    its input's A factor, times a phase, with probability 1/2.  A kept A
    factor (with probability 1/2), a pooled factor (1/4) or a product state
    (0.15) is nudged off by 10^-8 to 10^-1, which puts Schmidt coefficients
    and fidelities on either side of every tolerance.  Inputs are redrawn
    until they are independent.
    """
    dim_a, dim_b = ((2, 2), (2, 3), (3, 2))[int(rng.integers(3))]

    def unit(dim, scale=1.0, around=0.0):
        v = around + scale * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        return v / np.linalg.norm(v)

    pool_a = [unit(dim_a), unit(dim_a)]
    pool_b = [unit(dim_b), unit(dim_b)]

    def nudged(vec, chance):
        if rng.random() >= chance:
            return vec
        return unit(vec.size, 10.0 ** rng.uniform(-8.0, -1.0) / 2.0, vec)

    def factor(pool):
        if rng.random() < 0.75:
            return nudged(pool[int(rng.integers(2))], 0.25)
        return unit(pool[0].size)

    def state(keep=None):
        """A state and its A factor (None when entangled)."""
        if rng.random() < 0.15:
            return unit(dim_a * dim_b), None
        if keep is not None and rng.random() < 0.5:
            a = nudged(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * keep, 0.5)
        else:
            a = factor(pool_a)
        return nudged(np.multiply.outer(a, factor(pool_b)).ravel(), 0.15), a

    n = int(rng.integers(1, 5))
    while True:
        pairs = []
        for _ in range(n):
            vin, a = state()
            vout = state(a)[0]
            pairs.append(tuple(PureState((dim_a, dim_b), v) for v in (vin, vout)))
        spec = ProcessSpec(dim_a, dim_b, tuple(pairs))
        # the rule that once refused a dependent family's span
        if np.linalg.eigvalsh(spec.input_matrix().conj().T @ spec.input_matrix())[0] <= 1e-9:
            continue
        return spec


def chordal_spec(seed: int, realizable: bool = True, rank_one: bool = False) -> ProcessSpec:
    """Four pairs on 2x3 whose one free environment overlap is (0, 1).

    The outputs' overlaps have moduli 0.2 to 0.3, zero on (0, 1), and the
    inputs' are theirs times the environment overlaps, so the pattern is
    chordal.  A realizable spec takes its environment states from a
    dilation (a random part mixed with a private one), and the fill closes
    (0, 1) over S = {2, 3}.  With ``rank_one`` the environment states differ
    by phases only, G = p p^H, so the block on S is singular and the fill's
    rank cut decides (0, 1).  Otherwise the forced environment overlaps have
    moduli 0.8 to 0.95 and their block on {1, 2, 3} has an eigenvalue at
    most -0.2: a psd_violation.
    """
    rng = np.random.default_rng(seed)
    n, dims = 4, (2, 3)

    def overlaps(lo, hi):
        g = np.eye(n, dtype=np.complex128)
        for i, j in zip(*np.triu_indices(n, 1)):
            if (i, j) != (0, 1):
                g[i, j] = rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())
                g[j, i] = np.conj(g[i, j])
        return g

    g_out = overlaps(0.2, 0.3)
    if rank_one:
        p = np.exp(2j * np.pi * rng.uniform(size=n))
        e_gram = np.outer(p, p.conj())
    elif realizable:
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        env = np.vstack([np.sqrt(0.7) * t / np.linalg.norm(t, axis=0), np.sqrt(0.3) * np.eye(n)])
        e_gram = env.conj().T @ env
    else:
        while True:
            e_gram = overlaps(0.8, 0.95)
            if np.linalg.eigvalsh(e_gram[1:, 1:])[0] <= -0.2:
                break
    inputs, outputs = (
        random_unitary(rng, 6)[:, :n] @ np.linalg.cholesky(g).conj().T
        for g in (g_out * e_gram, g_out)
    )
    pairs = tuple((PureState(dims, a), PureState(dims, b)) for a, b in zip(inputs.T, outputs.T))
    return ProcessSpec(*dims, pairs)


def _mcs_cliques(known: np.ndarray) -> list[list[int]] | None:
    """Maximum-cardinality search from index 0 (lowest index on ties): each
    index with its earlier-visited neighbours, or None at the first such
    list that is not a clique (the pattern is not chordal)."""
    weight = np.zeros(known.shape[0], dtype=np.int64)
    order, cliques = [], []
    for _ in range(known.shape[0]):
        v = int(np.argmax(weight))
        clique = [v] + [w for w in order if known[v, w]]
        if not known[np.ix_(clique, clique)].all():
            return None
        cliques.append(clique)
        order.append(v)
        weight += known[v]
        weight[order] = -1
    return cliques


def _fill(g: np.ndarray, known: np.ndarray, order: list[int], tol: float, pinv: bool) -> None:
    """G_vw = G_vS G_SS^+ G_Sw over the common neighbours S, in visit order:
    G_SS^+ G_Sw by one least-squares solve, or with ``pinv`` by the Hermitian
    pseudo-inverse, both cutting at ``tol`` times the largest singular value."""
    for k, v in enumerate(order):
        for w in order[:k]:
            if not known[v, w]:
                s = np.flatnonzero(known[v] & known[w])
                z = 0.0
                if s.size and pinv:
                    z = g[v, s] @ np.linalg.pinv(g[np.ix_(s, s)], rcond=tol, hermitian=True) @ g[s, w]
                elif s.size:
                    z = g[v, s] @ np.linalg.lstsq(g[np.ix_(s, s)], g[s, w], rcond=tol)[0]
                g[v, w], g[w, v] = z, np.conj(z)
                known[v, w] = known[w, v] = True


def clique_first_completion(eg: EnvironmentGram, tol: float, pinv: bool = False):
    """The completion rule with every determined clique's eigenvalues taken
    before the fill, in plain numpy: (status, completed Gram or None,
    (reason, pair, magnitude) or None).

    Coherent patterns get ones; a chordal pattern is Infeasible when a clique
    has an eigenvalue below -tol and is filled otherwise; a 4-cycle gets its
    chord from the two triangle disks, then the fill; any other pattern is
    Infeasible on a determined triangle below -tol, else Undetermined.  A
    filled matrix is Realizable when its smallest eigenvalue is at least -tol.
    With ``pinv`` each fill takes the pseudo-inverse instead of one solve.
    """
    n = eg.n
    g = np.where(eg.known, eg.values, 1.0)
    off = ~np.eye(n, dtype=bool)
    known = np.array(eg.known)
    if (np.abs(g - 1.0)[off] <= tol).all():
        order = None
    elif (cliques := _mcs_cliques(known)) is not None:
        worst = min(np.linalg.eigvalsh(g[np.ix_(c, c)])[0] for c in cliques)
        if worst < -tol:
            return "infeasible", None, ("psd_violation", None, float(-worst))
        order = [c[0] for c in cliques]
    elif n == 4:
        (u, v), (k, l) = [(i, j) for i, j in itertools.combinations(range(4), 2) if not known[i, j]]
        (c1, c2), (r1, r2) = zip(*(
            (g[u, m] * g[m, v], math.sqrt(max(0.0, (1.0 - abs(g[u, m]) ** 2) * (1.0 - abs(g[m, v]) ** 2))))
            for m in (k, l)
        ))
        dist = abs(c1 - c2)
        gap = dist - r1 - r2
        if gap > tol:
            return "infeasible", None, ("cycle_violation", (u, v), gap)
        z = c1 if dist <= r2 + tol else c2 if dist <= r1 + tol else c1 + r1 * (c2 - c1) / dist
        g[u, v], g[v, u] = z, np.conj(z)
        known[u, v] = known[v, u] = True
        order = [c[0] for c in _mcs_cliques(known)]
    else:
        triangles = [t for t in itertools.combinations(range(n), 3) if known[np.ix_(t, t)].all()]
        worst = min((np.linalg.eigvalsh(g[np.ix_(t, t)])[0] for t in triangles), default=1.0)
        if worst < -tol:
            return "infeasible", None, ("psd_violation", None, float(-worst))
        return "undetermined", None, None
    if order is not None:
        _fill(g, known, order, tol, pinv)
    if np.linalg.eigvalsh(g)[0] >= -tol:
        return "realizable", g, None
    return "undetermined", None, None


def trace_out_environment(vec: np.ndarray, env_dim: int) -> np.ndarray:
    """System density matrix of a pure system(x)environment vector."""
    w = vec.reshape(-1, env_dim)
    return w @ w.conj().T


def near_dependent_identity_spec() -> ProcessSpec:
    """Identity on |00>, |11> and |0>(|0> + 0.1|1>)/norm.

    The inputs are independent (smallest Gram eigenvalue 4.96e-3) but
    closer to dependence than a loose user tolerance such as 1e-2.
    """
    tilted = PureState((2,), np.array([1.0, 0.1]) / np.hypot(1.0, 0.1))
    inputs = (ket("00"), ket("11"), tensor(ket("0"), tilted))
    return ProcessSpec(2, 2, tuple((a, a) for a in inputs))


def controlled_unitary_spec(seed: int) -> ProcessSpec:
    """Four pairs |k> (x) s_kj -> |k> (x) U_k s_kj on two qubits, k, j in {0, 1}.

    U_0 = I, and U_1 and the unit B states s_kj are drawn from ``seed``.  The
    A factor is returned untouched and every overlap is kept, so the process
    is a coherent catalysis; the four inputs span the whole space, so only
    the closed-form full-span witness of the product-vector stage reaches
    its best.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for k, u in enumerate((np.eye(2), random_unitary(rng, 2))):
        for _ in range(2):
            s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            s /= np.linalg.norm(s)
            pairs.append(tuple(PureState((2, 2), np.kron(np.eye(2)[k], t)) for t in (s, u @ s)))
    return ProcessSpec(2, 2, tuple(pairs))


def reference_radius(unitary: np.ndarray) -> float:
    """Best output concurrence of a product input under a two-qubit unitary.

    In the magic basis e_1 = (|00> + |11>)/sqrt2, e_2 = i(|00> - |11>)/sqrt2,
    e_3 = i(|01> + |10>)/sqrt2, e_4 = (|01> - |10>)/sqrt2 (Hill and Wootters,
    PRL 78, 5022, 1997) the unitary reads M, and the best concurrence is the
    radius of the smallest circle around the eigenvalues of M^T M, which lie
    on the unit circle: 1 when no gap between neighbouring eigenvalue angles
    exceeds pi (0 is inside their hull), else sin of half the largest gap
    (the circle on the two ends of the arc that holds them all).
    """
    magic = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]) / math.sqrt(2.0)
    m = magic.conj().T @ unitary @ magic
    angles = np.sort(np.angle(np.linalg.eigvals(m.T @ m)))
    gap = np.diff(angles, append=angles[0] + 2.0 * math.pi).max()
    return 1.0 if gap <= math.pi else math.sin(gap / 2.0)


def undetermined_cycle_spec() -> ProcessSpec:
    """Five pairs on 2x3 whose nonzero overlaps form a 5-cycle, with one
    forced environment overlap 1/2: not coherent, not chordal, and no exact
    completion rule applies, so the verdict is undetermined."""
    cycle = np.roll(np.eye(5), 1, axis=1)
    g_out = np.eye(5) + 0.3 * (cycle + cycle.T)
    env = np.ones((5, 5))
    env[0, 1] = env[1, 0] = 0.5
    families = []
    for g in (g_out * env, g_out):
        factor = np.linalg.cholesky(g).T
        families.append([np.concatenate([factor[:, i], [0.0]]) for i in range(5)])
    pairs = tuple((PureState((2, 3), a), PureState((2, 3), b)) for a, b in zip(*families))
    return ProcessSpec(2, 3, pairs)


def batched_protocol_figures(name: str, seed: int) -> tuple[float, float | None, float]:
    """Minimum branch fidelity, maximum |p - 1/4| (teleport only; None for
    nonlocal-cnot) and maximum |sum p - 1| over the scenario's inputs, taken
    from one batched kernel call on all of them instead of one call per input."""
    rng = np.random.default_rng(seed)
    if name == "teleport":
        inputs = random_states((2,), _PROTOCOL_INPUTS, rng)
        amplitudes, wanted = _teleport_rows(inputs), inputs
    else:
        inputs = random_states((2, 2), _PROTOCOL_INPUTS, rng)
        # CNOT with the first qubit as control swaps the |10> and |11> amplitudes
        amplitudes, wanted = _nonlocal_cnot_rows(inputs), inputs[:, [0, 1, 3, 2]]
    probs = np.einsum("bik,bik->bk", amplitudes.conj(), amplitudes).real
    posts = amplitudes / np.sqrt(probs)[:, None, :]
    fids = np.minimum(np.abs(np.einsum("bik,ki->bk", posts.conj(), wanted)) ** 2, 1.0)
    prob_err = float(np.max(np.abs(probs - 0.25))) if name == "teleport" else None
    return float(fids.min()), prob_err, float(np.max(np.abs(probs.sum(axis=0) - 1.0)))


# the shrinking-grid refinement of the rank-3 scan's starts, a lower bound
# that its Newton ascent must reach: rounds of a 9x9 local grid in the
# tangent plane of each start
REFERENCE_STEP = 0.04
REFERENCE_ROUNDS = 5
REFERENCE_SHRINK = 6.0
REFERENCE_OFFSETS = (
    np.linspace(-1.0, 1.0, 9)[:, None] + 1j * np.linspace(-1.0, 1.0, 9)[None, :]
).ravel()
# the columns conj(x[::-1]) * REFERENCE_TANGENT_SIGNS are orthogonal to the columns x
REFERENCE_TANGENT_SIGNS = np.array([[-1.0], [1.0]])


def reference_scan(score) -> np.ndarray:
    """The unit spinor of the grid refinement, a lower bound on analyzer._scan.

    ``score`` maps a (2, N) batch of column spinors to N scores.  The same
    grid, neighbour table and starts as the scan, then per round a 9x9 grid
    x + t x_perp around every start, each moving to its best point (the
    first on a tie) with the step shrunk by REFERENCE_SHRINK per round; the
    first start within analyzer._START_MARGIN of the best one wins.
    """
    grid, neighbours = analyzer._scan_tables()[:2]
    grid_scores = score(grid)
    peaks = np.flatnonzero(grid_scores >= grid_scores[neighbours].max(axis=0))
    peaks = peaks[np.argsort(-grid_scores[peaks], kind="stable")[: analyzer._MAX_STARTS]]
    x = grid[:, peaks]
    starts = np.arange(len(peaks))
    step = REFERENCE_STEP
    for _ in range(REFERENCE_ROUNDS):
        perp = x[::-1].conj() * REFERENCE_TANGENT_SIGNS
        cand = x[:, :, None] + perp[:, :, None] * (step * REFERENCE_OFFSETS)
        scores = score(cand.reshape(2, -1)).reshape(len(starts), -1)
        best = np.argmax(scores, axis=1)
        x = cand[:, starts, best]
        step /= REFERENCE_SHRINK
    final = scores[starts, best]
    x = x[:, int(np.argmax(final >= final.max() - analyzer._START_MARGIN))]
    return x / math.sqrt(abs(x[0]) ** 2 + abs(x[1]) ** 2)


def _full_svd_scores(rows: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """min(2 s0 s1, 1) per row, from full SVDs (with singular vectors)."""
    s = np.linalg.svd(rows.reshape(-1, dim_a, dim_b))[1]
    if s.shape[1] < 2:
        return np.zeros(len(s))
    return np.minimum(2.0 * s[:, 0] * s[:, 1], 1.0)


def _stage_record(spec: ProcessSpec, coeffs: np.ndarray):
    """One stage's record (input, output, concurrence_in, concurrence_out,
    coefficients) of its best separable candidate, or None."""
    in_rows = coeffs @ spec.input_matrix().T
    norms = np.linalg.norm(in_rows, axis=1)
    idx = np.flatnonzero(norms > 1e-12)
    if not idx.size:
        return None
    in_rows = in_rows[idx] / norms[idx, None]
    ent_in = _full_svd_scores(in_rows, spec.dim_a, spec.dim_b)
    sep = ent_in <= analyzer.SEPARABLE_CUTOFF
    if not sep.any():
        return None
    idx, in_rows, ent_in = idx[sep], in_rows[sep], ent_in[sep]
    out_rows = coeffs[idx] @ spec.output_matrix().T
    out_rows = out_rows / np.linalg.norm(out_rows, axis=1)[:, None]
    ent_out = _full_svd_scores(out_rows, spec.dim_a, spec.dim_b)
    best = int(np.argmax(ent_out))
    if ent_out[best] <= analyzer.WITNESS_CUTOFF:
        return None
    row = idx[best]
    return in_rows[best], out_rows[best], ent_in[best], ent_out[best], coeffs[row] / norms[row]


def two_record_witness(spec: ProcessSpec, tol: float = 1e-9):
    """The witness search's selection rule, one record per stage.

    The candidates come from the analyzer's stage functions.  Each stage
    gets its own record from full-SVD scores: the input rows are scored
    first, and only the separable ones have their outputs scored.  The
    canonical stage runs first; the product stage runs unless the canonical
    record reaches 1 - 1e-12, and its record wins only when strictly higher.
    Returns (input, output, concurrence_in, concurrence_out, coefficients)
    or None.
    """
    span_map = spec.span_map
    best = _stage_record(spec, analyzer._stage_candidates_canonical(spec, span_map, tol))
    if best is not None and best[3] >= 1.0 - 1e-12:
        return best
    if (spec.dim_a, spec.dim_b) == (2, 2):
        inputs = analyzer._stage_candidates_2x2(spec)
    else:
        q = spec.span_basis[:, : spec.rank]
        inputs = analyzer._stage_candidates_projected(spec, q @ q.conj().T)
    inputs = np.array(inputs, dtype=np.complex128).reshape(-1, span_map.shape[1])
    found = _stage_record(spec, inputs @ span_map.T)
    if found is not None and (best is None or found[3] > best[3]):
        return found
    return best
