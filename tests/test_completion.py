"""Exact PSD completion: regression cases and properties.

Every check here compares ``complete_psd`` with linear algebra done in the
test itself: Gram matrices of explicit vectors, eigenvalues of fully
determined blocks, and the disk condition of a 3x3 unit-diagonal matrix.
"""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chordal_spec, clique_first_completion, random_unitary
from qcatalysis import (
    INFEASIBLE,
    QUANTUM_CATALYSIS,
    REALIZABLE,
    UNDETERMINED,
    EnvironmentGram,
    ProcessSpec,
    PureState,
    classify,
    complete_psd,
    construct_isometry,
    decide_feasibility,
    environment_gram,
    environment_vectors,
    ket,
    ket_plus,
    tensor,
)

TOL = 1e-9


def pattern(values: dict, n: int) -> EnvironmentGram:
    """EnvironmentGram with the given upper-triangle entries determined."""
    g = np.eye(n, dtype=complex)
    known = np.eye(n, dtype=bool)
    for (i, j), v in values.items():
        g[i, j] = v
        g[j, i] = np.conj(v)
        known[i, j] = known[j, i] = True
    return EnvironmentGram(g, known)


def spec_from_grams(g_in: np.ndarray, g_out: np.ndarray) -> ProcessSpec:
    """Four pairs on two qubits whose input and output Gram matrices are given."""
    a, b = (np.linalg.cholesky(g).conj().T for g in (g_in, g_out))
    return ProcessSpec(
        2, 2, tuple((PureState((2, 2), x), PureState((2, 2), y)) for x, y in zip(a.T, b.T))
    )


def assert_isometry_reproduces(spec: ProcessSpec, verdict) -> None:
    v = construct_isometry(spec, verdict)
    sig = environment_vectors(verdict.completed_gram)
    e0 = np.zeros(sig.shape[0], dtype=complex)
    e0[0] = 1.0
    for i, (a, b) in enumerate(spec.pairs):
        got = v @ np.kron(a.vector, e0)
        assert np.max(np.abs(got - np.kron(b.vector, sig[:, i]))) < 1e-9


def disk(a: complex, b: complex) -> tuple[complex, float]:
    """Where z makes [[1, a, z], [a*, 1, b], [z*, b*, 1]] PSD: centre, radius."""
    return a * b, math.sqrt(max(0.0, (1.0 - abs(a) ** 2) * (1.0 - abs(b) ** 2)))


def is_chordal(known: np.ndarray) -> bool:
    """No induced cycle of length four or five (enough for n <= 5).

    On four or five vertices the only 2-regular graph is the cycle, so a
    subset inducing degree two everywhere is a chordless cycle.
    """
    n = known.shape[0]
    adjacent = known & ~np.eye(n, dtype=bool)
    for size in (4, 5):
        for subset in itertools.combinations(range(n), size):
            if np.all(adjacent[np.ix_(subset, subset)].sum(axis=1) == 2):
                return False
    return True


def worst_determined_clique(eg: EnvironmentGram) -> float:
    """Smallest eigenvalue over every fully determined principal block."""
    worst = 1.0
    for size in range(2, eg.n + 1):
        for subset in itertools.combinations(range(eg.n), size):
            block = np.ix_(subset, subset)
            if eg.known[block].all():
                worst = min(worst, float(np.linalg.eigvalsh(eg.values[block])[0]))
    return worst


def cnot_on_span(u_a: np.ndarray, u_b: np.ndarray, v_b: np.ndarray) -> ProcessSpec:
    """|00> -> |00>, |0+> -> |0+>, |10> -> |11>, a CNOT on the span.

    Inputs get the local unitary U_A (x) U_B and outputs U_A (x) V_B.
    """
    left = np.kron(u_a, u_b)
    right = np.kron(u_a, v_b)
    pairs = (
        (ket("00"), ket("00")),
        (tensor(ket("0"), ket_plus()), tensor(ket("0"), ket_plus())),
        (ket("10"), ket("11")),
    )
    return ProcessSpec(
        2,
        2,
        tuple(
            (PureState((2, 2), left @ a.vector), PureState((2, 2), right @ b.vector))
            for a, b in pairs
        ),
    )


class TestKnownDefects:
    def test_feasible_point_between_grid_nodes(self):
        g12 = 0.7 * np.exp(0.123j)
        verdict = complete_psd(pattern({(0, 1): 1.0, (1, 2): g12}, 3))
        assert verdict.status == REALIZABLE
        assert verdict.completed_gram[0, 2] == pytest.approx(1.0 * g12, abs=1e-12)

    def test_cnot_on_span_is_quantum_catalysis(self):
        eye = np.eye(2)
        report = classify(cnot_on_span(eye, eye, eye))
        assert report.coherence_preserving
        assert report.classification == QUANTUM_CATALYSIS

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cnot_on_span_under_local_unitaries(self, seed):
        rng = np.random.default_rng(seed)
        u_a, u_b, v_b = (random_unitary(rng, 2) for _ in range(3))
        report = classify(cnot_on_span(u_a, u_b, v_b))
        assert report.coherence_preserving
        assert report.classification == QUANTUM_CATALYSIS

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_four_pair_rank_one_environment(self, seed):
        # environments e^{i phi_i}: the only completion has rank one, and the
        # free pairs (0, 1) and (2, 3) leave a 4-cycle pattern
        rng = np.random.default_rng(seed)
        phases = np.exp(2j * math.pi * rng.uniform(size=4))
        env = np.outer(phases.conj(), phases)
        while True:
            g_out = np.eye(4, dtype=complex)
            for i, j in ((0, 2), (0, 3), (1, 2), (1, 3)):
                g_out[i, j] = rng.uniform(0.2, 0.5) * np.exp(2j * math.pi * rng.uniform())
                g_out[j, i] = np.conj(g_out[i, j])
            if np.linalg.eigvalsh(g_out)[0] > 0.05:
                break
        spec = spec_from_grams(g_out * env, g_out)
        verdict = decide_feasibility(spec)
        assert verdict.status == REALIZABLE
        np.testing.assert_allclose(verdict.completed_gram, env, atol=1e-9)
        assert_isometry_reproduces(spec, verdict)

    def test_three_free_overlaps_around_bad_triangle(self):
        triangle = {(1, 2): 0.9, (1, 3): 0.9, (2, 3): -0.9}
        eg = pattern(triangle, 4)
        assert eg.free_pairs() == [(0, 1), (0, 2), (0, 3)]
        start = time.perf_counter()
        verdict = complete_psd(eg)
        elapsed = time.perf_counter() - start
        assert verdict.status == INFEASIBLE
        assert verdict.certificate.reason == "psd_violation"
        block = eg.values[1:, 1:]
        assert verdict.certificate.magnitude == pytest.approx(
            -np.linalg.eigvalsh(block)[0], abs=1e-12
        )
        assert elapsed < 0.5

    def test_non_chordal_five_pairs_around_bad_triangle(self):
        # the triangle {0, 1, 2} is not PSD; the cycle 0-2-3-4-0 has no chord
        entries = {
            (0, 1): 0.9,
            (1, 2): 0.9,
            (0, 2): -0.9,
            (2, 3): 0.1,
            (3, 4): 0.1,
            (0, 4): 0.1,
        }
        eg = pattern(entries, 5)
        assert not is_chordal(eg.known)
        verdict = complete_psd(eg)
        assert verdict.status == INFEASIBLE
        cert = verdict.certificate
        assert cert.reason == "psd_violation"
        assert cert.pair is None
        # re-check from the determined block alone
        block = eg.values[:3, :3]
        assert eg.known[:3, :3].all()
        assert cert.magnitude == pytest.approx(-np.linalg.eigvalsh(block)[0], abs=1e-12)
        assert cert.magnitude == pytest.approx(0.8, abs=1e-12)

    def test_four_cycle_with_disjoint_disks(self):
        entries = {(0, 2): 0.9, (1, 2): 0.9, (0, 3): 0.9, (1, 3): -0.9}
        eg = pattern(entries, 4)
        verdict = complete_psd(eg)
        assert verdict.status == INFEASIBLE
        cert = verdict.certificate
        assert cert.reason == "cycle_violation"
        assert cert.pair == (0, 1)
        # re-check from the determined entries alone
        (c1, r1), (c2, r2) = (
            disk(eg.values[0, m], eg.values[m, 1]) for m in (2, 3)
        )
        assert cert.magnitude == pytest.approx(abs(c1 - c2) - r1 - r2, abs=1e-12)
        assert cert.magnitude > 0.0


def random_gram(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    vecs = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    vecs = vecs / np.linalg.norm(vecs, axis=0)[None, :]
    g = vecs.conj().T @ vecs
    np.fill_diagonal(g, 1.0)
    return g


def masked(g: np.ndarray, free_flags) -> EnvironmentGram:
    n = g.shape[0]
    known = np.ones((n, n), dtype=bool)
    for (i, j), free in zip(itertools.combinations(range(n), 2), free_flags):
        if free:
            known[i, j] = known[j, i] = False
    return EnvironmentGram(np.where(known, g, 0.0), known)


@st.composite
def psd_patterns(draw):
    n = draw(st.integers(2, 5))
    rank = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    flags = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return masked(random_gram(np.random.default_rng(seed), n, rank), flags), rank


class TestProperties:
    @given(psd_patterns())
    @settings(max_examples=300, deadline=None)
    def test_psd_gram_is_never_infeasible(self, drawn):
        eg, rank = drawn
        verdict = complete_psd(eg)
        assert verdict.status != INFEASIBLE
        if verdict.status == UNDETERMINED:
            assert eg.n >= 5 and not is_chordal(eg.known)
            return
        g = verdict.completed_gram
        assert np.max(np.abs(g - g.conj().T)) <= 1e-12
        assert np.max(np.abs(g.diagonal() - 1.0)) <= 1e-12
        assert np.max(np.abs(g - eg.values)[eg.known]) == 0.0
        assert np.linalg.eigvalsh(g)[0] >= -TOL
        off_diagonal = eg.known & ~np.eye(eg.n, dtype=bool)
        coherent = np.all(np.abs(eg.values[off_diagonal] - 1.0) <= TOL)
        if rank == eg.n and is_chordal(eg.known) and not coherent:
            # maximum determinant: the inverse vanishes on every free entry
            inv = np.linalg.inv(g)
            assert np.max(np.abs(inv[~eg.known]), initial=0.0) <= 1e-7 * np.max(np.abs(inv))

    @given(
        st.integers(3, 5),
        st.integers(0, 2**32 - 1),
        st.lists(st.booleans(), min_size=10, max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_bad_clique_certificate_rechecks(self, n, seed, flags):
        rng = np.random.default_rng(seed)
        g = random_gram(rng, n, n)
        size = int(rng.integers(3, n + 1))
        clique = sorted(rng.choice(n, size=size, replace=False).tolist())
        while True:
            block = np.eye(size, dtype=complex)
            for i, j in itertools.combinations(range(size), 2):
                block[i, j] = rng.uniform(0.5, 1.0) * np.exp(2j * math.pi * rng.uniform())
                block[j, i] = np.conj(block[i, j])
            if np.linalg.eigvalsh(block)[0] < -1e-3:
                break
        g[np.ix_(clique, clique)] = block
        pairs = list(itertools.combinations(range(n), 2))
        flags = [f and not (i in clique and j in clique) for (i, j), f in zip(pairs, flags)]
        eg = masked(g, flags)
        verdict = complete_psd(eg)
        if verdict.status == UNDETERMINED:
            assert n >= 5 and not is_chordal(eg.known)
            return
        assert verdict.status == INFEASIBLE
        cert = verdict.certificate
        assert cert.reason == "psd_violation"
        assert cert.magnitude >= -np.linalg.eigvalsh(block)[0] - TOL
        assert cert.magnitude == pytest.approx(-worst_determined_clique(eg), abs=1e-12)

    def test_planted_bad_triangle_on_five_pairs_is_infeasible(self):
        # 200 seeded 5-pair patterns: a non-PSD determined triangle at random
        # indices, random determined overlaps elsewhere, random free pairs
        rng = np.random.default_rng(20261018)
        pairs = list(itertools.combinations(range(5), 2))
        non_chordal = 0
        for _ in range(200):
            g = random_gram(rng, 5, int(rng.integers(1, 6)))
            triangle = sorted(rng.choice(5, size=3, replace=False).tolist())
            while True:
                block = np.eye(3, dtype=complex)
                for i, j in itertools.combinations(range(3), 2):
                    block[i, j] = rng.uniform(0.5, 1.0) * np.exp(2j * math.pi * rng.uniform())
                    block[j, i] = np.conj(block[i, j])
                if np.linalg.eigvalsh(block)[0] < -1e-3:
                    break
            g[np.ix_(triangle, triangle)] = block
            flags = [
                bool(rng.integers(2)) and not (i in triangle and j in triangle)
                for i, j in pairs
            ]
            eg = masked(g, flags)
            non_chordal += not is_chordal(eg.known)
            verdict = complete_psd(eg)
            assert verdict.status == INFEASIBLE
            cert = verdict.certificate
            assert cert.reason == "psd_violation"
            assert cert.magnitude >= -np.linalg.eigvalsh(block)[0] - TOL
            assert cert.magnitude == pytest.approx(-worst_determined_clique(eg), abs=1e-12)
        # the sweep reaches the patterns no chordal rule covers
        assert non_chordal >= 20

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_four_cycle_verdict_is_exact(self, seed):
        # random determined overlaps on the cycle 0-2-1-3-0: a completion
        # exists exactly when the two disks of the chord (0, 1) meet
        rng = np.random.default_rng(seed)
        entries = {
            pair: rng.uniform(0.0, 1.0) * np.exp(2j * math.pi * rng.uniform())
            for pair in ((0, 2), (1, 2), (0, 3), (1, 3))
        }
        eg = pattern(entries, 4)
        (c1, r1), (c2, r2) = (disk(eg.values[0, m], eg.values[m, 1]) for m in (2, 3))
        gap = abs(c1 - c2) - r1 - r2
        verdict = complete_psd(eg)
        if gap > TOL:
            assert verdict.status == INFEASIBLE
            assert verdict.certificate.reason == "cycle_violation"
            assert verdict.certificate.magnitude == pytest.approx(gap, abs=1e-12)
            return
        assert verdict.status == REALIZABLE
        g = verdict.completed_gram
        assert np.max(np.abs(g - eg.values)[eg.known]) == 0.0
        assert np.linalg.eigvalsh(g)[0] >= -TOL


def drawn_values(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """Hermitian, unit diagonal, moduli at most one: a Gram matrix of random
    rank, arbitrary moduli, moduli and phases 1e-13 to 1e-1 off one, or the
    rank-one phases e^{i(p_i - p_j)} with up to two entries replaced."""
    if kind == "gram":
        return random_gram(rng, n, int(rng.integers(1, n + 1)))
    if kind == "rank-one":
        p = np.exp(2j * math.pi * rng.uniform(size=n))
        g = np.outer(p, p.conj())
        for _ in range(int(rng.integers(3))):
            i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
            g[i, j] = rng.uniform() * np.exp(2j * math.pi * rng.uniform())
            g[j, i] = np.conj(g[i, j])
        return g
    if kind == "arbitrary":
        g = rng.uniform(size=(n, n)) * np.exp(2j * math.pi * rng.uniform(size=(n, n)))
    else:  # near-coherent
        eps = 10.0 ** rng.uniform(-13.0, -1.0, size=(n, n))
        g = (1.0 - eps * rng.uniform(size=(n, n))) * np.exp(1j * eps * rng.standard_normal((n, n)))
    g = np.triu(g, 1)
    return g + g.conj().T + np.eye(n)


def seeded_patterns(kind: str, tol: float, *salt: int):
    """60 seeded patterns, n = 2-7 with random masks, of ``drawn_values`` kind."""
    rng = np.random.default_rng([20261019, int(-math.log10(tol) * 100), len(kind), *salt])
    for _ in range(60):
        n = int(rng.integers(2, 8))
        free = rng.uniform(size=n * (n - 1) // 2) < rng.uniform(0.0, 0.7)
        yield masked(drawn_values(rng, n, kind), free)


class TestRuleOrder:
    """The fill comes first and the clique eigenvalues only certify a failed
    check; the verdicts, completions and certificates are those of the rule
    that takes the clique eigenvalues first."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.42])
    @pytest.mark.parametrize("kind", ["gram", "arbitrary", "near-coherent", "rank-one"])
    def test_same_answers_as_clique_first_reference(self, kind, tol):
        statuses = set()
        for eg in seeded_patterns(kind, tol):
            verdict = complete_psd(eg, tol)
            status, gram, cert = clique_first_completion(eg, tol)
            assert verdict.status == status
            statuses.add(status)
            if gram is not None:
                assert verdict.completed_gram.tobytes() == gram.tobytes()
            c = verdict.certificate
            got = None if c is None else (c.reason, c.pair, repr(c.magnitude))
            assert got == (None if cert is None else (cert[0], cert[1], repr(cert[2])))
        assert REALIZABLE in statuses

    def test_realizable_chordal_pattern_takes_one_eigenvalue_call(self, monkeypatch):
        eg = pattern({(0, 2): 0.3, (1, 2): 0.4j, (0, 3): -0.2, (1, 3): 0.1, (2, 3): 0.25}, 4)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        verdict = complete_psd(eg)
        assert verdict.status == REALIZABLE
        assert calls == [(4, 4)]


class TestChordalFill:
    """Each free entry of a chordal pattern is one least-squares solve over
    its clique: the pseudo-inverse fill, with the same rank cut."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.42])
    @pytest.mark.parametrize("kind", ["gram", "arbitrary", "near-coherent", "rank-one"])
    def test_fill_matches_pseudo_inverse_reference(self, kind, tol):
        # the cut keeps blocks of condition number up to 1/tol, so explicit
        # pseudo-inverses may err by about eps/tol; the solve does not, and
        # may pass its check where the reference's fill failed it
        bound = max(1e-13, 16.0 * np.finfo(float).eps / tol)
        statuses = set()
        for eg in seeded_patterns(kind, tol, 1):
            verdict = complete_psd(eg, tol)
            status, gram, cert = clique_first_completion(eg, tol, pinv=True)
            assert verdict.status == status or (status, verdict.status) == (UNDETERMINED, REALIZABLE)
            statuses.add(status)
            if gram is not None:
                assert np.max(np.abs(verdict.completed_gram - gram)) <= bound
            c = verdict.certificate
            got = None if c is None else (c.reason, c.pair, repr(c.magnitude))
            assert got == (None if cert is None else (cert[0], cert[1], repr(cert[2])))
        assert REALIZABLE in statuses

    def test_one_free_overlap_takes_one_solve(self, monkeypatch):
        eg = pattern({(0, 2): 0.3, (1, 2): 0.4j, (0, 3): -0.2, (1, 3): 0.1, (2, 3): 0.25}, 4)
        calls = []
        lstsq = np.linalg.lstsq

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return lstsq(a, *args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("the fill takes no pseudo-inverse")

        monkeypatch.setattr(np.linalg, "lstsq", counted)
        monkeypatch.setattr(np.linalg, "pinv", refused)
        verdict = complete_psd(eg)
        assert verdict.status == REALIZABLE
        assert calls == [(2, 2)]

    @pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.42])
    def test_singular_clique_fills_the_rank_one_gram(self, tol):
        # environment states that differ by phases only: the block on the
        # common neighbours {2, 3} of the free pair (0, 1) is rank one, so
        # the rank cut decides the fill, which must give p_0 conj(p_1)
        eg = environment_gram(chordal_spec(0, rank_one=True))
        assert eg.free_pairs() == [(0, 1)]
        u = np.where(eg.known[:, 2], eg.values[:, 2], 0.0)  # p_i conj(p_2)
        verdict = complete_psd(eg, tol)
        assert verdict.status == REALIZABLE
        assert np.max(np.abs(verdict.completed_gram - np.outer(u, u.conj()))) <= 1e-12
