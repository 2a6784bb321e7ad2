"""Regression tests for the product-vector witness search.

Each spec has its witnesses off the canonical candidates (pairwise sums of
the inputs, |+>|0> and |i>|i>), so only the product-vector stage finds them.
"""

import math

import numpy as np
import pytest

from qcatalysis import (
    QUANTUM_CATALYSIS,
    analyzer,
    ProcessSpec,
    PureState,
    apply_process,
    classify,
    cloning_process,
    concurrence,
    decide_feasibility,
    deletion_process,
    deletion_residue,
    find_entangling_witness,
    ket_plus,
    phase_aligned_distance,
    schmidt_coefficients,
)

from helpers import (
    controlled_unitary_spec,
    random_unitary,
    reference_radius,
    reference_scan,
    two_record_witness,
)

SQ2 = 1.0 / math.sqrt(2.0)


def coherent_spec(inputs, unitary, dims=(2, 2)) -> ProcessSpec:
    """Pairs a_i -> U a_i for the columns a_i of ``inputs`` (normalized)."""
    inputs = np.asarray(inputs, dtype=np.complex128)
    inputs = inputs / np.linalg.norm(inputs, axis=0)[None, :]
    outputs = unitary @ inputs
    pairs = tuple(
        (PureState(dims, inputs[:, i]), PureState(dims, outputs[:, i]))
        for i in range(inputs.shape[1])
    )
    return ProcessSpec(dims[0], dims[1], pairs)


def rotated_deletion_spec(seed: int, angles=(0.4, 1.9), dim_b: int = 2) -> ProcessSpec:
    """Deletion with U_A (x) U_B on the inputs and U_A (x) V_B on the outputs.

    The witness moves from |i>|i> to (U_A (x) U_B)|i>|i>, off the canonical
    list.  With dim_b = 3 the qubit B is embedded in the first two levels.
    """
    rng = np.random.default_rng(seed)
    ua, ub, vb = (random_unitary(rng, 2) for _ in range(3))
    spec = deletion_process(
        (deletion_residue(angles[0]), deletion_residue(angles[1]), ket_plus())
    )
    inputs = np.kron(ua, ub) @ spec.input_matrix()
    outputs = np.kron(ua, vb) @ spec.output_matrix()
    if dim_b == 3:
        inputs = np.kron(np.eye(2), np.eye(3, 2)) @ inputs
        outputs = np.kron(np.eye(2), np.eye(3, 2)) @ outputs
    pairs = tuple(
        (PureState((2, dim_b), inputs[:, i]), PureState((2, dim_b), outputs[:, i]))
        for i in range(3)
    )
    return ProcessSpec(2, dim_b, pairs)


def exceptional_line_spec() -> ProcessSpec:
    """Three inputs whose span is the complement of the product |11>.

    The process acts on the span as |00> -> |00>, |10> -> |10>,
    |01> -> |11>.  Its product inputs are x (x) |0>, mapped to products,
    and |0> (x) y, the exceptional line of the A factor |0>, mapped to
    y0|00> + y1|11>.  Every canonical candidate is entangled or of the form
    x (x) |0>, so none is a witness.
    """
    inputs = np.array(
        [[1, 1, 1, 0], [1, -1, 2, 0], [2, 1, -1, 0]], dtype=np.complex128
    ).T
    cnot = np.eye(4)[:, [0, 3, 2, 1]]
    return coherent_spec(inputs, cnot)


def two_product_spec() -> ProcessSpec:
    """Span{|00>, |11>}, whose only product vectors are |00> and |11>.

    |00> maps to a Bell state (concurrence 1) and |11> to
    0.6|00> + 0.8|11> (concurrence 0.96); local unitaries on the inputs and
    on the outputs move both product vectors off the computational basis.
    """
    u = np.zeros((4, 4), dtype=np.complex128)
    u[:, 0] = [0, SQ2, SQ2, 0]
    u[:, 3] = [0.6, 0, 0, 0.8]
    u[:, 1] = [0, SQ2, -SQ2, 0]
    u[:, 2] = [0.8, 0, 0, -0.6]
    inputs = np.array([[1, 0, 0, 1], [1, 0, 0, 1j]], dtype=np.complex128).T
    rng = np.random.default_rng(7)
    local_in = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    local_out = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
    return coherent_spec(local_in @ inputs, local_out @ u @ local_in.conj().T)


def product_span_spec() -> ProcessSpec:
    """A CNOT on the span C^2 (x) y0, where every input is a product.

    With y0 = V|0> for a fixed-seed Haar V, the process maps x (x) y0 to
    CNOT(x (x) |0>).  The inputs |0> (x) y0 and (|0> + 2|1>) (x) y0 / sqrt(5)
    make the pairwise sum a witness of concurrence about 0.89;
    |+> (x) y0, mapped to a Bell state, is no canonical candidate.
    """
    v = random_unitary(np.random.default_rng(13), 2)
    local = np.kron(np.eye(2), v)
    inputs = local @ np.array([[1, 0, 0, 0], [1, 0, 2, 0]], dtype=np.complex128).T
    cnot = np.eye(4)[:, [0, 1, 3, 2]]
    return coherent_spec(inputs, cnot @ local.conj().T)


def full_span_spec() -> ProcessSpec:
    """Four inputs and a fixed-seed Haar unitary: every product is an input.

    The random inputs overlap pairwise, so every environment overlap is
    determined.
    """
    rng = np.random.default_rng(11)
    inputs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return coherent_spec(inputs, random_unitary(rng, 4))


def assert_sound(spec: ProcessSpec, verdict, w) -> None:
    assert w is not None
    if spec.dim_a * spec.dim_b == 4:
        assert concurrence(w.input) <= 1e-9
        assert concurrence(w.output) == pytest.approx(w.concurrence_out, abs=1e-9)
    else:
        assert schmidt_coefficients(w.input)[1] <= 1e-9
    assert w.concurrence_in <= 1e-9
    assert w.concurrence_out > 1e-6
    recomputed = apply_process(spec, verdict, w.input)
    assert phase_aligned_distance(recomputed.vector, w.output.vector) < 1e-9
    synth = spec.input_matrix() @ w.coefficients
    assert np.max(np.abs(synth - w.input.vector)) < 1e-9


SPECS = {
    "rotated-deletion": lambda: rotated_deletion_spec(3),
    "exceptional-line": exceptional_line_spec,
    "two-products": two_product_spec,
    "product-span": product_span_spec,
    "full-span": full_span_spec,
    "rotated-deletion-2x3": lambda: rotated_deletion_spec(3, dim_b=3),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_witness_is_sound_and_repeatable(name):
    spec = SPECS[name]()
    verdict = decide_feasibility(spec)
    first = find_entangling_witness(spec, verdict)
    assert_sound(spec, verdict, first)
    again = find_entangling_witness(spec, verdict)
    np.testing.assert_array_equal(first.input.vector, again.input.vector)
    np.testing.assert_array_equal(first.output.vector, again.output.vector)
    np.testing.assert_array_equal(first.coefficients, again.coefficients)
    assert first.concurrence_out == again.concurrence_out


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_rotated_deletion_is_quantum_catalysis(seed):
    report = classify(rotated_deletion_spec(seed))
    assert report.catalyst_intact
    assert report.classification == QUANTUM_CATALYSIS


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_local_unitaries_keep_the_best_witness(seed):
    # local unitaries map product inputs to product inputs and keep the
    # output concurrence, so the best witness score cannot move
    angles = (0.4, 1.9)
    plain = deletion_process(
        (deletion_residue(angles[0]), deletion_residue(angles[1]), ket_plus())
    )
    best = classify(plain).witness.concurrence_out
    rotated = classify(rotated_deletion_spec(seed, angles)).witness.concurrence_out
    assert rotated == pytest.approx(best, abs=1e-8)


def turned_specs(seed: int, rank: int = 3) -> tuple[ProcessSpec, ProcessSpec]:
    """A random coherent spec a_i -> U a_i of ``rank`` inputs, then the same spec
    with its inputs turned by U_A (x) U_B and its outputs by U_A (x) V_B."""
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    unitary = random_unitary(rng, 4)
    ua, ub, vb = (random_unitary(rng, 2) for _ in range(3))
    turn_in, turn_out = np.kron(ua, ub), np.kron(ua, vb)
    turned = coherent_spec(turn_in @ inputs, turn_out @ unitary @ turn_in.conj().T)
    return coherent_spec(inputs, unitary), turned


@pytest.mark.parametrize("seed", range(700, 760))
def test_local_unitaries_keep_the_best_witness_on_rank3_spans(seed):
    # local unitaries map the product inputs of one span onto the other's
    # and keep their output concurrence, so the best score cannot move; the
    # two scans start from different grid points, and each Newton ascent
    # ends on its peak to rounding
    plain, turned = (
        find_entangling_witness(spec, decide_feasibility(spec)).concurrence_out
        for spec in turned_specs(seed)
    )
    assert turned == pytest.approx(plain, abs=1e-12)


@pytest.mark.parametrize("seed", range(800, 860))
def test_local_unitaries_keep_the_best_witness_on_full_spans(seed):
    # the closed form reads the spectrum of m, which local unitaries keep
    plain, turned = (
        find_entangling_witness(spec, decide_feasibility(spec)).concurrence_out
        for spec in turned_specs(seed, rank=4)
    )
    assert turned == pytest.approx(plain, abs=1e-12)


def test_exceptional_line_witness():
    spec = exceptional_line_spec()
    w = find_entangling_witness(spec, decide_feasibility(spec))
    # the A factor is |0>, the only A factor with entangled images
    assert np.linalg.norm(w.input.vector[2:]) <= 1e-9
    assert w.concurrence_out == pytest.approx(1.0, abs=1e-9)


def test_two_product_span_picks_the_better_product():
    spec = two_product_spec()
    w = find_entangling_witness(spec, decide_feasibility(spec))
    assert w.concurrence_out == pytest.approx(1.0, abs=1e-9)


def test_product_span_beats_the_pairwise_sum():
    spec = product_span_spec()
    w = find_entangling_witness(spec, decide_feasibility(spec))
    assert w.concurrence_out == pytest.approx(1.0, abs=1e-9)


def test_full_span_witness_beats_random_products():
    spec = full_span_spec()
    w = find_entangling_witness(spec, decide_feasibility(spec))
    rng = np.random.default_rng(5)
    xs = rng.standard_normal((20000, 2)) + 1j * rng.standard_normal((20000, 2))
    ys = rng.standard_normal((20000, 2)) + 1j * rng.standard_normal((20000, 2))
    prods = (xs[:, :, None] * ys[:, None, :]).reshape(-1, 4)
    out = prods @ (spec.output_matrix() @ np.linalg.inv(spec.input_matrix())).T
    conc = 2.0 * np.abs(out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2])
    conc = conc / np.sum(np.abs(out) ** 2, axis=1)
    assert w.concurrence_out >= conc.max() - 1e-9


def locally_turned_spec(rng: np.random.Generator, unitary: np.ndarray) -> ProcessSpec:
    """Four random inputs and the unitary between random local unitaries."""
    before, after = (np.kron(random_unitary(rng, 2), random_unitary(rng, 2)) for _ in range(2))
    inputs = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return coherent_spec(inputs, after @ unitary @ before)


SWAP = np.eye(4)[:, [0, 2, 1, 3]]
CNOT = np.eye(4)[:, [0, 1, 3, 2]]
SQRT_SWAP = np.eye(4, dtype=np.complex128)
SQRT_SWAP[1:3, 1:3] = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2.0


def haar_full_spans(count: int) -> list[ProcessSpec]:
    rng = np.random.default_rng(33)
    return [
        coherent_spec(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)), random_unitary(rng, 4))
        for _ in range(count)
    ]


FULL_SPAN_FAMILIES = {
    "controlled-unitary": lambda: [controlled_unitary_spec(seed) for seed in range(40)],
    "haar": lambda: haar_full_spans(200),
    "cnot-class": lambda: [locally_turned_spec(np.random.default_rng(34 + k), CNOT) for k in range(100)],
    "sqrt-swap-class": lambda: [locally_turned_spec(np.random.default_rng(234 + k), SQRT_SWAP) for k in range(100)],
}


# u^T DET u = 2(u0 u3 - u1 u2), whose modulus is the concurrence of a unit u
DET = np.fliplr(np.diag([1.0, -1.0, -1.0, 1.0]))


def best_over_a_factors(spec: ProcessSpec, xs: np.ndarray) -> np.ndarray:
    """Top output concurrence over x (x) C^2 on a full span (plain Takagi), per row x."""
    bases = xs[:, :, None, None] * np.eye(2)[None, None, :, :]  # (N, 2, 2, 2): x_a e_b
    images = spec.output_matrix() @ np.linalg.solve(spec.input_matrix(), bases.reshape(-1, 4, 2))
    q = np.linalg.qr(images)[0]
    return np.linalg.svd(q.transpose(0, 2, 1) @ DET @ q, compute_uv=False)[:, 0]


@pytest.mark.parametrize("family", sorted(FULL_SPAN_FAMILIES))
def test_full_span_witness_is_the_reference_radius(family):
    # the best witness of a full span is the radius of the smallest circle
    # around the spectrum of m, reached by the closed form's one candidate;
    # CNOT and sqrt(SWAP) are perfect entanglers with repeated eigenvalues
    rng = np.random.default_rng(35)
    for spec in FULL_SPAN_FAMILIES[family]():
        radius = reference_radius(spec.output_matrix() @ np.linalg.inv(spec.input_matrix()))
        if family in ("cnot-class", "sqrt-swap-class"):
            assert radius == pytest.approx(1.0, abs=1e-12)
        (candidate,) = analyzer._stage_candidates_2x2(spec)
        assert concurrence(PureState((2, 2), candidate / np.linalg.norm(candidate))) <= 1e-12
        assert abs(output_concurrences(spec, candidate[None])[0] - radius) <= 1e-12
        verdict = decide_feasibility(spec)
        w = find_entangling_witness(spec, verdict)
        assert_sound(spec, verdict, w)
        assert w.concurrence_in <= 1e-12
        assert abs(w.concurrence_out - radius) <= 1e-12
        xs = rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2))
        assert w.concurrence_out >= best_over_a_factors(spec, xs).max() - 1e-13


@pytest.mark.parametrize("core", ["identity", "swap"])
def test_local_maps_have_no_full_span_candidate(core):
    # only local and local∘SWAP unitaries keep every product a product
    rng = np.random.default_rng(36)
    for _ in range(100):
        spec = locally_turned_spec(rng, {"identity": np.eye(4), "swap": SWAP}[core])
        assert analyzer._stage_candidates_2x2(spec) == []
        assert find_entangling_witness(spec, decide_feasibility(spec)) is None


def product_line_spec(rng: np.random.Generator, side: str) -> ProcessSpec:
    """Two random inputs on the line x (x) C^2 (``side`` "a") or C^2 (x) y ("b")
    for a random x or y, sent through a Haar unitary."""
    fixed = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    free = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    inputs = np.kron(fixed, free) if side == "a" else np.kron(free, fixed)
    return coherent_spec(inputs, random_unitary(rng, 4))


@pytest.mark.parametrize("side", ["a", "b"])
def test_product_line_spans_reach_their_best_witness(side):
    # every input of the span is a product, so the best witness is the top
    # singular value of the determinant form on the orthonormalized outputs
    rng = np.random.default_rng(37)
    for _ in range(50):
        spec = product_line_spec(rng, side)
        q = np.linalg.qr(spec.output_matrix())[0]
        best = np.linalg.svd(q.T @ DET @ q, compute_uv=False)[0]
        verdict = decide_feasibility(spec)
        w = find_entangling_witness(spec, verdict)
        assert_sound(spec, verdict, w)
        assert w.concurrence_out == pytest.approx(best, abs=1e-12)


def output_concurrences(spec: ProcessSpec, inputs: np.ndarray) -> np.ndarray:
    """2|ad - bc| of the normalized image of each row of ``inputs`` (in the span)."""
    a, b = spec.input_matrix(), spec.output_matrix()
    out = np.linalg.lstsq(a, inputs.T, rcond=None)[0].T @ b.T
    conc = 2.0 * np.abs(out[:, 0] * out[:, 3] - out[:, 1] * out[:, 2])
    return conc / np.sum(np.abs(out) ** 2, axis=1)


def span_products(spec: ProcessSpec, xs: np.ndarray) -> np.ndarray:
    """The product input x (x) y(x) of a rank-3 span for each row x of ``xs``.

    y(x) spans the null space of the 1x2 row W^H (x (x) I), W the span's
    complement, taken from an SVD of the input matrix.
    """
    w = np.linalg.svd(spec.input_matrix())[0][:, 3]
    row = xs @ w.conj().reshape(2, 2)
    ys = np.column_stack([-row[:, 1], row[:, 0]])
    return (xs[:, :, None] * ys[:, None, :]).reshape(-1, 4)


def scan_score(spec: ProcessSpec, monkeypatch):
    """The score that the 2x2 stage hands to the scan, in its tabulated form,
    as a map from (2, N) batches of column spinors to N scores."""
    seen = []
    scan = analyzer._scan

    def spy(c, gram):
        seen.append((c, gram))
        return scan(c, gram)

    monkeypatch.setattr(analyzer, "_scan", spy)
    analyzer._stage_candidates_2x2(spec)
    monkeypatch.undo()
    assert len(seen) == 1
    c, gram = seen[0]
    return lambda xs: analyzer._quartic_scores(c, gram, *analyzer._spinor_tables(xs))


@pytest.mark.parametrize("rank", [3])
def test_scan_score_is_the_output_concurrence(rank, monkeypatch):
    rng = np.random.default_rng(100 + rank)
    for _ in range(4):
        inputs = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
        spec = coherent_spec(inputs, random_unitary(rng, 4))
        w = spec.span_basis[:, 3].reshape(2, 2)
        assert np.linalg.svd(w, compute_uv=False)[-1] > 1e-3  # entangled complement
        score = scan_score(spec, monkeypatch)
        xs = rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        want = output_concurrences(spec, span_products(spec, xs))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for batch in (xs.T, lam * xs.T):
            np.testing.assert_allclose(score(batch), want, rtol=0, atol=1e-12)


def test_ascent_terms_are_the_derivatives_of_the_log_score():
    # f = log(|p| / h) in the chart x = (1, z): its real gradient is
    # 2 conj(f_z) and its real Hessian has trace 4 f_zzbar and
    # f_aa - f_bb - 2i f_ab = 4 f_zz; central differences check each
    rng = np.random.default_rng(37)
    small, step = 1e-6, 1e-4
    for _ in range(20):
        c = (rng.standard_normal(5) + 1j * rng.standard_normal(5)).tolist()
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        g = (m.conj().T @ m).tolist()
        z = complex(rng.standard_normal(), rng.standard_normal()) / 2.0

        def f(dz):
            return math.log(analyzer._score_terms(c, g, z + dz)[0])

        score, fz, fzz, fzw = analyzer._score_terms(c, g, z)
        p = sum(ck * z**k for k, ck in enumerate(c))
        v = np.array([1.0, z, z * z])
        assert score == pytest.approx(2.0 * abs(p) / (v.conj() @ np.array(g) @ v).real, rel=1e-13)
        grad = complex(f(small) - f(-small), f(1j * small) - f(-1j * small)) / (2.0 * small)
        assert grad == pytest.approx(2.0 * fz.conjugate(), rel=1e-7)
        faa = (f(step) - 2.0 * f(0) + f(-step)) / step**2
        fbb = (f(1j * step) - 2.0 * f(0) + f(-1j * step)) / step**2
        fab = (f(step + 1j * step) - f(step - 1j * step) - f(-step + 1j * step) + f(-step - 1j * step)) / (4.0 * step**2)
        assert complex(faa - fbb, -2.0 * fab) == pytest.approx(4.0 * fzz, rel=1e-4)
        assert faa + fbb == pytest.approx(4.0 * fzw, rel=1e-4)


def test_ascent_terms_vanish_at_a_root_of_the_quartic():
    # p = (2z - 1)(z^3 + 1) is exactly zero at z = 1/2 in Horner's order:
    # there log|p| has no derivatives, and the terms are zero, not a division
    c = [-1.0, 2.0, 0.0, -1.0, 2.0]
    g = np.eye(3, dtype=np.complex128).tolist()
    assert analyzer._score_terms(c, g, 0.5 + 0j) == (0.0, 0j, 0j, 0.0)


def rank3_family(count: int) -> list[ProcessSpec]:
    """Rotated deletions with random residue angles, then random coherent rank-3 specs."""
    rng = np.random.default_rng(41)
    specs = []
    for seed in range(count // 2):
        angles = tuple(rng.uniform(0.0, 2.0 * math.pi, size=2))
        specs.append(rotated_deletion_spec(200 + seed, angles))
    while len(specs) < count:
        inputs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        specs.append(coherent_spec(inputs, random_unitary(rng, 4)))
    return specs


RANK3_FAMILY = rank3_family(40)


@pytest.mark.parametrize("index", range(len(RANK3_FAMILY)))
def test_rank3_witness_beats_random_products(index):
    spec = RANK3_FAMILY[index]
    w = find_entangling_witness(spec, decide_feasibility(spec))
    assert w is not None
    rng = np.random.default_rng(500 + index)
    xs = rng.standard_normal((20000, 2)) + 1j * rng.standard_normal((20000, 2))
    best = output_concurrences(spec, span_products(spec, xs)).max()
    assert w.concurrence_out >= best - 1e-9


def product_complement_spec(rng: np.random.Generator) -> ProcessSpec:
    """Three random inputs spanning the complement of a random product p (x) q."""
    p, q = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
    w = np.kron(p, q) / (np.linalg.norm(p) * np.linalg.norm(q))
    complement = np.linalg.svd(w.conj()[None, :])[2][1:].conj().T
    mix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return coherent_spec(complement @ mix, random_unitary(rng, 4))


def near_named_spec(rng: np.random.Generator, named: np.ndarray) -> ProcessSpec:
    """Three inputs, the first ``named`` moved off by about 1e-4, then two random ones.

    ``named`` lies within 1e-3 of the span but not within 1e-9.
    """
    noise = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    first = named + 1e-4 * noise / np.linalg.norm(noise)
    others = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    return coherent_spec(np.column_stack([first, others]), random_unitary(rng, 4))


def zero_image_spec() -> ProcessSpec:
    """|00> and -v (x) v, v = (c, 0.01), sent to |00> and -|00>.

    Realizable, intact and coherent at tol 1e-3.  The canonical candidate
    a_0 + a_1 is entangled and its image b_0 + b_1 is exactly zero.
    """
    v = np.array([math.sqrt(1.0 - 1e-4), 1e-2])
    zero_zero = np.array([1.0, 0.0, 0.0, 0.0])
    return ProcessSpec(
        2,
        2,
        (
            (PureState((2, 2), zero_zero), PureState((2, 2), zero_zero)),
            (PureState((2, 2), -np.kron(v, v)), PureState((2, 2), -zero_zero)),
        ),
    )


def selection_cases() -> list[tuple[ProcessSpec, float]]:
    """Seeded specs with their tolerance for comparing the two selection rules."""
    rng = np.random.default_rng(61)
    cases = []
    for rank in (1, 2, 3, 4):
        for _ in range(4):
            inputs = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            cases.append(coherent_spec(inputs, random_unitary(rng, 4)))
    cases += [rotated_deletion_spec(seed) for seed in (1, 2, 3, 4)]
    cases += [exceptional_line_spec(), two_product_spec(), product_span_spec(), full_span_spec()]
    cases += [product_complement_spec(rng) for _ in range(3)]
    cases += [deletion_process(), cloning_process(), rotated_deletion_spec(3, dim_b=3)]
    for dims in ((2, 3), (3, 2)):
        for rank in (1, 2, 3, 4):
            inputs = rng.standard_normal((6, rank)) + 1j * rng.standard_normal((6, rank))
            cases.append(coherent_spec(inputs, random_unitary(rng, 6), dims))
    cases = [(spec, 1e-9) for spec in cases]
    plus_zero = np.kron([1.0, 1.0], [1.0, 0.0]) / math.sqrt(2.0)
    circular = np.array([1.0, 1.0j]) * SQ2
    for named in (plus_zero, np.kron(circular, circular)):
        for _ in range(2):
            cases.append((near_named_spec(rng, named), 1e-3))
    cases += [(deletion_process(), 1e-3), (cloning_process(), 1e-3), (zero_image_spec(), 1e-3)]
    return cases


SELECTION_CASES = selection_cases()


@pytest.mark.parametrize("index", range(len(SELECTION_CASES)))
def test_one_record_search_keeps_the_two_record_rule(index):
    spec, tol = SELECTION_CASES[index]
    w = find_entangling_witness(spec, decide_feasibility(spec, tol), tol)
    want = two_record_witness(spec, tol)
    assert (w is None) == (want is None)
    if w is None:
        return
    got = (w.input.vector, w.output.vector, w.concurrence_in, w.concurrence_out, w.coefficients)
    for value, expected in zip(got, want):
        np.testing.assert_allclose(value, expected, rtol=0, atol=1e-12)


def seeded_unit_rows(rng: np.random.Generator, dim_a: int, dim_b: int) -> np.ndarray:
    """1,200 unit rows: 400 Haar-random states, 400 exact products x (x) y and
    400 maximally entangled states (U (x) I) sum_k |kk> / sqrt(dim_a), dim_a <= dim_b."""
    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def unit(v):
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    haar = unit(gaussian(400, dim_a * dim_b))
    products = (unit(gaussian(400, dim_a))[:, :, None] * unit(gaussian(400, dim_b))[:, None, :])
    bell = np.eye(dim_a, dim_b) / math.sqrt(dim_a)
    maximal = np.array([random_unitary(rng, dim_a) @ bell for _ in range(400)])
    return np.concatenate([haar, products.reshape(400, -1), maximal.reshape(400, -1)])


def test_two_qubit_scores_are_the_closed_form_concurrence():
    rows = seeded_unit_rows(np.random.default_rng(30), 2, 2)
    got = analyzer._entanglement_scores(rows, 2, 2)
    s = np.linalg.svd(rows.reshape(-1, 2, 2), compute_uv=False)
    np.testing.assert_allclose(got, np.minimum(2.0 * s[:, 0] * s[:, 1], 1.0), rtol=0, atol=2e-15)
    want = [concurrence(PureState((2, 2), row)) for row in rows]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    assert got.max() == 1.0  # the Bell states clamp to one


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
def test_other_dimensions_keep_the_singular_value_scores(dims):
    rows = seeded_unit_rows(np.random.default_rng(31), *sorted(dims))
    s = np.linalg.svd(rows.reshape(-1, *dims), compute_uv=False)
    want = np.minimum(2.0 * s[:, 0] * s[:, 1], 1.0)
    assert np.array_equal(analyzer._entanglement_scores(rows, *dims), want)


def random_residue_deletions(count: int) -> list[ProcessSpec]:
    rng = np.random.default_rng(32)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(count, 2))
    return [deletion_process((deletion_residue(u), deletion_residue(v), ket_plus())) for u, v in angles]


SCAN_FAMILIES = {
    "deletion": lambda: random_residue_deletions(20),
    "rotated-deletion": lambda: [rotated_deletion_spec(seed) for seed in range(20)],
    "rank3-family": lambda: RANK3_FAMILY,
}


def grid_refinement(spec: ProcessSpec) -> float:
    """The output concurrence at the spinor of the shrinking-grid refinement,
    scored by lstsq images of SVD span products (no analyzer scores)."""
    def score(xs):
        return output_concurrences(spec, span_products(spec, xs.T))

    return float(score(reference_scan(score)[:, None])[0])


@pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
def test_scan_is_never_below_the_grid_refinement(family):
    # every family reaches the rank-3 score, the only one that is scanned
    for spec in SCAN_FAMILIES[family]():
        w = find_entangling_witness(spec, decide_feasibility(spec))
        assert w.concurrence_out >= grid_refinement(spec) - 1e-12
    assert not any(table.flags.writeable for table in analyzer._scan_tables())


def rank3_corpus() -> list[ProcessSpec]:
    """RANK3_FAMILY, both sides of turned_specs 700-759, then 400 random
    coherent rank-3 specs from default_rng(12345)."""
    specs = list(RANK3_FAMILY)
    for seed in range(700, 760):
        specs += turned_specs(seed)
    rng = np.random.default_rng(12345)
    for _ in range(400):
        inputs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        specs.append(coherent_spec(inputs, random_unitary(rng, 4)))
    return specs


def test_rank3_corpus_reaches_its_peaks():
    # the grid refinement falls up to 8.2e-6 short of the peak on this
    # corpus (draw 91 of the random specs); the Newton ascent reaches it
    specs = rank3_corpus()
    assert len(specs) == 560
    found = []
    for spec in specs:
        verdict = decide_feasibility(spec)
        w = find_entangling_witness(spec, verdict)
        assert_sound(spec, verdict, w)
        assert w.concurrence_out >= grid_refinement(spec) - 1e-12
        found.append(w.concurrence_out)
    assert found[160 + 91] == pytest.approx(0.999999661381, abs=1e-11)


def test_apply_process_refuses_an_input_whose_image_vanishes():
    # a_0 + a_1 is a finite unit input (both coefficients about 70.7) whose
    # image b_0 + b_1 is exactly zero, so there is no output state to return
    spec = zero_image_spec()
    verdict = decide_feasibility(spec, 1e-3)
    total = spec.input_matrix() @ np.ones(2)
    state = PureState((2, 2), total / np.linalg.norm(total))
    with pytest.raises(ValueError, match=r"image vanishes within tolerance \(norm 0\.000e\+00\)"):
        apply_process(spec, verdict, state, 1e-3)


def test_named_state_admission_follows_the_tolerance():
    # |i>|i> lies about 1e-4 off the span: a canonical candidate at 1e-3 only
    circular = np.array([1.0, 1.0j]) * SQ2
    spec = near_named_spec(np.random.default_rng(7), np.kron(circular, circular))
    for tol, extra in ((1e-9, 0), (1e-3, 1)):
        rows = analyzer._stage_candidates_canonical(spec, spec.span_map, tol)
        assert rows.shape == (3 + extra, 3)
    named = analyzer._stage_candidates_canonical(spec, spec.span_map, 1e-3)[-1]
    assert np.linalg.norm(spec.input_matrix() @ named - np.kron(circular, circular)) <= 1e-3


def test_one_record_per_search(monkeypatch):
    built = []
    record = analyzer.WitnessRecord

    def counting(*args, **kwargs):
        built.append(record(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(analyzer, "WitnessRecord", counting)
    # both stages find a witness on the first three specs; on the last two only one does
    plain = deletion_process((deletion_residue(0.4), deletion_residue(1.9), ket_plus()))
    specs = (plain, product_span_spec(), full_span_spec(), rotated_deletion_spec(3), cloning_process())
    for spec in specs:
        built.clear()
        w = find_entangling_witness(spec, decide_feasibility(spec))
        assert w is not None
        assert built == [w]
