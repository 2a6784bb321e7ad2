"""The input span of a spec, on independent and dependent families.

An independent family's span is one complete QR of its inputs, as it
always was.  A dependent family's span rests on its earliest independent
inputs, and every layer that reads the span serves it.
"""

import math

import numpy as np
import pytest

from helpers import (
    chordal_spec,
    controlled_unitary_spec,
    random_generic_spec,
    random_realizable_spec,
    random_unitary,
)
import qcatalysis.analyzer as analyzer
from qcatalysis import (
    INFEASIBLE,
    ProcessSpec,
    PureState,
    apply_process,
    classify,
    cloning_process,
    construct_isometry,
    decide_feasibility,
    deletion_process,
    deletion_residue,
    environment_vectors,
    find_entangling_witness,
    ket,
    ket_plus,
    output_density,
    phase_aligned_distance,
    random_states,
)
from test_witness_search import RANK3_FAMILY, coherent_spec, rotated_deletion_spec


def independent_specs():
    """240 seeded independent specs from every generator of the suite."""
    specs = [cloning_process(), deletion_process(), *RANK3_FAMILY]
    for seed in range(50):
        rng = np.random.default_rng(seed)
        specs += [random_generic_spec(rng), random_realizable_spec(rng)[0]]
        specs.append(chordal_spec(seed, realizable=seed % 2 == 0))
    specs += [controlled_unitary_spec(seed) for seed in range(48)]
    return specs


def test_independent_span_is_one_plain_qr():
    specs = independent_specs()
    assert len(specs) >= 200
    for spec in specs:
        a, n = spec.input_matrix(), spec.n
        assert spec.rank == n
        q, r = np.linalg.qr(a, mode="complete")
        assert np.array_equal(spec.span_basis, q)
        assert np.array_equal(spec.span_map, np.linalg.solve(r[:n], q[:, :n].conj().T))


def rank3_dependent_spec(seed: int) -> ProcessSpec:
    """Five unit inputs in a random 3-dimensional subspace of C^2 (x) C^2,
    mapped by a Haar unitary."""
    rng = np.random.default_rng(seed)
    basis = np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))[0]
    inputs = basis @ (rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)))
    return coherent_spec(inputs, random_unitary(rng, 4))


def assert_isometry_reproduces_pairs(spec, verdict):
    v = construct_isometry(spec, verdict)
    sig = environment_vectors(verdict.completed_gram)
    e0 = np.eye(sig.shape[0])[0]
    for i, (a, b) in enumerate(spec.pairs):
        assert np.max(np.abs(v @ np.kron(a.vector, e0) - np.kron(b.vector, sig[:, i]))) < 1e-9


def test_rank3_dependent_families_are_served():
    for seed in range(100):
        spec = rank3_dependent_spec(seed)
        verdict = decide_feasibility(spec)
        assert spec.rank == 3
        w = find_entangling_witness(spec, verdict)
        assert w is not None
        # the first three inputs span the same space
        first = ProcessSpec(2, 2, spec.pairs[:3])
        alone = find_entangling_witness(first, decide_feasibility(first))
        assert w.concurrence_out == pytest.approx(alone.concurrence_out, abs=1e-6)
        out = apply_process(spec, verdict, w.input)
        assert phase_aligned_distance(out.vector, w.output.vector) < 1e-9
        assert_isometry_reproduces_pairs(spec, verdict)


def test_full_span_dependent_families_compile():
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        n = 5 + seed % 3
        inputs = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        spec = coherent_spec(inputs, random_unitary(rng, 4))
        verdict = decide_feasibility(spec)
        assert verdict.is_realizable
        assert spec.rank == 4
        assert_isometry_reproduces_pairs(spec, verdict)


def test_bobs_deletion_task_alone_is_infeasible():
    # Bob's own task puts three states in C^2: |0>, |1>, |+> -> r(0.4),
    # r(1.9), |+>, with no catalyst (dim_a = 1)
    def bob(state):
        return PureState((1, 2), state.vector)

    outputs = (deletion_residue(0.4), deletion_residue(1.9), ket_plus())
    spec = ProcessSpec(1, 2, tuple(
        (bob(s), bob(r)) for s, r in zip((ket("0"), ket("1"), ket_plus()), outputs)
    ))
    assert spec.rank == 2
    verdict = decide_feasibility(spec)
    assert verdict.status == INFEASIBLE
    assert verdict.certificate.reason == "psd_violation"
    assert verdict.certificate.magnitude == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)


def test_permuted_pairs_keep_the_answer():
    # the span decides, not the subset of inputs it keeps
    seen = set()
    for seed in range(60):
        rng = np.random.default_rng(300 + seed)
        if seed % 2:
            makers = (cloning_process, deletion_process, lambda: rotated_deletion_spec(seed))
            base = makers[seed // 2 % 3]()
            repeated = rng.integers(3, size=1 + seed % 3)
            spec = ProcessSpec(2, 2, base.pairs + tuple(base.pairs[i] for i in repeated))
        else:
            spec = rank3_dependent_spec(300 + seed)
        turned = ProcessSpec(2, 2, tuple(spec.pairs[i] for i in rng.permutation(spec.n)))
        assert spec.rank < spec.n
        got = []
        for s in (spec, turned):
            report = classify(s)
            got.append((report.classification, find_entangling_witness(s, report.verdict)))
        assert got[0][0] == got[1][0]
        assert got[0][1].concurrence_out == pytest.approx(got[1][1].concurrence_out, abs=1e-9)
        seen.add(got[0][0])
    assert seen == {"not_catalysis", "quantum_catalysis"}


def test_span_membership_does_not_depend_on_conditioning():
    """Four seeded unit inputs of C^3 span all of it, so the identity on them
    takes every vector, here a fifth seeded one, at tol 1e-15.  Membership
    reads the component on the span's complement, empty for a full span;
    the residual |v - A A^+ v| carried A^+'s rounding and refused 23 of
    these 200 vectors."""
    for seed in range(200):
        rows = random_states((1, 3), 5, np.random.default_rng(seed))
        spec = ProcessSpec(1, 3, tuple((PureState((1, 3), a), PureState((1, 3), a)) for a in rows[:4]))
        verdict = decide_feasibility(spec, 1e-15)
        state = PureState((1, 3), rows[4])
        out = apply_process(spec, verdict, state, 1e-15).vector
        assert abs(np.vdot(out, state.vector)) ** 2 >= 1.0 - 1e-12
        rho = output_density(spec, verdict, state, 1e-15)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho.matrix - np.outer(out, out.conj()))) <= 1e-12


def test_named_products_of_a_full_span_are_canonical_candidates():
    # controlled_unitary_spec's four inputs span both qubits, so |+>|0> and
    # |i>|i> join the six pairwise sums at any tolerance; |v - A A^+ v|
    # dropped 79 of these 80 at tol 1e-16
    for seed in range(40):
        spec = controlled_unitary_spec(seed)
        rows = analyzer._stage_candidates_canonical(spec, spec.span_map, 1e-16)
        assert rows.shape == (8, 4)
        assert np.max(np.abs(rows[6:] @ spec.input_matrix().T - analyzer._NAMED_2X2)) <= 1e-12
