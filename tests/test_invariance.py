"""Metamorphic relations: changes to a spec that must leave every answer alone.

Each relation compares ``classify`` before and after the change on the
classification, the verdict status, the certificate reason,
``catalyst_intact``, ``coherence_preserving`` and the witness concurrence,
within 1e-12.  The witness vector itself may move with the frame, so it is
never compared.  A relation that fails today is a strict expected failure
naming the ROADMAP item that mends it; that item turns it into a plain test.
"""

import functools

import numpy as np
import pytest

from helpers import (
    chordal_spec,
    controlled_unitary_spec,
    random_factored_spec,
    random_realizable_spec,
    random_unitary,
    undetermined_cycle_spec,
)
from qcatalysis import (
    QUANTUM_CATALYSIS,
    ProcessSpec,
    PureState,
    classify,
    cloning_process,
    deletion_process,
)
from test_witness_search import coherent_spec, rank3_family, rotated_deletion_spec

CONCURRENCE_TOL = 1e-12


def answers(spec: ProcessSpec) -> tuple:
    """What a relation keeps; the witness concurrence (None without one) last."""
    r = classify(spec)
    cert = r.verdict.certificate
    return (
        r.classification,
        r.verdict.status,
        None if cert is None else cert.reason,
        r.catalyst_intact,
        r.coherence_preserving,
        None if r.witness is None else r.witness.concurrence_out,
    )


def same_answers(a: tuple, b: tuple) -> bool:
    if a[:-1] != b[:-1] or (a[-1] is None) != (b[-1] is None):
        return False
    return a[-1] is None or abs(a[-1] - b[-1]) <= CONCURRENCE_TOL


def assert_relation_holds(cases) -> None:
    """Every (spec, changed spec) of ``cases`` has the same answers."""
    broken = []
    for k, (spec, changed) in enumerate(cases):
        want, got = answers(spec), answers(changed)
        if not same_answers(want, got):
            broken.append((k, want, got))
    assert not broken, f"{len(broken)} of {k + 1} cases changed, first {broken[:3]}"


def spec_of(dims, inputs: np.ndarray, outputs: np.ndarray) -> ProcessSpec:
    """The spec whose pairs are the columns of ``inputs`` and ``outputs``."""
    pairs = tuple((PureState(dims, a), PureState(dims, b)) for a, b in zip(inputs.T, outputs.T))
    return ProcessSpec(*dims, pairs)


def dependent_coherent_spec(rng: np.random.Generator) -> ProcessSpec:
    """a_i -> U a_i on 2x2 to 3x3, with one or two more inputs than their span."""
    dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    d = dims[0] * dims[1]
    k = int(rng.integers(1, d))
    n = k + int(rng.integers(1, 3))
    basis = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    inputs = basis @ (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
    return coherent_spec(inputs, random_unitary(rng, d), dims)


@functools.cache
def corpus() -> tuple[ProcessSpec, ...]:
    """926 specs: random_factored_spec and random_realizable_spec seeds 0-299,
    the controlled-unitary, rotated-deletion, rank-3 and chordal families, 100
    dependent coherent families and the undetermined 5-cycle."""
    specs = [random_factored_spec(np.random.default_rng(seed)) for seed in range(300)]
    specs += [random_realizable_spec(np.random.default_rng(seed))[0] for seed in range(300)]
    specs += [controlled_unitary_spec(seed) for seed in range(40)]
    specs += [rotated_deletion_spec(seed) for seed in range(40)]
    specs += rank3_family(40)
    for seed in range(35):
        specs += [chordal_spec(seed), chordal_spec(seed, realizable=False), chordal_spec(seed, rank_one=True)]
    rng = np.random.default_rng(26)
    specs += [dependent_coherent_spec(rng) for _ in range(100)]
    specs.append(undetermined_cycle_spec())
    return tuple(specs)


def test_corpus_reaches_every_classification():
    specs = corpus()
    assert len(specs) >= 500
    kinds = {answers(spec)[0] for spec in specs}
    assert kinds == {"quantum_catalysis", "no_entangling_witness_found", "not_catalysis"}


def reordered(spec: ProcessSpec, order) -> ProcessSpec:
    return ProcessSpec(spec.dim_a, spec.dim_b, tuple(spec.pairs[i] for i in order))


def test_pair_order_changes_no_answer():
    # (a) held on 3,328 permuted classifications when first measured; here
    # every spec is also taken reversed and in one seeded random order
    rng = np.random.default_rng(261)
    cases = []
    for spec in corpus():
        cases.append((spec, reordered(spec, range(spec.n)[::-1])))
        cases.append((spec, reordered(spec, rng.permutation(spec.n))))
    assert_relation_holds(cases)


def test_a_duplicated_pair_changes_no_answer():
    # (b) one pair, chosen by a seeded draw, repeated at a drawn position
    rng = np.random.default_rng(262)
    cases = []
    for spec in corpus():
        order = list(range(spec.n))
        order.insert(int(rng.integers(spec.n + 1)), int(rng.integers(spec.n)))
        cases.append((spec, reordered(spec, order)))
    assert_relation_holds(cases)


def quantum_catalysis_specs() -> list[ProcessSpec]:
    specs = [controlled_unitary_spec(seed) for seed in range(20)]
    specs += [rotated_deletion_spec(seed) for seed in range(20)]
    specs += rank3_family(20) + [cloning_process(), deletion_process()]
    return [spec for spec in specs if answers(spec)[0] == QUANTUM_CATALYSIS]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 22")
def test_output_phases_change_no_answer():
    """(c) b_i -> e^{i phi_i} b_i.  Fails on 52 of these 52 quantum_catalysis
    specs (62 of 62 in the ROADMAP's corpus): the environment Gram is no
    longer all ones, so no witness search runs.  Item 22 mends it."""
    rng = np.random.default_rng(263)
    cases = []
    for spec in quantum_catalysis_specs():
        phases = np.exp(2j * np.pi * rng.uniform(size=spec.n))
        dims = (spec.dim_a, spec.dim_b)
        cases.append((spec, spec_of(dims, spec.input_matrix(), spec.output_matrix() * phases)))
    assert len(cases) == 52
    assert_relation_holds(cases)


def catalyst_controlled(rng: np.random.Generator, dims) -> tuple[np.ndarray, np.ndarray]:
    """Inputs and outputs |k> (x) s -> |k> (x) V_k s, V_0 = I, with d_B
    random unit states s per k: n = d_A d_B pairs."""
    da, db = dims
    turns = [np.eye(db)] + [random_unitary(rng, db) for _ in range(da - 1)]
    inputs, outputs = [], []
    for k in range(da):
        for _ in range(db):
            s = rng.standard_normal(db) + 1j * rng.standard_normal(db)
            s /= np.linalg.norm(s)
            inputs.append(np.kron(np.eye(da)[k], s))
            outputs.append(np.kron(np.eye(da)[k], turns[k] @ s))
    return np.array(inputs).T, np.array(outputs).T


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 17 and 25")
@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
def test_a_local_turn_changes_no_answer_off_two_qubits(dims):
    """(d) U_A (x) U_B on the inputs and U_A (x) V_B on the outputs of 20
    catalyst-controlled specs.  On each of 2x3, 3x2 and 3x3 the search finds
    a witness in 0 of the 20 plain specs and in 20 of 20 once they are
    turned, so all 20 flip.  On 2x2 the relation holds (tests in
    test_witness_search.py).  Items 17 and 25 mend it."""
    rng = np.random.default_rng(264)
    cases = []
    for _ in range(20):
        inputs, outputs = catalyst_controlled(rng, dims)
        ua, ub, vb = random_unitary(rng, dims[0]), random_unitary(rng, dims[1]), random_unitary(rng, dims[1])
        turned = spec_of(dims, np.kron(ua, ub) @ inputs, np.kron(ua, vb) @ outputs)
        cases.append((spec_of(dims, inputs, outputs), turned))
    assert_relation_holds(cases)


def embedded(spec: ProcessSpec, dim_b: int) -> ProcessSpec:
    """``spec`` with B's qubit as the first two levels of a ``dim_b`` system."""
    e = np.kron(np.eye(spec.dim_a), np.eye(dim_b, spec.dim_b))
    return spec_of((spec.dim_a, dim_b), e @ spec.input_matrix(), e @ spec.output_matrix())


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 25")
@pytest.mark.parametrize("dim_b", [3, 4])
def test_embedding_b_changes_no_answer(dim_b):
    """(e) B's qubit embedded in a qutrit or a ququart.  In both, deletion
    and all 20 controlled-unitary specs lose their witness, and the 20
    rotated deletions keep one that falls short by up to 0.658; cloning
    holds.  The search dispatches on the declared dimensions.  Item 25
    mends it."""
    specs = [cloning_process(), deletion_process()]
    specs += [controlled_unitary_spec(seed) for seed in range(20)]
    specs += [rotated_deletion_spec(seed) for seed in range(20)]
    assert_relation_holds([(spec, embedded(spec, dim_b)) for spec in specs])
