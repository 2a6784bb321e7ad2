"""Tests of the benchmark's own oracles and generators.

    python3 -m pytest -q perfbench

They run in a few seconds and call the program only to build ProcessSpec
objects and to read its scan result type; no check here depends on a
verdict of the program.
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import oracles as o  # noqa: E402
import workloads as w  # noqa: E402
from qcatalysis import _kernels  # noqa: E402

SEEDS = range(5)


def all_cases():
    for seed in SEEDS:
        yield from w.witness_cases(seed)
        yield from w.sparse_cases(seed)


# ---------------------------------------------------------------------------
# oracles on known states
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 8, math.pi / 4])
def test_concurrence_and_schmidt_of_known_states(theta):
    vec = o.ket(math.cos(theta), 0, 0, math.sin(theta))
    assert o.concurrence(vec) == pytest.approx(abs(math.sin(2 * theta)), abs=1e-15)
    assert np.allclose(sorted(o.schmidt(vec, 2, 2)), sorted([abs(math.cos(theta)), abs(math.sin(theta))]))


def test_product_states_have_zero_entanglement():
    for a, b in itertools.product((o.ZERO, o.ONE, o.PLUS, o.CIRC), repeat=2):
        vec = np.kron(a, b)
        assert abs(o.det2(vec)) < 1e-15
        assert o.second_schmidt(vec, 2, 2) < 1e-15
    rng = np.random.default_rng(0)
    a = o.normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    b = o.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    assert o.second_schmidt(np.kron(a, b), 2, 3) < 1e-14


def test_bell_pair_is_maximally_entangled():
    bell = o.ket(o.SQ2, 0, 0, o.SQ2)
    assert o.concurrence(bell) == pytest.approx(1.0)
    assert np.allclose(o.schmidt(bell, 2, 2), [o.SQ2, o.SQ2])


def test_deletion_residue_keeps_overlap_with_plus():
    for u in np.linspace(0.0, 2 * math.pi, 7):
        r = o.deletion_residue(u)
        assert np.linalg.norm(r) == pytest.approx(1.0)
        assert abs(np.vdot(r, o.PLUS)) == pytest.approx(o.SQ2)


def test_reduced_system_of_product_is_pure():
    b = o.normalized(np.arange(1, 5) + 1j)
    s = o.normalized(np.array([1.0, 2.0, 3.0j]))
    rho = o.reduced_system(np.kron(b, s), 4, 3)
    assert np.allclose(rho, np.outer(b, b.conj()))


def test_dilation_unitary_maps_family():
    rng = np.random.default_rng(1)
    outputs = np.linalg.qr(rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))[0]
    env = np.ones((1, 3), dtype=np.complex128)
    v = o.dilation_unitary(outputs, outputs, env)
    assert o.unitary_error(v) < 1e-12
    assert np.allclose(v @ outputs, outputs)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_same_seed_same_inputs_and_faults_do_not_depend_on_seed():
    for make in (w.witness_cases, w.sparse_cases):
        a, b, c = make(7), make(7), make(8)
        assert all(np.array_equal(x.inputs, y.inputs) for x, y in zip(a, b))
        faults_a = [x for x in a if x.fault]
        faults_c = [x for x in c if x.fault]
        assert faults_a and all(np.array_equal(x.inputs, y.inputs) for x, y in zip(faults_a, faults_c))
        seeded_a = [x for x in a if not x.fault]
        seeded_c = [x for x in c if not x.fault]
        assert not any(np.array_equal(x.outputs, y.outputs) for x, y in zip(seeded_a, seeded_c))


def test_round_make_up():
    kinds = [c.kind for c in w.sparse_cases(0)]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "one-free": w.SPARSE_ONE_FREE,
        "two-free": w.SPARSE_TWO_FREE,
        "infeasible": w.SPARSE_INFEASIBLE,
        "rank-one-phase": w.SPARSE_RANK_ONE,
    }
    kinds = [c.kind for c in w.witness_cases(0)]
    assert kinds.count("deletion") == w.WITNESS_SEEDED
    assert kinds.count("rotated-deletion") == w.WITNESS_ROTATED


def test_free_overlap_pattern():
    for case in all_cases():
        g_in, g_out = o.gram(case.inputs), o.gram(case.outputs)
        for i, j in itertools.combinations(range(case.n), 2):
            if (i, j) in case.free:
                assert abs(g_out[i, j]) < 1e-12 and abs(g_in[i, j]) < 1e-12
            else:
                assert abs(g_out[i, j]) > 0.15, (case.kind, i, j)


def test_realizable_specs_come_with_a_dilation():
    checked = 0
    for case in all_cases():
        if case.expected_status != w.REALIZABLE:
            assert case.env is None
            continue
        checked += 1
        assert np.allclose(np.linalg.norm(case.env, axis=0), 1.0)
        g = o.gram(case.inputs)
        assert np.max(np.abs(g - o.gram(case.outputs) * o.gram(case.env))) < 1e-12
        v = o.dilation_unitary(case.inputs, case.outputs, case.env)
        assert o.unitary_error(v) < 1e-10
        e0 = np.zeros(case.env.shape[0])
        e0[0] = 1.0
        for a, b, s in zip(case.inputs.T, case.outputs.T, case.env.T):
            assert np.allclose(v @ np.kron(a, e0), np.kron(b, s), atol=1e-10)
    assert checked


def test_infeasible_specs_have_a_determined_clique_that_is_not_psd():
    for case in all_cases():
        if case.expected_status == w.INFEASIBLE:
            ratios, known = o.environment_ratios(case.inputs, case.outputs, w.TOL)
            block = np.ix_(case.clique, case.clique)
            assert known[block].all()
            assert o.min_eig(ratios[block]) <= w.CLIQUE_MARGIN + 1e-9
            off_diagonal = known & ~np.eye(case.n, dtype=bool)
            assert np.max(np.abs(ratios[off_diagonal])) < 0.96


def test_sparse_specs_disturb_the_catalyst_and_witness_specs_keep_it():
    for case in all_cases():
        members = np.concatenate([case.inputs.T, case.outputs.T])
        second = [o.second_schmidt(v, *case.dims) for v in members]
        if case.kind.endswith("deletion"):
            assert max(second) < 1e-12
        else:
            assert max(second) >= w.MIN_ENTANGLEMENT


def test_witness_probe_is_separable_with_entangled_image():
    for seed in SEEDS:
        for case in w.witness_cases(seed):
            assert abs(o.det2(case.probe)) < 1e-14
            image, residual = o.map_coherently(case.inputs, case.outputs, case.probe)
            assert residual < 1e-12
            assert o.concurrence(image) > 1e-6


# ---------------------------------------------------------------------------
# checks accept the truth and reject tampered evidence
# ---------------------------------------------------------------------------


def _true_outcome(case, **changes):
    fields = dict(
        classification=w.NOT_CATALYSIS,
        status=case.expected_status,
        completed=o.gram(case.env) if case.env is not None else None,
        certificate=None,
        witness=None,
    )
    if case.expected_status == w.INFEASIBLE:
        ratios, _ = o.environment_ratios(case.inputs, case.outputs, w.TOL)
        block = np.ix_(case.clique, case.clique)
        fields["certificate"] = ("psd_violation", -o.min_eig(ratios[block]))
    fields.update(changes)
    return w.Outcome(**fields)


def test_sparse_check_accepts_truth_and_rejects_tampering():
    for case in w.sparse_cases(3):
        assert w.check_sparse(case, _true_outcome(case)) == (False, [])
        if case.expected_status == w.REALIZABLE:
            bad = o.gram(case.env)
            i, j = next(p for p in itertools.combinations(range(case.n), 2) if p not in case.free)
            bad[i, j] += 0.01
            bad[j, i] = bad[i, j].conjugate()
            assert w.check_sparse(case, _true_outcome(case, completed=bad))[1]
            assert w.check_sparse(case, _true_outcome(case, status=w.INFEASIBLE))[0]
        else:
            reason, magnitude = _true_outcome(case).certificate
            assert w.check_sparse(case, _true_outcome(case, certificate=(reason, magnitude / 2)))[1]


def test_witness_check_accepts_probe_and_rejects_entangled_input():
    case = w.witness_cases(0)[0]
    coeff, _ = o.span_coefficients(case.inputs, case.probe)
    image = o.normalized(case.outputs @ coeff)
    good = (case.probe, image, coeff, o.concurrence(image))
    outcome = w.Outcome(w.QUANTUM_CATALYSIS, w.REALIZABLE, np.ones((3, 3)), None, good)
    assert w.check_witness(case, outcome) == (False, [])
    entangled = o.normalized(case.inputs @ np.array([1.0, 1.0, 0.0]))
    bad = (entangled, image, coeff, o.concurrence(image))
    assert w.check_witness(case, w.Outcome(w.QUANTUM_CATALYSIS, w.REALIZABLE, np.ones((3, 3)), None, bad))[1]


def test_paper_oracles():
    assert w.no_info_certificate() == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # orthogonal residues (v = pi) leave |i,i> unentangled; equal ones do not
    assert w.sweep_concurrence(math.pi) < 1e-12
    assert w.sweep_concurrence(0.0) > 0.1


def test_scan_candidates_counts_what_the_scan_evaluated():
    counts = np.array([420, 420])
    args = (None, None, None, counts, 1e-9, "numpy")
    chunk = getattr(_kernels, "_CHUNK", 1)
    missed = _kernels.ScanResult(-1, 7, -0.5)
    assert layers._candidates(args, missed) == 420 * 420
    assert layers._candidates(args, _kernels.ScanResult(5, 5, 0.0)) == chunk
    assert layers._candidates(args, _kernels.ScanResult(chunk, chunk, 0.0)) == 2 * chunk
    one_free = (None, None, None, np.array([420]), 1e-9, "numpy")
    assert layers._candidates(one_free, _kernels.ScanResult(3, 3, 0.0)) == 420
