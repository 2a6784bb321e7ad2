import math

import numpy as np
import pytest

from helpers import (
    assert_record,
    assert_value_record,
    near_dependent_identity_spec,
    random_factored_spec,
    random_generic_spec,
    random_realizable_spec,
    trace_out_environment,
)
from qcatalysis import (
    INFEASIBLE,
    REALIZABLE,
    UNDETERMINED,
    Certificate,
    DensityMatrix,
    EnvironmentGram,
    EnvironmentsDifferError,
    FeasibilityVerdict,
    GateSpec,
    OutsideSpanError,
    ProcessSpec,
    PureState,
    apply_gate,
    apply_process,
    circular_pair_input,
    cloning_process,
    complete_psd,
    construct_isometry,
    decide_feasibility,
    deletion_process,
    environment_gram,
    environment_vectors,
    find_entangling_witness,
    ket,
    ket_plus,
    output_density,
    random_state,
    tensor,
    uninformed_cloning_process,
)

SQ2 = 1.0 / math.sqrt(2.0)

BELL = PureState((2, 2), np.array([SQ2, 0, 0, SQ2]))


def identity_process() -> ProcessSpec:
    pairs = tuple((a, a) for a, _ in cloning_process().pairs)
    return ProcessSpec(2, 2, pairs)


class TestProcessSpec:
    def test_dependent_family_spans_its_earliest_independent_inputs(self):
        # a dependent family is a spec, and feasibility decides it; its span
        # rests on its earliest independent inputs, and the map is A^+ with
        # zero rows for the others
        repeated = ProcessSpec(2, 2, ((ket("00"), ket("00")), (ket("00"), ket("11"))))
        for spec, reason, pair, kept in [
            (repeated, "output_null_input_not", (0, 1), (0,)),
            (uninformed_cloning_process(), "modulus_violation", (0, 2), (0, 1)),
        ]:
            verdict = decide_feasibility(spec)
            assert verdict.status == INFEASIBLE
            assert (verdict.certificate.reason, verdict.certificate.pair) == (reason, pair)
            a, span_map = spec.input_matrix(), spec.span_map
            assert spec.rank == len(kept)
            assert tuple(np.flatnonzero(np.abs(span_map).max(axis=1) > 0)) == kept
            assert np.max(np.abs(a @ span_map @ a - a)) < 1e-12

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError, match="dims"):
            ProcessSpec(2, 2, ((ket("0"), ket("0")),))
        # a non-integer dimension is refused, not truncated to match (2, 2)
        with pytest.raises(ValueError, match="^dim_a must be an integer, got 2.9$"):
            ProcessSpec(2.9, 2, ((ket("00"), ket("00")),))

    def test_rejects_an_empty_family(self):
        message = r"^a process needs at least one \(input, output\) pair$"
        with pytest.raises(ValueError, match=message):
            ProcessSpec(2, 2, ())

    def test_rejects_more_pairs_than_the_cap(self):
        pair = (ket("00"), ket("00"))
        assert ProcessSpec(2, 2, (pair,) * 64).rank == 1
        with pytest.raises(ValueError, match="^65 pairs exceed the cap of 64$"):
            ProcessSpec(2, 2, (pair,) * 65)

    @pytest.mark.parametrize("side", [0, 1], ids=["input", "output"])
    def test_matrices_are_built_once_and_read_only(self, side):
        spec = uninformed_cloning_process()
        get = spec.input_matrix if side == 0 else spec.output_matrix
        m = get()
        assert get() is m
        expected = np.column_stack([pair[side].vector for pair in spec.pairs])
        assert m.shape == (4, 3)
        assert np.array_equal(m, expected)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.0


class TestEnvironmentGram:
    def test_copying_forces_unit_overlaps(self):
        eg = environment_gram(cloning_process())
        assert isinstance(eg, EnvironmentGram)
        assert eg.free_pairs() == [(0, 1)]
        assert eg.values[0, 2] == pytest.approx(1.0)
        assert eg.values[1, 2] == pytest.approx(1.0)

    def test_uninformed_copying_is_infeasible(self):
        verdict = environment_gram(uninformed_cloning_process())
        assert isinstance(verdict, FeasibilityVerdict)
        cert = verdict.certificate
        assert cert.reason == "modulus_violation"
        assert cert.pair == (0, 2)
        assert cert.magnitude == pytest.approx(math.sqrt(2.0))

    def test_identity_process_fully_determined(self):
        eg = environment_gram(identity_process())
        assert eg.free_pairs() == [(0, 1)]
        determined = [(i, j) for i in range(3) for j in range(3) if eg.known[i, j]]
        for i, j in determined:
            assert eg.values[i, j] == pytest.approx(1.0)

    def test_identity_on_overlapping_states_forces_every_entry(self):
        # with no vanishing overlaps the identity pins all entries to one
        rng = np.random.default_rng(30)
        states = [random_state((2, 2), rng) for _ in range(3)]
        spec = ProcessSpec(2, 2, tuple((s, s) for s in states))
        eg = environment_gram(spec)
        assert eg.free_pairs() == []
        np.testing.assert_allclose(eg.values, np.ones((3, 3)), atol=1e-9)

    def test_ratio_marginally_above_one_is_clamped(self):
        # forced overlap 1 + 5e-10 sits inside the tolerance band and must
        # clamp to modulus one instead of certifying a violation
        ov_in = 0.5 + 2.5e-10
        a2 = np.zeros(4, dtype=complex)
        a2[0] = ov_in
        a2[1] = math.sqrt(1.0 - ov_in**2)
        b2 = np.zeros(4, dtype=complex)
        b2[0] = 0.5
        b2[1] = math.sqrt(0.75)
        spec = ProcessSpec(
            2,
            2,
            (
                (ket("00"), ket("00")),
                (PureState((2, 2), a2), PureState((2, 2), b2)),
            ),
        )
        eg = environment_gram(spec)
        assert isinstance(eg, EnvironmentGram)
        assert abs(eg.values[0, 1]) == pytest.approx(1.0, abs=1e-15)
        verdict = complete_psd(eg)
        assert verdict.is_realizable

    def test_output_null_input_not(self):
        # inputs overlap but outputs are orthogonal: no dilation exists
        pairs = (
            (tensor(ket("0"), ket("0")), tensor(ket("0"), ket("0"))),
            (tensor(ket_plus(), ket("0")), tensor(ket("1"), ket("1"))),
        )
        verdict = environment_gram(ProcessSpec(2, 2, pairs))
        assert verdict.certificate.reason == "output_null_input_not"
        assert verdict.certificate.magnitude == pytest.approx(SQ2)

    def test_modulus_certificates_are_sound(self):
        rng = np.random.default_rng(32)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            inputs = [random_state((2, 2), rng) for _ in range(n)]
            outputs = [random_state((2, 2), rng) for _ in range(n)]
            g = np.array([[np.vdot(a.vector, b.vector) for b in inputs] for a in inputs])
            if np.linalg.eigvalsh(g)[0] < 1e-6:
                continue
            spec = ProcessSpec(2, 2, tuple(zip(inputs, outputs)))
            verdict = environment_gram(spec)
            if isinstance(verdict, FeasibilityVerdict) and (
                verdict.certificate.reason == "modulus_violation"
            ):
                i, j = verdict.certificate.pair
                gi = np.vdot(inputs[i].vector, inputs[j].vector)
                go = np.vdot(outputs[i].vector, outputs[j].vector)
                assert abs(gi) > abs(go) + 1e-9
                checked += 1
        assert checked > 20


class TestCompletePsd:
    def test_forced_corner_completes_to_all_ones(self):
        eg = environment_gram(cloning_process())
        verdict = complete_psd(eg)
        assert verdict.is_realizable
        np.testing.assert_allclose(verdict.completed_gram, np.ones((3, 3)), atol=1e-12)

    def test_fully_determined_psd_returns_itself(self):
        values = np.eye(2, dtype=complex)
        values[0, 1] = values[1, 0] = 0.5
        eg = EnvironmentGram(values, np.ones((2, 2), bool))
        verdict = complete_psd(eg)
        assert verdict.is_realizable
        np.testing.assert_allclose(verdict.completed_gram, values)

    def test_contradictory_determined_entries(self):
        values = np.eye(3, dtype=complex)
        for i, j, v in ((0, 1, 1.0), (0, 2, 1.0), (1, 2, -1.0)):
            values[i, j] = v
            values[j, i] = np.conj(v)
        eg = EnvironmentGram(values, np.ones((3, 3), bool))
        verdict = complete_psd(eg)
        assert verdict.status == "infeasible"
        assert verdict.certificate.reason == "psd_violation"

    def test_exhausted_search_with_free_entry(self):
        # rows 0, 2, 3 are pinned into a contradiction; no value of the
        # free (0, 1) slot can rescue positivity
        values = np.eye(4, dtype=complex)
        known = np.eye(4, dtype=bool)
        for i, j, v in ((0, 2, 1.0), (0, 3, 1.0), (2, 3, 0.0), (1, 2, 0.0), (1, 3, 0.0)):
            values[i, j] = v
            values[j, i] = np.conj(v)
            known[i, j] = known[j, i] = True
        eg = EnvironmentGram(values, known)
        verdict = complete_psd(eg)
        assert verdict.status == "infeasible"
        assert verdict.certificate.reason == "psd_violation"
        assert verdict.certificate.magnitude > 0.1

    def test_no_determined_overlap_completes_to_all_ones(self):
        eg = EnvironmentGram(np.eye(4, dtype=complex), np.eye(4, dtype=bool))
        verdict = complete_psd(eg)
        assert verdict.is_realizable
        np.testing.assert_array_equal(verdict.completed_gram, np.ones((4, 4)))

    def test_three_free_entries_searchable(self):
        # three mutually orthogonal pairs leave exactly three free slots;
        # with no determined overlap the coherent all-ones completion is taken
        pairs = tuple(
            (ket(a), ket(b)) for a, b in (("00", "01"), ("01", "10"), ("10", "11"))
        )
        spec = ProcessSpec(2, 2, pairs)
        eg = environment_gram(spec)
        assert len(eg.free_pairs()) == 3
        verdict = complete_psd(eg)
        assert verdict.is_realizable
        np.testing.assert_array_equal(verdict.completed_gram, np.ones((3, 3)))
        v = construct_isometry(spec, verdict)
        sig = environment_vectors(verdict.completed_gram)
        e0 = np.zeros(sig.shape[0], dtype=complex)
        e0[0] = 1.0
        for i, (a, b) in enumerate(spec.pairs):
            got = v @ np.kron(a.vector, e0)
            want = np.kron(b.vector, sig[:, i])
            assert np.max(np.abs(got - want)) < 1e-9

    def test_environment_gram_validation(self):
        values = np.eye(2, dtype=complex)
        values[0, 1] = 0.5
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            EnvironmentGram(values, np.ones((2, 2), bool))
        values[1, 0] = 0.5
        lopsided = np.ones((2, 2), bool)
        lopsided[1, 0] = False
        with pytest.raises(ValueError, match="symmetric"):
            EnvironmentGram(values, lopsided)
        # both tests are absolute at 1e-12, with no relative slack
        values[1, 0] = 0.5 + 4e-6j
        with pytest.raises(ValueError, match="conjugate-symmetric"):
            EnvironmentGram(values, np.ones((2, 2), bool))
        short_diagonal = np.eye(2, dtype=complex)
        short_diagonal[1, 1] = 1.0 - 9e-6
        with pytest.raises(ValueError, match="diagonal"):
            EnvironmentGram(short_diagonal, np.ones((2, 2), bool))
        toobig = np.eye(2, dtype=complex)
        toobig[0, 1] = toobig[1, 0] = 1.5
        with pytest.raises(ValueError, match="modulus"):
            EnvironmentGram(toobig, np.ones((2, 2), bool))
        for scalar_or_row in (1.0, [1.0]):
            with pytest.raises(ValueError, match="square and congruent"):
                EnvironmentGram(scalar_or_row, np.ones(np.shape(scalar_or_row), bool))

    def test_verdict_grams_are_valid(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            spec, _ = random_realizable_spec(rng)
            verdict = decide_feasibility(spec)
            assert verdict.is_realizable
            g = verdict.completed_gram
            np.testing.assert_allclose(g, g.conj().T, atol=1e-12)
            np.testing.assert_allclose(np.diag(g).real, 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(g)[0] > -1e-9


class TestConstructIsometry:
    def test_copying_agrees_with_cnot_on_span(self):
        spec = cloning_process()
        verdict = decide_feasibility(spec)
        v = construct_isometry(spec, verdict)
        assert v.shape == (4, 4)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-9)
        gate = GateSpec("CNOT", (0, 1))
        for a, _ in spec.pairs:
            got = v @ a.vector
            want = apply_gate(gate, a).vector
            assert np.max(np.abs(got - want)) < 1e-9

    def test_deletion_agrees_with_cnot_on_span(self):
        spec = deletion_process()
        verdict = decide_feasibility(spec)
        v = construct_isometry(spec, verdict)
        gate = GateSpec("CNOT", (0, 1))
        for a, _ in spec.pairs:
            got = v @ a.vector
            want = apply_gate(gate, a).vector
            assert np.max(np.abs(got - want)) < 1e-9

    def test_identity_process_gives_identity(self):
        spec = identity_process()
        verdict = decide_feasibility(spec)
        v = construct_isometry(spec, verdict)
        np.testing.assert_allclose(v, np.eye(4), atol=1e-9)

    def test_random_realizable_specs_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            spec, env = random_realizable_spec(rng)
            verdict = decide_feasibility(spec)
            assert verdict.is_realizable
            # engine must recover the environment Gram it was built from
            np.testing.assert_allclose(verdict.completed_gram, env, atol=1e-9)
            v = construct_isometry(spec, verdict)
            sig = environment_vectors(verdict.completed_gram)
            r = sig.shape[0]
            np.testing.assert_allclose(
                v.conj().T @ v, np.eye(v.shape[0]), atol=1e-9
            )
            e0 = np.zeros(r, dtype=complex)
            e0[0] = 1.0
            for i, (a, b) in enumerate(spec.pairs):
                got = v @ np.kron(a.vector, e0)
                want = np.kron(b.vector, sig[:, i])
                assert np.max(np.abs(got - want)) < 1e-9


class TestVerdictGuards:
    @pytest.mark.parametrize("status", [INFEASIBLE, UNDETERMINED])
    @pytest.mark.parametrize(
        "operation, name",
        [
            (lambda spec, verdict: find_entangling_witness(spec, verdict), "witness search"),
            (lambda spec, verdict: construct_isometry(spec, verdict), "construct_isometry"),
            (
                lambda spec, verdict: apply_process(spec, verdict, spec.pairs[0][0]),
                "apply_process",
            ),
            (
                lambda spec, verdict: output_density(spec, verdict, spec.pairs[0][0]),
                "output_density",
            ),
        ],
        ids=["find_entangling_witness", "construct_isometry", "apply_process", "output_density"],
    )
    def test_a_verdict_that_is_not_realizable_is_refused(self, operation, name, status):
        with pytest.raises(ValueError, match=f"^{name} needs a Realizable verdict$"):
            operation(cloning_process(), FeasibilityVerdict(status))

    @pytest.mark.parametrize("wrong", ["another-spec", "one-pair-more"])
    @pytest.mark.parametrize(
        "operation",
        [
            find_entangling_witness,
            construct_isometry,
            lambda spec, verdict: apply_process(spec, verdict, spec.pairs[0][0]),
            lambda spec, verdict: output_density(spec, verdict, spec.pairs[0][0]),
        ],
        ids=["find_entangling_witness", "construct_isometry", "apply_process", "output_density"],
    )
    def test_a_verdict_decided_for_another_spec_is_refused(self, operation, wrong):
        # cloning's verdict is realizable with every overlap one, yet the
        # uninformed cloning spec is infeasible (modulus violation sqrt 2);
        # an all-ones Gram one pair too large fits no deletion either
        if wrong == "another-spec":
            spec, verdict = uninformed_cloning_process(), decide_feasibility(cloning_process())
        else:
            spec = deletion_process()
            verdict = FeasibilityVerdict(REALIZABLE, completed_gram=np.ones((spec.n + 1,) * 2))
        with pytest.raises(RuntimeError, match="^input and dressed-output Gram matrices differ by"):
            operation(spec, verdict)

    def test_isometry_refuses_a_gram_that_contradicts_the_spec(self):
        # deletion's environment overlaps are all one; a hand-built verdict
        # with G[0, 2] = 0 is not even PSD, and its dressed outputs cannot
        # reproduce the input overlaps
        gram = np.ones((3, 3), dtype=np.complex128)
        gram[0, 2] = gram[2, 0] = 0.0
        verdict = FeasibilityVerdict(REALIZABLE, completed_gram=gram)
        with pytest.raises(RuntimeError, match="^input and dressed-output Gram matrices differ"):
            construct_isometry(deletion_process(), verdict)

    @pytest.mark.parametrize(
        "status, gram, message",
        [
            ("bogus", np.eye(2), "^unknown verdict status 'bogus'$"),
            (REALIZABLE, None, "^a realizable verdict needs"),
            (REALIZABLE, np.ones(3), "^a realizable verdict needs"),
            (REALIZABLE, np.ones((2, 3)), "^a realizable verdict needs"),
            (REALIZABLE, np.full((2, 2), np.nan), "^a realizable verdict needs"),
            (REALIZABLE, np.full((2, 2), np.inf), "^a realizable verdict needs"),
        ],
        ids=["unknown-status", "no-gram", "1-d", "not-square", "nan", "inf"],
    )
    def test_a_malformed_verdict_is_refused(self, status, gram, message):
        with pytest.raises(ValueError, match=message):
            FeasibilityVerdict(status, completed_gram=gram)

    @pytest.mark.parametrize(
        "operation, needs_coherence",
        [
            (find_entangling_witness, True),
            (construct_isometry, False),
            (lambda spec, verdict: apply_process(spec, verdict, spec.pairs[0][0]), True),
            (lambda spec, verdict: output_density(spec, verdict, spec.pairs[0][0]), False),
        ],
        ids=["find_entangling_witness", "construct_isometry", "apply_process", "output_density"],
    )
    def test_only_coherent_uses_refuse_orthogonal_environments(self, operation, needs_coherence):
        # the orthogonal-environment verdict of test_orthogonal_environments_decohere
        # is realizable and fits its spec, but its environments differ
        a1, a2, b2 = ket("00"), ket("01"), ket("10")
        spec = ProcessSpec(2, 2, ((a1, a1), (a2, b2)))
        verdict = FeasibilityVerdict(REALIZABLE, completed_gram=np.eye(2))
        if needs_coherence:
            with pytest.raises(EnvironmentsDifferError):
                operation(spec, verdict)
        else:
            operation(spec, verdict)

    @pytest.mark.parametrize("operation", [apply_process, output_density])
    def test_an_input_of_other_dims_is_refused(self, operation):
        spec = cloning_process()
        message = r"^input dims \(2,\) do not match the process \(2, 2\)$"
        with pytest.raises(ValueError, match=message):
            operation(spec, decide_feasibility(spec), ket("0"))


class TestApplyProcess:
    def test_copying_builds_entangled_pair(self):
        spec = cloning_process()
        verdict = decide_feasibility(spec)
        out = apply_process(spec, verdict, tensor(ket_plus(), ket("0")))
        assert np.max(np.abs(out.vector - BELL.vector)) < 1e-12

    def test_deletion_probe_output(self):
        spec = deletion_process()
        verdict = decide_feasibility(spec)
        out = apply_process(spec, verdict, circular_pair_input())
        expected = np.array([0.5, 0.5j, -0.5, 0.5j])
        assert np.max(np.abs(out.vector - expected)) < 1e-12

    def test_basis_inputs_map_to_outputs(self):
        spec = deletion_process()
        verdict = decide_feasibility(spec)
        for a, b in spec.pairs:
            out = apply_process(spec, verdict, a)
            assert np.max(np.abs(out.vector - b.vector)) < 1e-12

    def test_coherence_does_not_read_the_diagonal(self):
        # a diagonal off one by 5e-13 passes EnvironmentGram's 1e-12 check;
        # at tol = 1e-13 complete_psd's coherent rule fills the free overlap
        # with one, and apply_process reads coherence by the same rule
        spec = cloning_process()
        known = environment_gram(spec).known
        values = np.ones((3, 3)) + 5e-13 * np.eye(3)
        verdict = complete_psd(EnvironmentGram(values, known), 1e-13)
        assert verdict.status == REALIZABLE
        np.testing.assert_array_equal(verdict.completed_gram, values)
        state = tensor(ket_plus(), ket("0"))
        out = apply_process(spec, verdict, state, 1e-13)
        want = apply_process(spec, decide_feasibility(spec), state, 1e-13)
        np.testing.assert_array_equal(out.vector, want.vector)

    def test_outside_span_rejected(self):
        spec = cloning_process()
        verdict = decide_feasibility(spec)
        with pytest.raises(OutsideSpanError) as exc:
            apply_process(spec, verdict, tensor(ket("0"), ket("1")))
        assert exc.value.residual > 0.1

    def test_independence_rule_ignores_the_tolerance(self):
        # smallest Gram eigenvalue 4.96e-3: independent under the construction
        # rule, so a loose tol only loosens the span-membership residual
        spec = near_dependent_identity_spec()
        verdict = decide_feasibility(spec, 1e-2)
        bell = PureState((2, 2), np.array([SQ2, 0, 0, SQ2]))
        out = apply_process(spec, verdict, bell, 1e-2)
        assert np.max(np.abs(out.vector - bell.vector)) < 1e-12
        rho = output_density(spec, verdict, bell, 1e-2)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(OutsideSpanError):
            apply_process(spec, verdict, ket("10"), 1e-2)
        v = construct_isometry(spec, verdict, 1e-2)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(v.shape[0]), atol=1e-9)
        sig = environment_vectors(verdict.completed_gram)
        e0 = np.zeros(sig.shape[0], dtype=complex)
        e0[0] = 1.0
        for i, (a, b) in enumerate(spec.pairs):
            got = v @ np.kron(a.vector, e0)
            assert np.max(np.abs(got - np.kron(b.vector, sig[:, i]))) < 1e-9

    @pytest.mark.parametrize("operation", ["apply_process", "output_density", "construct_isometry"])
    def test_dependent_family_is_served(self, operation):
        # identity on |00>, |01>, |0+>: |0+> is a combination of the other
        # two inputs, and the span rests on those two
        inputs = (ket("00"), ket("01"), tensor(ket("0"), ket_plus()))
        spec = ProcessSpec(2, 2, tuple((a, a) for a in inputs))
        verdict = decide_feasibility(spec)
        assert verdict.is_realizable
        assert spec.rank == 2
        for i, a in enumerate(inputs):
            if operation == "apply_process":
                assert np.max(np.abs(apply_process(spec, verdict, a).vector - a.vector)) < 1e-12
            elif operation == "output_density":
                assert output_density(spec, verdict, a).purity() == pytest.approx(1.0, abs=1e-12)
            else:
                # a one-dimensional environment: s_i is a phase
                v = construct_isometry(spec, verdict)
                sig = environment_vectors(verdict.completed_gram)
                assert sig.shape == (1, 3)
                assert np.max(np.abs(v @ a.vector - a.vector * sig[0, i])) < 1e-12

    def test_differing_environments_rejected(self):
        rng = np.random.default_rng(35)
        while True:
            spec, env = random_realizable_spec(rng)
            if spec.n >= 2 and np.max(np.abs(env - 1.0)) > 0.2:
                break
        verdict = decide_feasibility(spec)
        with pytest.raises(EnvironmentsDifferError):
            apply_process(spec, verdict, spec.pairs[0][0])

    def test_agrees_with_isometry_route(self):
        rng = np.random.default_rng(36)
        spec = cloning_process()
        verdict = decide_feasibility(spec)
        v = construct_isometry(spec, verdict)
        basis = spec.input_matrix()
        for _ in range(100):
            c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            vec = basis @ c
            vec /= np.linalg.norm(vec)
            state = PureState((2, 2), vec)
            direct = apply_process(spec, verdict, state).vector
            via_iso = v @ vec  # one-dimensional environment drops out
            assert np.max(np.abs(direct - via_iso)) < 1e-9


class TestDensityMatrix:
    @pytest.mark.parametrize(
        "matrix,message",
        [
            (np.full((2, 2), np.nan), "amplitudes must be finite"),
            ([[0.5, np.nan], [np.nan, 0.5]], "amplitudes must be finite"),
            ([[np.inf, 0.0], [0.0, 0.0]], "amplitudes must be finite"),
            (np.ones((2, 3)) / 2.0, "expected a square matrix"),
            ([0.5, 0.5], "expected a square matrix"),
            ([[0.5, 0.1], [0.0, 0.5]], "density matrix must be Hermitian"),
            (np.eye(2), "density matrix must have unit trace"),
            ([[1.5, 0.0], [0.0, -0.5]], "density matrix must be positive semidefinite"),
        ],
        ids=["nan", "nan-coherence", "inf", "not-square", "vector", "not-hermitian",
             "trace-two", "not-psd"],
    )
    def test_rejects(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            DensityMatrix(matrix)

    def test_accepts_mixed_state_read_only(self):
        rho = DensityMatrix(np.eye(2) / 2.0)
        assert rho.dim == 2
        assert rho.purity() == pytest.approx(0.5)
        assert not rho.matrix.flags.writeable


class TestOutputDensity:
    def test_matches_pure_output_when_coherent(self):
        spec = cloning_process()
        verdict = decide_feasibility(spec)
        state = tensor(ket_plus(), ket("0"))
        rho = output_density(spec, verdict, state)
        pure = apply_process(spec, verdict, state).vector
        np.testing.assert_allclose(rho.matrix, np.outer(pure, pure.conj()), atol=1e-9)
        assert rho.purity() == pytest.approx(1.0)

    def test_rank_one_environment_gram_keeps_the_output_pure(self):
        # re-phased cloning outputs: the environment states differ by phases,
        # so the completed Gram has rank one without being all ones
        spec = cloning_process()
        phases = np.exp(1j * np.array([0.0, 0.7, 2.1]))
        spec = ProcessSpec(2, 2, tuple(
            (a, PureState(b.dims, p * b.vector)) for (a, b), p in zip(spec.pairs, phases)
        ))
        verdict = decide_feasibility(spec)
        gram = verdict.completed_gram
        assert np.abs(gram - 1.0).max() > 0.5
        assert np.linalg.eigvalsh(gram)[-2] == pytest.approx(0.0, abs=1e-12)
        total = spec.input_matrix() @ np.array([1.0, 0.3, 0.5j])
        rho = output_density(spec, verdict, PureState((2, 2), total / np.linalg.norm(total)))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_environments_decohere(self):
        # two orthogonal inputs, identical outputs living in orthogonal
        # environment branches: the superposition decoheres to purity 1/2
        a1 = tensor(ket("0"), ket("0"))
        a2 = tensor(ket("0"), ket("1"))
        b1 = tensor(ket("0"), ket("0"))
        b2 = tensor(ket("1"), ket("0"))
        spec = ProcessSpec(2, 2, ((a1, b1), (a2, b2)))
        # the overlap is free and complete_psd takes the coherent completion;
        # the orthogonal one is valid too and is built here explicitly
        chosen = decide_feasibility(spec)
        np.testing.assert_array_equal(chosen.completed_gram, np.ones((2, 2)))
        verdict = FeasibilityVerdict("realizable", completed_gram=np.eye(2))
        probe = PureState((2, 2), (a1.vector + a2.vector) * SQ2)
        rho = output_density(spec, verdict, probe)
        assert rho.purity() == pytest.approx(0.5)

    def test_basis_input_gives_projector_onto_output(self):
        rng = np.random.default_rng(37)
        spec, _ = random_realizable_spec(rng)
        verdict = decide_feasibility(spec)
        for a, b in spec.pairs:
            rho = output_density(spec, verdict, a)
            np.testing.assert_allclose(
                rho.matrix, np.outer(b.vector, b.vector.conj()), atol=1e-9
            )

    def test_agrees_with_dilation_partial_trace(self):
        rng = np.random.default_rng(38)
        done = 0
        while done < 25:
            spec, _ = random_realizable_spec(rng)
            if spec.n < 2:
                continue
            verdict = decide_feasibility(spec)
            v = construct_isometry(spec, verdict)
            r = int(round(v.shape[0] / (spec.dim_a * spec.dim_b)))
            basis = spec.input_matrix()
            c = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
            vec = basis @ c
            vec /= np.linalg.norm(vec)
            state = PureState((spec.dim_a, spec.dim_b), vec)
            rho = output_density(spec, verdict, state)
            e0 = np.zeros(r, dtype=complex)
            e0[0] = 1.0
            dilated = v @ np.kron(vec, e0)
            oracle = trace_out_environment(dilated, r)
            np.testing.assert_allclose(rho.matrix, oracle, atol=1e-9)
            done += 1

    def test_random_outputs_are_valid_density_matrices(self):
        rng = np.random.default_rng(39)
        done = 0
        while done < 100:
            spec, _ = random_realizable_spec(rng)
            verdict = decide_feasibility(spec)
            c = rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n)
            vec = spec.input_matrix() @ c
            vec /= np.linalg.norm(vec)
            rho = output_density(
                spec, verdict, PureState((spec.dim_a, spec.dim_b), vec)
            )
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-9
            assert abs(np.trace(m).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(m)[0] > -1e-9
            done += 1


class TestNoCloning:
    # a family with one input twice is a spec like any other, so the
    # no-cloning theorem can be put to the engine in its own terms
    @staticmethod
    def families():
        """240 seeded families, a third from each generator, each with its
        tolerance (1e-9, 1e-6 or 1e-2) and its generator for further draws."""
        makers = (
            random_factored_spec,
            lambda rng: random_realizable_spec(rng)[0],
            random_generic_spec,
        )
        for seed in range(240):
            rng = np.random.default_rng(seed)
            yield makers[seed % 3](rng), (1e-9, 1e-6, 1e-2)[seed // 3 % 3], rng

    @staticmethod
    def appended(spec, k, output):
        pairs = spec.pairs + ((spec.pairs[k][0], output),)
        return ProcessSpec(spec.dim_a, spec.dim_b, pairs)

    def test_a_repeated_pair_keeps_the_verdict(self):
        # the forced environment overlaps of the copy are those of pair k and
        # one with k, so a completion extends by repeating row k and any
        # infeasible block stays: a decided verdict cannot flip, and a
        # coherent family stays realizable
        seen = {REALIZABLE: 0, INFEASIBLE: 0, "coherent": 0}
        for spec, tol, _ in self.families():
            verdict = decide_feasibility(spec, tol)
            coherent = verdict.is_realizable and np.max(np.abs(verdict.completed_gram - 1.0)) <= tol
            for k in range(spec.n):
                status = decide_feasibility(self.appended(spec, k, spec.pairs[k][1]), tol).status
                if coherent:
                    assert status == REALIZABLE
                elif verdict.status != UNDETERMINED:
                    assert status in (verdict.status, UNDETERMINED)
            seen["coherent" if coherent else verdict.status] += 1
        assert min(seen.values()) >= 20, seen

    def test_a_second_output_for_one_input_is_infeasible(self):
        # input k sent to an output c with |<b_k|c>| <= 1 - 2 tol, so
        # fidelity below 1 - tol: the forced overlap 1 / <b_k|c> has a
        # modulus above 1 + tol, or <b_k|c> vanishes
        seen = {REALIZABLE: 0, INFEASIBLE: 0, UNDETERMINED: 0}
        for spec, tol, rng in self.families():
            status = decide_feasibility(spec, tol).status
            seen[status] += 1
            d = spec.dim_a * spec.dim_b
            for k, (_, b) in enumerate(spec.pairs):
                w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                w -= np.vdot(b.vector, w) * b.vector
                overlap = rng.choice([0.0, rng.uniform(0.0, 1.0 - 2.0 * tol), 1.0 - 2.0 * tol])
                c = overlap * b.vector + math.sqrt(1.0 - overlap**2) * w / np.linalg.norm(w)
                verdict = decide_feasibility(self.appended(spec, k, PureState(b.dims, c)), tol)
                assert verdict.status == INFEASIBLE
                cert = verdict.certificate
                assert cert.reason in ("modulus_violation", "output_null_input_not")
                if status == REALIZABLE:
                    # every pair of the family passes, so the violation is the copy's
                    assert spec.n in cert.pair
        assert seen[REALIZABLE] >= 20 and seen[INFEASIBLE] >= 20, seen


class TestRecords:
    def test_process_spec_is_frozen_and_keeps_its_cached_arrays(self):
        spec = cloning_process()
        assert spec.rank == 3 and spec.input_matrix() is spec.input_matrix()
        assert_record(spec, ("dim_a", "dim_b", "pairs"), eq=False)
        for cached in ("_arrays", "_span"):
            with pytest.raises(AttributeError):
                setattr(spec, cached, None)
        assert spec.rank == 3 and not spec.input_matrix().flags.writeable

    def test_identity_records_are_frozen(self):
        eg = environment_gram(cloning_process())
        assert_record(eg, ("values", "known"), eq=False)
        verdict = decide_feasibility(cloning_process())
        assert_record(verdict, ("status", "completed_gram", "certificate"), eq=False)
        assert_record(DensityMatrix(np.eye(2) / 2), ("matrix",), eq=False)

    def test_certificate_is_a_frozen_value(self):
        cert = decide_feasibility(uninformed_cloning_process()).certificate
        assert_record(cert, ("reason", "pair", "magnitude"), eq=True)
        assert repr(cert).startswith("Certificate(reason='modulus_violation', pair=(")
        values = ("modulus_violation", (0, 2), math.sqrt(2.0))
        assert_value_record(Certificate, values, ("modulus_violation", (1, 2), math.sqrt(2.0)))
