import itertools
import math

import numpy as np
import pytest

from helpers import (
    assert_record,
    assert_value_record,
    near_dependent_identity_spec,
    random_factored_spec,
)
from qcatalysis import (
    EntangledStateError,
    NOT_CATALYSIS,
    NO_WITNESS_FOUND,
    QUANTUM_CATALYSIS,
    DeletionFamilyPoint,
    ProcessSpec,
    PureState,
    apply_process,
    catalyst_intact,
    circular_pair_input,
    classify,
    cloning_process,
    concurrence,
    decide_feasibility,
    deletion_family_sweep,
    deletion_process,
    deletion_residue,
    fidelity,
    find_entangling_witness,
    inner,
    ket,
    ket_plus,
    phase_aligned_distance,
    product_factorize,
    tensor,
    uninformed_cloning_process,
)
from qcatalysis.analyzer import PairIntactness

SQ2 = 1.0 / math.sqrt(2.0)


def identity_process() -> ProcessSpec:
    pairs = tuple((a, a) for a, _ in cloning_process().pairs)
    return ProcessSpec(2, 2, pairs)


def _deaf_copier_process() -> ProcessSpec:
    """Realizable and catalyst-intact, but with input-dependent environments.

    The two inputs overlap at 0.5 while the outputs overlap at 0.8, forcing
    an environment overlap of 0.625: information leaks into the environment
    and the coherent extension is undefined.
    """
    from qcatalysis import PureState

    u = np.array([0.5, math.sqrt(0.75)])
    w = np.array([0.8, 0.6])
    pairs = (
        (tensor(ket("0"), ket("0")), tensor(ket("0"), ket("0"))),
        (
            PureState((2, 2), np.kron([1.0, 0.0], u)),
            PureState((2, 2), np.kron([1.0, 0.0], w)),
        ),
    )
    return ProcessSpec(2, 2, pairs)


def qubits(labels: str) -> list[PureState]:
    return [ket_plus() if x == "+" else ket(x) for x in labels]


class TestTasks:
    @pytest.mark.parametrize(
        "make, bob_in, bob_out",
        [
            (cloning_process, "00+", "01+"),
            (uninformed_cloning_process, "000", "01+"),
            (deletion_process, "01+", "00+"),
        ],
        ids=["cloning", "uninformed-cloning", "deletion"],
    )
    def test_each_task_is_bob_s_task_beside_alice_s_target(self, make, bob_in, bob_out):
        # pair i is t_i s_i -> t_i r_i with Alice's target t_i of (|0>, |1>, |+>)
        spec = make()
        assert len(spec.pairs) == 3
        for (a, b), t, s, r in zip(spec.pairs, qubits("01+"), qubits(bob_in), qubits(bob_out)):
            assert np.array_equal(a.vector, tensor(t, s).vector)
            assert np.array_equal(b.vector, tensor(t, r).vector)

    @pytest.mark.parametrize("count", [2, 4])
    def test_deletion_refuses_residues_other_than_three(self, count):
        with pytest.raises(ValueError):
            deletion_process((ket("0"),) * count)


class TestCatalystIntact:
    def test_copying_keeps_all_catalysts(self):
        reports = catalyst_intact(cloning_process())
        assert all(p.intact for p in reports)

    def test_deletion_keeps_all_catalysts(self):
        reports = catalyst_intact(deletion_process())
        assert all(p.intact for p in reports)

    def test_flipped_catalyst_detected(self):
        pairs = (
            (tensor(ket("0"), ket("0")), tensor(ket("1"), ket("0"))),
            (tensor(ket("1"), ket("0")), tensor(ket("1"), ket("1"))),
        )
        reports = catalyst_intact(ProcessSpec(2, 2, pairs))
        assert not reports[0].intact
        assert reports[0].catalyst_fidelity == pytest.approx(0.0, abs=1e-12)

    def test_entangled_pair_reported_not_raised(self):
        bell = np.array([SQ2, 0, 0, SQ2])
        from qcatalysis import PureState

        pairs = ((PureState((2, 2), bell), PureState((2, 2), bell)),)
        reports = catalyst_intact(ProcessSpec(2, 2, pairs))
        assert not reports[0].input_is_product
        assert not reports[0].intact


class TestWitnessSearch:
    def test_copying_witness_is_plus_zero(self):
        spec = cloning_process()
        verdict = decide_feasibility(spec)
        w = find_entangling_witness(spec, verdict)
        assert w is not None
        target = tensor(ket_plus(), ket("0"))
        assert phase_aligned_distance(w.input.vector, target.vector) < 1e-9
        assert w.concurrence_in <= 1e-9
        assert w.concurrence_out == pytest.approx(1.0)

    def test_deletion_witness_is_circular_pair(self):
        spec = deletion_process()
        verdict = decide_feasibility(spec)
        w = find_entangling_witness(spec, verdict)
        assert w is not None
        assert phase_aligned_distance(
            w.input.vector, circular_pair_input().vector
        ) < 1e-9
        assert w.concurrence_out == pytest.approx(1.0)

    def test_identity_process_has_no_witness(self):
        import qcatalysis.analyzer as analyzer

        spec = identity_process()
        verdict = decide_feasibility(spec)
        assert find_entangling_witness(spec, verdict) is None
        # on |00> and (|01> + |10>)/sqrt(2) the rank-2 quadratic has
        # q0 = q1 = 0: a double root at x = (1, 0), whose zero-length
        # twin is skipped, leaves |00> as the one product candidate
        pair = PureState((2, 2), np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0))
        spec = ProcessSpec(2, 2, ((ket("00"), ket("00")), (pair, pair)))
        (candidate,) = analyzer._stage_candidates_2x2(spec)
        assert phase_aligned_distance(candidate, ket("00").vector) < 1e-12
        assert find_entangling_witness(spec, decide_feasibility(spec)) is None

    def test_differing_environments_refuse_search(self):
        from qcatalysis import EnvironmentsDifferError

        spec = _deaf_copier_process()
        verdict = decide_feasibility(spec)
        assert verdict.is_realizable
        with pytest.raises(EnvironmentsDifferError):
            find_entangling_witness(spec, verdict)

    @pytest.mark.parametrize(
        "make, named",
        [
            (cloning_process, tensor(ket_plus(), ket("0"))),
            (deletion_process, circular_pair_input()),
        ],
    )
    def test_canonical_stage_keeps_only_named_states_in_the_span(self, make, named):
        # cloning's span holds |+>|0> but not |i>|i>; deletion's the reverse
        import qcatalysis.analyzer as analyzer

        spec = make()
        a = spec.input_matrix()
        rows = analyzer._stage_candidates_canonical(spec, np.linalg.pinv(a), 1e-9)
        assert rows.shape == (spec.n * (spec.n - 1) // 2 + 1, spec.n)
        assert np.max(np.abs(a @ rows[-1] - named.vector)) < 1e-12

    def test_dependent_family_is_served(self):
        # identity on |00>, |01>, |0+>: realizable, coherent and catalyst
        # intact; |0+> is a combination of the other two inputs, and the
        # search runs on their span, where the identity entangles nothing
        inputs = (ket("00"), ket("01"), tensor(ket("0"), ket_plus()))
        spec = ProcessSpec(2, 2, tuple((a, a) for a in inputs))
        verdict = decide_feasibility(spec)
        assert verdict.is_realizable
        assert find_entangling_witness(spec, verdict) is None
        report = classify(spec)
        assert report.coherence_preserving
        assert report.classification == NO_WITNESS_FOUND
        assert report.witness is None
        assert report.reason is None

    @pytest.mark.parametrize("tol", [1e-9, 1e-2])
    def test_independence_guard_ignores_the_tolerance(self, tol):
        report = classify(near_dependent_identity_spec(), tol)
        assert report.coherence_preserving
        assert report.classification == NO_WITNESS_FOUND

    def test_witness_is_sound(self):
        # the record must reproduce through the process machinery itself
        for spec in (cloning_process(), deletion_process()):
            verdict = decide_feasibility(spec)
            w = find_entangling_witness(spec, verdict)
            assert w.concurrence_in <= 1e-9
            assert w.concurrence_out > 1e-6
            assert concurrence(w.input) <= 1e-9
            recomputed = apply_process(spec, verdict, w.input)
            assert phase_aligned_distance(
                recomputed.vector, w.output.vector
            ) < 1e-9
            synth = spec.input_matrix() @ w.coefficients
            assert np.max(np.abs(synth - w.input.vector)) < 1e-9


class TestClassify:
    def test_copying_is_quantum_catalysis(self):
        report = classify(cloning_process())
        assert report.classification == QUANTUM_CATALYSIS
        assert report.catalyst_intact
        assert report.coherence_preserving
        assert report.bob_alone_impossible

    def test_uninformed_copying_is_not_catalysis(self):
        report = classify(uninformed_cloning_process())
        assert report.classification == NOT_CATALYSIS
        assert "modulus_violation" in report.reason
        assert report.verdict.certificate.magnitude == pytest.approx(math.sqrt(2.0))
        assert report.bob_alone_impossible

    def test_identity_process_has_no_witness_class(self):
        report = classify(identity_process())
        assert report.classification == NO_WITNESS_FOUND
        assert report.catalyst_intact

    def test_one_dimensional_catalyst_has_no_witness(self):
        # with dimA = 1 every state is a product: the witness scores take
        # their one-factor branch and no witness is claimed
        basis = [PureState((1, 2), np.array(v)) for v in ([1.0, 0.0], [0.0, 1.0])]
        report = classify(ProcessSpec(1, 2, tuple((a, a) for a in basis)))
        assert report.classification == NO_WITNESS_FOUND
        assert report.verdict.is_realizable and report.coherence_preserving
        assert report.catalyst_intact
        assert report.witness is None

    def test_disturbed_catalyst_reported(self):
        pairs = (
            (tensor(ket("0"), ket("0")), tensor(ket("1"), ket("0"))),
            (tensor(ket("1"), ket("0")), tensor(ket("0"), ket("1"))),
        )
        report = classify(ProcessSpec(2, 2, pairs))
        assert report.classification == NOT_CATALYSIS
        assert "disturbed" in report.reason
        assert "pair 0" in report.reason

    def test_noncoherent_realizable_process(self):
        # realizable and intact, but the environment remembers the input:
        # no witness search is possible and none is claimed
        from qcatalysis import output_density

        spec = _deaf_copier_process()
        report = classify(spec)
        assert report.verdict.is_realizable
        assert report.catalyst_intact
        assert not report.coherence_preserving
        assert report.classification == NO_WITNESS_FOUND
        assert report.witness is None
        # superposing the two inputs decoheres: purity drops below one
        vec = spec.pairs[0][0].vector + spec.pairs[1][0].vector
        from qcatalysis import PureState

        probe = PureState((2, 2), vec / np.linalg.norm(vec))
        rho = output_density(spec, report.verdict, probe)
        assert rho.purity() < 1.0 - 1e-3

    def test_factorizes_each_state_once(self, monkeypatch):
        # catalyst_intact decomposes the 2n states in one batch, and neither
        # it nor classify factorizes a state into PureStates; both agree
        # with a reference built from product_factorize and fidelity
        import qcatalysis
        import qcatalysis.analyzer as analyzer
        import qcatalysis.states as states

        def reference(spec, tol):
            def factors(s):
                try:
                    return product_factorize(s, 1, tol)
                except EntangledStateError:
                    return None

            rows, b_factors = [], []
            for a, b in spec.pairs:
                f_in, f_out = factors(a), factors(b)
                fid = None
                if f_in is not None and f_out is not None:
                    fid = fidelity(f_in[0], f_out[0])
                    b_factors.append((f_in[1], f_out[1]))
                rows.append((f_in is not None, f_out is not None, fid))
            bob = any(
                fidelity(in_i, in_j) >= 1.0 - tol and fidelity(out_i, out_j) <= 1.0 - tol
                for (in_i, out_i), (in_j, out_j) in itertools.combinations(b_factors, 2)
            )
            return rows, bob

        cases = [
            (random_factored_spec(np.random.default_rng(seed)), (1e-9, 1e-6, 1e-2)[seed % 3])
            for seed in range(1200)
        ]
        wanted = [reference(spec, tol) for spec, tol in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the catalyst checks factorize no state")

        batches = []
        real = analyzer._schmidt

        def counting(vecs, *args):
            batches.append(len(vecs))
            return real(vecs, *args)

        monkeypatch.setattr(states, "product_factorize", refuse)
        monkeypatch.setattr(qcatalysis, "product_factorize", refuse)
        monkeypatch.setattr(analyzer, "_schmidt", counting)
        seen = {"intact": 0, "disturbed": 0, "entangled": 0, "bob": 0}
        for (spec, tol), (rows, bob) in zip(cases, wanted):
            batches.clear()
            reports = catalyst_intact(spec, tol)
            assert batches == [2 * spec.n]
            assert classify(spec, tol).bob_alone_impossible == bob
            for report, (in_product, out_product, fid) in zip(reports, rows):
                assert report.input_is_product == in_product
                assert report.output_is_product == out_product
                if fid is None:
                    assert report.catalyst_fidelity is None
                    assert not report.intact
                    seen["entangled"] += 1
                else:
                    assert abs(report.catalyst_fidelity - fid) <= 1e-12
                    assert report.intact == (fid >= 1.0 - tol)
                    seen["intact" if report.intact else "disturbed"] += 1
            seen["bob"] += bob
        # every branch of the checks is exercised many times
        assert min(seen.values()) >= 100, seen

    @pytest.mark.parametrize("side", ["input", "output"])
    @pytest.mark.parametrize("margin", [0.9, 1.1])
    def test_bob_flag_tolerance_edges(self, side, margin):
        # two pairs on A factors |0> and |1>; one side's B factors have
        # fidelity 1 - margin * tol, the other side's are identical (input)
        # or orthogonal (output)
        tol = 1e-6
        theta = math.asin(math.sqrt(margin * tol))
        tilted = PureState((2,), np.array([math.cos(theta), math.sin(theta)]))
        if side == "input":
            pairs = ((ket("00"), ket("00")), (tensor(ket("1"), tilted), ket("11")))
        else:
            pairs = ((ket("00"), ket("00")), (ket("10"), tensor(ket("1"), tilted)))
        flag = classify(ProcessSpec(2, 2, pairs), tol).bob_alone_impossible
        # inputs the same within tol, outputs farther apart than tol
        assert flag == ((margin <= 1.0) if side == "input" else (margin >= 1.0))

    def test_bob_flag_skips_an_entangled_output(self):
        # pair 0 has an entangled output; pairs 1 and 2 share Bob's input
        # factor |1> but not his output factor
        bell = PureState((2, 2), np.array([SQ2, 0, 0, SQ2]))
        pairs = (
            (ket("00"), bell),
            (ket("01"), ket("01")),
            (ket("11"), ket("10")),
        )
        assert classify(ProcessSpec(2, 2, pairs)).bob_alone_impossible

    def test_deterministic(self):
        r1 = classify(cloning_process())
        r2 = classify(cloning_process())
        assert r1.classification == r2.classification
        np.testing.assert_array_equal(
            r1.witness.coefficients, r2.witness.coefficients
        )
        np.testing.assert_array_equal(r1.witness.input.vector, r2.witness.input.vector)


class TestDeletionFamilySweep:
    def test_runs_no_witness_search(self, monkeypatch):
        import qcatalysis.analyzer as analyzer

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep reads one concurrence per point")

        monkeypatch.setattr(analyzer, "find_entangling_witness", refuse)
        monkeypatch.setattr(analyzer, "_schmidt", refuse)
        points = deletion_family_sweep(8)
        assert len(points) == 8
        for p in points:
            assert p.out_concurrence == pytest.approx(abs(p.overlap), abs=1e-12)

    def test_rejects_tiny_step_count(self):
        with pytest.raises(ValueError):
            deletion_family_sweep(1)

    def test_residues_satisfy_reversibility(self):
        for angle in np.linspace(0.0, 2.0 * math.pi, 37):
            r = deletion_residue(angle)
            assert abs(abs(inner(r.vector, ket_plus().vector)) - SQ2) <= 1e-12

    def test_original_point_matches_plain_deletion(self):
        points = deletion_family_sweep(8)
        assert points[0].overlap == pytest.approx(1.0)
        assert points[0].out_concurrence == pytest.approx(1.0)

    def test_orthogonal_point_kills_entanglement(self):
        points = deletion_family_sweep(8)
        mid = points[4]  # residue angle pi: residues |0> and |1>
        assert abs(mid.overlap) <= 1e-9
        assert mid.out_concurrence <= 1e-9

    def test_concurrence_equals_overlap_magnitude(self):
        # closed form: the probe output has concurrence |(1 + e^{i d}) / 2|
        for p in deletion_family_sweep(16):
            assert p.out_concurrence == pytest.approx(abs(p.overlap), abs=1e-12)
            assert abs(p.overlap - (1.0 + np.exp(1j * p.v)) / 2.0) < 1e-12
        # and at both residue angles free: |<r(u)|r(v)>| for seeded (u, v)
        rng = np.random.default_rng(2000)
        for u, v in rng.uniform(0.0, 2.0 * math.pi, (200, 2)):
            r0, r1 = deletion_residue(u), deletion_residue(v)
            spec = deletion_process((r0, r1, ket_plus()))
            out = apply_process(spec, decide_feasibility(spec), circular_pair_input())
            assert concurrence(out) == pytest.approx(abs(inner(r0.vector, r1.vector)), abs=1e-12)

    def test_biconditional_and_threshold(self):
        points = deletion_family_sweep(64)
        for p in points:
            assert (p.out_concurrence <= 1e-9) == (abs(p.overlap) <= 1e-9)
            if abs(p.overlap) > 1e-3:
                assert p.out_concurrence > 1e-6

    def test_every_point_is_catalysis_when_residues_overlap(self):
        for k, p in enumerate(deletion_family_sweep(8)):
            residues = (
                deletion_residue(0.0),
                deletion_residue(p.v),
                ket_plus(),
            )
            report = classify(deletion_process(residues))
            assert report.catalyst_intact
            assert report.verdict.is_realizable
            if abs(p.overlap) > 1e-3:
                assert report.classification == QUANTUM_CATALYSIS


class TestRecords:
    def test_report_and_witness_are_frozen(self):
        report = classify(cloning_process())
        fields = (
            "verdict",
            "pair_reports",
            "catalyst_intact",
            "coherence_preserving",
            "classification",
            "witness",
            "reason",
            "bob_alone_impossible",
        )
        assert_record(report, fields, eq=False)
        fields = ("input", "output", "concurrence_in", "concurrence_out", "coefficients")
        assert_record(report.witness, fields, eq=False)

    def test_pair_intactness_is_a_frozen_value(self):
        pair = classify(cloning_process()).pair_reports[0]
        fields = ("index", "input_is_product", "output_is_product", "catalyst_fidelity", "intact")
        assert_record(pair, fields, eq=True)
        values = (0, True, True, 1.0, True)
        assert_value_record(PairIntactness, values, (0, True, True, None, False))

    def test_deletion_family_point_is_a_frozen_value(self):
        point = deletion_family_sweep(4)[1]
        assert_record(point, ("u", "v", "overlap", "out_concurrence"), eq=True)
        values = (0.0, 0.5, 0.25 + 0.5j, 0.5)
        assert_value_record(DeletionFamilyPoint, values, (0.0, 0.5, 0.25 + 0.5j, None))
