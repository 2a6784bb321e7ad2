"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import math
import time

import numpy as np

from helpers import random_generic_spec, random_realizable_spec, random_unitary
from qcatalysis import (
    GateSpec,
    NONLOCAL_CNOT_LEDGER,
    TELEPORT_LEDGER,
    ProcessSpec,
    PureState,
    apply_gate,
    apply_process,
    circular_pair_input,
    cloning_process,
    concurrence,
    construct_isometry,
    decide_feasibility,
    deletion_family_sweep,
    environment_vectors,
    fidelity,
    ket,
    ket_plus,
    nonlocal_cnot,
    phase_aligned_distance,
    product_factorize,
    random_state,
    schmidt_coefficients,
    standard_triple,
    teleport,
    tensor,
)
from qcatalysis.cli import RunConfig, emit_report, run_scenario


def _verdict(num: int, name: str, conditions: dict) -> None:
    ok = all(conditions.values())
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    failing = [key for key, value in conditions.items() if not value]
    assert not failing, f"criterion {num} ({name}) failed: {failing}"


def test_criterion_1_cloning_catalysis():
    start = time.perf_counter()
    doc, code = run_scenario("cloning", RunConfig())
    elapsed = time.perf_counter() - start
    spec = cloning_process()
    verdict = decide_feasibility(spec)
    v = construct_isometry(spec, verdict)
    sig = environment_vectors(verdict.completed_gram)
    e0 = np.zeros(sig.shape[0], dtype=complex)
    e0[0] = 1.0
    pair_fids = [
        abs(np.vdot(np.kron(b.vector, sig[:, i]), v @ np.kron(a.vector, e0))) ** 2
        for i, (a, b) in enumerate(spec.pairs)
    ]
    witness = doc["witnesses"][0]
    conditions = {
        "exit_code_zero": code == 0,
        "realizable": doc["verdict"]["status"] == "realizable",
        "gram_all_ones": all(
            abs(complex(re, im) - 1.0) <= 1e-9
            for row in doc["verdict"]["completed_gram"]
            for re, im in row
        ),
        "catalyst_intact_three_pairs": doc["catalyst_intact"]["per_pair"] == [True] * 3,
        "isometry_pair_fidelity": min(pair_fids) >= 1.0 - 1e-12,
        "witness_input_plus_zero": phase_aligned_distance(
            np.array([complex(re, im) for re, im in witness["input"]]),
            tensor(ket_plus(), ket("0")).vector,
        )
        <= 1e-9,
        "witness_concurrence_in": witness["concurrence_in"] <= 1e-9,
        "witness_concurrence_out": abs(witness["concurrence_out"] - 1.0) <= 1e-9,
        "runtime_under_1s": elapsed < 1.0,
    }
    _verdict(1, "cloning catalysis", conditions)


def test_criterion_2_deletion_catalysis():
    doc, code = run_scenario("deletion", RunConfig())
    witness = doc["witnesses"][0]
    out_vec = np.array([complex(re, im) for re, im in witness["output"]])
    expected = np.array([0.5, 0.5j, -0.5, 0.5j])
    conditions = {
        "exit_code_zero": code == 0,
        "witness_input_separable": witness["concurrence_in"] <= 1e-9,
        "witness_output_expected_up_to_phase": phase_aligned_distance(
            out_vec, expected
        )
        <= 1e-9,
        "witness_concurrence_out": abs(witness["concurrence_out"] - 1.0) <= 1e-9,
    }
    _verdict(2, "deletion catalysis", conditions)


def test_criterion_3_deletion_family_sweep():
    doc, code = run_scenario("deletion-sweep", RunConfig(steps=64))
    points = doc["sweep"]
    overlaps = [abs(complex(*p["overlap"])) for p in points]
    concs = [p["out_concurrence"] for p in points]
    orthogonal = [c for o, c in zip(overlaps, concs) if o <= 1e-9]
    conditions = {
        "exit_code_zero": code == 0,
        "sixty_four_points": len(points) == 64,
        "biconditional": all(
            (c <= 1e-9) == (o <= 1e-9) for o, c in zip(overlaps, concs)
        ),
        "entangled_when_overlapping": all(
            c > 1e-6 for o, c in zip(overlaps, concs) if o > 1e-3
        ),
        "orthogonal_point_zero": len(orthogonal) == 1 and orthogonal[0] <= 1e-9,
    }
    _verdict(3, "deletion family sweep", conditions)


def test_criterion_4_negative_control():
    doc, code = run_scenario("no-info-cloning", RunConfig())
    cert = doc["verdict"]["certificate"]
    conditions = {
        "exit_code_zero": code == 0,
        "infeasible": doc["verdict"]["status"] == "infeasible",
        "modulus_certificate": cert["reason"] == "modulus_violation",
        "magnitude_sqrt2": abs(cert["magnitude"] - math.sqrt(2.0)) <= 1e-9,
        "pair_involves_third_state": 2 in cert["pair"],
    }
    _verdict(4, "negative control", conditions)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    realizable_checked = 0
    modulus_checked = 0
    iso_ok = True
    cert_ok = True
    for trial in range(200):
        if trial % 2 == 0:
            spec, _ = random_realizable_spec(rng)
        else:
            spec = random_generic_spec(rng)
        verdict = decide_feasibility(spec)
        if verdict.is_realizable:
            v = construct_isometry(spec, verdict)
            sig = environment_vectors(verdict.completed_gram)
            e0 = np.zeros(sig.shape[0], dtype=complex)
            e0[0] = 1.0
            if np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) > 1e-9:
                iso_ok = False
            for i, (a, b) in enumerate(spec.pairs):
                got = v @ np.kron(a.vector, e0)
                want = np.kron(b.vector, sig[:, i])
                if np.max(np.abs(got - want)) > 1e-9:
                    iso_ok = False
            realizable_checked += 1
        elif (
            verdict.certificate is not None
            and verdict.certificate.reason == "modulus_violation"
        ):
            i, j = verdict.certificate.pair
            (a_i, b_i), (a_j, b_j) = spec.pairs[i], spec.pairs[j]
            gi = np.vdot(a_i.vector, a_j.vector)
            go = np.vdot(b_i.vector, b_j.vector)
            if not abs(gi) > abs(go) + 1e-9:
                cert_ok = False
            modulus_checked += 1
    elapsed = time.perf_counter() - start
    conditions = {
        "isometries_valid": iso_ok,
        "modulus_certificates_sound": cert_ok,
        "realizable_cases_exercised": realizable_checked >= 100,
        "modulus_cases_exercised": modulus_checked >= 20,
        "runtime_under_30s": elapsed < 30.0,
    }
    _verdict(5, "oracle equivalence over 200 random specs", conditions)


def test_criterion_6_teleportation_exactness():
    rng = np.random.default_rng(0)
    min_fid = 1.0
    max_prob_err = 0.0
    branch_counts_ok = True
    for _ in range(100):
        state = random_state((2,), rng)
        branches, ledger = teleport(state)
        if len(branches) != 4:
            branch_counts_ok = False
        for b in branches:
            min_fid = min(min_fid, fidelity(b.post_state, state))
            max_prob_err = max(max_prob_err, abs(b.probability - 0.25))
    conditions = {
        "four_branches_each": branch_counts_ok,
        "fidelity_one": min_fid >= 1.0 - 1e-12,
        "probabilities_quarter": max_prob_err <= 1e-12,
        "ledger": ledger == TELEPORT_LEDGER,
    }
    _verdict(6, "teleportation exactness", conditions)


def test_criterion_7_nonlocal_cnot():
    rng = np.random.default_rng(1)
    gate = GateSpec("CNOT", (0, 1))
    min_fid = 1.0
    for _ in range(100):
        state = random_state((2, 2), rng)
        target = apply_gate(gate, state)
        branches, ledger = nonlocal_cnot(state)
        for b in branches:
            min_fid = min(min_fid, fidelity(b.post_state, target))
    pairs_exact = True
    for t, s in zip(standard_triple("target"), standard_triple("source")):
        branches, _ = nonlocal_cnot(tensor(t, s))
        for b in branches:
            if fidelity(b.post_state, tensor(t, t)) < 1.0 - 1e-12:
                pairs_exact = False
    conditions = {
        "random_inputs_match_direct_gate": min_fid >= 1.0 - 1e-12,
        "standard_pairs_reproduced": pairs_exact,
        "single_ebit": ledger.ebits_consumed == 1,
        "ledger": ledger == NONLOCAL_CNOT_LEDGER,
    }
    _verdict(7, "nonlocal CNOT with one entangled pair", conditions)


def test_criterion_8_property_suites_and_determinism():
    rng = np.random.default_rng(8)
    cases = 0
    ok = True

    # gates preserve norm
    gates = [GateSpec("X", (0,)), GateSpec("Z", (1,)), GateSpec("H", (0,)), GateSpec("CNOT", (1, 0))]
    for _ in range(150):
        s = random_state((2, 2), rng)
        g = gates[int(rng.integers(len(gates)))]
        ok &= abs(np.linalg.norm(apply_gate(g, s).vector) - 1.0) < 1e-12
        cases += 1

    # self-inverse gates undo themselves
    for g in gates:
        for _ in range(25):
            s = random_state((2, 2), rng)
            ok &= np.max(np.abs(apply_gate(g, apply_gate(g, s)).vector - s.vector)) < 1e-12
            cases += 1

    # concurrence equals twice the Schmidt-coefficient product
    for _ in range(150):
        s = random_state((2, 2), rng)
        lam = schmidt_coefficients(s)
        ok &= abs(concurrence(s) - 2.0 * lam[0] * lam[1]) < 1e-9
        cases += 1

    # concurrence is invariant under local unitaries
    for _ in range(100):
        s = random_state((2, 2), rng)
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        ok &= abs(concurrence(PureState((2, 2), u @ s.vector)) - concurrence(s)) < 1e-9
        cases += 1

    # factorizing a product state and re-tensoring reproduces it
    for _ in range(100):
        s = tensor(random_state((2,), rng), random_state((3,), rng))
        a, b = product_factorize(s)
        ok &= np.max(np.abs(tensor(a, b).vector - s.vector)) < 1e-9
        cases += 1

    # the span map solves least squares: the residual is orthogonal to the inputs
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim + 1))
        inputs = [random_state((dim, 1), rng) for _ in range(k)]
        a = np.column_stack([s.vector for s in inputs])
        if np.linalg.eigvalsh(a.conj().T @ a)[0] <= 1e-6:
            continue
        spec = ProcessSpec(dim, 1, tuple((s, s) for s in inputs))
        target = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        coeff = spec.span_map @ target
        ok &= np.linalg.norm(a.conj().T @ (target - a @ coeff)) <= 1e-9
        cases += 1

    # the identity on normalized states forces every environment overlap to one
    for _ in range(50):
        states = [random_state((2, 2), rng) for _ in range(3)]
        verdict = decide_feasibility(ProcessSpec(2, 2, tuple((s, s) for s in states)))
        ok &= verdict.is_realizable
        ok &= np.max(np.abs(verdict.completed_gram - 1.0)) < 1e-12
        cases += 1

    # realizable specs round-trip through the constructed dilation
    for _ in range(40):
        spec, env = random_realizable_spec(rng)
        verdict = decide_feasibility(spec)
        ok &= verdict.is_realizable
        ok &= np.max(np.abs(verdict.completed_gram - env)) < 1e-9
        cases += 1

    # coherent action agrees with the isometry route on random inputs
    spec = cloning_process()
    verdict = decide_feasibility(spec)
    v = construct_isometry(spec, verdict)
    for _ in range(100):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        vec = spec.input_matrix() @ c
        vec /= np.linalg.norm(vec)
        state = PureState((2, 2), vec)
        ok &= np.max(np.abs(apply_process(spec, verdict, state).vector - v @ vec)) < 1e-9
        cases += 1

    # sweep points match the closed-form output entanglement |(1+e^{iv})/2|
    for p in deletion_family_sweep(20):
        ok &= abs(p.out_concurrence - abs(p.overlap)) < 1e-9
        cases += 1
    ok &= concurrence(circular_pair_input()) <= 1e-9

    # protocols stay exact on fresh seeds
    for _ in range(60):
        s = random_state((2,), rng)
        for b in teleport(s)[0]:
            ok &= fidelity(b.post_state, s) >= 1.0 - 1e-12
        cases += 1
    gate = GateSpec("CNOT", (0, 1))
    for _ in range(60):
        s = random_state((2, 2), rng)
        target = apply_gate(gate, s)
        for b in nonlocal_cnot(s)[0]:
            ok &= fidelity(b.post_state, target) >= 1.0 - 1e-12
        cases += 1

    # byte-deterministic serialization across two consecutive runs
    cfg = RunConfig(steps=16)
    serial_ok = True
    for scenario in ("cloning", "deletion-sweep"):
        one = emit_report(run_scenario(scenario, cfg)[0], "json")
        two = emit_report(run_scenario(scenario, cfg)[0], "json")
        serial_ok &= one == two

    conditions = {
        "all_property_cases_pass": bool(ok),
        "at_least_1000_cases": cases >= 1000,
        "serialization_byte_deterministic": serial_ok,
    }
    print(f"    (randomized cases run: {cases})")
    _verdict(8, "property suites and deterministic reports", conditions)
