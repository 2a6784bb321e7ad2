"""Scenario runner, process-file checking, and report emission.

Exit codes: 0 pass, 1 negative classification, 2 scenario assertion
failure, 3 undetermined, 64 usage error, 65 data error, 70 internal error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .analyzer import (
    NOT_CATALYSIS,
    CatalysisReport,
    circular_pair_input,
    classify,
    cloning_process,
    deletion_family_sweep,
    deletion_process,
    deletion_residue,
    uninformed_cloning_process,
)
from .linalg import DEFAULT_TOL, MAX_DIM, inner, phase_aligned_distance
from .process import (
    UNDETERMINED,
    ProcessSpec,
    construct_isometry,
    environment_vectors,
)
from .states import (
    GateSpec,
    PureState,
    apply_gate,
    fidelity,
    ket,
    ket_plus,
    random_state,
    standard_triple,
    tensor,
)
from .teleport import NONLOCAL_CNOT_LEDGER, TELEPORT_LEDGER, nonlocal_cnot, teleport

SCHEMA_VERSION = "1.0"
SCENARIOS = (
    "cloning",
    "deletion",
    "deletion-sweep",
    "no-info-cloning",
    "teleport",
    "nonlocal-cnot",
)

EXIT_PASS = 0
EXIT_NEGATIVE = 1
EXIT_ASSERTION = 2
EXIT_UNDETERMINED = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

_PROTOCOL_INPUTS = 100


class UsageError(ValueError):
    pass


class SpecFileError(ValueError):
    """Process file failed to parse or validate; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class RunConfig:
    tolerance: float = DEFAULT_TOL
    format: str = "json"
    seed: int = 0
    steps: int = 64

    def __post_init__(self):
        # at a tolerance of one every fidelity test 1 - tol is vacuous
        if not 0.0 < self.tolerance < 1.0:
            raise UsageError(f"tolerance must lie in (0, 1), got {self.tolerance}")
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}")
        if self.format not in ("json", "text"):
            raise UsageError(f"format must be 'json' or 'text', got {self.format!r}")
        if self.steps < 2:
            raise UsageError(f"steps must be at least 2, got {self.steps}")


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    s = f"{float(x):.12f}"
    return "0.000000000000" if s == "-0.000000000000" else s


def _render(value, parts: list[str]) -> None:
    if value is None:
        parts.append("null")
    elif isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        parts.append(_fmt(value))
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, dict):
        parts.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _render(value[key], parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(value):
            if i:
                parts.append(",")
            _render(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_bytes(doc: dict) -> bytes:
    parts: list[str] = []
    _render(doc, parts)
    return ("".join(parts) + "\n").encode("utf-8")


def _cnum(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _cvec(v) -> list[list[float]]:
    return [_cnum(z) for z in np.asarray(v).reshape(-1)]


def _cmat(m) -> list[list[list[float]]]:
    return [_cvec(row) for row in np.asarray(m)]


def _text_lines(doc: dict) -> list[str]:
    lines = [f"qcatalysis report (schema {doc['schema_version']})"]
    lines.append(f"scenario: {doc['scenario']}")
    lines.append(f"status: {doc['status']}")
    if doc.get("classification") is not None:
        lines.append(f"classification: {doc['classification']}")
    if doc.get("reason"):
        lines.append(f"reason: {doc['reason']}")
    verdict = doc.get("verdict")
    if verdict is not None:
        lines.append(f"verdict: {verdict['status']}")
        cert = verdict.get("certificate")
        if cert is not None:
            pair = cert["pair"]
            where = f" at pair ({pair[0]},{pair[1]})" if pair is not None else ""
            lines.append(
                f"certificate: {cert['reason']}{where}, magnitude "
                f"{_fmt(cert['magnitude'])}"
            )
    flags = (
        ("catalyst intact", (doc.get("catalyst_intact") or {}).get("overall")),
        ("coherence preserving", doc.get("coherence_preserving")),
        ("conversion impossible for Bob alone", doc.get("bob_alone_impossible")),
    )
    for label, flag in flags:
        if flag is not None:
            lines.append(f"{label}: {'yes' if flag else 'no'}")
    for w in doc.get("witnesses") or []:
        lines.append(
            "witness: concurrence "
            f"{_fmt(w['concurrence_in'])} -> {_fmt(w['concurrence_out'])}"
        )
    if doc.get("sweep") is not None:
        concs = [p["out_concurrence"] for p in doc["sweep"]]
        lines.append(f"sweep points: {len(concs)}")
        zero = sum(1 for c in concs if c is not None and c <= 1e-9)
        lines.append(f"sweep points with zero output entanglement: {zero}")
        if None in concs:
            lines.append(f"sweep points without a realizable verdict: {concs.count(None)}")
    if doc.get("protocol") is not None:
        proto = doc["protocol"]
        lines.append(
            f"protocol: {proto['inputs_checked']} inputs, "
            f"min branch fidelity {_fmt(proto['min_branch_fidelity'])}"
        )
    ledger = doc.get("ledger")
    if ledger is not None:
        lines.append(
            f"ledger: {ledger['ebits_consumed']} ebit(s), "
            f"{ledger['cbits_a_to_b']} cbit(s) A->B, "
            f"{ledger['cbits_b_to_a']} cbit(s) B->A"
        )
    for note in doc.get("notes") or []:
        lines.append(f"note: {note}")
    lines.append("assertions:")
    for item in doc["assertions"]:
        mark = "ok" if item["passed"] else "FAIL"
        lines.append(f"  [{mark}] {item['name']}")
    return lines


def emit_report(doc: dict, fmt: str) -> bytes:
    """Serialize a report document; json output is byte-deterministic."""
    if fmt == "json":
        return _json_bytes(doc)
    if fmt == "text":
        return ("\n".join(_text_lines(doc)) + "\n").encode("utf-8")
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


def _base_doc(scenario: str, config: RunConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario,
        "config": {
            "tolerance": config.tolerance,
            "format": config.format,
            "seed": config.seed,
            "steps": config.steps,
        },
        "classification": None,
        "reason": None,
        "verdict": None,
        "catalyst_intact": None,
        "coherence_preserving": None,
        "bob_alone_impossible": None,
        "witnesses": [],
        "sweep": None,
        "protocol": None,
        "ledger": None,
        "notes": [],
    }


def _verdict_doc(report: CatalysisReport) -> dict:
    v = report.verdict
    cert = None
    if v.certificate is not None:
        cert = {
            "reason": v.certificate.reason,
            "pair": list(v.certificate.pair) if v.certificate.pair is not None else None,
            "magnitude": v.certificate.magnitude,
        }
    return {
        "status": v.status,
        "certificate": cert,
        "completed_gram": _cmat(v.completed_gram) if v.is_realizable else None,
    }


def _witness_doc(report: CatalysisReport) -> list[dict]:
    w = report.witness
    if w is None:
        return []
    return [
        {
            "coefficients": _cvec(w.coefficients),
            "concurrence_in": w.concurrence_in,
            "concurrence_out": w.concurrence_out,
            "input": _cvec(w.input.vector),
            "output": _cvec(w.output.vector),
        }
    ]


def _fill_classification(doc: dict, report: CatalysisReport) -> None:
    doc["classification"] = report.classification
    doc["reason"] = report.reason
    doc["verdict"] = _verdict_doc(report)
    doc["catalyst_intact"] = {
        "per_pair": [p.intact for p in report.pair_reports],
        "overall": report.catalyst_intact,
    }
    doc["coherence_preserving"] = report.coherence_preserving
    doc["bob_alone_impossible"] = report.bob_alone_impossible
    doc["witnesses"] = _witness_doc(report)


def _finish(doc: dict, checks: list[tuple[str, bool]]) -> tuple[dict, int]:
    doc["assertions"] = [{"name": n, "passed": bool(ok)} for n, ok in checks]
    passed = all(ok for _, ok in checks)
    doc["status"] = "pass" if passed else "fail"
    return doc, EXIT_PASS if passed else EXIT_ASSERTION


def _isometry_checks(spec: ProcessSpec, report: CatalysisReport, tol: float):
    if not report.verdict.is_realizable:
        return False, False, None
    v = construct_isometry(spec, report.verdict, tol)
    sig = environment_vectors(report.verdict.completed_gram)
    r = sig.shape[0]
    unitary = bool(
        np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) <= 1e-9
    )
    e0 = np.zeros(r, dtype=np.complex128)
    e0[0] = 1.0
    pairs_ok = True
    for i, (a, b) in enumerate(spec.pairs):
        got = v @ np.kron(a.vector, e0)
        wanted = np.kron(b.vector, sig[:, i])
        if abs(np.vdot(wanted, got)) ** 2 < 1.0 - 1e-12:
            pairs_ok = False
    return unitary, pairs_ok, r


def _scenario_cloning(config: RunConfig) -> tuple[dict, int]:
    tol = config.tolerance
    spec = cloning_process()
    report = classify(spec, tol)
    unitary, pairs_ok, env_dim = _isometry_checks(spec, report, tol)
    w = report.witness
    plus_zero = tensor(ket_plus(), ket("0"))
    checks = [
        ("verdict_realizable", report.verdict.is_realizable),
        ("environment_gram_all_ones", report.coherence_preserving),
        ("catalyst_intact_all_pairs", report.catalyst_intact),
        ("isometry_unitary", unitary),
        ("isometry_reproduces_pairs", pairs_ok),
        ("witness_found", w is not None),
        (
            "witness_input_plus_zero",
            w is not None
            and phase_aligned_distance(w.input.vector, plus_zero.vector) <= 1e-9,
        ),
        ("witness_input_separable", w is not None and w.concurrence_in <= 1e-9),
        (
            "witness_output_maximally_entangled",
            w is not None and abs(w.concurrence_out - 1.0) <= 1e-9,
        ),
        ("bob_alone_impossible", report.bob_alone_impossible),
    ]
    doc = _base_doc("cloning", config)
    _fill_classification(doc, report)
    doc["environment_dimension"] = env_dim
    return _finish(doc, checks)


def _scenario_deletion(config: RunConfig) -> tuple[dict, int]:
    tol = config.tolerance
    spec = deletion_process()
    report = classify(spec, tol)
    w = report.witness
    probe = circular_pair_input()
    expected_out = PureState((2, 2), np.array([0.5, 0.5j, -0.5, 0.5j]))
    checks = [
        ("verdict_realizable", report.verdict.is_realizable),
        ("environment_gram_all_ones", report.coherence_preserving),
        ("catalyst_intact_all_pairs", report.catalyst_intact),
        ("witness_found", w is not None),
        (
            "witness_input_circular_pair",
            w is not None
            and phase_aligned_distance(w.input.vector, probe.vector) <= 1e-9,
        ),
        (
            "witness_output_expected_pair",
            w is not None
            and phase_aligned_distance(w.output.vector, expected_out.vector) <= 1e-9,
        ),
        ("witness_input_separable", w is not None and w.concurrence_in <= 1e-9),
        (
            "witness_output_maximally_entangled",
            w is not None and abs(w.concurrence_out - 1.0) <= 1e-9,
        ),
    ]
    doc = _base_doc("deletion", config)
    _fill_classification(doc, report)
    return _finish(doc, checks)


def _scenario_deletion_sweep(config: RunConfig) -> tuple[dict, int]:
    tol = config.tolerance
    points = deletion_family_sweep(config.steps, tol)
    plus = ket_plus()
    reversibility = all(
        abs(abs(inner(deletion_residue(p.v).vector, plus.vector)) - 1.0 / math.sqrt(2.0))
        <= 1e-12
        for p in points
    )
    # a point without a realizable verdict (out_concurrence None) fails every
    # check on the output entanglement
    decided = all(p.out_concurrence is not None for p in points)
    biconditional = decided and all(
        (p.out_concurrence <= 1e-9) == (abs(p.overlap) <= 1e-9) for p in points
    )
    above = decided and all(
        p.out_concurrence > 1e-6 for p in points if abs(p.overlap) > 1e-3
    )
    orthogonal = [p for p in points if abs(p.overlap) <= 1e-9]
    orthogonal_ok = decided and all(p.out_concurrence <= 1e-9 for p in orthogonal)
    if config.steps % 2 == 0:
        orthogonal_ok = orthogonal_ok and len(orthogonal) >= 1
    checks = [
        ("residue_reversibility_constraint", reversibility),
        ("zero_concurrence_iff_orthogonal_residues", biconditional),
        ("entangled_whenever_residues_overlap", above),
        ("orthogonal_residue_point_zero_concurrence", orthogonal_ok),
    ]
    doc = _base_doc("deletion-sweep", config)
    doc["sweep"] = [
        {
            "u": p.u,
            "v": p.v,
            "overlap": _cnum(p.overlap),
            "out_concurrence": p.out_concurrence,
        }
        for p in points
    ]
    return _finish(doc, checks)


def _scenario_no_info_cloning(config: RunConfig) -> tuple[dict, int]:
    tol = config.tolerance
    spec = uninformed_cloning_process()
    report = classify(spec, tol)
    cert = report.verdict.certificate
    checks = [
        ("classification_not_catalysis", report.classification == NOT_CATALYSIS),
        ("certificate_modulus_violation", cert is not None and cert.reason == "modulus_violation"),
        (
            "certificate_magnitude_sqrt2",
            cert is not None and abs(cert.magnitude - math.sqrt(2.0)) <= 1e-9,
        ),
        (
            "certificate_pair_involves_third_state",
            cert is not None and cert.pair is not None and 2 in cert.pair,
        ),
    ]
    doc = _base_doc("no-info-cloning", config)
    _fill_classification(doc, report)
    return _finish(doc, checks)


def _protocol_doc(name, config, ledger, min_fid, max_prob_err) -> dict:
    doc = _base_doc(name, config)
    doc["protocol"] = {
        "inputs_checked": _PROTOCOL_INPUTS,
        "branches_per_input": 4,
        "min_branch_fidelity": min_fid,
        "max_branch_probability_error": max_prob_err,
    }
    doc["ledger"] = asdict(ledger)
    return doc


def _scenario_teleport(config: RunConfig) -> tuple[dict, int]:
    rng = np.random.default_rng(config.seed)
    min_fid = 1.0
    max_prob_err = 0.0
    max_sum_err = 0.0
    for _ in range(_PROTOCOL_INPUTS):
        state = random_state((2,), rng)
        branches, ledger = teleport(state)
        for b in branches:
            min_fid = min(min_fid, fidelity(b.post_state, state))
            max_prob_err = max(max_prob_err, abs(b.probability - 0.25))
        max_sum_err = max(max_sum_err, abs(sum(b.probability for b in branches) - 1.0))
    checks = [
        ("all_branches_reproduce_input", min_fid >= 1.0 - 1e-12),
        ("branch_probabilities_quarter", max_prob_err <= 1e-12),
        ("branch_probabilities_sum_to_one", max_sum_err <= 1e-12),
        ("ledger_one_ebit_two_cbits", ledger == TELEPORT_LEDGER),
    ]
    doc = _protocol_doc("teleport", config, TELEPORT_LEDGER, min_fid, max_prob_err)
    return _finish(doc, checks)


def _scenario_nonlocal_cnot(config: RunConfig) -> tuple[dict, int]:
    rng = np.random.default_rng(config.seed)
    gate = GateSpec("CNOT", (0, 1))
    min_fid = 1.0
    max_sum_err = 0.0
    for _ in range(_PROTOCOL_INPUTS):
        state = random_state((2, 2), rng)
        target = apply_gate(gate, state)
        branches, ledger = nonlocal_cnot(state)
        for b in branches:
            min_fid = min(min_fid, fidelity(b.post_state, target))
        max_sum_err = max(max_sum_err, abs(sum(b.probability for b in branches) - 1.0))
    pairs_ok = all(
        fidelity(b.post_state, tensor(t, t)) >= 1.0 - 1e-12
        for t, s in zip(standard_triple("target"), standard_triple("source"))
        for b in nonlocal_cnot(tensor(t, s))[0]
    )
    checks = [
        ("all_branches_match_direct_cnot", min_fid >= 1.0 - 1e-12),
        ("branch_probabilities_sum_to_one", max_sum_err <= 1e-12),
        ("standard_pairs_reproduced", pairs_ok),
        ("ledger_single_ebit", ledger.ebits_consumed == 1),
        ("ledger_one_cbit_each_way", ledger == NONLOCAL_CNOT_LEDGER),
    ]
    doc = _protocol_doc("nonlocal-cnot", config, NONLOCAL_CNOT_LEDGER, min_fid, None)
    doc["notes"] = [
        "the copying interaction turns a separable input into a maximally "
        "entangled pair (one ebit); classical communication alone cannot "
        "create entanglement, so one shared ebit is necessary, and this "
        "protocol realizes the interaction consuming exactly one",
    ]
    return _finish(doc, checks)


_SCENARIO_RUNNERS = {
    "cloning": _scenario_cloning,
    "deletion": _scenario_deletion,
    "deletion-sweep": _scenario_deletion_sweep,
    "no-info-cloning": _scenario_no_info_cloning,
    "teleport": _scenario_teleport,
    "nonlocal-cnot": _scenario_nonlocal_cnot,
}


def run_scenario(name: str, config: RunConfig) -> tuple[dict, int]:
    """Run a named end-to-end scenario; exit 0 only if all checks pass."""
    runner = _SCENARIO_RUNNERS.get(name)
    if runner is None:
        raise UsageError(f"unknown scenario {name!r} (choose from {', '.join(SCENARIOS)})")
    return runner(config)


# ---------------------------------------------------------------------------
# process-spec files
# ---------------------------------------------------------------------------


def _parse_amplitudes(raw, field: str, dim: int, tol: float) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim:
        raise SpecFileError(field, f"expected a list of {dim} [re, im] pairs")
    vec = np.empty(dim, dtype=np.complex128)
    for k, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in item)
        ):
            raise SpecFileError(f"{field}[{k}]", "expected a [re, im] pair of numbers")
        try:
            vec[k] = complex(item[0], item[1])
        except OverflowError as exc:
            raise SpecFileError(f"{field}[{k}]", f"amplitude out of range: {exc}") from exc
    if not np.all(np.isfinite(vec.view(np.float64))):
        raise SpecFileError(field, "amplitudes must be finite")
    n = math.sqrt(np.vdot(vec, vec).real)
    if not math.isfinite(n) or n == 0.0 or abs(n - 1.0) > tol:
        raise SpecFileError(field, f"state is not normalized (norm {n:.12f})")
    return vec / n


def parse_process_spec(data, tol: float = DEFAULT_TOL) -> ProcessSpec:
    """Build a ProcessSpec from the documented JSON mapping."""
    if not isinstance(data, dict):
        raise SpecFileError("document", "top level must be a JSON object")
    if data.get("version") != 1:
        raise SpecFileError("version", f"unsupported version {data.get('version')!r}")
    dims = []
    for key in ("dimA", "dimB"):
        value = data.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise SpecFileError(key, "must be a positive integer")
        dims.append(value)
    dim_a, dim_b = dims
    if dim_a * dim_b > MAX_DIM:
        raise SpecFileError("dimA", f"dimA*dimB exceeds the cap of {MAX_DIM}")
    raw_pairs = data.get("pairs")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise SpecFileError("pairs", "must be a nonempty list")
    pairs = []
    for i, item in enumerate(raw_pairs):
        if not isinstance(item, dict) or "in" not in item or "out" not in item:
            raise SpecFileError(f"pairs[{i}]", "each pair needs 'in' and 'out'")
        vin = _parse_amplitudes(item["in"], f"pairs[{i}].in", dim_a * dim_b, tol)
        vout = _parse_amplitudes(item["out"], f"pairs[{i}].out", dim_a * dim_b, tol)
        pairs.append(
            (PureState((dim_a, dim_b), vin), PureState((dim_a, dim_b), vout))
        )
    try:
        return ProcessSpec(dim_a, dim_b, tuple(pairs))
    except ValueError as exc:
        raise SpecFileError("pairs", str(exc)) from exc


def load_process_spec(path, tol: float = DEFAULT_TOL) -> ProcessSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecFileError("file", f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecFileError("file", f"invalid JSON: {exc}") from exc
    return parse_process_spec(data, tol)


def process_spec_to_mapping(spec: ProcessSpec) -> dict:
    """Inverse of parse_process_spec, for writing spec files."""
    return {
        "version": 1,
        "dimA": spec.dim_a,
        "dimB": spec.dim_b,
        "pairs": [
            {"in": _cvec(a.vector), "out": _cvec(b.vector)}
            for a, b in spec.pairs
        ],
    }


def save_process_spec(spec: ProcessSpec, path) -> None:
    Path(path).write_bytes(_json_bytes(process_spec_to_mapping(spec)))


def check_spec_file(path, config: RunConfig) -> tuple[dict, int]:
    """Classify the process described by a spec file.

    Exit 0 for a realizable, catalyst-intact process (with or without a
    witness), 1 for a negative classification, 3 for undetermined.
    """
    spec = load_process_spec(path, config.tolerance)
    report = classify(spec, config.tolerance)
    doc = _base_doc("spec-file", config)
    doc["source"] = str(path)
    _fill_classification(doc, report)
    doc["assertions"] = []
    doc["status"] = "pass" if report.classification != NOT_CATALYSIS else "fail"
    if report.verdict.status == UNDETERMINED:
        return doc, EXIT_UNDETERMINED
    if report.classification == NOT_CATALYSIS:
        return doc, EXIT_NEGATIVE
    return doc, EXIT_PASS


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOL)
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=64)
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcatalysis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a built-in scenario")
    run.add_argument("scenario", choices=SCENARIOS)
    _add_common(run)
    check = sub.add_parser("check", help="classify a process-spec JSON file")
    check.add_argument("path")
    _add_common(check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        config = RunConfig(
            tolerance=ns.tolerance, format=ns.format, seed=ns.seed, steps=ns.steps
        )
    except UsageError as exc:
        print(f"qcatalysis: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if ns.command == "run":
            doc, code = run_scenario(ns.scenario, config)
        else:
            doc, code = check_spec_file(ns.path, config)
        payload = emit_report(doc, config.format)
        if ns.output:
            Path(ns.output).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except UsageError as exc:
        print(f"qcatalysis: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecFileError as exc:
        print(f"qcatalysis: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        # a fault of the program, never to be mistaken for a negative verdict;
        # the traceback goes to the package logger, stderr gets one line
        logging.getLogger("qcatalysis").debug("internal error", exc_info=True)
        message = " ".join(str(exc).split())
        print(f"qcatalysis: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
