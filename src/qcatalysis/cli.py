"""Scenario runner, process-file checking, and report emission.

Exit codes: 0 pass, 1 negative classification, 2 scenario assertion
failure, 3 undetermined, 64 usage error, 65 data error, 70 internal error,
73 report not written, to the ``--output`` file or to stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
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
from .process import UNDETERMINED, ProcessSpec, construct_isometry
from .states import (
    DEFAULT_TOL,
    MAX_DIM,
    PureState,
    _checked_tol,
    _index,
    _Record,
    inner,
    ket,
    ket_plus,
    phase_aligned_distance,
    random_states,
    tensor,
)
from .teleport import NONLOCAL_CNOT_LEDGER, TELEPORT_LEDGER, nonlocal_cnot, teleport

SCHEMA_VERSION = "1.0"

EXIT_PASS = 0
EXIT_NEGATIVE = 1
EXIT_ASSERTION = 2
EXIT_UNDETERMINED = 3
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70
EXIT_CANTCREAT = 73

_PROTOCOL_INPUTS = 100
# a sweep's time and report size grow linearly with its steps
_MAX_STEPS = 4096
# _fmt's 12 decimals move a unit vector's norm by up to sqrt(2 * MAX_DIM) * 5e-13
_NORM_FLOOR = 1e-10


class UsageError(ValueError):
    pass


class SpecFileError(ValueError):
    """Process file failed to parse or validate; names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class RunConfig(_Record, eq=True):
    def __init__(
        self, tolerance: float = DEFAULT_TOL, format: str = "json", seed: int = 0, steps: int = 64
    ):
        try:
            seed, steps = _index(seed, "seed"), _index(steps, "steps")
            tolerance = _checked_tol(tolerance)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if seed < 0:
            raise UsageError(f"seed must be nonnegative, got {seed}")
        if format not in ("json", "text"):
            raise UsageError(f"format must be 'json' or 'text', got {format!r}")
        if not 2 <= steps <= _MAX_STEPS:
            raise UsageError(f"steps must be between 2 and {_MAX_STEPS}, got {steps}")
        self._set(tolerance=tolerance, format=format, seed=seed, steps=steps)


# ---------------------------------------------------------------------------
# report fields and deterministic serialization
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    s = f"{float(x):.12f}"
    return "0.000000000000" if s == "-0.000000000000" else s


def _render(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_render(value[k])}" for k in sorted(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_render, value)) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _json_bytes(doc: dict) -> bytes:
    return (_render(doc) + "\n").encode("utf-8")


def _json_value(value):
    """A value as JSON values: a record as the mapping of its fields, a
    state as its amplitudes, a list or an array as a list, complex as [re, im]."""
    if isinstance(value, PureState):
        return _json_value(value.vector)
    if isinstance(value, _Record):
        return {f: _json_value(getattr(value, f)) for f in value._fields}
    if isinstance(value, (list, np.ndarray)):
        return [_json_value(x) for x in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    return value


def _flag(label: str):
    return lambda flag: f"{label}: {'yes' if flag else 'no'}"


def _verdict_text(verdict: dict) -> str:
    lines = [f"verdict: {verdict['status']}"]
    cert = verdict["certificate"]
    if cert is not None:
        pair = cert["pair"]
        where = f" at pair ({pair[0]},{pair[1]})" if pair is not None else ""
        lines.append(f"certificate: {cert['reason']}{where}, magnitude {_fmt(cert['magnitude'])}")
    return "\n".join(lines)


def _sweep_text(sweep: list[dict]) -> str:
    concs = [p["out_concurrence"] for p in sweep]
    zero = sum(1 for c in concs if c is not None and c <= 1e-9)
    text = f"sweep points: {len(concs)}\nsweep points with zero output entanglement: {zero}"
    if None in concs:
        text += f"\nsweep points without a realizable verdict: {concs.count(None)}"
    return text


_OPTIONAL = object()

# Every report field, in the order of the text report (JSON sorts the keys):
# its value where a report does not set it (_OPTIONAL: absent), its value from
# a CatalysisReport, and its text from a value that is not None ("": no line)
_REPORT_FIELDS = {
    "schema_version": (SCHEMA_VERSION, None, "qcatalysis report (schema {})".format),
    "scenario": (None, None, "scenario: {}".format),
    "config": (None, None, None),
    "source": (_OPTIONAL, None, None),
    "status": (None, None, "status: {}".format),
    "classification": (None, lambda r: r.classification, "classification: {}".format),
    "reason": (None, lambda r: r.reason, "reason: {}".format),
    "verdict": (None, lambda r: r.verdict, _verdict_text),
    "catalyst_intact": (
        None,
        lambda r: {"per_pair": [p.intact for p in r.pair_reports], "overall": r.catalyst_intact},
        lambda c: _flag("catalyst intact")(c["overall"]),
    ),
    "coherence_preserving": (
        None,
        lambda r: r.coherence_preserving,
        _flag("coherence preserving"),
    ),
    "bob_alone_impossible": (
        None,
        lambda r: r.bob_alone_impossible,
        _flag("conversion impossible for Bob alone"),
    ),
    "witnesses": (
        [],
        lambda r: [] if r.witness is None else [r.witness],
        lambda ws: "\n".join(
            f"witness: concurrence {_fmt(w['concurrence_in'])} -> {_fmt(w['concurrence_out'])}"
            for w in ws
        ),
    ),
    "environment_dimension": (_OPTIONAL, None, None),
    "sweep": (None, None, _sweep_text),
    "protocol": (
        None,
        None,
        lambda p: f"protocol: {p['inputs_checked']} inputs, "
        f"min branch fidelity {_fmt(p['min_branch_fidelity'])}",
    ),
    "ledger": (
        None,
        None,
        "ledger: {ebits_consumed} ebit(s), {cbits_a_to_b} cbit(s) A->B, "
        "{cbits_b_to_a} cbit(s) B->A".format_map,
    ),
    "notes": ([], None, lambda notes: "\n".join(f"note: {note}" for note in notes)),
    "assertions": (
        [],
        None,
        lambda items: "\n".join(
            ["assertions:"] + [f"  [{'ok' if a['passed'] else 'FAIL'}] {a['name']}" for a in items]
        ),
    ),
}


def _doc(scenario: str, config: RunConfig, report: CatalysisReport | None = None, **given) -> dict:
    """A report: the ``given`` fields, the classification from ``report``, and
    every other field that is not optional at its default."""
    given.update(scenario=scenario, config=config)
    doc = {}
    for name, (default, of_report, _) in _REPORT_FIELDS.items():
        if name in given:
            doc[name] = _json_value(given.pop(name))
        elif report is not None and of_report is not None:
            doc[name] = _json_value(of_report(report))
        elif default is not _OPTIONAL:
            doc[name] = _json_value(default)
    if given:
        raise TypeError(f"not report fields: {sorted(given)}")
    return doc


def emit_report(doc: dict, fmt: str) -> bytes:
    """Serialize a report document; json output is byte-deterministic."""
    if fmt == "json":
        return _json_bytes(doc)
    if fmt == "text":
        texts = [
            text(doc[name])
            for name, (_, _, text) in _REPORT_FIELDS.items()
            if text is not None and doc.get(name) is not None
        ]
        return "".join(f"{t}\n" for t in texts if t).encode("utf-8")
    raise UsageError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# scenarios and their checks
# ---------------------------------------------------------------------------


def _finish(doc: dict, checks: list[tuple[str, bool]]) -> tuple[dict, int]:
    passed = all(ok for _, ok in checks)
    doc["assertions"] = [{"name": n, "passed": bool(ok)} for n, ok in checks]
    doc["status"] = "pass" if passed else "fail"
    return doc, EXIT_PASS if passed else EXIT_ASSERTION


def _isometry_checks(spec: ProcessSpec, report: CatalysisReport, tol: float):
    if not report.verdict.is_realizable:
        return False, False, None
    v = construct_isometry(spec, report.verdict, tol)
    b = spec.output_matrix()
    d = b.shape[0]
    r = v.shape[0] // d
    unitary = bool(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) <= 1e-9)
    # got[:, :, i] is V (a_i (x) e0) by (system, environment) index; with rho_i
    # its reduced system state, <b_i|rho_i|b_i> = |(<b_i| (x) I) V (a_i (x) e0)|^2
    got = (v[:, ::r] @ spec.input_matrix()).reshape(d, r, -1)
    weights = np.sum(np.abs(np.sum(b.conj()[:, None, :] * got, axis=0)) ** 2, axis=0)
    return unitary, not np.any(weights < 1.0 - 1e-12), r


def _catalysis_checks(report: CatalysisReport) -> list[tuple[str, bool]]:
    return [
        ("verdict_realizable", report.verdict.is_realizable),
        ("environment_gram_all_ones", report.coherence_preserving),
        ("catalyst_intact_all_pairs", report.catalyst_intact),
    ]


def _witness_checks(
    report: CatalysisReport, input_check: str, expected_in: PureState, expected_out=None
) -> list[tuple[str, bool]]:
    """The witness is found, at ``expected_in`` (the check ``input_check``),
    at ``expected_out`` when one is given, separable and maximally entangled."""
    w = report.witness
    found = w is not None
    checks = [
        ("witness_found", found),
        (input_check, found and phase_aligned_distance(w.input.vector, expected_in.vector) <= 1e-9),
    ]
    if expected_out is not None:
        out_ok = found and phase_aligned_distance(w.output.vector, expected_out.vector) <= 1e-9
        checks.append(("witness_output_expected_pair", out_ok))
    return checks + [
        ("witness_input_separable", found and w.concurrence_in <= 1e-9),
        ("witness_output_maximally_entangled", found and abs(w.concurrence_out - 1.0) <= 1e-9),
    ]


def _scenario_cloning(config: RunConfig) -> tuple[dict, int]:
    tol = config.tolerance
    spec = cloning_process()
    report = classify(spec, tol)
    unitary, pairs_ok, env_dim = _isometry_checks(spec, report, tol)
    plus_zero = tensor(ket_plus(), ket("0"))
    checks = [
        *_catalysis_checks(report),
        ("isometry_unitary", unitary),
        ("isometry_reproduces_pairs", pairs_ok),
        *_witness_checks(report, "witness_input_plus_zero", plus_zero),
        ("bob_alone_impossible", report.bob_alone_impossible),
    ]
    return _finish(_doc("cloning", config, report, environment_dimension=env_dim), checks)


def _scenario_deletion(config: RunConfig) -> tuple[dict, int]:
    tol = config.tolerance
    spec = deletion_process()
    report = classify(spec, tol)
    expected_out = PureState((2, 2), np.array([0.5, 0.5j, -0.5, 0.5j]))
    checks = _catalysis_checks(report) + _witness_checks(
        report, "witness_input_circular_pair", circular_pair_input(), expected_out
    )
    return _finish(_doc("deletion", config, report), checks)


def _scenario_deletion_sweep(config: RunConfig) -> tuple[dict, int]:
    points = deletion_family_sweep(config.steps, config.tolerance)
    plus = ket_plus()
    reversibility = all(
        abs(abs(inner(deletion_residue(p.v).vector, plus.vector)) - 1.0 / math.sqrt(2.0))
        <= 1e-12
        for p in points
    )
    # deletion_family_sweep's law at every point; a point without a
    # realizable verdict (out_concurrence None) fails it
    law = all(
        p.out_concurrence is not None and abs(p.out_concurrence - abs(p.overlap)) <= 1e-9
        for p in points
    )
    checks = [
        ("residue_reversibility_constraint", reversibility),
        ("output_concurrence_equals_residue_overlap", law),
    ]
    return _finish(_doc("deletion-sweep", config, sweep=points), checks)


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
    return _finish(_doc("no-info-cloning", config, report), checks)


def _protocol(min_fid: float, max_prob_err: float | None) -> dict:
    return {
        "inputs_checked": _PROTOCOL_INPUTS,
        "branches_per_input": 4,
        "min_branch_fidelity": min_fid,
        "max_branch_probability_error": max_prob_err,
    }


# a CNOT with the first qubit as control swaps the |10> and |11> amplitudes
_CNOT_COLUMNS = [0, 1, 3, 2]


def _protocol_figures(protocol, dims, columns, seed: int, extra=()):
    """Branch fidelities and probabilities (k, 4) of the seeded inputs, then
    the ``extra`` rows, under the public ``protocol``, and the last ledger.

    The inputs come from one draw; each row becomes a validated PureState
    passed to one ``protocol`` call.  The fidelities to each row's target,
    the row's amplitudes in ``columns`` order, come from one array pass."""
    rows = random_states(dims, _PROTOCOL_INPUTS, np.random.default_rng(seed))
    rows = np.concatenate([rows, np.reshape(extra, (-1, rows.shape[1]))])
    posts = np.empty((len(rows), 4, rows.shape[1]), dtype=np.complex128)
    probs = np.empty((len(rows), 4))
    for i, row in enumerate(rows):
        branches, ledger = protocol(PureState(dims, row))
        posts[i] = [b.post_state.vector for b in branches]
        probs[i] = [b.probability for b in branches]
    fids = np.abs(np.einsum("kbi,ki->kb", posts.conj(), rows[:, columns])) ** 2
    return np.minimum(fids, 1.0), probs, ledger


def _scenario_teleport(config: RunConfig) -> tuple[dict, int]:
    fids, probs, ledger = _protocol_figures(teleport, (2,), [0, 1], config.seed)
    min_fid, max_prob_err = float(fids.min()), float(np.abs(probs - 0.25).max())
    checks = [
        ("all_branches_reproduce_input", min_fid >= 1.0 - 1e-12),
        ("branch_probabilities_quarter", max_prob_err <= 1e-12),
        ("branch_probabilities_sum_to_one", np.abs(probs.sum(1) - 1).max() <= 1e-12),
        ("ledger_one_ebit_two_cbits", ledger == TELEPORT_LEDGER),
    ]
    protocol = _protocol(min_fid, max_prob_err)
    return _finish(_doc("teleport", config, protocol=protocol, ledger=TELEPORT_LEDGER), checks)


def _scenario_nonlocal_cnot(config: RunConfig) -> tuple[dict, int]:
    # cloning's inputs t (x) s follow the drawn inputs; CNOT copies each t
    # onto s, so the same permutation gives their targets t (x) t
    standard = cloning_process().input_matrix().T
    fids, probs, ledger = _protocol_figures(
        nonlocal_cnot, (2, 2), _CNOT_COLUMNS, config.seed, standard
    )
    n = _PROTOCOL_INPUTS
    min_fid = float(fids[:n].min())
    checks = [
        ("all_branches_match_direct_cnot", min_fid >= 1.0 - 1e-12),
        ("branch_probabilities_sum_to_one", np.abs(probs[:n].sum(1) - 1).max() <= 1e-12),
        ("standard_pairs_reproduced", fids[n:].min() >= 1.0 - 1e-12),
        ("ledger_single_ebit", ledger.ebits_consumed == 1),
        ("ledger_one_cbit_each_way", ledger == NONLOCAL_CNOT_LEDGER),
    ]
    notes = [
        "the copying interaction turns a separable input into a maximally "
        "entangled pair (one ebit); classical communication alone cannot "
        "create entanglement, so one shared ebit is necessary, and this "
        "protocol realizes the interaction consuming exactly one",
    ]
    protocol = _protocol(min_fid, None)
    doc = _doc(
        "nonlocal-cnot", config, protocol=protocol, ledger=NONLOCAL_CNOT_LEDGER, notes=notes
    )
    return _finish(doc, checks)


_SCENARIO_RUNNERS = {
    "cloning": _scenario_cloning,
    "deletion": _scenario_deletion,
    "deletion-sweep": _scenario_deletion_sweep,
    "no-info-cloning": _scenario_no_info_cloning,
    "teleport": _scenario_teleport,
    "nonlocal-cnot": _scenario_nonlocal_cnot,
}
SCENARIOS = tuple(_SCENARIO_RUNNERS)


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
    if not math.isfinite(n) or abs(n - 1.0) > max(tol, _NORM_FLOOR):
        raise SpecFileError(field, f"state is not normalized (|norm - 1| = {abs(n - 1.0):.3e})")
    return vec / n


def parse_process_spec(data, tol: float = DEFAULT_TOL) -> ProcessSpec:
    """Build a ProcessSpec from the documented JSON mapping."""
    tol = _checked_tol(tol)
    if not isinstance(data, dict):
        raise SpecFileError("document", "top level must be a JSON object")
    version = data.get("version")
    if not isinstance(version, int) or isinstance(version, bool) or version != 1:
        raise SpecFileError("version", f"unsupported version {version!r}")
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
    if len(raw_pairs) > MAX_DIM:
        raise SpecFileError("pairs", f"{len(raw_pairs)} pairs exceed the cap of {MAX_DIM}")
    pairs = []
    for i, item in enumerate(raw_pairs):
        if not isinstance(item, dict) or "in" not in item or "out" not in item:
            raise SpecFileError(f"pairs[{i}]", "each pair needs 'in' and 'out'")
        vin = _parse_amplitudes(item["in"], f"pairs[{i}].in", dim_a * dim_b, tol)
        vout = _parse_amplitudes(item["out"], f"pairs[{i}].out", dim_a * dim_b, tol)
        pairs.append(
            (PureState((dim_a, dim_b), vin), PureState((dim_a, dim_b), vout))
        )
    return ProcessSpec(dim_a, dim_b, tuple(pairs))


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
        "pairs": [{"in": _json_value(a), "out": _json_value(b)} for a, b in spec.pairs],
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
    status = "pass" if report.classification != NOT_CATALYSIS else "fail"
    doc = _doc("spec-file", config, report, source=str(path), status=status)
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


def _add_common(parser: argparse.ArgumentParser, scenario: bool) -> None:
    defaults = RunConfig()
    parser.add_argument("--tolerance", type=float, default=defaults.tolerance)
    parser.add_argument("--format", choices=("json", "text"), default=defaults.format)
    if scenario:
        # only a scenario draws inputs (--seed) or sweeps (--steps)
        parser.add_argument("--seed", type=int, default=defaults.seed)
        parser.add_argument("--steps", type=int, default=defaults.steps)
    parser.add_argument("--output", default=None, help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcatalysis", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a built-in scenario")
    run.add_argument("scenario", choices=SCENARIOS)
    _add_common(run, scenario=True)
    check = sub.add_parser("check", help="classify a process-spec JSON file")
    check.add_argument("path")
    _add_common(check, scenario=False)
    return parser


def _drop_stdout() -> None:
    """Point stdout's file descriptor at the null device.

    A failed write leaves the report in stdout's buffer; the interpreter
    flushes it again at exit, fails again, prints a second error and exits
    120.  Past this call that flush succeeds (the recipe of the ``signal``
    documentation's note on SIGPIPE).
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        config = RunConfig(**{f: getattr(ns, f) for f in RunConfig._fields if hasattr(ns, f)})
        if ns.command == "run":
            doc, code = run_scenario(ns.scenario, config)
        else:
            doc, code = check_spec_file(ns.path, config)
        payload = emit_report(doc, config.format)
        try:
            if ns.output:
                Path(ns.output).write_bytes(payload)
            else:
                # a text-only stdout, such as io.StringIO, takes the decoded report
                out = getattr(sys.stdout, "buffer", None)
                if out is None:
                    out, payload = sys.stdout, payload.decode("utf-8")
                out.write(payload)
                out.flush()
        except OSError as exc:
            if not ns.output:
                _drop_stdout()
            print(
                f"qcatalysis: cannot write report to {ns.output or 'stdout'}: "
                f"{exc.strerror or exc}",
                file=sys.stderr,
            )
            return EXIT_CANTCREAT
    except UsageError as exc:
        print(f"qcatalysis: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SpecFileError as exc:
        print(f"qcatalysis: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        # a fault of the program, never to be mistaken for a negative verdict;
        # the traceback goes to the package logger, stderr gets one line.
        # Imported here so that a run without a fault never loads logging
        import logging

        logging.getLogger("qcatalysis").debug("internal error", exc_info=True)
        message = " ".join(str(exc).split())
        print(f"qcatalysis: internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    return code


def entry_point():
    """``main`` as the whole process, for the ``qcatalysis`` script and ``-m``.

    The frozen heap is skipped by the interpreter's final collection and left
    to the OS (12-14 ms of a cold run); atexit handlers and the final flush of
    the standard streams, which ``_drop_stdout`` relies on, still run.  Callers
    in process use ``main``, which leaves the collector alone."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
