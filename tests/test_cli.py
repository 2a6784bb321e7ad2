import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_record,
    assert_value_record,
    chordal_spec,
    controlled_unitary_spec,
    golden_report,
    near_dependent_identity_spec,
    random_realizable_spec,
    run_fresh_python,
    trace_out_environment,
    undetermined_cycle_spec,
)
from qcatalysis import (
    PureState,
    apply_process,
    classify,
    cloning_process,
    construct_isometry,
    decide_feasibility,
    deletion_process,
    environment_vectors,
    uninformed_cloning_process,
)
from qcatalysis.cli import (
    EXIT_ASSERTION,
    EXIT_CANTCREAT,
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_NEGATIVE,
    EXIT_PASS,
    EXIT_UNDETERMINED,
    EXIT_USAGE,
    RunConfig,
    SCENARIOS,
    SpecFileError,
    UsageError,
    check_spec_file,
    emit_report,
    load_process_spec,
    main,
    parse_process_spec,
    process_spec_to_mapping,
    run_scenario,
    save_process_spec,
)

IDENTITY_FILE = {
    "version": 1,
    "dimA": 2,
    "dimB": 2,
    "pairs": [
        {"in": [[1, 0], [0, 0], [0, 0], [0, 0]], "out": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"in": [[0, 0], [0, 0], [1, 0], [0, 0]], "out": [[0, 0], [0, 0], [1, 0], [0, 0]]},
    ],
}

# independent inputs whose overlap cannot survive: |<in|in>| = 1/sqrt(2) but
# the outputs are orthogonal, an impossible overlap increase
_S = 1.0 / np.sqrt(2.0)
NEGATIVE_FILE = {
    "version": 1,
    "dimA": 2,
    "dimB": 2,
    "pairs": [
        {"in": [[1, 0], [0, 0], [0, 0], [0, 0]], "out": [[1, 0], [0, 0], [0, 0], [0, 0]]},
        {"in": [[_S, 0], [0, 0], [_S, 0], [0, 0]], "out": [[0, 0], [0, 0], [0, 0], [1, 0]]},
    ],
}


# the report fields that classify a process, which check of a scenario's
# spec file shares with run of the scenario
CLASSIFICATION_FIELDS = (
    "classification",
    "reason",
    "verdict",
    "catalyst_intact",
    "coherence_preserving",
    "bob_alone_impossible",
    "witnesses",
)


# the values a report may hold, nested in dicts, lists and tuples
KEYS = st.text(max_size=4)
JSON_DOCS = st.dictionaries(
    KEYS,
    st.recursive(
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(),
        lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(KEYS, inner),
        max_leaves=12,
    ),
)


def as_read_back(value):
    """``value`` as JSON reads its report back: a float at 12 decimals, with
    no negative zero, and a tuple as a list."""
    if isinstance(value, float):
        return round(value, 12) + 0.0
    if isinstance(value, (list, tuple)):
        return [as_read_back(x) for x in value]
    if isinstance(value, dict):
        return {k: as_read_back(v) for k, v in value.items()}
    return value


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


class TestScenarios:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_all_scenarios_pass(self, name):
        config = RunConfig(steps=16)
        doc, code = run_scenario(name, config)
        assert code == EXIT_PASS
        assert doc["status"] == "pass"
        assert all(a["passed"] for a in doc["assertions"])

    def test_unknown_scenario(self):
        with pytest.raises(UsageError):
            run_scenario("bogus", RunConfig())

    def test_cloning_report_contents(self):
        doc, _ = run_scenario("cloning", RunConfig())
        assert doc["classification"] == "quantum_catalysis"
        assert doc["verdict"]["status"] == "realizable"
        gram = np.array(
            [[complex(re, im) for re, im in row] for row in doc["verdict"]["completed_gram"]]
        )
        np.testing.assert_allclose(gram, np.ones((3, 3)), atol=1e-12)
        assert doc["environment_dimension"] == 1
        assert len(doc["witnesses"]) == 1

    def test_sweep_report_has_requested_points(self):
        doc, _ = run_scenario("deletion-sweep", RunConfig(steps=12))
        assert len(doc["sweep"]) == 12

    def test_sweep_fails_when_the_concurrence_leaves_the_overlap(self, monkeypatch):
        # halved concurrences still vanish only at orthogonal residues, so
        # only the exact law tells them from the sweep's own
        import qcatalysis.cli as cli
        from qcatalysis import DeletionFamilyPoint

        sweep = cli.deletion_family_sweep

        def halved(*args):
            return [
                DeletionFamilyPoint(p.u, p.v, p.overlap, p.out_concurrence / 2)
                for p in sweep(*args)
            ]

        monkeypatch.setattr(cli, "deletion_family_sweep", halved)
        doc, code = run_scenario("deletion-sweep", RunConfig())
        assert code == EXIT_ASSERTION
        failed = [a["name"] for a in doc["assertions"] if not a["passed"]]
        assert failed == ["output_concurrence_equals_residue_overlap"]

    def test_isometry_pair_check_matches_per_pair_reference(self, monkeypatch):
        # every other unitary has its columns shuffled, so both answers occur
        import qcatalysis.cli as cli

        rng = np.random.default_rng(41)
        seen = {True: 0, False: 0}
        for k in range(40):
            spec, _ = random_realizable_spec(rng)
            report = classify(spec)
            v = construct_isometry(spec, report.verdict)
            if k % 2:
                v = v[:, rng.permutation(v.shape[1])]
            monkeypatch.setattr(cli, "construct_isometry", lambda *args: v)
            r = environment_vectors(report.verdict.completed_gram).shape[0]
            e0 = np.eye(r)[0]
            # <b_i|rho_i|b_i> >= 1 - 1e-12, rho_i the reduced system state of V (a_i (x) e0)
            rhos = [trace_out_environment(v @ np.kron(a.vector, e0), r) for a, _ in spec.pairs]
            expected = all(
                np.vdot(b.vector, rho @ b.vector).real >= 1.0 - 1e-12
                for rho, (_, b) in zip(rhos, spec.pairs)
            )
            unitary, pairs_ok, env_dim = cli._isometry_checks(spec, report, 1e-9)
            assert (unitary, pairs_ok, env_dim) == (True, expected, r)
            seen[expected] += 1
        assert min(seen.values()) >= 10


class TestEmission:
    def test_json_is_byte_deterministic(self):
        config = RunConfig()
        one = emit_report(run_scenario("cloning", config)[0], "json")
        two = emit_report(run_scenario("cloning", config)[0], "json")
        assert one == two
        assert json.loads(one)

    @pytest.mark.parametrize(
        "name,fmt",
        [pytest.param(name, "json", id=name) for name in SCENARIOS]
        + [pytest.param(name, "text", id=f"{name}-text") for name in SCENARIOS],
    )
    def test_json_matches_golden_report(self, name, fmt):
        payload = emit_report(run_scenario(name, RunConfig(format=fmt))[0], fmt)
        assert payload == golden_report(name, fmt)

    def test_unit_concurrence_fixed_format(self):
        doc, _ = run_scenario("cloning", RunConfig())
        payload = emit_report(doc, "json")
        assert b'"concurrence_out":1.000000000000' in payload

    def test_text_format_names_scenario_and_classification(self):
        doc, _ = run_scenario("cloning", RunConfig(format="text"))
        text = emit_report(doc, "text").decode()
        assert "scenario: cloning" in text
        assert "classification: quantum_catalysis" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(UsageError):
            emit_report({"schema_version": "1.0"}, "yaml")
        # nor does it render a value of a type that JSON has no form for
        with pytest.raises(TypeError, match="^cannot serialize object$"):
            emit_report({"x": object()}, "json")

    @given(JSON_DOCS)
    @settings(max_examples=200, deadline=None)
    def test_json_writer_round_trips_with_sorted_keys_and_no_whitespace(self, doc):
        from qcatalysis.cli import _json_bytes

        payload = _json_bytes(doc)
        assert payload.endswith(b"\n")

        def sorted_pairs(pairs):
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys)
            return dict(pairs)

        read = json.loads(payload, object_pairs_hook=sorted_pairs)
        # the dumps compare types and the sign of zero, which == does not
        assert json.dumps(read, sort_keys=True) == json.dumps(as_read_back(doc), sort_keys=True)
        outside_strings = re.sub(rb'"(?:[^"\\]|\\.)*"', b"", payload[:-1])
        assert not re.search(rb"\s", outside_strings)


class TestSpecFiles:
    def test_round_trip_preserves_classification(self, tmp_path):
        spec = cloning_process()
        path = tmp_path / "cloning.json"
        save_process_spec(spec, path)
        loaded = load_process_spec(path)
        before = classify(spec)
        after = classify(loaded)
        assert before.classification == after.classification
        np.testing.assert_array_equal(
            before.witness.coefficients, after.witness.coefficients
        )

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-3, 0.42])
    @pytest.mark.parametrize("name", ["cloning", "deletion", "no-info-cloning"])
    def test_check_cloning_file_matches_scenario(self, name, tolerance, tmp_path):
        # check of a scenario's spec saved to a file classifies it as run
        # does, dependent inputs (no-info-cloning) included, and exits by
        # check's own rule
        make = {
            "cloning": cloning_process,
            "deletion": deletion_process,
            "no-info-cloning": uninformed_cloning_process,
        }[name]
        path = tmp_path / f"{name}.json"
        save_process_spec(make(), path)
        config = RunConfig(tolerance=tolerance)
        doc, code = check_spec_file(path, config)
        ran, _ = run_scenario(name, config)
        for field in CLASSIFICATION_FIELDS:
            assert emit_report({field: doc[field]}, "json") == emit_report(
                {field: ran[field]}, "json"
            ), field
        if doc["verdict"]["status"] == "undetermined":
            assert code == EXIT_UNDETERMINED
        elif doc["classification"] == "not_catalysis":
            assert code == EXIT_NEGATIVE
        else:
            assert code == EXIT_PASS
        if (name, tolerance) == ("cloning", 1e-9):
            assert doc["classification"] == "quantum_catalysis"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_check_rotated_deletion_file_matches_golden_report(self, fmt, tmp_path, monkeypatch):
        # the product-vector scan decides this witness; the file is checked
        # under its relative name, which the report records as its source
        from test_witness_search import rotated_deletion_spec

        name = "rotated-deletion-3.spec.json"
        save_process_spec(rotated_deletion_spec(3), tmp_path / name)
        monkeypatch.chdir(tmp_path)
        doc, code = check_spec_file(name, RunConfig(format=fmt))
        assert code == EXIT_PASS
        assert emit_report(doc, fmt) == golden_report("rotated-deletion-3", fmt)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_check_controlled_unitary_file_matches_golden_report(self, fmt, tmp_path, monkeypatch):
        # four inputs span the two qubits, so the closed-form full-span
        # witness decides this one; the canonical stage's best is only about 0.71
        name = "controlled-unitary.spec.json"
        save_process_spec(controlled_unitary_spec(4), tmp_path / name)
        monkeypatch.chdir(tmp_path)
        doc, code = check_spec_file(name, RunConfig(format=fmt))
        assert code == EXIT_PASS
        assert emit_report(doc, fmt) == golden_report("controlled-unitary", fmt)

    @pytest.mark.parametrize(
        "name,realizable,fmt",
        [
            pytest.param(name, realizable, fmt, id=f"{name}-{realizable}{suffix}")
            for name, realizable in [
                ("chordal-fill-4", True),
                ("chordal-psd-violation", False),
                ("chordal-rank-one", True),
            ]
            for fmt, suffix in [("json", ""), ("text", "-text")]
        ],
    )
    def test_check_chordal_file_matches_golden_report(
        self, name, realizable, fmt, tmp_path, monkeypatch
    ):
        # a disturbed catalyst with one free environment overlap: the chordal
        # rule fills it (realizable; for rank-one, over a singular block that
        # the rank cut decides) or certifies a determined clique that is not
        # PSD; either way the classification is not_catalysis.  The PSD
        # violation's certificate names no pair, so its text has no "at pair"
        spec = chordal_spec(0, realizable, rank_one=name == "chordal-rank-one")
        save_process_spec(spec, tmp_path / f"{name}.spec.json")
        monkeypatch.chdir(tmp_path)
        doc, code = check_spec_file(f"{name}.spec.json", RunConfig(format=fmt))
        assert code == EXIT_NEGATIVE
        assert emit_report(doc, fmt) == golden_report(name, fmt)

    def test_deletion_round_trip(self, tmp_path):
        path = tmp_path / "deletion.json"
        save_process_spec(deletion_process(), path)
        doc, code = check_spec_file(path, RunConfig())
        assert code == EXIT_PASS

    def test_identity_file_passes_without_witness(self, tmp_path):
        path = write_json(tmp_path, "ident.json", IDENTITY_FILE)
        doc, code = check_spec_file(path, RunConfig())
        assert code == EXIT_PASS
        assert doc["classification"] == "no_entangling_witness_found"

    def test_unnormalized_state_names_pair(self, tmp_path):
        bad = json.loads(json.dumps(IDENTITY_FILE))
        bad["pairs"][1]["in"][0] = [3.0, 0.0]
        path = write_json(tmp_path, "bad.json", bad)
        with pytest.raises(SpecFileError) as exc:
            check_spec_file(path, RunConfig())
        assert exc.value.field == "pairs[1].in"

    def test_zero_vector_names_pair(self, tmp_path):
        # at the loosest tolerance the parser accepts, a zero vector's
        # |norm - 1| = 1 still fails the norm test
        bad = json.loads(json.dumps(IDENTITY_FILE))
        bad["pairs"][1]["in"] = [[0, 0]] * 4
        path = write_json(tmp_path, "zero.json", bad)
        with pytest.raises(SpecFileError) as exc:
            load_process_spec(path, 0.99)
        assert exc.value.field == "pairs[1].in"

    def test_dependent_inputs_decided(self, tmp_path):
        # a repeated pair is a spec like any other: the identity on it is
        # realizable and coherent, and the witness search runs on the span
        # of its first input, finding none
        dep = json.loads(json.dumps(IDENTITY_FILE))
        dep["pairs"][1] = dep["pairs"][0]
        path = write_json(tmp_path, "dep.json", dep)
        doc, code = check_spec_file(path, RunConfig())
        assert code == EXIT_PASS
        assert doc["classification"] == "no_entangling_witness_found"
        assert doc["reason"] is None

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        payloads = (
            b"{not json",
            b'{"version": 1, "note": "\xe9"}',  # not UTF-8
            b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder recurses
        )
        for payload in payloads:
            path.write_bytes(payload)
            with pytest.raises(SpecFileError) as exc:
                load_process_spec(path)
            assert exc.value.field == "file"

    def test_tolerance_flag_governs_normalization(self, tmp_path):
        loose = json.loads(json.dumps(IDENTITY_FILE))
        loose["pairs"][0]["in"][0] = [1.0005, 0.0]
        path = write_json(tmp_path, "loose.json", loose)
        with pytest.raises(SpecFileError):
            check_spec_file(path, RunConfig())
        # within a relaxed tolerance the state is accepted and renormalized
        doc, code = check_spec_file(path, RunConfig(tolerance=1e-2))
        assert code == EXIT_PASS

    @pytest.mark.parametrize("tolerance", ["1e-13", "1e-16"])
    def test_saved_files_pass_the_norm_test_at_any_tolerance(self, tolerance, tmp_path, capsys):
        # the 12 decimals of a saved file move a norm by about 1e-12, which a
        # tighter --tolerance must not reject as unnormalized
        specs = [cloning_process(), deletion_process(), chordal_spec(0), chordal_spec(0, False)]
        specs.append(chordal_spec(0, True, rank_one=True))
        specs.append(random_realizable_spec(np.random.default_rng(7))[0])
        for k, spec in enumerate(specs):
            path = tmp_path / f"spec{k}.json"
            save_process_spec(spec, path)
            code = main(["check", str(path), "--tolerance", tolerance, "--output", str(tmp_path / "r.json")])
            assert code in (EXIT_PASS, EXIT_NEGATIVE, EXIT_UNDETERMINED), capsys.readouterr().err

    def test_unnormalized_state_message_gives_its_deviation(self, tmp_path, capsys):
        off = json.loads(json.dumps(IDENTITY_FILE))
        off["pairs"][0]["in"][0] = [1.0 + 1e-6, 0.0]
        path = write_json(tmp_path, "off.json", off)
        assert main(["check", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == (
            "qcatalysis: pairs[0].in: state is not normalized (|norm - 1| = 1.000e-06)\n"
        )

    def test_pairs_are_capped(self, tmp_path, capsys):
        # the number of pairs is bounded as the dimension is, before any
        # state is built; the cap itself is decided
        many = json.loads(json.dumps(IDENTITY_FILE))
        many["pairs"] = (IDENTITY_FILE["pairs"] * 33)[:65]
        path = write_json(tmp_path, "many.json", many)
        assert main(["check", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == "qcatalysis: pairs: 65 pairs exceed the cap of 64\n"
        many["pairs"] = many["pairs"][:64]
        doc, code = check_spec_file(write_json(tmp_path, "cap.json", many), RunConfig())
        assert code == EXIT_PASS
        assert doc["verdict"]["status"] == "realizable"

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda d: d.update(version=2), "version"),
            pytest.param(lambda d: d.update(version=True), "version", id="version-bool"),
            pytest.param(lambda d: d.update(version=1.0), "version", id="version-float"),
            (lambda d: d.update(dimA=0), "dimA"),
            (lambda d: d.update(dimA=9, dimB=9), "dimA"),
            (lambda d: d.update(pairs=[]), "pairs"),
            (lambda d: d["pairs"][0].pop("out"), "pairs[0]"),
            (lambda d: d["pairs"][0].update({"in": [[1, 0]]}), "pairs[0].in"),
            pytest.param(
                lambda d: d["pairs"][0]["in"][0].__setitem__(0, 10**400),
                "pairs[0].in[0]",
                id="int-beyond-float",
            ),
            pytest.param(
                lambda d: d["pairs"][0]["in"][0].__setitem__(0, 1e200),
                "pairs[0].in",
                id="norm-overflow",
            ),
            pytest.param(
                lambda d: d["pairs"][0]["in"].__setitem__(3, [1e300, 1e300]),
                "pairs[0].in",
                id="norm-not-a-number",
            ),
            pytest.param(
                lambda d: d["pairs"][0]["in"].__setitem__(0, 1),
                "pairs[0].in[0]",
                id="amplitude-not-a-pair",
            ),
            # JSON's 1e400 parses as inf
            pytest.param(
                lambda d: d["pairs"][0]["in"][0].__setitem__(0, json.loads("1e400")),
                "pairs[0].in",
                id="non-finite",
            ),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_schema_violations_name_field(self, mutate, field):
        data = json.loads(json.dumps(IDENTITY_FILE))
        mutate(data)
        with pytest.raises(SpecFileError) as exc:
            parse_process_spec(data)
        assert exc.value.field == field

    def test_top_level_list_is_refused(self):
        with pytest.raises(SpecFileError) as exc:
            parse_process_spec([IDENTITY_FILE])
        assert exc.value.field == "document"

    def test_mapping_round_trip_is_exact(self):
        spec = deletion_process()
        data = process_spec_to_mapping(spec)
        loaded = parse_process_spec(data)
        for (a, b), (c, d) in zip(spec.pairs, loaded.pairs):
            np.testing.assert_allclose(a.vector, c.vector, atol=1e-12)
            np.testing.assert_allclose(b.vector, d.vector, atol=1e-12)


class TestMainEntryPoint:
    def test_run_writes_report_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["run", "no-info-cloning", "--output", str(out)])
        assert code == EXIT_PASS
        doc = json.loads(out.read_bytes())
        assert doc["classification"] == "not_catalysis"
        assert doc["verdict"]["certificate"]["reason"] == "modulus_violation"

    @pytest.mark.parametrize("where", ["missing/report.json", "."], ids=["no-dir", "a-dir"])
    def test_unwritable_output_is_not_an_internal_error(self, where, tmp_path, capsys):
        out = tmp_path / where
        assert main(["run", "no-info-cloning", "--output", str(out)]) == EXIT_CANTCREAT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"qcatalysis: cannot write report to {out}: ")
        assert "internal error" not in captured.err

    def test_unwritable_stdout_is_not_an_internal_error(self, monkeypatch, capsys, tmp_path):
        class FullDisk:
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def flush(self):
                pass

        # a descriptor of the test's own, which main points at the null device
        with open(tmp_path / "stdout", "wb") as sink:
            stdout = SimpleNamespace(buffer=FullDisk(), fileno=sink.fileno)
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["run", "cloning"]) == EXIT_CANTCREAT
            assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
        err = capsys.readouterr().err
        assert err == f"qcatalysis: cannot write report to stdout: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_text_only_stdout_takes_the_decoded_report(self, fmt):
        # a caller's io.StringIO has no binary buffer to write the bytes to
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["run", "cloning", "--format", fmt]) == EXIT_PASS
        assert out.getvalue() == golden_report("cloning", fmt).decode("utf-8")

    @pytest.mark.parametrize("where", ["full-disk", "closed-pipe"])
    def test_unwritable_stdout_exits_73_in_a_fresh_interpreter(self, where):
        # a buffered stdout keeps the unwritten report; unless main drops it,
        # the interpreter's own flush at exit fails again and exits 120
        if where == "full-disk":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            stdout = os.open("/dev/full", os.O_WRONLY)
            reason = os.strerror(errno.ENOSPC)
        else:
            read_end, stdout = os.pipe()
            os.close(read_end)
            reason = os.strerror(errno.EPIPE)
        try:
            result = run_fresh_python(
                ["-m", "qcatalysis.cli", "run", "cloning"],
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(stdout)
        assert result.returncode == EXIT_CANTCREAT, result.stderr
        assert result.stderr == f"qcatalysis: cannot write report to stdout: {reason}\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("seed", [1, 2**32])
    @pytest.mark.parametrize("name", ["teleport", "nonlocal-cnot"])
    def test_protocols_pass_at_other_seeds(self, name, seed, fmt, tmp_path):
        # the goldens pin the protocols at seed 0 only; at other seeds, one
        # past 2**32 among them, the gate kernels must still pass the
        # scenario's own assertions
        out = tmp_path / "report"
        argv = ["run", name, "--seed", str(seed), "--format", fmt, "--output", str(out)]
        assert main(argv) == EXIT_PASS

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("steps", [2, 3, 5, 257])
    def test_sweep_passes_at_other_resolutions(self, steps, fmt, tmp_path):
        # the goldens pin the sweep at 64 steps only; at an odd count no
        # point has orthogonal residues, and the law must hold all the same
        out = tmp_path / "report"
        argv = ["run", "deletion-sweep", "--steps", str(steps), "--format", fmt]
        assert main([*argv, "--output", str(out)]) == EXIT_PASS

    def test_run_unknown_scenario_is_usage_error(self, capsys):
        assert main(["run", "nonsense"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "cloning", "--tolerance", "-1"],
            ["run", "cloning", "--tolerance", "inf"],
            ["run", "cloning", "--tolerance", "nan"],
            ["run", "teleport", "--seed", "-1"],
            ["run", "teleport", "--tolerance", "1.0"],
            ["run", "cloning", "--tolerance", "1.5"],
            ["run", "deletion-sweep", "--steps", "4097"],
        ],
        ids=[
            "tolerance-negative",
            "tolerance-inf",
            "tolerance-nan",
            "seed-negative",
            "tolerance-one",
            "tolerance-above-one",
            "steps-above-cap",
        ],
    )
    def test_invalid_tolerance_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize("tolerance", ["1e-300", "1e-16", "0.42", "0.9", "0.99"])
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_tolerance_edges_are_verdicts_not_faults(self, name, tolerance, tmp_path, capsys):
        # a scenario may fail its own assertions at an extreme tolerance,
        # but never as an internal error; both formats render the report
        codes = []
        for fmt in ("json", "text"):
            out = tmp_path / f"report.{fmt}"
            argv = ["run", name, "--tolerance", tolerance, "--format", fmt, "--output", str(out)]
            codes.append(main(argv))
            assert out.read_bytes()
        assert codes[0] == codes[1]
        assert codes[0] in (EXIT_PASS, EXIT_ASSERTION)

    @pytest.mark.parametrize("tolerance", [1e-300, 1e-16])
    def test_sweep_without_realizable_points_fails_its_assertions(self, tolerance):
        doc, code = run_scenario("deletion-sweep", RunConfig(tolerance=tolerance, steps=8))
        assert code == EXIT_ASSERTION
        assert all(p["out_concurrence"] is None for p in doc["sweep"])
        failed = {a["name"] for a in doc["assertions"] if not a["passed"]}
        assert failed == {"output_concurrence_equals_residue_overlap"}
        text = emit_report(doc, "text").decode()
        assert "sweep points without a realizable verdict: 8" in text

    @pytest.mark.parametrize("tolerance", [0.42, 0.9, 0.99])
    def test_no_info_cloning_past_the_certificate_finds_a_witness(self, tolerance):
        # from tol = sqrt(2) - 1 the modulus certificate lapses and the
        # deliberately dependent inputs reach the witness stage, which
        # searches the span of the first two
        doc, code = run_scenario("no-info-cloning", RunConfig(tolerance=tolerance))
        assert code == EXIT_ASSERTION
        failed = [a["name"] for a in doc["assertions"] if not a["passed"]]
        assert failed == [
            "classification_not_catalysis",
            "certificate_modulus_violation",
            "certificate_magnitude_sqrt2",
            "certificate_pair_involves_third_state",
        ]
        assert (doc["classification"], doc["reason"]) == ("quantum_catalysis", None)
        (witness,) = doc["witnesses"]
        assert witness["concurrence_out"] == 1.0
        spec = uninformed_cloning_process()
        verdict = decide_feasibility(spec, tolerance)
        state = PureState((2, 2), np.array([complex(*z) for z in witness["input"]]))
        out = apply_process(spec, verdict, state, tolerance).vector
        assert np.max(np.abs(out - [complex(*z) for z in witness["output"]])) < 1e-9

    def test_invalid_steps_is_usage_error(self, capsys):
        assert main(["run", "deletion-sweep", "--steps", "1"]) == EXIT_USAGE

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_check_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == EXIT_DATA

    def test_check_negative_file(self, tmp_path, capsys):
        path = write_json(tmp_path, "negative.json", NEGATIVE_FILE)
        code = main(["check", str(path), "--output", str(tmp_path / "r.json")])
        assert code == EXIT_NEGATIVE

    def test_check_no_info_file_is_certified_infeasible(self, tmp_path, capsys):
        # the negative-control family has dependent inputs; check decides it
        # as run does, with the modulus certificate, not as a data error
        path = tmp_path / "noinfo.json"
        save_process_spec(uninformed_cloning_process(), path)
        report = tmp_path / "r.json"
        assert main(["check", str(path), "--output", str(report)]) == EXIT_NEGATIVE
        assert capsys.readouterr().err == ""
        cert = json.loads(report.read_bytes())["verdict"]["certificate"]
        assert cert["reason"] == "modulus_violation"
        assert cert["pair"] == [0, 2]
        assert abs(cert["magnitude"] - np.sqrt(2.0)) <= 1e-9

    def test_check_undetermined_file(self, tmp_path, capsys):
        path = tmp_path / "und.json"
        save_process_spec(undetermined_cycle_spec(), path)
        code = main(["check", str(path), "--output", str(tmp_path / "r.json")])
        assert code == EXIT_UNDETERMINED

    @pytest.mark.parametrize("tolerance", ["1e-9", "1e-2"])
    def test_check_near_dependent_inputs_at_loose_tolerance(self, tolerance, tmp_path, capsys):
        # the inputs pass the construction rule (smallest Gram eigenvalue
        # 4.96e-3 > 1e-9); a --tolerance above that eigenvalue must not turn
        # the witness search into an internal error
        path = tmp_path / "near.json"
        save_process_spec(near_dependent_identity_spec(), path)
        report = tmp_path / "r.json"
        code = main(["check", str(path), "--tolerance", tolerance, "--output", str(report)])
        assert code == EXIT_PASS
        assert capsys.readouterr().err == ""
        assert json.loads(report.read_bytes())["classification"] == "no_entangling_witness_found"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "cloning"],
            ["check", "spec.json"],
            ["run", "cloning", "--output", "report.json"],
        ],
    )
    def test_internal_fault_is_not_a_verdict(
        self, argv, tmp_path, monkeypatch, capsys, caplog
    ):
        import logging

        import qcatalysis.cli as cli

        # a fault while writing the report that is not an OSError is no
        # "report not written" (73); a ValueError is no usage error (64) either
        writing = "--output" in argv
        fault = ValueError if writing else RuntimeError

        def broken(*args, **kwargs):
            raise fault("simulated fault\nwith a second line")

        save_process_spec(cloning_process(), tmp_path / "spec.json")
        monkeypatch.chdir(tmp_path)
        if writing:
            monkeypatch.setattr(Path, "write_bytes", broken)
        else:
            monkeypatch.setattr(cli, "classify", broken)
        caplog.set_level(logging.DEBUG, logger="qcatalysis")
        assert main(argv) == EXIT_INTERNAL
        assert any(r.exc_info for r in caplog.records)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"{fault.__name__}: simulated fault with a second line" in captured.err
        assert "Traceback" not in captured.err

    def test_stdout_emission(self, capsysbinary):
        code = main(["run", "teleport"])
        assert code == EXIT_PASS
        out = capsysbinary.readouterr().out
        doc = json.loads(out)
        assert doc["scenario"] == "teleport"
        assert doc["ledger"] == {
            "ebits_consumed": 1,
            "cbits_a_to_b": 2,
            "cbits_b_to_a": 0,
        }

    def test_consecutive_runs_byte_identical(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["run", "deletion", "--output", str(a)]) == EXIT_PASS
        assert main(["run", "deletion", "--output", str(b)]) == EXIT_PASS
        assert a.read_bytes() == b.read_bytes()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("steps", 2.5),
        ("steps", True),
        ("seed", 1.5),
        ("seed", True),
        ("seed", "3"),
        ("tolerance", "0.1"),
        ("tolerance", True),
        ("tolerance", None),
    ],
)
def test_run_config_refuses_a_field_of_the_wrong_type(field, value):
    # a usage error at construction, never a TypeError from inside a
    # scenario, nor a bool taken as the integer 0 or 1
    message = rf"^{field} must be (an integer|a real number), got {re.escape(repr(value))}$"
    with pytest.raises(UsageError, match=message):
        RunConfig(**{field: value})


def test_run_config_refuses_an_unknown_format():
    with pytest.raises(UsageError, match="^format must be 'json' or 'text', got 'xml'$"):
        RunConfig(format="xml")


def test_run_config_stores_numpy_and_other_real_numbers_as_int_and_float():
    config = RunConfig(seed=np.int64(3), steps=np.uint8(8), tolerance=Fraction(1, 2))
    assert (config.seed, config.steps, config.tolerance) == (3, 8, 0.5)
    assert [type(x) for x in (config.seed, config.steps, config.tolerance)] == [int, int, float]
    # the report renders every field
    assert b'"config":{"format":"json","seed":3,"steps":8,"tolerance":0.500000000000}' in (
        emit_report(run_scenario("cloning", config)[0], "json")
    )


def test_run_config_is_a_frozen_value():
    config = RunConfig()
    assert_record(config, ("tolerance", "format", "seed", "steps"), eq=True)
    assert repr(config) == "RunConfig(tolerance=1e-09, format='json', seed=0, steps=64)"
    assert_value_record(RunConfig, (1e-9, "json", 0, 64), (1e-9, "text", 0, 64))


def test_failed_assertions_yield_exit_two():
    from qcatalysis.cli import _doc, _finish

    doc = _doc("cloning", RunConfig())
    doc, code = _finish(doc, [("something_true", True), ("something_false", False)])
    assert code == EXIT_ASSERTION
    assert doc["status"] == "fail"
    named = [a["name"] for a in doc["assertions"] if not a["passed"]]
    assert named == ["something_false"]


def report_of_kind(kind: str, tmp_path) -> dict:
    """A report of one kind: a scenario's, no-info-cloning's at a tolerance
    that reaches the witness search, or a check's, one per verdict."""
    if kind in SCENARIOS:
        return run_scenario(kind, RunConfig())[0]
    if kind == "no-info-cloning-0.42":
        doc, _ = run_scenario("no-info-cloning", RunConfig(tolerance=0.42))
        assert doc["witnesses"]
        return doc
    spec, status, has_pair = {
        "check-realizable": (cloning_process(), "realizable", None),
        "check-pair-certificate": (parse_process_spec(NEGATIVE_FILE), "infeasible", True),
        "check-pairless-certificate": (chordal_spec(0, False), "infeasible", False),
        "check-undetermined": (undetermined_cycle_spec(), "undetermined", None),
    }[kind]
    save_process_spec(spec, tmp_path / "spec.json")
    doc, _ = check_spec_file(tmp_path / "spec.json", RunConfig())
    assert doc["verdict"]["status"] == status
    if has_pair is not None:
        assert (doc["verdict"]["certificate"]["pair"] is not None) == has_pair
    return doc


@pytest.mark.parametrize(
    "kind",
    [
        *SCENARIOS,
        "no-info-cloning-0.42",
        "check-realizable",
        "check-pair-certificate",
        "check-pairless-certificate",
        "check-undetermined",
    ],
)
def test_report_fields_are_the_table_rows(kind, tmp_path):
    # the field table is the only list of report fields: every report has
    # its required keys and only optional keys it declares, and the text
    # report is its renderers' text, in table order
    from qcatalysis.cli import _OPTIONAL, _REPORT_FIELDS

    doc = report_of_kind(kind, tmp_path)
    required = {name for name, (default, *_) in _REPORT_FIELDS.items() if default is not _OPTIONAL}
    keys = json.loads(emit_report(doc, "json")).keys()
    assert required <= keys <= _REPORT_FIELDS.keys()
    assert ("source" in keys) == kind.startswith("check")
    assert ("environment_dimension" in keys) == (kind == "cloning")
    text = emit_report(doc, "text").decode()
    for name, (_, _, render) in _REPORT_FIELDS.items():
        if render is not None and doc.get(name) is not None and render(doc[name]):
            block = render(doc[name]) + "\n"
            assert text.startswith(block), name
            text = text.removeprefix(block)
    assert text == ""


def test_report_builder_rejects_a_field_outside_the_table():
    from qcatalysis.cli import _doc

    with pytest.raises(TypeError, match="not report fields"):
        _doc("cloning", RunConfig(), witness=[])


def test_resource_ledger_rejects_negative_counts():
    from qcatalysis import ResourceLedger

    with pytest.raises(ValueError):
        ResourceLedger(ebits_consumed=-1, cbits_a_to_b=0, cbits_b_to_a=0)
