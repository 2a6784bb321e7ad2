import json
from pathlib import Path

import numpy as np
import pytest

from helpers import near_dependent_identity_spec
from qcatalysis import classify, cloning_process, deletion_process
from qcatalysis.cli import (
    EXIT_ASSERTION,
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


# the default JSON and text report of every scenario, as committed; regenerate
# a file only for a deliberate change of the report
GOLDEN_REPORTS = Path(__file__).parent / "data" / "reports"
GOLDEN_SUFFIX = {"json": "json", "text": "txt"}


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
        assert payload == (GOLDEN_REPORTS / f"{name}.{GOLDEN_SUFFIX[fmt]}").read_bytes()

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

    def test_check_cloning_file_matches_scenario(self, tmp_path):
        path = tmp_path / "cloning.json"
        save_process_spec(cloning_process(), path)
        doc, code = check_spec_file(path, RunConfig())
        assert code == EXIT_PASS
        assert doc["classification"] == "quantum_catalysis"

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
        # at a tolerance above one (which the library parser still accepts,
        # though RunConfig does not) the norm test alone would pass it
        bad = json.loads(json.dumps(IDENTITY_FILE))
        bad["pairs"][1]["in"] = [[0, 0]] * 4
        path = write_json(tmp_path, "zero.json", bad)
        with pytest.raises(SpecFileError) as exc:
            load_process_spec(path, 1.5)
        assert exc.value.field == "pairs[1].in"

    def test_dependent_inputs_rejected(self, tmp_path):
        bad = json.loads(json.dumps(IDENTITY_FILE))
        bad["pairs"][1] = bad["pairs"][0]
        path = write_json(tmp_path, "dep.json", bad)
        with pytest.raises(SpecFileError) as exc:
            check_spec_file(path, RunConfig())
        assert exc.value.field == "pairs"
        assert "inputs 0, 1 are linearly dependent" in str(exc.value)

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

    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda d: d.update(version=2), "version"),
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
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_schema_violations_name_field(self, mutate, field):
        data = json.loads(json.dumps(IDENTITY_FILE))
        mutate(data)
        with pytest.raises(SpecFileError) as exc:
            parse_process_spec(data)
        assert exc.value.field == field

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
        ],
        ids=[
            "tolerance-negative",
            "tolerance-inf",
            "tolerance-nan",
            "seed-negative",
            "tolerance-one",
            "tolerance-above-one",
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
        assert failed == {
            "zero_concurrence_iff_orthogonal_residues",
            "entangled_whenever_residues_overlap",
            "orthogonal_residue_point_zero_concurrence",
        }
        text = emit_report(doc, "text").decode()
        assert "sweep points without a realizable verdict: 8" in text

    @pytest.mark.parametrize("tolerance", [0.42, 0.9, 0.99])
    def test_no_info_cloning_past_the_certificate_names_the_dependence(self, tolerance):
        # from tol = sqrt(2) - 1 the modulus certificate lapses and the
        # deliberately dependent inputs reach the witness stage
        doc, code = run_scenario("no-info-cloning", RunConfig(tolerance=tolerance))
        assert code == EXIT_ASSERTION
        assert doc["classification"] == "no_entangling_witness_found"
        assert doc["reason"].startswith("no witness search: inputs 0, 1, 2 are linearly dependent")

    def test_invalid_steps_is_usage_error(self, capsys):
        assert main(["run", "deletion-sweep", "--steps", "1"]) == EXIT_USAGE

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_check_missing_file_is_data_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope.json")]) == EXIT_DATA

    def test_check_negative_file(self, tmp_path, capsys):
        # independent inputs whose overlap cannot survive: |<in|in>| = 1/sqrt(2)
        # but the outputs are orthogonal, an impossible overlap increase
        s = 1.0 / np.sqrt(2.0)
        negative = {
            "version": 1,
            "dimA": 2,
            "dimB": 2,
            "pairs": [
                {"in": [[1, 0], [0, 0], [0, 0], [0, 0]], "out": [[1, 0], [0, 0], [0, 0], [0, 0]]},
                {"in": [[s, 0], [0, 0], [s, 0], [0, 0]], "out": [[0, 0], [0, 0], [0, 0], [1, 0]]},
            ],
        }
        path = write_json(tmp_path, "negative.json", negative)
        code = main(["check", str(path), "--output", str(tmp_path / "r.json")])
        assert code == EXIT_NEGATIVE

    def test_check_dependent_inputs_file_is_data_error(self, tmp_path, capsys):
        # the built-in negative-control scenario waives input independence
        # internally, but user files must satisfy it
        from qcatalysis import uninformed_cloning_process

        path = tmp_path / "noinfo.json"
        save_process_spec(uninformed_cloning_process(), path)
        assert main(["check", str(path)]) == EXIT_DATA

    def test_check_undetermined_file(self, tmp_path, capsys):
        # five pairs on 2x3 whose nonzero overlaps form a 5-cycle, one forced
        # environment overlap 1/2: not coherent, not chordal, no exact rule
        from qcatalysis import ProcessSpec, PureState

        cycle = np.roll(np.eye(5), 1, axis=1)
        g_out = np.eye(5) + 0.3 * (cycle + cycle.T)
        env = np.ones((5, 5))
        env[0, 1] = env[1, 0] = 0.5
        families = []
        for g in (g_out * env, g_out):
            factor = np.linalg.cholesky(g).T
            families.append([np.concatenate([factor[:, i], [0.0]]) for i in range(5)])
        pairs = tuple(
            (PureState((2, 3), a), PureState((2, 3), b)) for a, b in zip(*families)
        )
        path = tmp_path / "und.json"
        save_process_spec(ProcessSpec(2, 3, pairs), path)
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

    @pytest.mark.parametrize("argv", [["run", "cloning"], ["check", "spec.json"]])
    def test_internal_fault_is_not_a_verdict(
        self, argv, tmp_path, monkeypatch, capsys, caplog
    ):
        import logging

        import qcatalysis.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("simulated fault\nwith a second line")

        save_process_spec(cloning_process(), tmp_path / "spec.json")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "classify", broken)
        caplog.set_level(logging.DEBUG, logger="qcatalysis")
        assert main(argv) == EXIT_INTERNAL
        assert any(r.exc_info for r in caplog.records)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "RuntimeError: simulated fault with a second line" in captured.err
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


def test_failed_assertions_yield_exit_two():
    from qcatalysis.cli import _base_doc, _finish

    doc = _base_doc("cloning", RunConfig())
    doc, code = _finish(doc, [("something_true", True), ("something_false", False)])
    assert code == EXIT_ASSERTION
    assert doc["status"] == "fail"
    named = [a["name"] for a in doc["assertions"] if not a["passed"]]
    assert named == ["something_false"]


def test_resource_ledger_rejects_negative_counts():
    from qcatalysis import ResourceLedger

    with pytest.raises(ValueError):
        ResourceLedger(ebits_consumed=-1, cbits_a_to_b=0, cbits_b_to_a=0)
