"""Every public function that takes a tolerance refuses the values that the
CLI refuses, with the CLI's messages, and accepts the rest of (0, 1)."""

import inspect
import math

import pytest

import qcatalysis
from qcatalysis import (
    apply_process,
    catalyst_intact,
    classify,
    cloning_process,
    complete_psd,
    construct_isometry,
    decide_feasibility,
    deletion_family_sweep,
    environment_gram,
    find_entangling_witness,
    ket,
    output_density,
    product_factorize,
    uninformed_cloning_process,
)
from qcatalysis import cli
from qcatalysis.cli import (
    EXIT_USAGE,
    RunConfig,
    UsageError,
    load_process_spec,
    main,
    parse_process_spec,
    process_spec_to_mapping,
    save_process_spec,
)

SPEC = cloning_process()
VERDICT = decide_feasibility(SPEC)
STATE = SPEC.pairs[0][0]

# one call per public function with a ``tol`` parameter; load_process_spec
# reads a saved copy of SPEC from the directory it is given
CALLS = {
    "apply_process": lambda tol, _: apply_process(SPEC, VERDICT, STATE, tol),
    "catalyst_intact": lambda tol, _: catalyst_intact(SPEC, tol),
    "classify": lambda tol, _: classify(uninformed_cloning_process(), tol),
    "complete_psd": lambda tol, _: complete_psd(environment_gram(SPEC), tol),
    "construct_isometry": lambda tol, _: construct_isometry(SPEC, VERDICT, tol),
    "decide_feasibility": lambda tol, _: decide_feasibility(SPEC, tol),
    "deletion_family_sweep": lambda tol, _: deletion_family_sweep(2, tol),
    "environment_gram": lambda tol, _: environment_gram(SPEC, tol),
    "find_entangling_witness": lambda tol, _: find_entangling_witness(SPEC, VERDICT, tol),
    "output_density": lambda tol, _: output_density(SPEC, VERDICT, STATE, tol),
    "product_factorize": lambda tol, _: product_factorize(ket("01"), 1, tol),
    "parse_process_spec": lambda tol, _: parse_process_spec(process_spec_to_mapping(SPEC), tol),
    "load_process_spec": lambda tol, path: load_process_spec(path, tol),
}

# at 2.0 and inf classify once called the impossible uninformed cloning a
# realizable quantum_catalysis, at nan undetermined, and at -1.0
# environment_gram divided by zero
REFUSED = {
    "zero": (0.0, r"^tolerance must lie in \(0, 1\), got 0\.0$"),
    "one": (1.0, r"^tolerance must lie in \(0, 1\), got 1\.0$"),
    "above-one": (1.5, r"^tolerance must lie in \(0, 1\), got 1\.5$"),
    "two": (2.0, r"^tolerance must lie in \(0, 1\), got 2\.0$"),
    "negative": (-1e-9, r"^tolerance must lie in \(0, 1\), got -1e-09$"),
    "minus-one": (-1.0, r"^tolerance must lie in \(0, 1\), got -1\.0$"),
    "nan": (math.nan, r"^tolerance must lie in \(0, 1\), got nan$"),
    "inf": (math.inf, r"^tolerance must lie in \(0, 1\), got inf$"),
    "bool": (True, r"^tolerance must be a real number, got True$"),
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "cloning.spec.json"
    save_process_spec(SPEC, path)
    return path


def test_every_public_function_with_a_tolerance_is_called():
    public = [(qcatalysis, name) for name in qcatalysis.__all__]
    public += [(cli, name) for name in ("parse_process_spec", "load_process_spec")]
    takes_tol = {
        name
        for module, name in public
        if inspect.isfunction(getattr(module, name))
        and "tol" in inspect.signature(getattr(module, name)).parameters
    }
    assert takes_tol == set(CALLS)


@pytest.mark.parametrize("tol, message", REFUSED.values(), ids=REFUSED)
@pytest.mark.parametrize("name", CALLS)
def test_refused_tolerances_raise_value_error(name, tol, message, spec_path):
    with pytest.raises(ValueError, match=message):
        CALLS[name](tol, spec_path)


@pytest.mark.parametrize("tol", [1e-300, 0.99])
@pytest.mark.parametrize("name", CALLS)
def test_tolerances_inside_the_interval_are_accepted(name, tol, spec_path):
    CALLS[name](tol, spec_path)


@pytest.mark.parametrize("tol, message", REFUSED.values(), ids=REFUSED)
def test_run_config_turns_the_library_message_into_a_usage_error(tol, message):
    with pytest.raises(UsageError, match=message):
        RunConfig(tolerance=tol)


@pytest.mark.parametrize("option", ["--seed", "--steps"])
def test_check_takes_no_scenario_options(option, spec_path, capsys):
    assert main(["check", option, "1", str(spec_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("qcatalysis: unrecognized arguments:") and option in err
