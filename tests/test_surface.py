import ast
import importlib.util
import inspect
import re

import numpy as np
import pytest

import qcatalysis
from qcatalysis.cli import RunConfig

MODULES = ("analyzer", "process", "states", "teleport")

# the package surface, in the order of qcatalysis.__all__
PUBLIC = [
    "BranchOutcome",
    "CatalysisReport",
    "Certificate",
    "DEFAULT_TOL",
    "DeletionFamilyPoint",
    "DensityMatrix",
    "DimensionMismatchError",
    "EntangledStateError",
    "EnvironmentGram",
    "EnvironmentsDifferError",
    "FeasibilityVerdict",
    "GateSpec",
    "INFEASIBLE",
    "MAX_DIM",
    "NONLOCAL_CNOT_LEDGER",
    "NOT_CATALYSIS",
    "NO_WITNESS_FOUND",
    "OutsideSpanError",
    "ProcessSpec",
    "PureState",
    "QUANTUM_CATALYSIS",
    "REALIZABLE",
    "ResourceLedger",
    "TELEPORT_LEDGER",
    "UNDETERMINED",
    "WitnessRecord",
    "apply_gate",
    "apply_process",
    "bell_pair",
    "catalyst_intact",
    "circular_pair_input",
    "classify",
    "cloning_process",
    "complete_psd",
    "concurrence",
    "construct_isometry",
    "decide_feasibility",
    "deletion_family_sweep",
    "deletion_process",
    "deletion_residue",
    "environment_gram",
    "environment_vectors",
    "fidelity",
    "find_entangling_witness",
    "inner",
    "ket",
    "ket_minus",
    "ket_plus",
    "nonlocal_cnot",
    "output_density",
    "phase_aligned_distance",
    "product_factorize",
    "random_state",
    "random_states",
    "schmidt_coefficients",
    "standard_triple",
    "teleport",
    "tensor",
    "uninformed_cloning_process",
]


def _modules():
    return [importlib.import_module(f"qcatalysis.{name}") for name in MODULES]


def test_package_surface_is_pinned():
    assert qcatalysis.__all__ == PUBLIC


def test_wildcard_import_binds_the_surface():
    namespace = {}
    exec("from qcatalysis import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(qcatalysis, name) for name in PUBLIC)


def _top_level_bindings(module) -> set[str]:
    """Names a module binds itself: its top-level defs, classes and assignments."""
    bound = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return bound


def test_each_name_is_declared_once_in_the_module_that_defines_it():
    owners = {}
    for module in _modules():
        bound = _top_level_bindings(module)
        for name in module.__all__:
            assert name not in owners, (name, owners.get(name), module.__name__)
            owners[name] = module.__name__
            assert name in bound, f"{module.__name__} lists {name} but does not define it"
            assert getattr(qcatalysis, name) is getattr(module, name)
    assert sorted(owners) == sorted(PUBLIC)


@pytest.mark.parametrize("name", ["as_vector", "PairIntactness"])
def test_private_helpers_stay_off_the_surface(name):
    assert name not in qcatalysis.__all__
    assert not hasattr(qcatalysis, name)


def test_linalg_module_is_gone():
    assert importlib.util.find_spec("qcatalysis.linalg") is None


_PAIR = [(qcatalysis.ket("00"), qcatalysis.ket("00"))]

# every integer argument of the public API and of cli.RunConfig, as the
# name its message gives and a call with that argument set to ``value``
INTEGER_ARGUMENTS = [
    ("subsystem dimension", lambda v: qcatalysis.PureState((v, 2), [1.0, 0.0])),
    ("subsystem dimension", lambda v: qcatalysis.random_state((v,), np.random.default_rng(0))),
    ("subsystem dimension", lambda v: qcatalysis.random_states((2, v), 1, None)),
    ("count", lambda v: qcatalysis.random_states((2,), v, None)),
    ("gate target", lambda v: qcatalysis.GateSpec("X", (v,))),
    ("dim_a", lambda v: qcatalysis.ProcessSpec(v, 2, _PAIR)),
    ("dim_b", lambda v: qcatalysis.ProcessSpec(2, v, _PAIR)),
    ("split", lambda v: qcatalysis.schmidt_coefficients(qcatalysis.ket("01"), v)),
    ("split", lambda v: qcatalysis.product_factorize(qcatalysis.ket("01"), v)),
    ("steps", lambda v: qcatalysis.deletion_family_sweep(v)),
    ("resource count", lambda v: qcatalysis.ResourceLedger(v, 0, 0)),
    ("resource count", lambda v: qcatalysis.ResourceLedger(0, v, 0)),
    ("resource count", lambda v: qcatalysis.ResourceLedger(0, 0, v)),
    ("seed", lambda v: RunConfig(seed=v)),
    ("steps", lambda v: RunConfig(steps=v)),
]


@pytest.mark.parametrize("value", [True, False, 2.0])
@pytest.mark.parametrize("what, call", INTEGER_ARGUMENTS)
def test_an_integer_argument_refuses_a_bool_or_a_float(what, call, value):
    # one rule, states._index: True is not the integer 1, nor 2.0 the integer 2
    with pytest.raises(ValueError, match=rf"^{what} must be an integer, got {re.escape(repr(value))}$"):
        call(value)
