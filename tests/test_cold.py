"""Every golden report, printed by ``python -m qcatalysis.cli`` in a fresh interpreter.

``test_cli.py`` compares the same files with reports built in process; here
the module is started as a user starts it, so its import from ``src``, its
``__main__`` entry and its exit code are checked too.
"""

import pytest

from helpers import chordal_spec, controlled_unitary_spec, golden_report, run_fresh_python
from qcatalysis.cli import EXIT_NEGATIVE, EXIT_PASS, SCENARIOS, save_process_spec
from test_witness_search import rotated_deletion_spec

FORMATS = ("json", "text")

# the golden of check on each saved spec file: its spec and check's exit code
CHECKED = {
    "rotated-deletion-3": (lambda: rotated_deletion_spec(3), EXIT_PASS),
    "controlled-unitary": (lambda: controlled_unitary_spec(4), EXIT_PASS),
    "chordal-fill-4": (lambda: chordal_spec(0, True), EXIT_NEGATIVE),
    "chordal-rank-one": (lambda: chordal_spec(0, True, rank_one=True), EXIT_NEGATIVE),
    "chordal-psd-violation": (lambda: chordal_spec(0, False), EXIT_NEGATIVE),
}


def cli(*argv: str, cwd=None) -> tuple[int, bytes, bytes]:
    result = run_fresh_python(["-m", "qcatalysis.cli", *argv], cwd=cwd, capture_output=True)
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_run_prints_the_golden_report(name, fmt):
    code, out, err = cli("run", name, "--format", fmt)
    assert (code, err) == (EXIT_PASS, b"")
    assert out == golden_report(name, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CHECKED)
def test_check_prints_the_golden_report(name, fmt, tmp_path):
    # checked from its own directory, the file's source field is the
    # relative name that the golden records
    make, expected = CHECKED[name]
    save_process_spec(make(), tmp_path / f"{name}.spec.json")
    code, out, err = cli("check", f"{name}.spec.json", "--format", fmt, cwd=tmp_path)
    assert (code, err) == (expected, b"")
    assert out == golden_report(name, fmt)
