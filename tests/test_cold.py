"""Every golden report, printed by the command line in a fresh interpreter.

``test_cli.py`` compares the same files with reports built in process; here
the command is started as a user starts it, as ``python -m qcatalysis.cli``
and as the ``qcatalysis`` script does, so its import from ``src``, its entry
and its exit code are checked too.
"""

import errno
import os

import pytest

from helpers import chordal_spec, controlled_unitary_spec, golden_report, run_fresh_python
from qcatalysis.cli import (
    EXIT_CANTCREAT,
    EXIT_DATA,
    EXIT_NEGATIVE,
    EXIT_PASS,
    EXIT_USAGE,
    SCENARIOS,
    save_process_spec,
)
from test_witness_search import rotated_deletion_spec

FORMATS = ("json", "text")

# the installed script's wrapper calls the function that pyproject.toml names
# (test_dependencies pins it); -m runs the module's __main__ block
SCRIPT = "import sys\nfrom qcatalysis.cli import entry_point\nsys.exit(entry_point())\n"
ENTRIES = {"module": ["-m", "qcatalysis.cli"], "script": ["-c", SCRIPT]}

# the golden of check on each saved spec file: its spec and check's exit code
CHECKED = {
    "rotated-deletion-3": (lambda: rotated_deletion_spec(3), EXIT_PASS),
    "controlled-unitary": (lambda: controlled_unitary_spec(4), EXIT_PASS),
    "chordal-fill-4": (lambda: chordal_spec(0, True), EXIT_NEGATIVE),
    "chordal-rank-one": (lambda: chordal_spec(0, True, rank_one=True), EXIT_NEGATIVE),
    "chordal-psd-violation": (lambda: chordal_spec(0, False), EXIT_NEGATIVE),
}


def cli(entry: str, *argv: str, cwd=None) -> tuple[int, bytes, bytes]:
    result = run_fresh_python([*ENTRIES[entry], *argv], cwd=cwd, capture_output=True)
    return result.returncode, result.stdout, result.stderr


def assert_run_golden(entry: str, name: str, fmt: str):
    code, out, err = cli(entry, "run", name, "--format", fmt)
    assert (code, err) == (EXIT_PASS, b"")
    assert out == golden_report(name, fmt)


def assert_check_golden(entry: str, name: str, fmt: str, tmp_path):
    # checked from its own directory, the file's source field is the
    # relative name that the golden records
    make, expected = CHECKED[name]
    save_process_spec(make(), tmp_path / f"{name}.spec.json")
    code, out, err = cli(entry, "check", f"{name}.spec.json", "--format", fmt, cwd=tmp_path)
    assert (code, err) == (expected, b"")
    assert out == golden_report(name, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_run_prints_the_golden_report(name, fmt):
    assert_run_golden("module", name, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CHECKED)
def test_check_prints_the_golden_report(name, fmt, tmp_path):
    assert_check_golden("module", name, fmt, tmp_path)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_the_script_runs_to_the_golden_report(name, fmt):
    assert_run_golden("script", name, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", CHECKED)
def test_the_script_checks_to_the_golden_report(name, fmt, tmp_path):
    assert_check_golden("script", name, fmt, tmp_path)


# a failed run's exit code and its one stderr line, from a fresh interpreter
# whose stdout is buffered, so that a write lost at exit would show
FAILURES = {
    "usage-error": ([], EXIT_USAGE, "the following arguments are required: command"),
    "missing-spec": (
        ["check", "missing.spec.json"],
        EXIT_DATA,
        f"file: cannot read missing.spec.json: [Errno {errno.ENOENT}] "
        f"{os.strerror(errno.ENOENT)}: 'missing.spec.json'",
    ),
    "unwritable-output": (
        ["run", "cloning", "--output", "missing-dir/report.json"],
        EXIT_CANTCREAT,
        f"cannot write report to missing-dir/report.json: {os.strerror(errno.ENOENT)}",
    ),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("name", FAILURES)
def test_a_failed_run_exits_with_its_code_and_one_stderr_line(name, entry, tmp_path):
    argv, expected, message = FAILURES[name]
    code, out, err = cli(entry, *argv, cwd=tmp_path)
    assert (code, out, err) == (expected, b"", f"qcatalysis: {message}\n".encode())
    assert list(tmp_path.iterdir()) == []
