"""The package runs on numpy alone.

Its modules import only the standard library and numpy.  No scipy
module is needed or loaded, and no verdict loads the ``_kernels`` module
that only the benchmark tracer reads.  The command line loads
``logging`` only on its internal-error path, and no ``dataclasses``.
"""

import ast
import gc
import os
import re
import sys
from pathlib import Path

from helpers import run_fresh_python
from qcatalysis import cli

TESTS = str(Path(__file__).resolve().parent)
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qcatalysis"


def test_modules_import_only_the_standard_library_and_numpy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                allowed = top in ("__future__", "numpy") or top in sys.stdlib_module_names
                assert allowed, f"{path.name}:{node.lineno} imports {name}"


def test_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every scipy import raise ImportError
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import qcatalysis\n"
        "from qcatalysis import cli\n"
        "qcatalysis.classify(qcatalysis.deletion_process())\n"
        "sys.exit(cli.main(['run', 'deletion-sweep']))\n"
    )
    result = run_fresh_python(["-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_import_loads_no_scipy():
    code = (
        "import sys\n"
        "import qcatalysis\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    result = run_fresh_python(["-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_verdicts_load_no_scan_kernels():
    # three orthogonal pairs leave three free overlaps to complete
    code = (
        "import os, sys\n"
        "import qcatalysis\n"
        "from qcatalysis import cli\n"
        "pairs = tuple((qcatalysis.ket(a), qcatalysis.ket(b))\n"
        "              for a, b in (('00', '01'), ('01', '10'), ('10', '11')))\n"
        "spec = qcatalysis.ProcessSpec(2, 2, pairs)\n"
        "assert len(qcatalysis.environment_gram(spec).free_pairs()) == 3\n"
        "assert qcatalysis.classify(spec).verdict.is_realizable\n"
        "assert cli.main(['run', 'cloning', '--output', os.devnull]) == 0\n"
        "print('qcatalysis._kernels' in sys.modules)\n"
    )
    result = run_fresh_python(["-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_scan_tables_are_built_on_the_first_scan():
    # no built-in scenario scans, nor does a full span's closed-form witness;
    # a rotated deletion's witness needs the scan
    code = (
        "import sys\n"
        f"sys.path.insert(0, {TESTS!r})\n"
        "import qcatalysis\n"
        "from qcatalysis import analyzer, cli\n"
        "for name in cli.SCENARIOS:\n"
        "    assert cli.run_scenario(name, cli.RunConfig())[1] == 0, name\n"
        "print(analyzer._scan_tables.cache_info().misses)\n"
        "from helpers import controlled_unitary_spec\n"
        "assert qcatalysis.classify(controlled_unitary_spec(4)).witness is not None\n"
        "print(analyzer._scan_tables.cache_info().misses)\n"
        "from test_witness_search import rotated_deletion_spec\n"
        "assert qcatalysis.classify(rotated_deletion_spec(3)).witness is not None\n"
        "info = analyzer._scan_tables.cache_info()\n"
        "print(info.misses, info.currsize)\n"
    )
    result = run_fresh_python(["-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "0", "1", "1"]


def test_cli_loads_logging_only_for_an_internal_error():
    # logging and what it imports cost a cold run several milliseconds;
    # only main's internal-error handler needs the package logger
    code = (
        "import sys\n"
        "from qcatalysis import cli\n"
        "loaded = 'logging' in sys.modules\n"
        "assert cli.main(['run', 'cloning']) == 0\n"
        "print(loaded, 'logging' in sys.modules)\n"
    )
    result = run_fresh_python(["-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False False"


def test_cli_loads_no_dataclasses():
    # @dataclass compiles each class's methods at every start
    code = "import sys\nimport qcatalysis.cli\nprint('dataclasses' in sys.modules)\n"
    result = run_fresh_python(["-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_the_script_and_the_main_block_call_one_entry_point():
    # a string check: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.M | re.S)
    assert scripts is not None
    assert re.findall(r'^(\S+) = "([^"]+)"$', scripts.group(1), re.M) == [
        ("qcatalysis", "qcatalysis.cli:entry_point")
    ]
    module = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main_block = module.body[-1]
    assert ast.unparse(main_block.test) == "__name__ == '__main__'"
    assert [ast.unparse(node) for node in main_block.body] == ["entry_point()"]


def test_main_in_process_leaves_the_collector_alone():
    # only entry_point, which ends the process, freezes the heap
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli.main(["run", "cloning", "--output", os.devnull]) == cli.EXIT_PASS
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_entry_point_freezes_the_heap_and_exits_with_mains_code():
    # atexit handlers run after the freeze, and see it
    code = (
        "import atexit, gc, sys\n"
        "from qcatalysis import cli\n"
        "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
        "sys.argv = ['qcatalysis', 'run', 'cloning', '--output', sys.argv[1]]\n"
        "cli.entry_point()\n"
    )
    result = run_fresh_python(["-c", code, os.devnull], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (cli.EXIT_PASS, "")
    assert result.stdout == "True True\n"
