"""The package runs on numpy alone.

No scipy module is needed or loaded, and no verdict loads the
``_kernels`` module that only the benchmark tracer reads.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    paths = (SRC, env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


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
    result = run_python(code)
    assert result.returncode == 0, result.stderr


def test_import_loads_no_scipy():
    code = (
        "import sys\n"
        "import qcatalysis\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    result = run_python(code)
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
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
