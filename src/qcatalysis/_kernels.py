"""Names the benchmark tracer in ``perfbench/`` still reads; no verdict uses them.

``complete_psd`` decides every completion exactly, so the completion-scan
kernels that once lived here are gone and nothing under ``src/`` imports
this module.  ``perfbench/layers.py`` and ``perfbench/test_perfbench.py``
still import it for their scan-candidate counter, so these three names
stay until that counter is dropped (ROADMAP item 1's benchmark change);
the module goes with it.
"""

from __future__ import annotations

from typing import NamedTuple

_CHUNK = 8192


def resolve_backend(workload: int = 0, backend: str | None = None) -> str:
    """The one scan path there was: chunked numpy."""
    return "numpy"


class ScanResult(NamedTuple):
    found: int          # flat index of first feasible candidate, -1 if none
    best: int           # flat index with the largest min-eigenvalue seen
    best_margin: float  # that largest min-eigenvalue
