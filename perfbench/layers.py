"""Per-layer timing for the traced run.

The tracer replaces a public function of ``qcatalysis`` with a timing
wrapper in every ``qcatalysis`` module that refers to it, so calls between
layers (``classify`` calling ``complete_psd``, a scenario calling
``teleport``) are timed too.  The program itself is not changed: the
wrappers live here and ``restore`` puts the originals back.  Times are
inclusive (a layer's time covers the layers it calls).
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# metric prefix -> (module, function); a function missing from the program
# is skipped and its layer reads zero
LAYERS = {
    "analyzer.classify": ("qcatalysis.analyzer", "classify"),
    "analyzer.catalyst_intact": ("qcatalysis.analyzer", "catalyst_intact"),
    "analyzer.find_entangling_witness": ("qcatalysis.analyzer", "find_entangling_witness"),
    "process.environment_gram": ("qcatalysis.process", "environment_gram"),
    "process.complete_psd": ("qcatalysis.process", "complete_psd"),
    "process.construct_isometry": ("qcatalysis.process", "construct_isometry"),
    "process.scan_completions": ("qcatalysis._kernels", "scan_completions"),
    "cli.run_scenario": ("qcatalysis.cli", "run_scenario"),
    "cli.emit_report": ("qcatalysis.cli", "emit_report"),
    "teleport.teleport": ("qcatalysis.teleport", "teleport"),
    "teleport.nonlocal_cnot": ("qcatalysis.teleport", "nonlocal_cnot"),
    "states.product_factorize": ("qcatalysis.states", "product_factorize"),
    "states.apply_gate": ("qcatalysis.states", "apply_gate"),
    "linalg.span_coefficients": ("qcatalysis.linalg", "span_coefficients"),
}

# layers that classify calls directly; the rest of classify is its residual
CLASSIFY_CHILDREN = (
    "process.environment_gram",
    "process.complete_psd",
    "analyzer.catalyst_intact",
    "analyzer.find_entangling_witness",
)


def _free_overlaps(args, result) -> int:
    return len(args[0].free_pairs())


def _candidates(args, result) -> int:
    """Candidates the scan evaluated before it returned.

    A scan without a feasible candidate evaluates the whole grid.  One that
    finds a fill stops after it: the numba backend at the fill itself, the
    numpy backend at the end of the chunk that holds it.
    """
    total = math.prod(int(c) for c in args[3])
    if result.found < 0:
        return total
    kernels = sys.modules["qcatalysis._kernels"]
    backend = args[5] if len(args) > 5 else None
    chunk = 1
    if kernels.resolve_backend(total, backend) == "numpy":
        chunk = getattr(kernels, "_CHUNK", 1)
    return min(total, (result.found // chunk + 1) * chunk)


def _report_bytes(args, result) -> int:
    return len(result)


# layer -> (count name, function of the call's positional arguments and result)
COUNTERS = {
    "process.complete_psd": ("process.free_overlaps", _free_overlaps),
    "process.scan_completions": ("process.scan_candidates", _candidates),
    "cli.emit_report": ("cli.report_bytes", _report_bytes),
}


class Tracer:
    """Inclusive time and call counts per layer while installed."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._undo = []

    def install(self) -> None:
        for layer, (module_name, attr) in LAYERS.items():
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original)
            for name, mod in list(sys.modules.items()):
                if name != "qcatalysis" and not name.startswith("qcatalysis."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)
        seconds, calls, counts = self.seconds, self.calls, self.counts
        clock = time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[layer] += clock() - start
                calls[layer] += 1
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        timed.__wrapped__ = fn
        return timed

    def total(self, layers) -> float:
        return sum(self.seconds[layer] for layer in layers)
