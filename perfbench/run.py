"""Benchmark of qcatalysis verdicts, end to end and per layer.

    python3 perfbench/run.py --workload witness-search --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program under test is the checkout's own
``src/qcatalysis``; the benchmark reaches it only through its public
functions and through ``python -m qcatalysis.cli`` child processes.

One run, in this single process:

1. set-up: import qcatalysis, build the seeded inputs, write their spec
   files, run one warm-up operation.  ``setup_s`` is the median of this
   process's set-up and that of two more fresh interpreters;
2. measurement for ``--seconds``: CLI children ("cold"), one at a time,
   each followed by a closed loop over whole rounds of the workload's
   operations ("warm") until the warm loop holds 40 % of the time so far;
   at least 100 warm operations run.

With ``--trace 1`` there are no children: for 40 % of ``--seconds`` the
warm loop alternates untraced rounds with rounds in which every layer's
public functions are timed, and import probes follow.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# BLAS pools count against the core budget.  numpy and scipy each load
# their own OpenBLAS, and each pool of size k adds k - 1 workers to the
# main thread, so k = (nproc + 1) // 2 keeps the process within nproc
# threads (on two cores: no workers at all)
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = max(1, (NPROC + 1) // 2)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, str(BLAS_THREADS))

import numpy as np  # noqa: E402

WORKLOADS = ("witness-search", "sparse-completion", "paper-scenarios")
WARM_SHARE = 0.4
MIN_OPS = 100
SETUP_PROBES = 2
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120

# layers whose calls make up one operation, for the traced run's accounting
TOP_LAYERS = {
    "witness-search": ("analyzer.classify",),
    "sparse-completion": ("analyzer.classify", "process.construct_isometry"),
    "paper-scenarios": ("cli.run_scenario", "cli.emit_report"),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, a child that died)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


class Setup:
    """A workload's inputs, operation, check and cold CLI commands."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        sys.path.insert(0, str(SRC))
        import workloads as w

        import qcatalysis

        if not Path(qcatalysis.__file__).resolve().is_relative_to(SRC.resolve()):
            raise BenchmarkError(f"imported qcatalysis from {qcatalysis.__file__}, not {SRC}")
        self.w = w
        self.workload = workload
        self.files = []
        if workload == "paper-scenarios":
            config = w.cli.RunConfig(seed=seed)
            self.items = [config]
            self.op = w.paper_op
            self.check = w.check_paper
            self.cold = [
                (["run", name, "--seed", str(seed)], name) for name in w.COLD_SCENARIOS
            ]
            self.cold_rounds = itertools.repeat(self.cold)
        else:
            if workload == "witness-search":
                self.items = w.witness_cases(seed)
                self.op, self.check = w.witness_op, w.check_witness
            else:
                self.items = w.sparse_cases(seed)
                self.op, self.check = w.sparse_op, w.check_sparse
            workdir.mkdir(parents=True, exist_ok=True)
            for k, case in enumerate(self.items):
                if not case.fault:
                    path = workdir / f"spec-{k:03d}.json"
                    w.cli.save_process_spec(case.spec, path)
                    self.files.append((path, case))
            order = np.random.default_rng(seed).permutation(len(self.files))
            self.cold = [
                (["check", str(self.files[k][0])], self.files[k][1]) for k in order
            ]
            self.cold_rounds = itertools.cycle([[c] for c in self.cold])
        self.op(self.items[0])

    def check_cold(self, target, proc: subprocess.CompletedProcess) -> list[str]:
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return [f"cold child gave no JSON report (exit {proc.returncode}): {proc.stderr[-300:]!r}"]
        if self.workload == "paper-scenarios":
            return self.w.check_scenario(target, doc, proc.returncode)
        expected_code = 0 if self.workload == "witness-search" else 1
        failed, problems = self.check(target, self.w.outcome_from_doc(doc))
        if failed or proc.returncode != expected_code:
            problems.append(f"cold check of a {target.kind} spec: exit {proc.returncode}, {doc['classification']}")
        return problems


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, measured inside it."""
    proc = run_child([
        str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
        "--probe", "setup",
    ])
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
    return float(json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# phases
# ---------------------------------------------------------------------------


class Yardstick:
    """A fixed numpy kernel that tracks the host's speed through a run.

    On a shared host the speed of a core drifts by a third within minutes,
    and within seconds by a tenth; the CPU time of a single-threaded
    process drifts with it.  The kernel (small Hermitian eigenvalue
    stacks, kron, einsum and an SVD: the kind of work the program does)
    runs after every warm round.  A round's slowdown is the median of the
    kernel's times over the HALF_WIDTH rounds on either side of it, over
    its NOMINAL_S on a quiet 2-vCPU x86_64 host.  Warm-loop times are
    divided by their round's slowdown, so that a slow spell reads like a
    quiet host.  The kernel does not touch the program, so no change to
    the program moves it.
    """

    NOMINAL_S = 0.015
    REPEATS = 50
    HALF_WIDTH = 3

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((64, 4, 4)) + 1j * rng.standard_normal((64, 4, 4))
        self.stack = m + m.conj().transpose(0, 2, 1)
        self.square = rng.standard_normal((8, 8))
        self.times = []

    def run(self) -> None:
        start = time.perf_counter()
        for _ in range(self.REPEATS):
            np.linalg.eigvalsh(self.stack)
            np.kron(self.square[:2, :2], self.square[:2, :2])
            np.einsum("ij,jk->ik", self.square, self.square)
            np.linalg.svd(self.square)
        self.times.append(time.perf_counter() - start)

    def slowdowns(self) -> list[float]:
        h, t = self.HALF_WIDTH, self.times
        return [statistics.median(t[max(0, i - h):i + h + 1]) / self.NOMINAL_S for i in range(len(t))]


def scaled(metrics: dict, slowdown: float) -> dict:
    """Time metrics divided by a slowdown, rates multiplied by it."""
    factor = {"ms": 1.0 / slowdown, "s": 1.0 / slowdown, "1/s": slowdown}
    return {k: (v * factor.get(u, 1.0), u) for k, (v, u) in metrics.items()}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, item, failed: bool, problems: list[str]) -> None:
        self.attempted += 1
        if failed:
            self.failed += 1
            if not getattr(item, "fault", False):
                problems = [f"a {getattr(item, 'kind', 'scenario')} operation failed", *problems]
        self.problems.extend(problems)


class WarmLoop:
    """Closed loop over whole rounds of the workload's operations.

    ``walls`` holds each op's wall time; ``wall`` and ``cpu`` sum the
    rounds.  Checking an output is not part of the loop: its wall and CPU
    time are left out of ``wall`` and ``cpu``.  With a tracer, every round
    is traced and ``glue`` holds, per op, its time outside the ``top``
    layers.
    """

    def __init__(self, setup: Setup, tally: Tally, tracer=None, top=()):
        self.setup, self.tally, self.tracer, self.top = setup, tally, tracer, top
        self.walls, self.glue = [], []
        self.rounds = []  # (ops, wall, cpu) per round
        self.wall = self.cpu = 0.0

    def steadied(self, slowdowns: list[float]):
        """Per-op walls, loop wall and loop CPU, each divided by its round's slowdown."""
        walls, wall, cpu = [], 0.0, 0.0
        ops = iter(self.walls)
        for (n, round_wall, round_cpu), slow in zip(self.rounds, slowdowns, strict=True):
            walls += [next(ops) / slow for _ in range(n)]
            wall += round_wall / slow
            cpu += round_cpu / slow
        return walls, wall, cpu

    def round(self) -> None:
        setup, tracer = self.setup, self.tracer
        if tracer:
            tracer.install()
        try:
            check_wall = check_cpu = 0.0
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            for item in setup.items:
                before = tracer.total(self.top) if tracer else 0.0
                start = time.perf_counter()
                try:
                    result = setup.op(item)
                    error = None
                except Exception as exc:  # a crash is a failed operation, reported
                    result, error = None, f"{type(exc).__name__}: {exc}"
                end = time.perf_counter()
                self.walls.append(end - start)
                if tracer:
                    self.glue.append(end - start - (tracer.total(self.top) - before))
                c0 = time.process_time()
                if error is None:
                    self.tally.record(item, *setup.check(item, result))
                else:
                    self.tally.record(item, True, [error])
                check_cpu += time.process_time() - c0
                check_wall += time.perf_counter() - end
            wall = time.perf_counter() - t0 - check_wall
            cpu = time.process_time() - cpu0 - check_cpu
            self.rounds.append((len(setup.items), wall, cpu))
            self.wall += wall
            self.cpu += cpu
        finally:
            if tracer:
                tracer.restore()


def measure(setup: Setup, tally: Tally, yardstick: Yardstick, seconds: float):
    """Cold CLI children one at a time, each followed by warm rounds.

    After every child the warm loop runs whole rounds until it holds
    WARM_SHARE of the time so far, so that both samples span the whole run
    and a drift in the machine's speed reaches them alike.  The yardstick
    runs after every warm round.  Children come in whole rounds; the run
    ends when another round as long as the last would overrun ``seconds``
    (so a long round, all six scenarios, runs once), and not before
    MIN_OPS warm operations ran.
    """
    warm = WarmLoop(setup, tally)
    walls, cpus = [], []
    t0 = time.perf_counter()
    for batch in setup.cold_rounds:
        round_start = time.perf_counter()
        for argv, target in batch:
            ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            proc = run_child(["-m", "qcatalysis.cli", *argv])
            walls.append(time.perf_counter() - start)
            ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpus.append(ru1.ru_utime - ru0.ru_utime + ru1.ru_stime - ru0.ru_stime)
            tally.problems.extend(setup.check_cold(target, proc))
            while warm.wall < WARM_SHARE * (time.perf_counter() - t0):
                warm.round()
                yardstick.run()
        now = time.perf_counter()
        if now - t0 + (now - round_start) > seconds:
            break
    while len(warm.walls) < MIN_OPS:
        warm.round()
        yardstick.run()
    return warm, walls, cpus


# ---------------------------------------------------------------------------
# per-layer probes
# ---------------------------------------------------------------------------


def import_ms(statement: str) -> float:
    """Median wall time of a fresh interpreter running ``statement``."""
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        proc = run_child(["-c", statement])
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"import probe failed: {proc.stderr.decode()[-500:]}")
    return statistics.median(times) * 1000.0


def scipy_import_ms() -> float:
    """Time spent in scipy modules while importing qcatalysis (-X importtime)."""
    proc = run_child(["-X", "importtime", "-c", "import qcatalysis"])
    total_us = 0
    for line in proc.stderr.decode().splitlines():
        m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)", line)
        if m and (m.group(2) == "scipy" or m.group(2).startswith("scipy.")):
            total_us += int(m.group(1))
    return total_us / 1000.0


def load_spec_ms(setup: Setup) -> float:
    """Mean wall time of cli.load_process_spec over the workload's spec files."""
    if not setup.files:
        return 0.0
    start = time.perf_counter()
    for path, _ in setup.files * 3:
        setup.w.cli.load_process_spec(path)
    return (time.perf_counter() - start) / (3 * len(setup.files)) * 1000.0


def import_metrics() -> dict:
    return {
        "import.numpy_ms": (import_ms("import numpy"), "ms"),
        "import.qcatalysis_ms": (import_ms("import qcatalysis"), "ms"),
        "import.scipy_ms": (scipy_import_ms(), "ms"),
    }


def layer_metrics(setup: Setup, tracer, walls, traced_walls, glue) -> dict:
    ops = len(traced_walls)
    ms = {layer: tracer.seconds[layer] / ops * 1000.0 for layer in layers.LAYERS}
    metrics = {f"{layer}_ms": (value, "ms") for layer, value in ms.items()}
    residual = ms["analyzer.classify"] - sum(ms[c] for c in layers.CLASSIFY_CHILDREN)
    psd_calls = tracer.calls["process.complete_psd"]
    metrics.update({
        "analyzer.classify_residual_ms": (residual, "ms"),
        "analyzer.witness_calls": (tracer.calls["analyzer.find_entangling_witness"] / ops, "1/op"),
        "process.free_overlaps": (
            tracer.counts["process.free_overlaps"] / psd_calls if psd_calls else 0.0, "count"),
        "process.scan_candidates": (tracer.counts["process.scan_candidates"] / ops, "1/op"),
        "cli.report_bytes": (tracer.counts["cli.report_bytes"] / ops, "B/op"),
        "cli.load_process_spec_ms": (load_spec_ms(setup), "ms"),
        "trace.overhead_ms": (
            (statistics.median(traced_walls) - statistics.median(walls)) * 1000.0, "ms"),
        "trace.unaccounted_ms": (statistics.median(glue) * 1000.0, "ms"),
    })
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def cpu_ticks() -> list[int]:
    """The machine-wide CPU time counters of /proc/stat (user ... steal)."""
    return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]


def environment(args, ticks0: list[int]) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    status = Path("/proc/self/status").read_text()
    threads = int(re.search(r"^Threads:\s+(\d+)", status, re.M).group(1))
    ticks = [a - b for a, b in zip(cpu_ticks(), ticks0)]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": version("numba") if importlib.util.find_spec("numba") else None,
        "QCATALYSIS_BACKEND": os.environ.get("QCATALYSIS_BACKEND"),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "nproc": NPROC,
        "threads": threads,
        # share of the machine's CPU time taken by the hypervisor during the
        # run: the main source of run-to-run spread on a shared host
        "steal_share": ticks[7] / sum(ticks) if sum(ticks) else 0.0,
        "machine": platform.machine(),
    }


def run(args, workdir: Path) -> dict:
    ticks0 = cpu_ticks()
    setup = Setup(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - _START
    if args.probe == "setup":
        return {"setup_s": setup_s}
    tally = Tally()
    yardstick = Yardstick()
    if args.trace:
        # untraced and traced rounds alternate, so a drift in the machine's
        # speed does not pass for tracing overhead
        tracer = layers.Tracer()
        plain = WarmLoop(setup, tally)
        traced = WarmLoop(setup, tally, tracer, TOP_LAYERS[args.workload])
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds * WARM_SHARE or len(plain.walls) < MIN_OPS:
            plain.round()
            traced.round()
            yardstick.run()
        slowdown = statistics.median(yardstick.times) / Yardstick.NOMINAL_S
        unscaled = None
        # layer times scale like the warm loop's; the import probes are
        # fresh interpreters and stay as measured
        metrics = scaled(layer_metrics(setup, tracer, plain.walls, traced.walls, traced.glue), slowdown)
        metrics.update(import_metrics())
    else:
        samples = [setup_s] + [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        warm, cold_walls, cold_cpus = measure(setup, tally, yardstick, args.seconds)
        slowdowns = yardstick.slowdowns()
        slowdown = statistics.median(slowdowns)
        walls, wall, cpu = warm.steadied(slowdowns)
        unscaled = {
            "op_ms_p50": statistics.median(warm.walls) * 1000.0,
            "op_ms_p90": float(np.percentile(warm.walls, 90)) * 1000.0,
            "ops_per_s": len(warm.walls) / warm.wall,
            "op_cpu_ms": warm.cpu / len(warm.walls) * 1000.0,
        }
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "cold_ms_p50": (statistics.median(cold_walls) * 1000.0, "ms"),
            "cold_cpu_ms_p50": (statistics.median(cold_cpus) * 1000.0, "ms"),
            "op_ms_p50": (statistics.median(walls) * 1000.0, "ms"),
            "op_ms_p90": (float(np.percentile(walls, 90)) * 1000.0, "ms"),
            "ops_per_s": (len(walls) / wall, "1/s"),
            "op_cpu_ms": (cpu / len(walls) * 1000.0, "ms"),
            # children do not count in RUSAGE_SELF
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    env = environment(args, ticks0)
    env["host_slowdown"] = slowdown
    if unscaled:
        env["unscaled"] = unscaled
    if env["threads"] > NPROC:
        print(f"perfbench: {env['threads']} threads on {NPROC} cores", file=sys.stderr)
    print(json.dumps({"environment": env}))
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("setup",), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "qcatalysis" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'qcatalysis'}; run from a checkout", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, workdir)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
