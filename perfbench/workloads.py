"""Seeded inputs, operations and output checks for the three workloads.

The program is reached only through the public names of ``qcatalysis`` and
``qcatalysis.cli``, always looked up on the module at call time so that the
traced run can time them.  Every check compares the program's answer with
the independent linear algebra in ``oracles`` or with a property the method
must have; none compares with a stored copy of an earlier output.

An operation *fails* when its verdict disagrees with the truth the
generator built in (a missed witness, a false ``infeasible``).  Only the
two fault classes are allowed to fail; their inputs come from a fixed seed,
so they fail in every run whatever ``--seed`` is.  A wrong piece of
evidence on an operation that did not fail is a *problem*, which makes the
run incorrect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

import qcatalysis as q
from qcatalysis import cli

import oracles as o

TOL = q.DEFAULT_TOL

# fault-class inputs never depend on --seed, so they fail in every run
FAULT_SEED = 804_2426

QUANTUM_CATALYSIS = "quantum_catalysis"
NOT_CATALYSIS = "not_catalysis"
REALIZABLE = "realizable"
INFEASIBLE = "infeasible"

# the built-in demonstrations timed in process; deletion-sweep runs cold only
WARM_SCENARIOS = ("cloning", "deletion", "no-info-cloning", "teleport", "nonlocal-cnot")
COLD_SCENARIOS = (
    "cloning",
    "deletion",
    "deletion-sweep",
    "no-info-cloning",
    "teleport",
    "nonlocal-cnot",
)

TARGETS = (o.ZERO, o.ONE, o.PLUS)


@dataclass(frozen=True, eq=False)
class Case:
    """One generated process with the ground truth it was built from."""

    kind: str
    dims: tuple[int, int]
    inputs: np.ndarray  # (d, n), one input per column
    outputs: np.ndarray  # (d, n)
    free: tuple[tuple[int, int], ...]  # pairs whose environment overlap is free
    expected_status: str
    fault: bool = False
    env: np.ndarray | None = None  # dilation: environment states s_i as columns
    probe: np.ndarray | None = None  # separable input with an entangled image
    clique: tuple[int, ...] | None = None  # determined block that is not PSD
    spec: q.ProcessSpec = field(init=False)

    def __post_init__(self):
        pairs = tuple(
            (q.PureState(self.dims, a), q.PureState(self.dims, b))
            for a, b in zip(self.inputs.T, self.outputs.T)
        )
        object.__setattr__(self, "spec", q.ProcessSpec(*self.dims, pairs))

    @property
    def n(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True, eq=False)
class Outcome:
    """What the program answered, read from a report object or a JSON report."""

    classification: str
    status: str
    completed: np.ndarray | None
    certificate: tuple[str, float] | None
    witness: tuple[np.ndarray, np.ndarray, np.ndarray, float] | None
    isometry: np.ndarray | None = None


def outcome_from_report(report, isometry=None) -> Outcome:
    v = report.verdict
    cert = None
    if v.certificate is not None:
        cert = (v.certificate.reason, float(v.certificate.magnitude))
    w = report.witness
    wit = None
    if w is not None:
        wit = (w.input.vector, w.output.vector, np.asarray(w.coefficients), float(w.concurrence_out))
    completed = np.asarray(v.completed_gram) if v.is_realizable else None
    return Outcome(report.classification, v.status, completed, cert, wit, isometry)


def _complex(raw) -> np.ndarray:
    a = np.asarray(raw, dtype=np.float64)
    return a[..., 0] + 1j * a[..., 1]


def outcome_from_doc(doc: dict) -> Outcome:
    v = doc["verdict"]
    cert = None
    if v["certificate"] is not None:
        cert = (v["certificate"]["reason"], float(v["certificate"]["magnitude"]))
    completed = _complex(v["completed_gram"]) if v["completed_gram"] is not None else None
    wit = None
    if doc["witnesses"]:
        w = doc["witnesses"][0]
        wit = (_complex(w["input"]), _complex(w["output"]), _complex(w["coefficients"]), float(w["concurrence_out"]))
    return Outcome(doc["classification"], v["status"], completed, cert, wit)


# ---------------------------------------------------------------------------
# witness-search: the deletion family with the catalyst intact
# ---------------------------------------------------------------------------

WITNESS_SEEDED = 12
WITNESS_ROTATED = 4
# |<r_u|r_v>| = |cos((v - u) / 2)| stays at least this far from zero
MIN_RESIDUE_OVERLAP = 0.3


def deletion_case(u: float, delta: float, local=None) -> Case:
    """t_i t_i -> t_i r_i with residues r(u), r(u + delta), |+>.

    With ``local = (U_A, U_B, V_B)`` the inputs are turned by U_A (x) U_B and
    the outputs by U_A (x) V_B: the catalyst stays intact and the witness
    moves to (U_A (x) U_B)|i,i>, off the program's canonical candidates.
    """
    residues = (o.deletion_residue(u), o.deletion_residue(u + delta), o.PLUS)
    inputs = np.column_stack([np.kron(t, t) for t in TARGETS])
    outputs = np.column_stack([np.kron(t, r) for t, r in zip(TARGETS, residues)])
    probe = np.kron(o.CIRC, o.CIRC)
    if local is not None:
        ua, ub, vb = local
        inputs = np.kron(ua, ub) @ inputs
        outputs = np.kron(ua, vb) @ outputs
        probe = np.kron(ua, ub) @ probe
    return Case(
        kind="deletion" if local is None else "rotated-deletion",
        dims=(2, 2),
        inputs=inputs,
        outputs=outputs,
        free=((0, 1),),
        expected_status=REALIZABLE,
        fault=local is not None,
        env=np.ones((1, 3), dtype=np.complex128),
        probe=probe,
    )


def _residue_angles(rng: np.random.Generator) -> tuple[float, float]:
    while True:
        u, delta = rng.uniform(0.0, 2.0 * math.pi, size=2)
        if abs(math.cos(delta / 2.0)) >= MIN_RESIDUE_OVERLAP:
            return float(u), float(delta)


def witness_cases(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = [deletion_case(*_residue_angles(rng)) for _ in range(WITNESS_SEEDED)]
    fixed = np.random.default_rng(FAULT_SEED)
    for _ in range(WITNESS_ROTATED):
        angles = _residue_angles(fixed)
        local = tuple(o.haar_unitary(2, fixed) for _ in range(3))
        cases.append(deletion_case(*angles, local=local))
    return cases


# ---------------------------------------------------------------------------
# sparse-completion: disturbed catalysts with free environment overlaps
# ---------------------------------------------------------------------------

# determined output overlaps have modulus in this range: far above the
# tolerance, and small enough that every unit-diagonal matrix built from
# them is positive definite (Gershgorin, n <= 4)
OVERLAP_RANGE = (0.2, 0.3)
# environment states mix a random part with a private one, keeping the
# environment Gram matrix's smallest eigenvalue at least 1 - ENV_MIX
ENV_MIX = 0.7
# the determined non-PSD block of an infeasible spec has eigenvalue <= this
CLIQUE_MARGIN = -0.2
# every sparse spec has a pair member at least this entangled
MIN_ENTANGLEMENT = 0.1


def _phases(rng, size) -> np.ndarray:
    return np.exp(2j * math.pi * rng.uniform(size=size))


def _overlap_matrix(rng, n, free, lo, hi) -> np.ndarray:
    """Hermitian, unit diagonal, zero on ``free``, other moduli in [lo, hi]."""
    g = np.eye(n, dtype=np.complex128)
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) not in free:
            g[i, j] = rng.uniform(lo, hi) * _phases(rng, None)
            g[j, i] = g[i, j].conjugate()
    return g


def _family(rng, dims, g) -> np.ndarray:
    """Random states on A (x) B (columns) whose Gram matrix is ``g``."""
    d = dims[0] * dims[1]
    n = g.shape[0]
    factor = np.linalg.cholesky(g).conj().T
    return o.haar_unitary(d, rng)[:, :n] @ factor


def _disturbed(case: Case) -> bool:
    return any(
        o.second_schmidt(v, *case.dims) >= MIN_ENTANGLEMENT
        for v in itertools.chain(case.inputs.T, case.outputs.T)
    )


def _sparse_case(rng, kind, dims, n, free, env=None, e_gram=None, clique=None, fault=False) -> Case:
    g_out = _overlap_matrix(rng, n, free, *OVERLAP_RANGE)
    if env is not None:
        e_gram = o.gram(env)
    g_in = g_out * e_gram
    while True:
        case = Case(
            kind=kind,
            dims=dims,
            inputs=_family(rng, dims, g_in),
            outputs=_family(rng, dims, g_out),
            free=free,
            expected_status=INFEASIBLE if clique else REALIZABLE,
            fault=fault,
            env=env,
            clique=clique,
        )
        if _disturbed(case):
            return case


def realizable_case(rng, dims, n, free, kind) -> Case:
    """Built from an explicit dilation whose environment Gram has margin."""
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t = t / np.linalg.norm(t, axis=0)[None, :]
    env = np.vstack([math.sqrt(ENV_MIX) * t, math.sqrt(1.0 - ENV_MIX) * np.eye(n)])
    return _sparse_case(rng, kind, dims, n, tuple(free), env=env)


def infeasible_case(rng, dims, free_pair) -> Case:
    """n = 4 with one free overlap; the other three states form a determined
    clique whose forced environment overlaps are not PSD."""
    n = 4
    clique = tuple(k for k in range(n) if k != free_pair[0])
    while True:
        e = _overlap_matrix(rng, n, (free_pair,), 0.8, 0.95)
        if o.min_eig(e[np.ix_(clique, clique)]) <= CLIQUE_MARGIN:
            break
    return _sparse_case(rng, "infeasible", dims, n, (free_pair,), e_gram=e, clique=clique)


def rank_one_phase_case(rng) -> Case:
    """3 pairs, environments differing only by phases, one free overlap.

    The only completion is rank one, a single point in the search space.
    """
    env = _phases(rng, 3)[None, :]
    return _sparse_case(rng, "rank-one-phase", (2, 2), 3, ((0, 1),), env=env, fault=True)


SPARSE_DIMS = ((2, 2), (2, 3))
SPARSE_ONE_FREE = 12
SPARSE_TWO_FREE = 6
SPARSE_INFEASIBLE = 6
SPARSE_RANK_ONE = 6


def _pairs(n):
    return list(itertools.combinations(range(n), 2))


def sparse_cases(seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(SPARSE_ONE_FREE):
        dims = SPARSE_DIMS[k % 2]
        n = 3 + (k // 2) % 2
        pairs = _pairs(n)
        free = [pairs[rng.integers(len(pairs))]]
        cases.append(realizable_case(rng, dims, n, free, "one-free"))
    for k in range(SPARSE_TWO_FREE):
        dims = SPARSE_DIMS[k % 2]
        n = 3 + (k // 2) % 2
        pairs = _pairs(n)
        picks = rng.choice(len(pairs), size=2, replace=False)
        free = sorted(pairs[int(p)] for p in picks)
        cases.append(realizable_case(rng, dims, n, free, "two-free"))
    for k in range(SPARSE_INFEASIBLE):
        pairs = _pairs(4)
        cases.append(infeasible_case(rng, SPARSE_DIMS[k % 2], pairs[rng.integers(len(pairs))]))
    fixed = np.random.default_rng(FAULT_SEED)
    cases.extend(rank_one_phase_case(fixed) for _ in range(SPARSE_RANK_ONE))
    return cases


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def witness_op(case: Case) -> Outcome:
    return outcome_from_report(q.classify(case.spec))


def sparse_op(case: Case) -> Outcome:
    report = q.classify(case.spec)
    isometry = None
    if report.verdict.is_realizable:
        isometry = q.construct_isometry(case.spec, report.verdict)
    return outcome_from_report(report, isometry)


def paper_op(config) -> list[tuple[str, dict, int, bytes]]:
    out = []
    for name in WARM_SCENARIOS:
        doc, code = cli.run_scenario(name, config)
        out.append((name, doc, code, cli.emit_report(doc, "json")))
    return out


# ---------------------------------------------------------------------------
# checks: each returns (failed, problems)
# ---------------------------------------------------------------------------


def check_witness(case: Case, out: Outcome) -> tuple[bool, list[str]]:
    # a witness exists: the probe's image under the benchmark's own map
    image, _ = o.map_coherently(case.inputs, case.outputs, case.probe)
    if o.concurrence(image) <= 1e-6:
        return False, ["the probe has no entangled image, so no witness is known"]
    if out.classification != QUANTUM_CATALYSIS or out.witness is None:
        return True, []
    problems = []
    if out.completed is None or np.max(np.abs(out.completed - 1.0)) > 1e-9:
        problems.append("completed Gram is not all ones")
    w_in, w_out, coeff, conc_out = out.witness
    if 2.0 * abs(o.det2(w_in)) > 1e-8:
        problems.append("witness input is not a product state")
    if np.linalg.norm(case.inputs @ coeff - w_in) > 1e-8:
        problems.append("witness input is not sum c_i a_i")
    image = o.normalized(case.outputs @ coeff)
    if abs(np.vdot(image, w_out)) < 1.0 - 1e-9:
        problems.append("witness output is not proportional to sum c_i b_i")
    if abs(o.concurrence(w_out) - conc_out) > 1e-9 or conc_out <= 1e-6:
        problems.append("witness concurrence disagrees with 2|ad - bc|")
    return False, problems


def check_sparse(case: Case, out: Outcome) -> tuple[bool, list[str]]:
    if out.status != case.expected_status:
        return True, []
    problems = []
    if out.classification != NOT_CATALYSIS:
        problems.append(f"classification {out.classification}, expected {NOT_CATALYSIS}")
    ratios, known = o.environment_ratios(case.inputs, case.outputs, TOL)
    if out.status == REALIZABLE:
        g = out.completed
        if np.max(np.abs(g - g.conj().T)) > 1e-9 or np.max(np.abs(g.diagonal() - 1.0)) > 1e-9:
            problems.append("completed Gram is not Hermitian with unit diagonal")
        if o.min_eig(g) < -TOL:
            problems.append("completed Gram is not PSD")
        if np.max(np.abs(g - ratios)[known]) > 1e-8:
            problems.append("completed Gram differs from G_in/G_out at a determined entry")
        if out.isometry is not None:
            problems.extend(_isometry_problems(case, out.isometry))
    else:
        reason, magnitude = out.certificate or ("", 0.0)
        clique = np.ix_(case.clique, case.clique)
        if reason != "psd_violation" or magnitude < -o.min_eig(ratios[clique]) - TOL:
            problems.append("certificate is not a psd_violation at least the clique's")
    return False, problems


def _isometry_problems(case: Case, v: np.ndarray) -> list[str]:
    if o.unitary_error(v) > 1e-9:
        return ["isometry is not unitary"]
    d = case.inputs.shape[0]
    r = v.shape[0] // d
    e0 = np.zeros(r, dtype=np.complex128)
    e0[0] = 1.0
    for a, b in zip(case.inputs.T, case.outputs.T):
        rho = o.reduced_system(v @ np.kron(a, e0), d, r)
        if np.max(np.abs(rho - np.outer(b, b.conj()))) > 1e-8:
            return ["isometry does not send a_i (x) e0 to |b_i><b_i|"]
    return []


def _cloning_family() -> tuple[np.ndarray, np.ndarray]:
    sources = (o.ZERO, o.ZERO, o.PLUS)
    inputs = np.column_stack([np.kron(t, s) for t, s in zip(TARGETS, sources)])
    outputs = np.column_stack([np.kron(t, t) for t in TARGETS])
    return inputs, outputs


def no_info_certificate() -> float:
    """max |G_in / G_out| of t_i |0> -> t_i t_i: sqrt(2)."""
    inputs = np.column_stack([np.kron(t, o.ZERO) for t in TARGETS])
    outputs = np.column_stack([np.kron(t, t) for t in TARGETS])
    ratios, known = o.environment_ratios(inputs, outputs, TOL)
    return float(np.max(np.abs(ratios[known])))


def sweep_concurrence(v: float) -> float:
    """Output concurrence of |i,i> under the deletion map with residues r(0), r(v), |+>."""
    residues = (o.deletion_residue(0.0), o.deletion_residue(v), o.PLUS)
    inputs = np.column_stack([np.kron(t, t) for t in TARGETS])
    outputs = np.column_stack([np.kron(t, r) for t, r in zip(TARGETS, residues)])
    image, _ = o.map_coherently(inputs, outputs, np.kron(o.CIRC, o.CIRC))
    return o.concurrence(image)


def check_scenario(name: str, doc: dict, code: int) -> list[str]:
    """Problems with one scenario report, from the CLI or from run_scenario."""
    if code != 0 or doc.get("status") != "pass":
        return [f"{name}: status {doc.get('status')!r}, exit code {code}"]
    problems = []
    if name == "cloning":
        inputs, outputs = _cloning_family()
        plus_zero = np.kron(o.PLUS, o.ZERO)
        image, _ = o.map_coherently(inputs, outputs, plus_zero)
        w = doc["witnesses"][0]
        if abs(np.vdot(_complex(w["input"]), plus_zero)) < 1.0 - 1e-9:
            problems.append("cloning witness is not |+0>")
        if abs(np.vdot(_complex(w["output"]), image)) < 1.0 - 1e-9:
            problems.append("cloning witness output is not the image of |+0>")
        if abs(o.concurrence(image) - 1.0) > 1e-9 or abs(w["concurrence_out"] - 1.0) > 1e-9:
            problems.append("cloning witness output concurrence is not 1")
    elif name == "no-info-cloning":
        magnitude = doc["verdict"]["certificate"]["magnitude"]
        if abs(magnitude - no_info_certificate()) > 1e-9:
            problems.append("no-info certificate differs from max |G_in/G_out|")
    elif name == "deletion-sweep":
        for p in doc["sweep"]:
            if abs(sweep_concurrence(p["v"]) - p["out_concurrence"]) > 1e-9:
                problems.append(f"deletion-sweep point v={p['v']} concurrence differs")
                break
    return problems


def check_paper(config, result: list[tuple[str, dict, int, bytes]]) -> tuple[bool, list[str]]:
    problems = []
    for name, doc, code, payload in result:
        problems.extend(check_scenario(name, doc, code))
        if cli.emit_report(doc, "json") != payload:
            problems.append(f"{name}: two emits of one report differ")
    return False, problems
