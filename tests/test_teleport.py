import functools
import importlib
import itertools

import numpy as np
import pytest

from helpers import assert_record, assert_value_record, batched_protocol_figures
from qcatalysis import (
    GateSpec,
    NONLOCAL_CNOT_LEDGER,
    PureState,
    ResourceLedger,
    TELEPORT_LEDGER,
    apply_gate,
    bell_pair,
    fidelity,
    ket,
    ket_plus,
    nonlocal_cnot,
    random_state,
    random_states,
    standard_triple,
    teleport,
    tensor,
)
from qcatalysis.cli import RunConfig, _fmt, run_scenario
from qcatalysis.teleport import _nonlocal_cnot_rows, _teleport_rows

# the package re-exports the function ``teleport`` under the module's name
teleport_module = importlib.import_module("qcatalysis.teleport")
cli_module = importlib.import_module("qcatalysis.cli")
states_module = importlib.import_module("qcatalysis.states")


# the protocols as dense matrices on the whole register, qubit 0 most significant
I2 = np.eye(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.diag([1.0, -1.0])
H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
P0, P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
BELL = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def kron(*factors):
    return functools.reduce(np.kron, factors)


def bra(bit):
    return I2[bit][None, :]


def dense_teleport(psi):
    """Branch amplitudes (4, 2) on the register (input, sender, receiver)."""
    v = kron(H, I2, I2) @ (kron(P0, I2, I2) + kron(P1, X, I2)) @ np.kron(psi, BELL)
    return np.array(
        [
            np.linalg.matrix_power(Z, m0) @ np.linalg.matrix_power(X, m1)
            @ kron(bra(m0), bra(m1), I2) @ v
            for m0, m1 in np.ndindex(2, 2)
        ]
    )


def dense_nonlocal_cnot(psi):
    """Branch amplitudes (4, 4) on the register (A, B, a1, b1)."""
    v = (kron(P0, I2, I2, I2) + kron(P1, I2, X, I2)) @ np.kron(psi, BELL)
    out = []
    for m in (0, 1):
        w = kron(I2, I2, np.linalg.matrix_power(X, m)) @ kron(I2, I2, bra(m), I2) @ v
        w = kron(I2, I2, H) @ (kron(I2, I2, P0) + kron(I2, X, P1)) @ w
        for n in (0, 1):
            out.append(kron(np.linalg.matrix_power(Z, n), I2) @ kron(I2, I2, bra(n)) @ w)
    return np.array(out)


def assert_kernel_matches_single_calls(kernel, protocol, rows, dims):
    """Row i of one batched kernel call equals the single-state protocol on row i."""
    amplitudes = kernel(rows)
    assert amplitudes.shape == (4, rows.shape[1], len(rows))
    for i, row in enumerate(rows):
        branches, _ = protocol(PureState(dims, row))
        assert [b.measurement_bits for b in branches] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for b, amp in zip(branches, amplitudes[..., i]):
            assert abs(b.probability - np.vdot(amp, amp).real) <= 1e-15
            assert np.max(np.abs(b.post_state.vector * np.sqrt(b.probability) - amp)) <= 1e-15


class TestTeleport:
    @pytest.mark.parametrize("state_fn", [lambda: ket("0"), lambda: ket("1"), ket_plus])
    def test_named_states_arrive_in_every_branch(self, state_fn):
        state = state_fn()
        branches, ledger = teleport(state)
        assert len(branches) == 4
        for b in branches:
            assert fidelity(b.post_state, state) >= 1.0 - 1e-12
        assert ledger == TELEPORT_LEDGER

    def test_branch_probabilities_are_quarter(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            state = random_state((2,), rng)
            branches, _ = teleport(state)
            for b in branches:
                assert abs(b.probability - 0.25) <= 1e-12
            assert abs(sum(b.probability for b in branches) - 1.0) <= 1e-12

    def test_random_states_arrive_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            state = random_state((2,), rng)
            branches, _ = teleport(state)
            for b in branches:
                assert fidelity(b.post_state, state) >= 1.0 - 1e-12

    def test_rejects_multi_qubit_input(self):
        with pytest.raises(ValueError):
            teleport(bell_pair())


class TestNonlocalCnot:
    def test_rejects_one_qubit_input(self):
        message = r"^nonlocal_cnot expects two qubits, got dims \(2,\)$"
        with pytest.raises(ValueError, match=message):
            nonlocal_cnot(ket("0"))

    def test_plus_zero_becomes_bell_in_every_branch(self):
        branches, ledger = nonlocal_cnot(tensor(ket_plus(), ket("0")))
        assert len(branches) == 4
        for b in branches:
            assert fidelity(b.post_state, bell_pair()) >= 1.0 - 1e-12
        assert ledger == NONLOCAL_CNOT_LEDGER

    def test_standard_pairs_copied_in_every_branch(self):
        for t, s in zip(standard_triple("target"), standard_triple("source")):
            branches, _ = nonlocal_cnot(tensor(t, s))
            for b in branches:
                assert fidelity(b.post_state, tensor(t, t)) >= 1.0 - 1e-12

    def test_agrees_with_direct_gate_on_random_inputs(self):
        rng = np.random.default_rng(43)
        gate = GateSpec("CNOT", (0, 1))
        for _ in range(100):
            state = random_state((2, 2), rng)
            target = apply_gate(gate, state)
            branches, _ = nonlocal_cnot(state)
            assert abs(sum(b.probability for b in branches) - 1.0) <= 1e-12
            for b in branches:
                assert fidelity(b.post_state, target) >= 1.0 - 1e-12

    def test_entangled_inputs_supported(self):
        # the protocol acts on the joint state, so pre-entangled registers
        # must come out exactly as the direct gate would leave them
        gate = GateSpec("CNOT", (0, 1))
        state = bell_pair()
        target = apply_gate(gate, state)
        branches, _ = nonlocal_cnot(state)
        for b in branches:
            assert fidelity(b.post_state, target) >= 1.0 - 1e-12

    def test_ledger_constant(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            _, ledger = nonlocal_cnot(random_state((2, 2), rng))
            assert ledger.ebits_consumed == 1
            assert ledger.cbits_a_to_b == 1
            assert ledger.cbits_b_to_a == 1


class TestBatchedKernels:
    def test_teleport_rows_match_single_calls(self):
        named = [s.vector for s in (ket("0"), ket("1"), ket_plus(), *standard_triple("target"))]
        rows = np.concatenate([random_states((2,), 50, np.random.default_rng(45)), named])
        assert_kernel_matches_single_calls(_teleport_rows, teleport, rows, (2,))

    def test_nonlocal_cnot_rows_match_single_calls(self):
        rng = np.random.default_rng(46)
        standard = [
            tensor(t, s).vector
            for t, s in zip(standard_triple("target"), standard_triple("source"))
        ]
        # random two-qubit rows are entangled almost surely; add the Bell pair
        # and a product row too
        rows = np.concatenate(
            [
                random_states((2, 2), 50, rng),
                [bell_pair().vector, tensor(ket_plus(), ket("0")).vector],
                standard,
            ]
        )
        assert_kernel_matches_single_calls(_nonlocal_cnot_rows, nonlocal_cnot, rows, (2, 2))

    @pytest.mark.parametrize(
        "kernel, dense, dims",
        [
            (_teleport_rows, dense_teleport, (2,)),
            (_nonlocal_cnot_rows, dense_nonlocal_cnot, (2, 2)),
        ],
    )
    def test_kernels_match_the_dense_circuit(self, kernel, dense, dims):
        # exact amplitudes, phases and branch labels included
        rows = random_states(dims, 20, np.random.default_rng(50))
        amplitudes = kernel(rows)
        for i, row in enumerate(rows):
            assert np.max(np.abs(amplitudes[..., i] - dense(row))) <= 1e-14

    def test_public_functions_are_one_row_kernel_calls(self, monkeypatch):
        calls = []
        for name, protocol, state in (
            ("_teleport_rows", teleport, ket_plus()),
            ("_nonlocal_cnot_rows", nonlocal_cnot, bell_pair()),
        ):
            kernel = getattr(teleport_module, name)

            def spy(rows, kernel=kernel):
                calls.append(rows.shape)
                return kernel(rows)

            monkeypatch.setattr(teleport_module, name, spy)
            protocol(state)
        assert calls == [(1, 2), (1, 4)]

    @pytest.mark.parametrize(
        "name, protocol, extra_calls",
        [("teleport", "teleport", 0), ("nonlocal-cnot", "nonlocal_cnot", 3)],
    )
    def test_scenarios_draw_once_and_call_the_protocol_per_input(
        self, name, protocol, extra_calls, monkeypatch
    ):
        # one draw of all inputs, then one public call per drawn row as a
        # PureState; nonlocal-cnot also checks the three standard pairs
        draws, singles, states = [], [], []
        original = cli_module.random_states
        public = getattr(cli_module, protocol)

        def draw(*args):
            draws.append(original(*args))
            return draws[-1]

        def single(*args):
            singles.append(args)

        def call(state):
            states.append(state)
            return public(state)

        monkeypatch.setattr(cli_module, "random_states", draw)
        monkeypatch.setattr(states_module, "random_state", single)
        monkeypatch.setattr(cli_module, "random_state", single, raising=False)
        monkeypatch.setattr(cli_module, protocol, call)
        assert run_scenario(name, RunConfig(seed=3))[1] == 0
        assert len(draws) == 1 and not singles
        assert len(states) == 100 + extra_calls
        for row, state in zip(draws[0], states):
            assert isinstance(state, PureState)
            np.testing.assert_array_equal(state.vector, row)

    @pytest.mark.parametrize("name", ["teleport", "nonlocal-cnot"])
    def test_one_batched_call_gives_the_report_bytes(self, name):
        # the per-input scenario and one kernel call over all its inputs print
        # the same figures and pass the same checks
        for seed in range(20):
            doc, code = run_scenario(name, RunConfig(seed=seed))
            min_fid, prob_err, sum_err = batched_protocol_figures(name, seed)
            proto = doc["protocol"]
            assert _fmt(proto["min_branch_fidelity"]) == _fmt(min_fid), seed
            if prob_err is None:
                assert proto["max_branch_probability_error"] is None
            else:
                assert _fmt(proto["max_branch_probability_error"]) == _fmt(prob_err), seed
            assert code == 0
            assert min_fid >= 1.0 - 1e-12 and sum_err <= 1e-12


# (kernel, its transfer tensor's name, the circuit that defines it, input dims)
TRANSFERS = [
    pytest.param(_teleport_rows, "_TELEPORT", "_teleport_circuit", (2,), id="teleport"),
    pytest.param(
        _nonlocal_cnot_rows, "_NONLOCAL_CNOT", "_nonlocal_cnot_circuit", (2, 2),
        id="nonlocal-cnot",
    ),
]


def named_rows(dims):
    """The named inputs of ``dims``: |0>, |1> and |+>, or the two-qubit basis,
    the Bell pair and the standard pairs."""
    if dims == (2,):
        return [s.vector for s in standard_triple("target")]
    pairs = zip(standard_triple("target"), standard_triple("source"))
    basis = [ket(bits) for bits in ("00", "01", "10", "11")]
    return [s.vector for s in (*basis, bell_pair(), *(tensor(t, s) for t, s in pairs))]


class TestTransferTensors:
    """Each protocol runs as the product of its circuit's transfer tensor."""

    @pytest.mark.parametrize("kernel, tensor_name, circuit_name, dims", TRANSFERS)
    def test_tensor_is_the_circuit_on_the_basis_and_read_only(
        self, kernel, tensor_name, circuit_name, dims
    ):
        d = int(np.prod(dims))
        transfer = getattr(teleport_module, tensor_name)
        circuit = getattr(teleport_module, circuit_name)
        assert transfer.shape == (4, d, d) and transfer.dtype == np.complex128
        np.testing.assert_array_equal(transfer, circuit(np.eye(d)))
        assert not transfer.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            transfer[0, 0, 0] = 0.0

    @pytest.mark.parametrize("kernel, tensor_name, circuit_name, dims", TRANSFERS)
    def test_every_call_returns_a_new_writable_array(
        self, kernel, tensor_name, circuit_name, dims
    ):
        # failed_assertions writes into what the kernel returns
        transfer = getattr(teleport_module, tensor_name)
        kept = transfer.copy()
        row = named_rows(dims)[0][None, :]
        first, second = kernel(row), kernel(row)
        assert first is not second
        for out in (first, second):
            assert out.flags.writeable
            assert not np.shares_memory(out, transfer) and not np.shares_memory(out, row)
        first[...] = 7.0
        np.testing.assert_array_equal(transfer, kept)
        np.testing.assert_array_equal(second, kernel(row))

    @pytest.mark.parametrize("kernel, tensor_name, circuit_name, dims", TRANSFERS)
    def test_branches_are_complete(self, kernel, tensor_name, circuit_name, dims):
        # sum_b T_b^H T_b = I: the branch probabilities of any input sum to one
        transfer = getattr(teleport_module, tensor_name)
        gram = np.einsum("bji,bjk->ik", transfer.conj(), transfer)
        assert np.max(np.abs(gram - np.eye(transfer.shape[2]))) <= 1e-15

    def test_every_teleport_branch_is_a_quarter_of_an_isometry(self):
        # T_b^H T_b = I / 4: each branch has probability 1/4 whatever the input
        transfer = teleport_module._TELEPORT
        for branch in transfer:
            assert np.max(np.abs(branch.conj().T @ branch - np.eye(2) / 4)) <= 1e-15

    @pytest.mark.parametrize("kernel, tensor_name, circuit_name, dims", TRANSFERS)
    def test_one_row_calls_match_the_gate_stepped_circuit(
        self, kernel, tensor_name, circuit_name, dims
    ):
        circuit = getattr(teleport_module, circuit_name)
        rows = np.concatenate(
            [random_states(dims, 200, np.random.default_rng(62)), named_rows(dims)]
        )
        for row in rows:
            got, want = kernel(row[None, :]), circuit(row[None, :])
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15


KERNELS = {"teleport": "_teleport_rows", "nonlocal-cnot": "_nonlocal_cnot_rows"}


def failed_assertions(name, monkeypatch, corrupt, call) -> set[str]:
    """Run a scenario whose ``call``-th kernel output passes through ``corrupt`` first."""
    original = getattr(teleport_module, KERNELS[name])
    calls = itertools.count()

    def corrupted(rows):
        amplitudes = original(rows)
        if next(calls) == call:
            corrupt(amplitudes[..., 0])
        return amplitudes

    monkeypatch.setattr(teleport_module, KERNELS[name], corrupted)
    doc, _ = run_scenario(name, RunConfig())
    return {a["name"] for a in doc["assertions"] if not a["passed"]}


def rotate(branch):
    """Replace one branch amplitude by an orthogonal one of the same norm."""

    def corrupt(amplitudes):
        amp = amplitudes[branch]
        amplitudes[branch] = np.roll(amp.conj(), 1) * np.array([-1] + [1] * (amp.size - 1))

    return corrupt


def scale(branch):
    def corrupt(amplitudes):
        amplitudes[branch] *= 1.01

    return corrupt


class TestScenarioChecks:
    """Every check runs on every branch of every input, with its threshold."""

    @pytest.mark.parametrize("branch, call", [(0, 0), (1, 57), (3, 99)])
    def test_teleport_checks_every_branch(self, branch, call, monkeypatch):
        assert failed_assertions("teleport", monkeypatch, rotate(branch), call) == {
            "all_branches_reproduce_input"
        }
        assert failed_assertions("teleport", monkeypatch, scale(branch), call) == {
            "branch_probabilities_quarter",
            "branch_probabilities_sum_to_one",
        }

    @pytest.mark.parametrize("branch, call", [(0, 0), (2, 42), (3, 99)])
    def test_nonlocal_cnot_checks_every_branch(self, branch, call, monkeypatch):
        assert failed_assertions("nonlocal-cnot", monkeypatch, rotate(branch), call) == {
            "all_branches_match_direct_cnot"
        }
        assert failed_assertions("nonlocal-cnot", monkeypatch, scale(branch), call) == {
            "branch_probabilities_sum_to_one"
        }

    @pytest.mark.parametrize("branch, call", [(0, 100), (3, 102)])
    def test_nonlocal_cnot_checks_the_standard_pairs(self, branch, call, monkeypatch):
        # the three standard pairs are the calls after the 100 drawn inputs
        assert failed_assertions("nonlocal-cnot", monkeypatch, rotate(branch), call) == {
            "standard_pairs_reproduced"
        }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_a_non_finite_branch_is_refused(self, name, monkeypatch):
        def corrupt(amplitudes):
            amplitudes[3, 0] = np.nan

        # normalizing the broken branch may itself warn
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            failed_assertions(name, monkeypatch, corrupt, 57)


PROTOCOLS = [
    (teleport, _teleport_rows, (2,)),
    (nonlocal_cnot, _nonlocal_cnot_rows, (2, 2)),
]


class TestBranchStates:
    """The branch states skip PureState's checks behind one probability guard."""

    @pytest.mark.parametrize("protocol, kernel, dims", PROTOCOLS)
    def test_branch_states_are_validated_unit_rows(self, protocol, kernel, dims):
        for row in random_states(dims, 50, np.random.default_rng(60)):
            amplitudes = kernel(row[None, :])[..., 0]
            branches, _ = protocol(PureState(dims, row))
            for b, amp in zip(branches, amplitudes):
                validated = PureState(dims, amp / np.sqrt(b.probability))
                assert b.post_state.dims == validated.dims
                assert b.post_state.vector.dtype == validated.vector.dtype
                np.testing.assert_array_equal(b.post_state.vector, validated.vector)
                assert not b.post_state.vector.flags.writeable
                with pytest.raises(ValueError):
                    b.post_state.vector[0] = 0.0

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_a_zero_branch_is_refused(self, name, monkeypatch):
        def corrupt(amplitudes):
            amplitudes[2] = 0.0

        # refused before the division, so no NaN state is ever built
        with np.errstate(all="raise"), pytest.raises(ValueError, match="finite"):
            failed_assertions(name, monkeypatch, corrupt, 57)

    @pytest.mark.parametrize("protocol, kernel, dims", PROTOCOLS)
    def test_a_zero_branch_is_refused_by_the_public_call(
        self, protocol, kernel, dims, monkeypatch
    ):
        def zeroed(rows):
            amplitudes = kernel(rows)
            amplitudes[1] = 0.0
            return amplitudes

        monkeypatch.setattr(teleport_module, kernel.__name__, zeroed)
        state = PureState(dims, random_states(dims, 1, np.random.default_rng(61))[0])
        with np.errstate(all="raise"), pytest.raises(ValueError, match="finite"):
            protocol(state)

    def test_the_cnot_target_is_the_direct_gate(self):
        gate = GateSpec("CNOT", (0, 1))
        for seed in range(20):
            rows = random_states((2, 2), 100, np.random.default_rng(seed))
            targets = rows[:, cli_module._CNOT_COLUMNS]
            for row, target in zip(rows, targets):
                np.testing.assert_array_equal(
                    apply_gate(gate, PureState((2, 2), row)).vector, target
                )


class TestRecords:
    def test_ledger_is_a_frozen_value(self):
        fields = ("ebits_consumed", "cbits_a_to_b", "cbits_b_to_a")
        assert_record(TELEPORT_LEDGER, fields, eq=True)
        assert repr(TELEPORT_LEDGER) == (
            "ResourceLedger(ebits_consumed=1, cbits_a_to_b=2, cbits_b_to_a=0)"
        )
        assert_value_record(ResourceLedger, (1, 2, 0), (1, 1, 1))

    def test_branch_outcome_is_frozen(self):
        branches, _ = teleport(ket("0"))
        assert_record(branches[0], ("measurement_bits", "probability", "post_state"), eq=False)
        assert repr(branches[0]).endswith(", post_state=PureState(dims=(2,)))")
