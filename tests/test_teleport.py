import numpy as np
import pytest

from qcatalysis import (
    GateSpec,
    NONLOCAL_CNOT_LEDGER,
    TELEPORT_LEDGER,
    apply_gate,
    bell_pair,
    fidelity,
    ket,
    ket_plus,
    nonlocal_cnot,
    random_state,
    standard_triple,
    teleport,
    tensor,
)


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
