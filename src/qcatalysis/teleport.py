"""Teleportation and a gate-teleported CNOT with resource accounting.

Both protocols consume one shared entangled pair plus classical bits and
reproduce their target exactly in every measurement branch, demonstrating
that a single shared pair with classical communication suffices for the
catalysis interaction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import GateSpec, PureState, apply_gate, tensor


@dataclass(frozen=True)
class ResourceLedger:
    ebits_consumed: int
    cbits_a_to_b: int
    cbits_b_to_a: int

    def __post_init__(self):
        if min(self.ebits_consumed, self.cbits_a_to_b, self.cbits_b_to_a) < 0:
            raise ValueError("resource counts must be nonnegative")


@dataclass(frozen=True, eq=False)
class BranchOutcome:
    measurement_bits: tuple[int, ...]
    probability: float
    post_state: PureState


TELEPORT_LEDGER = ResourceLedger(ebits_consumed=1, cbits_a_to_b=2, cbits_b_to_a=0)
NONLOCAL_CNOT_LEDGER = ResourceLedger(ebits_consumed=1, cbits_a_to_b=1, cbits_b_to_a=1)


def bell_pair() -> PureState:
    """(|00> + |11>) / sqrt(2)."""
    inv = 1.0 / math.sqrt(2.0)
    return PureState((2, 2), np.array([inv, 0.0, 0.0, inv]))


def measure_out(
    state: PureState, indices: tuple[int, ...]
) -> list[tuple[tuple[int, ...], float, PureState]]:
    """Computational-basis measurement removing the measured subsystems.

    Returns (bits, probability, conditional state of the rest) for every
    outcome with nonvanishing probability.
    """
    idx = tuple(indices)
    rest = [i for i in range(len(state.dims)) if i not in idx]
    arr = state.vector.reshape(state.dims)
    arr = np.moveaxis(arr, idx, range(len(idx)))
    mdims = [state.dims[i] for i in idx]
    arr = arr.reshape(math.prod(mdims), -1)
    rest_dims = tuple(state.dims[i] for i in rest)
    branches = []
    for outcome in range(arr.shape[0]):
        row = arr[outcome]
        p = float(np.vdot(row, row).real)
        if p < 1e-15:
            continue
        bits = []
        rem = outcome
        for d in reversed(mdims):
            bits.append(rem % d)
            rem //= d
        bits.reverse()
        branches.append((tuple(bits), p, PureState(rest_dims, row / math.sqrt(p))))
    return branches


def teleport(state: PureState) -> tuple[list[BranchOutcome], ResourceLedger]:
    """Teleport a single-qubit state through one shared entangled pair.

    The sender interacts the input with her half of the pair and measures
    both qubits in the Bell basis (CNOT, Hadamard, computational read-out,
    four branches of probability 1/4); the receiver applies the X/Z
    correction named by the two classical bits.  Every branch reproduces
    the input exactly up to global phase.
    """
    if state.dims != (2,):
        raise ValueError(f"teleport expects a single qubit, got dims {state.dims}")
    full = tensor(state, bell_pair())
    full = apply_gate(GateSpec("CNOT", (0, 1)), full)
    full = apply_gate(GateSpec("H", (0,)), full)
    outcomes = []
    for bits, prob, remaining in measure_out(full, (0, 1)):
        m0, m1 = bits
        post = remaining
        if m1:
            post = apply_gate(GateSpec("X", (0,)), post)
        if m0:
            post = apply_gate(GateSpec("Z", (0,)), post)
        outcomes.append(BranchOutcome(bits, prob, post))
    return outcomes, TELEPORT_LEDGER


def nonlocal_cnot(state: PureState) -> tuple[list[BranchOutcome], ResourceLedger]:
    """Apply CNOT between remote qubits using one shared entangled pair.

    Register order (A, B, a1, b1) with the pair on (a1, b1).  A CNOT from
    A onto a1 followed by a computational measurement of a1 sends one bit
    to Bob, who corrects b1 and applies CNOT from b1 onto B; measuring b1
    in the |+>/|-> basis sends one bit back, fixing a phase on A.  Every
    branch equals CNOT(A -> B) applied to the input, up to global phase.
    """
    if state.dims != (2, 2):
        raise ValueError(f"nonlocal_cnot expects two qubits, got dims {state.dims}")
    full = tensor(state, bell_pair())
    full = apply_gate(GateSpec("CNOT", (0, 2)), full)
    outcomes = []
    for (m,), p_m, after_m in measure_out(full, (2,)):
        # remaining register order (A, B, b1)
        stage = after_m
        if m:
            stage = apply_gate(GateSpec("X", (2,)), stage)
        stage = apply_gate(GateSpec("CNOT", (2, 1)), stage)
        stage = apply_gate(GateSpec("H", (2,)), stage)
        for (n,), p_n, after_n in measure_out(stage, (2,)):
            post = after_n
            if n:
                post = apply_gate(GateSpec("Z", (0,)), post)
            outcomes.append(BranchOutcome((m, n), p_m * p_n, post))
    return outcomes, NONLOCAL_CNOT_LEDGER
