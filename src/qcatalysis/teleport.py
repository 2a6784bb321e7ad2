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

from .states import PureState, _gate


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


# (|00> + |11>) / sqrt(2) as a register array, one axis per qubit
_BELL = np.eye(2, dtype=np.complex128) / math.sqrt(2.0)


def bell_pair() -> PureState:
    """(|00> + |11>) / sqrt(2)."""
    return PureState((2, 2), _BELL)


def _branch(bits: tuple[int, ...], amplitudes: np.ndarray) -> BranchOutcome:
    """Branch of unnormalized ``amplitudes``: probability is their squared norm."""
    p = float(np.vdot(amplitudes, amplitudes).real)
    return BranchOutcome(bits, p, PureState(amplitudes.shape, amplitudes / math.sqrt(p)))


def teleport(state: PureState) -> tuple[list[BranchOutcome], ResourceLedger]:
    """Teleport a single-qubit state through one shared entangled pair.

    The sender interacts the input with her half of the pair and measures
    both qubits in the Bell basis (CNOT, Hadamard, computational read-out,
    four branches of probability 1/4); the receiver applies the X/Z
    correction named by the two classical bits.  Every branch reproduces
    the input exactly up to global phase.  One register array with axes
    (input, sender's half, receiver's half) is stepped; a read-out indexes
    the measured axes, and only the branch states become PureStates.
    """
    if state.dims != (2,):
        raise ValueError(f"teleport expects a single qubit, got dims {state.dims}")
    reg = np.multiply.outer(state.vector, _BELL)
    reg = _gate("CNOT", (0, 1), reg)
    reg = _gate("H", (0,), reg)
    outcomes = []
    for m0, m1 in np.ndindex(2, 2):
        post = reg[m0, m1]
        if m1:
            post = _gate("X", (0,), post)
        if m0:
            post = _gate("Z", (0,), post)
        outcomes.append(_branch((m0, m1), post))
    return outcomes, TELEPORT_LEDGER


def nonlocal_cnot(state: PureState) -> tuple[list[BranchOutcome], ResourceLedger]:
    """Apply CNOT between remote qubits using one shared entangled pair.

    Register order (A, B, a1, b1) with the pair on (a1, b1).  A CNOT from
    A onto a1 followed by a computational measurement of a1 sends one bit
    to Bob, who corrects b1 and applies CNOT from b1 onto B; measuring b1
    in the |+>/|-> basis sends one bit back, fixing a phase on A.  Every
    branch equals CNOT(A -> B) applied to the input, up to global phase.
    One register array is stepped, a measurement indexes its axis, and
    only the branch states become PureStates.
    """
    if state.dims != (2, 2):
        raise ValueError(f"nonlocal_cnot expects two qubits, got dims {state.dims}")
    reg = np.multiply.outer(state.vector.reshape(2, 2), _BELL)
    reg = _gate("CNOT", (0, 2), reg)
    outcomes = []
    for m in (0, 1):
        # remaining register order (A, B, b1)
        stage = reg[:, :, m]
        if m:
            stage = _gate("X", (2,), stage)
        stage = _gate("CNOT", (2, 1), stage)
        stage = _gate("H", (2,), stage)
        for n in (0, 1):
            post = stage[:, :, n]
            if n:
                post = _gate("Z", (0,), post)
            outcomes.append(_branch((m, n), post))
    return outcomes, NONLOCAL_CNOT_LEDGER
