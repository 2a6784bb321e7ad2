import math
import re

import numpy as np
import pytest

from helpers import assert_record, assert_value_record, random_unitary
from qcatalysis import (
    EntangledStateError,
    GateSpec,
    PureState,
    apply_gate,
    concurrence,
    fidelity,
    inner,
    ket,
    ket_minus,
    ket_plus,
    product_factorize,
    random_state,
    random_states,
    schmidt_coefficients,
    standard_triple,
    tensor,
)
from qcatalysis.states import DimensionMismatchError, _gate, as_vector

SQ2 = 1.0 / math.sqrt(2.0)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState((2,), np.array([1.0, 1.0]))

    def test_rejects_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            PureState((2,) * 7, np.zeros(128))

    def test_vector_is_immutable(self):
        s = ket("0")
        with pytest.raises(ValueError):
            s.vector[0] = 0.0

    # (dims, amplitudes, error, PureState's message, as_vector's message
    # given the dims' total, or None where as_vector accepts the amplitudes)
    _FINITE = "amplitudes must be finite (no NaN/Inf)"
    REJECTED = [
        pytest.param((2,), [np.nan, 0.0], ValueError, _FINITE, _FINITE, id="nan"),
        pytest.param((2,), [np.inf, 0.0], ValueError, _FINITE, _FINITE, id="inf"),
        pytest.param((2,), [0.0, -np.inf], ValueError, _FINITE, _FINITE, id="minus-inf"),
        pytest.param((2,), [1.0, complex(0.0, np.nan)], ValueError, _FINITE, _FINITE, id="imag-nan"),
        pytest.param((2,), [complex(1.0, np.inf), 0.0], ValueError, _FINITE, _FINITE, id="imag-inf"),
        # finite amplitudes whose squared norm overflows: a numpy norm
        # reduction may warn of the overflow, the rejection is the ValueError
        pytest.param(
            (2,), [1e200, 0.0], ValueError,
            "state vector must be normalized, norm is inf", None,
            id="norm-overflow",
            marks=pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
        ),
        pytest.param(
            (1,), [], ValueError, "vector must have at least one amplitude",
            "vector must have at least one amplitude", id="empty",
        ),
        pytest.param(
            (65,), np.zeros(65), ValueError, "total dimension 65 exceeds the cap of 64",
            "dimension 65 exceeds the cap of 64", id="above-cap",
        ),
        pytest.param(
            (2,) * 7, np.zeros(128), ValueError, "total dimension 128 exceeds the cap of 64",
            "dimension 128 exceeds the cap of 64", id="qubits-above-cap",
        ),
        pytest.param(
            (2,), [1.0, 0.0, 0.0], DimensionMismatchError, "expected dimension 2, got 3",
            "expected dimension 2, got 3", id="dimension-mismatch",
        ),
        pytest.param(
            (2,), [1.0, 1.0], ValueError,
            "state vector must be normalized, norm is 1.414213562373", None,
            id="unnormalized",
        ),
        # two faults at once: the first one as_vector meets names the error
        pytest.param(
            (2,), [np.nan, 0.0, 0.0], DimensionMismatchError, "expected dimension 2, got 3",
            "expected dimension 2, got 3", id="dimension-mismatch-and-nan",
        ),
        pytest.param((2,), [np.nan, 1e200], ValueError, _FINITE, _FINITE, id="nan-and-overflow"),
        # a non-integer dimension is refused, not truncated to (2,); as_vector
        # only compares the size with the dims' total
        pytest.param(
            (2.9,), [1.0, 0.0], ValueError, "subsystem dimension must be an integer, got 2.9",
            "expected dimension 2.9, got 2", id="non-integer-dim",
        ),
        pytest.param(
            (2, 0), [1.0, 0.0], ValueError, "subsystem dimensions must be positive, got (2, 0)",
            "expected dimension 0, got 2", id="zero-dim",
        ),
    ]

    @pytest.mark.parametrize("dims, values, error, message, as_vector_message", REJECTED)
    def test_rejection_paths(self, dims, values, error, message, as_vector_message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            PureState(dims, np.array(values))
        if as_vector_message is None:
            # finite, in range and of the right size: only PureState's norm rejects it
            assert as_vector(values, dim=math.prod(dims)).size == len(values)
        else:
            with pytest.raises(error, match=f"^{re.escape(as_vector_message)}$"):
                as_vector(values, dim=math.prod(dims))

    def test_rejects_norm_that_is_not_a_number(self):
        # |z|^2 overflows in both parts: the BLAS inner product may return NaN
        with pytest.raises(ValueError, match="^state vector must be normalized, norm is"):
            PureState((2,), np.array([complex(1e300, 1e300), 0.0]))

    @pytest.mark.parametrize("transposed", [False, True])
    def test_vector_is_a_read_only_copy(self, transposed):
        m = np.array([[0.5, 0.5j], [-0.5, 0.5]], dtype=np.complex128)
        raw = m.T if transposed else m.ravel()
        expected = raw.ravel().copy()  # row-major, whatever the memory layout
        s = PureState((2, 2), raw)
        v = as_vector(raw)
        raw[...] = 0.0
        assert s.dim == 4
        np.testing.assert_array_equal(s.vector, expected)
        np.testing.assert_array_equal(v, expected)
        assert not s.vector.flags.writeable
        assert not np.shares_memory(s.vector, m)
        assert not np.shares_memory(v, m)


class TestStandardTriples:
    def test_source_family(self):
        a, b, c = standard_triple("source")
        np.testing.assert_array_equal(a.vector, [1, 0])
        np.testing.assert_array_equal(b.vector, [1, 0])
        np.testing.assert_allclose(c.vector, [SQ2, SQ2])

    def test_target_family(self):
        a, b, c = standard_triple("target")
        np.testing.assert_array_equal(a.vector, [1, 0])
        np.testing.assert_array_equal(b.vector, [0, 1])
        np.testing.assert_allclose(c.vector, [SQ2, SQ2])

    def test_overlap_with_third_state(self):
        for kind in ("source", "target"):
            first, second, third = standard_triple(kind)
            assert abs(inner(first.vector, third.vector) - SQ2) < 1e-12
            assert abs(abs(inner(second.vector, third.vector)) - SQ2) < 1e-12

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown"):
            standard_triple("phi")


class TestApplyGate:
    def test_cnot_flips_target(self):
        out = apply_gate(GateSpec("CNOT", (0, 1)), ket("10"))
        assert fidelity(out, ket("11")) == pytest.approx(1.0)

    def test_cnot_fixes_plus_plus(self):
        # expanding |+>|+> over the computational basis, the 10 and 11
        # amplitudes swap into each other, leaving the state unchanged
        state = tensor(ket_plus(), ket_plus())
        out = apply_gate(GateSpec("CNOT", (0, 1)), state)
        assert fidelity(out, state) == pytest.approx(1.0)

    def test_cnot_copies_each_pair(self):
        for t, s in zip(standard_triple("target"), standard_triple("source")):
            out = apply_gate(GateSpec("CNOT", (0, 1)), tensor(t, s))
            assert fidelity(out, tensor(t, t)) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "name, targets, message",
        [
            ("Y", (0,), "unknown gate 'Y'"),
            ("CNOT", (0,), r"CNOT acts on 2 subsystem\(s\), got targets \(0,\)"),
            ("H", (0, 1), r"H acts on 1 subsystem\(s\), got targets \(0, 1\)"),
            # refused, not truncated to subsystem 0 or to (0, 1)
            ("X", (0.9,), "^gate target must be an integer, got 0.9$"),
            ("CNOT", (0.2, 1.7), "^gate target must be an integer, got 0.2$"),
            ("CNOT", (1, 1), r"^gate targets must be distinct, got \(1, 1\)$"),
        ],
    )
    def test_gate_spec_rejects_bad_arity(self, name, targets, message):
        with pytest.raises(ValueError, match=message):
            GateSpec(name, targets)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate(GateSpec("X", (1,)), ket("0"))

    def test_non_qubit_target_rejected(self):
        qutrit = PureState((3,), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(
            ValueError, match="^gate X targets qubit subsystems, subsystem 0 has dimension 3$"
        ):
            apply_gate(GateSpec("X", (0,)), qutrit)

    def test_gate_on_middle_subsystem(self):
        state = tensor(ket("0"), ket("0"), ket("1"))
        out = apply_gate(GateSpec("X", (1,)), state)
        assert fidelity(out, ket("011")) == pytest.approx(1.0)
        # numpy integers are accepted as targets and dimensions
        gate = GateSpec("X", (np.int64(1),))
        same = apply_gate(gate, PureState(tuple(np.array(state.dims)), state.vector))
        assert gate.targets == (1,) and same.dims == (2, 2, 2)
        np.testing.assert_array_equal(same.vector, out.vector)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(21)
        gates = [
            GateSpec("X", (0,)),
            GateSpec("Z", (1,)),
            GateSpec("H", (2,)),
            GateSpec("CNOT", (2, 0)),
        ]
        for _ in range(100):
            s = random_state((2, 2, 2), rng)
            g = gates[int(rng.integers(len(gates)))]
            out = apply_gate(g, s)
            assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "name, dims, targets",
        [
            ("X", (3, 2), (1,)),
            ("X", (2, 3), (0,)),
            ("X", (2, 3, 2), (2,)),
            ("CNOT", (2, 2, 2), (0, 2)),
            ("CNOT", (2, 2, 2), (2, 0)),
            ("CNOT", (2, 2, 2), (1, 0)),
            ("Z", (3, 2), (1,)),
            ("H", (2, 3, 2), (2,)),
            ("CNOT", (2, 3, 2), (0, 2)),
        ],
    )
    def test_matches_dense_kronecker_reference(self, name, dims, targets):
        rng = np.random.default_rng(23)
        dense = _dense_gate(name, dims, targets)
        for _ in range(5):
            s = random_state(dims, rng)
            out = apply_gate(GateSpec(name, targets), s)
            np.testing.assert_allclose(out.vector, dense @ s.vector, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "name, dims, targets",
        [
            ("CNOT", (2, 2, 2), (2, 0)),
            ("H", (3, 2, 2), (1,)),
            ("X", (2, 3), (0,)),
            # a leading axis of 65 before the target: nothing caps the axes
            ("X", (65, 2), (1,)),
        ],
    )
    def test_register_kernel_keeps_a_trailing_batch_axis(self, name, dims, targets):
        # the gate is linear, so unnormalized rows serve, and they may exceed
        # the cap on a state's dimension that random_states keeps
        x = np.random.default_rng(24).standard_normal((7, 2, math.prod(dims)))
        rows = x[:, 0] + 1j * x[:, 1]
        reg = rows.T.reshape(dims + (7,))
        out = _gate(name, targets, reg)
        assert out.shape == reg.shape
        expected = _dense_gate(name, dims, targets) @ rows.T
        np.testing.assert_allclose(out.reshape(-1, 7), expected, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(reg, rows.T.reshape(dims + (7,)))

    def test_self_inverse_gates(self):
        rng = np.random.default_rng(22)
        for name, targets in (("X", (0,)), ("Z", (0,)), ("H", (1,)), ("CNOT", (0, 1))):
            g = GateSpec(name, targets)
            for _ in range(50):
                s = random_state((2, 2), rng)
                back = apply_gate(g, apply_gate(g, s))
                assert np.max(np.abs(back.vector - s.vector)) < 1e-12


def _dense_gate(name, dims, targets):
    """The gate as a dense matrix on the whole register, one Kronecker
    factor per subsystem: a sum over the control's basis projectors for
    CNOT."""
    x = np.array([[0, 1], [1, 0]])
    single = {"X": x, "Z": np.diag([1, -1]), "H": np.array([[1, 1], [1, -1]]) * SQ2}

    def kron(factors):
        m = np.ones((1, 1))
        for i, d in enumerate(dims):
            m = np.kron(m, factors.get(i, np.eye(d)))
        return m

    if name == "CNOT":
        control, target = targets
        return kron({control: np.diag([1, 0])}) + kron({control: np.diag([0, 1]), target: x})
    return kron({targets[0]: single[name]})


class TestSchmidtAndConcurrence:
    def test_product_state_coefficients(self):
        s = tensor(ket_plus(), ket("0"))
        np.testing.assert_allclose(schmidt_coefficients(s), [1, 0], atol=1e-12)

    def test_bell_state_coefficients(self):
        bell = PureState((2, 2), np.array([SQ2, 0, 0, SQ2]))
        np.testing.assert_allclose(schmidt_coefficients(bell), [SQ2, SQ2])

    def test_deletion_probe_output_is_maximally_entangled(self):
        # (|-> |0> + i |+> |1>) / sqrt(2): amplitudes (1, i, -1, i) / 2
        s = PureState((2, 2), np.array([0.5, 0.5j, -0.5, 0.5j]))
        np.testing.assert_allclose(schmidt_coefficients(s), [SQ2, SQ2])
        assert concurrence(s) == pytest.approx(1.0)

    def test_concurrence_extremes(self):
        bell = PureState((2, 2), np.array([SQ2, 0, 0, SQ2]))
        assert concurrence(bell) == pytest.approx(1.0)
        assert concurrence(tensor(ket_plus(), ket("0"))) == pytest.approx(0.0, abs=1e-12)

    def test_concurrence_equals_twice_schmidt_product(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            s = random_state((2, 2), rng)
            lam = schmidt_coefficients(s)
            assert abs(concurrence(s) - 2.0 * lam[0] * lam[1]) < 1e-9

    def test_concurrence_is_twice_the_determinant_to_rounding(self):
        # the determinant form sums ad + da - bc - cb, not 2(ad - bc): the
        # two orders of evaluation differ in the last bit only
        for v in random_states((2, 2), 1000, np.random.default_rng(25)):
            a, b, c, d = v
            assert abs(concurrence(PureState((2, 2), v)) - min(2.0 * abs(a * d - b * c), 1.0)) <= 4e-16

    def test_concurrence_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            s = random_state((2, 2), rng)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = PureState((2, 2), u @ s.vector)
            assert abs(concurrence(rotated) - concurrence(s)) < 1e-9

    def test_bad_split_rejected(self):
        for bits, split in [("0", 1), ("00", 0), ("00", 2)]:
            message = f"^split {split} does not cut {len(bits)} subsystems into two parts$"
            for cut in (schmidt_coefficients, product_factorize):
                with pytest.raises(ValueError, match=message):
                    cut(ket(bits), split)

    @pytest.mark.parametrize("bits", ["0", "000"])
    def test_concurrence_needs_two_qubits(self, bits):
        with pytest.raises(DimensionMismatchError, match="^concurrence is defined for dims"):
            concurrence(ket(bits))


class TestProductFactorize:
    def test_basis_pair(self):
        a, b = product_factorize(ket("10"))
        assert fidelity(a, ket("1")) == pytest.approx(1.0)
        assert fidelity(b, ket("0")) == pytest.approx(1.0)

    def test_entangled_input_reports_second_coefficient(self):
        bell = PureState((2, 2), np.array([SQ2, 0, 0, SQ2]))
        with pytest.raises(EntangledStateError) as exc:
            product_factorize(bell)
        assert exc.value.second_coefficient == pytest.approx(SQ2)

    def test_global_phase_lands_in_second_factor(self):
        phase = np.exp(1.2j)
        s = PureState((2, 2), phase * tensor(ket("0"), ket_plus()).vector)
        a, b = product_factorize(s)
        np.testing.assert_allclose(a.vector, [1, 0], atol=1e-12)
        np.testing.assert_allclose(b.vector, phase * ket_plus().vector, atol=1e-12)

    def test_roundtrip_reconstructs_input(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            dims = (2, int(rng.integers(2, 4)))
            s = tensor(random_state((dims[0],), rng), random_state((dims[1],), rng))
            a, b = product_factorize(s)
            assert np.max(np.abs(tensor(a, b).vector - s.vector)) < 1e-9


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(ket_plus(), ket_plus()) == pytest.approx(1.0)

    def test_orthogonal_states(self):
        assert fidelity(ket("0"), ket("1")) == 0.0

    def test_zero_with_plus(self):
        assert fidelity(ket("0"), ket_plus()) == pytest.approx(0.5)

    def test_minus_orthogonal_to_plus(self):
        assert fidelity(ket_minus(), ket_plus()) == pytest.approx(0.0, abs=1e-12)

    def test_mismatched_dims_rejected(self):
        with pytest.raises(DimensionMismatchError, match="^fidelity needs matching dims"):
            fidelity(ket("0"), ket("00"))


class TestRandomStates:
    @pytest.mark.parametrize("dims", [(2,), (2, 2), (2, 3)])
    def test_batched_draw_reproduces_successive_draws(self, dims):
        batched_rng = np.random.default_rng(47)
        single_rng = np.random.default_rng(47)
        rows = random_states(dims, 25, batched_rng)
        singles = np.array([random_state(dims, single_rng).vector for _ in range(25)])
        assert rows.shape == (25, math.prod(dims))
        assert np.max(np.abs(rows - singles)) <= 1e-15
        # row i holds the real parts of its amplitudes, then the imaginary parts
        explicit_rng = np.random.default_rng(47)
        d = math.prod(dims)
        for row in rows:
            vec = explicit_rng.standard_normal(d) + 1j * explicit_rng.standard_normal(d)
            assert np.max(np.abs(row - vec / np.linalg.norm(vec))) <= 1e-15
        # both generators have consumed the same stream
        assert batched_rng.standard_normal() == single_rng.standard_normal()

    def test_rows_are_unit_vectors(self):
        rows = random_states((2, 2), 100, np.random.default_rng(48))
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize(
        "dims, message",
        [
            ((100,), "total dimension 100 exceeds the cap of 64"),
            ((2,) * 7, "total dimension 128 exceeds the cap of 64"),
            ((0,), r"subsystem dimensions must be positive, got \(0,\)"),
            ((2, -2), r"subsystem dimensions must be positive, got \(2, -2\)"),
            ((), r"subsystem dimensions must be positive, got \(\)"),
            ((2.5,), "subsystem dimension must be an integer, got 2.5"),
        ],
    )
    def test_refuses_what_pure_state_refuses(self, dims, message):
        # the same rule and message as PureState, before anything is drawn
        rng = np.random.default_rng(49)
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_states(dims, 2, rng)
        with pytest.raises(ValueError, match=f"^{message}$"):
            PureState(dims, [1.0])
        assert rng.standard_normal() == np.random.default_rng(49).standard_normal()

    @pytest.mark.parametrize(
        "count, message",
        [
            (-1, "count must be nonnegative, got -1"),
            (2.0, "count must be an integer, got 2.0"),
            ("3", "count must be an integer, got '3'"),
        ],
    )
    def test_refuses_a_count_that_is_not_a_nonnegative_integer(self, count, message):
        rng = np.random.default_rng(50)
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_states((2,), count, rng)
        assert rng.standard_normal() == np.random.default_rng(50).standard_normal()

    def test_zero_count_gives_no_rows(self):
        rng = np.random.default_rng(51)
        assert random_states((2, 3), np.int64(0), rng).shape == (0, 6)
        assert rng.standard_normal() == np.random.default_rng(51).standard_normal()


class TestRecords:
    def test_pure_state_is_frozen_and_its_repr_leaves_out_the_vector(self):
        state = ket("01")
        assert_record(state, ("dims", "vector"), eq=False, hidden=("vector",))
        assert repr(state) == "PureState(dims=(2, 2))"
        assert state != ket("01")

    def test_gate_spec_is_a_frozen_value(self):
        gate = GateSpec("CNOT", (0, 1))
        assert_record(gate, ("name", "targets"), eq=True)
        assert repr(gate) == "GateSpec(name='CNOT', targets=(0, 1))"
        assert_value_record(GateSpec, ("CNOT", (0, 1)), ("CNOT", (1, 0)))
