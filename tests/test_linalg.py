import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcatalysis.states import DimensionMismatchError, inner, phase_aligned_distance

SQ2 = 1.0 / math.sqrt(2.0)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PLUS = np.array([SQ2, SQ2])


def amplitudes(dim):
    reals = st.floats(-1.0, 1.0, allow_nan=False)
    return st.lists(
        st.tuples(reals, reals), min_size=dim, max_size=dim
    ).map(lambda pairs: np.array([complex(r, i) for r, i in pairs]))


class TestInner:
    def test_plus_with_zero(self):
        assert abs(inner(PLUS, KET0) - SQ2) < 1e-12

    def test_orthogonal(self):
        assert inner(KET0, KET1) == 0

    def test_self_inner_is_one(self):
        v = np.array([0.6, 0.8j])
        assert abs(inner(v, v) - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner(KET0, np.array([1.0, 0.0, 0.0]))

    @given(amplitudes(4), amplitudes(4))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_symmetry(self, u, v):
        assert abs(inner(u, v) - np.conj(inner(v, u))) < 1e-12

    def test_linear_in_second_argument(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        lhs = inner(u, 0.3j * v + 2.0 * w)
        rhs = 0.3j * inner(u, v) + 2.0 * inner(u, w)
        assert abs(lhs - rhs) < 1e-12


def test_phase_aligned_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match="^phase alignment needs equal dimensions"):
        phase_aligned_distance(KET0, np.array([1.0, 0.0, 0.0]))


def test_phase_aligned_distance_ignores_phase():
    v = np.array([0.6, 0.8j])
    assert phase_aligned_distance(v, np.exp(0.7j) * v) < 1e-12
    assert phase_aligned_distance(KET0, KET1) > 1.0
