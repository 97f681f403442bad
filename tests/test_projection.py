"""Tests for the capped-simplex projection, incl. hypothesis property checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.convex import project_capped_simplex
from repro.exceptions import ValidationError

finite_floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
vectors = arrays(np.float64, st.integers(1, 12), elements=finite_floats)


class TestCappedSimplex:
    def test_budget_slack_is_noop_beyond_clip(self):
        v = np.array([0.2, 0.3])
        out = project_capped_simplex(v, radius=5.0)
        np.testing.assert_allclose(out, v)

    def test_budget_enforced(self):
        out = project_capped_simplex(np.array([1.0, 1.0, 1.0]), radius=1.5)
        assert out.sum() <= 1.5 + 1e-9

    def test_caps_enforced(self):
        out = project_capped_simplex(np.array([2.0, 2.0]), radius=10.0, cap=np.array([0.5, 0.7]))
        assert out[0] <= 0.5 + 1e-12 and out[1] <= 0.7 + 1e-12

    def test_negative_cap_rejected(self):
        with pytest.raises(ValidationError):
            project_capped_simplex(np.array([1.0]), radius=1.0, cap=np.array([-0.1]))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValidationError):
            project_capped_simplex(np.array([1.0]), radius=-1.0)

    @given(vectors, st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=50)
    def test_feasible(self, v, radius):
        out = project_capped_simplex(v, radius=radius)
        assert out.min() >= -1e-12
        assert out.max() <= 1.0 + 1e-9
        assert out.sum() <= radius + 1e-6
