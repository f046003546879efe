"""The numpy kernels against the scalar per-value functions they batch."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cayley_runs import components, make_mapping, run_starts_mapping
from cayley_runs.kernels import connected, has_fixed_point, run_counts


def _assert_rows_match_scalar(images):
    runs, conn, fixed = run_counts(images), connected(images), has_fixed_point(images)
    for k, row in enumerate(images.tolist()):
        m = make_mapping(row)
        assert runs[k] == run_starts_mapping(m).count
        assert conn[k] == (len(components(m).components) == 1)
        assert fixed[k] == any(j == i for i, j in enumerate(row, start=1))


@pytest.mark.parametrize("n", range(1, 6))
def test_kernels_exhaustive(n):
    images = np.array(list(itertools.product(range(1, n + 1), repeat=n)), dtype=np.int64)
    _assert_rows_match_scalar(images)


@st.composite
def image_blocks(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.integers(1, 8))
    return draw(arrays(np.int64, (rows, n), elements=st.integers(1, n)))


@settings(max_examples=200)
@given(image_blocks())
def test_kernels_random_blocks(images):
    _assert_rows_match_scalar(images)
