"""Eigen-directions of symmetric 3x3 batches, checked against the matrix
invariants rather than against another eigensolver."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2plreg import eig3


def _matrix(kind, seed, log_scale):
    rng = np.random.default_rng(seed)
    scale = 10.0**log_scale
    if kind == "random":
        a = rng.uniform(-1.0, 1.0, (3, 3))
        s = a + a.T
    elif kind == "rank1":
        n = rng.standard_normal(3)
        s = np.outer(n, n)
    elif kind == "scalar":
        s = rng.uniform(-1.0, 1.0) * np.eye(3)
    elif kind == "diag110":
        s = np.diag([1.0, 1.0, 0.0])
    else:  # "repeated": a rotated diag(a, a, b)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a, b = rng.uniform(-1.0, 1.0, 2)
        s = q @ np.diag([a, a, b]) @ q.T
        s = 0.5 * (s + s.T)
    return scale * s


KINDS = ("random", "rank1", "scalar", "diag110", "repeated")
matrices = st.builds(
    _matrix,
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
    st.floats(-12.0, 6.0),
)


def _check_direction(s, v, lam):
    scale = np.abs(s).max(axis=(-2, -1))
    assert np.all(np.abs(np.linalg.norm(v, axis=-1) - 1.0) <= 1e-14)
    resid = np.linalg.norm(np.einsum("nij,nj->ni", s, v) - lam[:, None] * v, axis=-1)
    assert np.all(resid <= 1e-12 * scale)
    # Sign rule: the largest-magnitude component (first on ties) is positive.
    lead = v[np.arange(len(v)), np.argmax(np.abs(v), axis=-1)]
    assert np.all(lead > 0.0)


@settings(max_examples=60, deadline=None)
@given(st.lists(matrices, min_size=1, max_size=12))
@example([_matrix(k, 0, 0.0) for k in KINDS])
@example([_matrix(k, 1, e) for k in KINDS for e in (-12.0, 6.0)])
def test_directions_satisfy_invariants(batch):
    s = np.stack(batch)
    scale = np.abs(s).max(axis=(-2, -1))
    v_top, lams, gap = eig3.principal_direction(s)
    v_low, lams_low = eig3.smallest_direction(s)
    np.testing.assert_array_equal(lams, lams_low)

    assert np.all(np.diff(lams, axis=-1) <= 0.0)
    np.testing.assert_array_equal(gap, lams[:, 0] - lams[:, 1])
    trace = np.trace(s, axis1=-2, axis2=-1)
    assert np.all(np.abs(lams.sum(axis=-1) - trace) <= 1e-12 * scale)
    frob2 = np.sum(s * s, axis=(-2, -1))
    assert np.all(np.abs(np.sum(lams * lams, axis=-1) - frob2) <= 1e-12 * scale**2)

    _check_direction(s, v_top, lams[:, 0])
    _check_direction(s, v_low, lams[:, 2])


def test_batch_equals_one_at_a_time():
    kinds = KINDS * 40
    s = np.stack([_matrix(k, i, (i % 19) - 12.0) for i, k in enumerate(kinds)])
    top = eig3.principal_direction(s)
    low = eig3.smallest_direction(s)
    for i in range(len(s)):
        for batched, single in zip(top, eig3.principal_direction(s[i])):
            assert np.array_equal(batched[i], single)
        for batched, single in zip(low, eig3.smallest_direction(s[i])):
            assert np.array_equal(batched[i], single)
