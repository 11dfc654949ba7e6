"""Eigen-directions of batches of symmetric 3x3 matrices.

Thin layer over ``np.linalg.eigh`` (LAPACK's symmetric solver): eigenvalues
are returned in descending order and eigenvectors carry a fixed sign rule,
largest-magnitude component positive. For a repeated eigenvalue the vector
is whichever unit vector of the eigenspace LAPACK returns, which is
deterministic for a given matrix.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray


def _fix_sign(v: NDArray[np.float64]) -> NDArray[np.float64]:
    """Flip each (..., 3) vector so its largest-magnitude component is positive."""
    lead = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    return v * np.where(lead < 0.0, -1.0, 1.0)


def principal_direction(s: NDArray[np.float64]):
    """Largest eigenvalue direction, eigenvalues (descending) and the
    top-two eigenvalue gap."""
    lams, vecs = np.linalg.eigh(np.asarray(s, dtype=np.float64))
    lams = lams[..., ::-1]
    return _fix_sign(vecs[..., :, -1]), lams, lams[..., 0] - lams[..., 1]


def smallest_direction(s: NDArray[np.float64]):
    """Smallest eigenvalue direction plus all eigenvalues (descending)."""
    lams, vecs = np.linalg.eigh(np.asarray(s, dtype=np.float64))
    return _fix_sign(vecs[..., :, 0]), lams[..., ::-1]
