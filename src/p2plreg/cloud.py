"""Point cloud containers shared by every other module.

A cloud is an (N, 3) float64 position array plus optional per-point unit
normals. Every cloud is validated at construction, so downstream code can
assume finite positions and unit-length normals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:
    from .geometry import RigidTransform

UNIT_NORMAL_TOL = 1e-9


def _as_points(a, name: str) -> NDArray[np.float64]:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must have shape (N, 3), got {arr.shape}")
    return arr


def _read_only(arr: NDArray) -> NDArray:
    """A read-only view of arr, so a frozen container's arrays cannot be
    edited in place through it; arr itself keeps its flags."""
    view = arr.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class PointCloud:
    """Positions plus optional per-point unit normals.

    positions: (N, 3) finite scene-unit coordinates, N >= 1.
    normals:   (N, 3) unit vectors or None when not yet estimated.

    Both are held as read-only views.
    """

    positions: NDArray[np.float64]
    normals: NDArray[np.float64] | None = None

    def __post_init__(self):
        pos = _as_points(self.positions, "positions")
        if pos.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", _read_only(pos))
        if self.normals is not None:
            nrm = _as_points(self.normals, "normals")
            if nrm.shape[0] != pos.shape[0]:
                raise ValueError("normals and positions must have matching length")
            lengths = np.linalg.norm(nrm, axis=1)
            if np.any(np.abs(lengths - 1.0) > UNIT_NORMAL_TOL):
                worst = float(np.max(np.abs(lengths - 1.0)))
                raise ValueError(f"normals must be unit length (worst deviation {worst:.3e})")
            object.__setattr__(self, "normals", _read_only(nrm))

    def __len__(self) -> int:
        return int(self.positions.shape[0])

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    def require_normals(self) -> NDArray[np.float64]:
        if self.normals is None:
            raise ValueError("operation requires a cloud with normals")
        return self.normals

    def with_normals(self, normals) -> "PointCloud":
        return PointCloud(self.positions, normals)


@dataclass(frozen=True)
class RegistrationPair:
    """A source/target cloud pair, optionally with ground truth.

    When ``gt`` is present it maps the source frame onto the target frame.
    ``clean_source``/``clean_target`` hold the pre-partial-scan clouds so
    chamfer evaluation can use the full sampled surfaces.
    """

    source: PointCloud
    target: PointCloud
    gt: "RigidTransform | None" = None
    clean_source: PointCloud | None = None
    clean_target: PointCloud | None = None
