"""Reference implementations that only tests and acceptance criteria call.

Each is the plain, one-value-at-a-time form of a rule the library applies
another way, kept here so the library's faster form can be checked against
it bit for bit or to a stated tolerance.
"""

import numpy as np

from locoman.geometry import quat_to_matrix
from locoman.training import SphericalTarget
from locoman.navgrid import SQRT2

_UNIT_TOL = 1e-9


def euler_from_quat(q: np.ndarray) -> tuple[float, float, float]:
    """Inverse of quat_from_euler away from gimbal lock (|pitch| = pi/2)."""
    R = quat_to_matrix(q)
    sp = -R[2, 0]
    sp = float(np.clip(sp, -1.0, 1.0))
    pitch = np.arcsin(sp)
    if abs(sp) < 1.0 - 1e-9:
        roll = np.arctan2(R[2, 1], R[2, 2])
        yaw = np.arctan2(R[1, 0], R[0, 0])
    else:
        # gimbal lock: only roll +/- yaw observable, pin roll = 0
        roll = 0.0
        yaw = np.arctan2(-R[0, 1], R[1, 1])
    return float(roll), float(pitch), float(yaw)


def is_rotation_matrix(R: np.ndarray, tol: float = _UNIT_TOL) -> bool:
    return (np.allclose(R.T @ R, np.eye(3), atol=tol)
            and abs(np.linalg.det(R) - 1.0) <= tol)


def cartesian_to_spherical(v: np.ndarray) -> SphericalTarget:
    r = float(np.linalg.norm(v))
    if r == 0.0:
        return SphericalTarget(0.0, 0.0, 0.0)
    pitch = float(np.arcsin(np.clip(v[2] / r, -1.0, 1.0)))
    yaw = float(np.arctan2(v[1], v[0]))
    return SphericalTarget(r, pitch, yaw)


def disk_overlaps_bbox(x: float, y: float, radius: float, bbox_min, bbox_max) -> bool:
    """2D disk vs axis-aligned box overlap."""
    nx = min(max(x, bbox_min[0]), bbox_max[0])
    ny = min(max(y, bbox_min[1]), bbox_max[1])
    return np.hypot(nx - x, ny - y) < radius


def path_cost(path: list[tuple[int, int]]) -> float:
    cost = 0.0
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        cost += SQRT2 if (x0 != x1 and y0 != y1) else 1.0
    return cost
