"""Contact-point grounding: pixel + depth to 3D, constrained orientation solve.

The orientation solver enforces two geometric constraints on the gripper
frame (columns r_x = closing direction, r_z = approach direction):
  - dominant axis a: r_x and r_z both orthogonal to a
  - surface normal n: r_z parallel to n, subordinate to the axis constraint

Sign conventions are pinned for determinism: r_z picks the half-space of
default_approach, r_x picks the half-space of world x (fallback world y)
projected into the feasible plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

import numpy as np

from .errors import DegenerateConstraints, InvalidDepth, OracleFailure, UsageError
from .geometry import Pose, dot, matrix_to_quat, norm, unit

_PARALLEL_TOL = 1e-6


@dataclass(frozen=True)
class CameraModel:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    extrinsic: Pose  # camera frame expressed in the robot base frame

    def __post_init__(self):
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point outside image")

    def project(self, p_cam: np.ndarray) -> tuple[float, float]:
        """Camera-frame point (z forward) to pixel coordinates."""
        z = p_cam[2]
        return (self.cx + self.fx * p_cam[0] / z, self.cy + self.fy * p_cam[1] / z)

    def back_project(self, u: float, v: float, depth: float) -> np.ndarray:
        return np.array([(u - self.cx) * depth / self.fx,
                         (v - self.cy) * depth / self.fy,
                         depth])


@dataclass
class DepthImage:
    """Row-major depth in meters; 0 marks an invalid reading."""

    width: int
    height: int
    depth: np.ndarray

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float32).reshape(self.height, self.width)

    @staticmethod
    def constant(width: int, height: int, value: float) -> "DepthImage":
        return DepthImage(width, height, np.full((height, width), value, dtype=np.float32))


@dataclass(frozen=True)
class GroundingResult:
    contact_pixel: tuple[float, float]
    dominant_axis: Optional[np.ndarray] = None   # unit, robot frame
    surface_normal: Optional[np.ndarray] = None  # unit, robot frame


class GroundingOracle(Protocol):
    def ground(self, image, action_description: str) -> Optional[GroundingResult]: ...


def _valid_depth_near(depth: DepthImage, u: float, v: float,
                      radius: int = 2) -> Optional[float]:
    """Depth at the rounded pixel, else nearest valid reading within radius."""
    ui, vi = int(round(u)), int(round(v))
    best = None
    best_d2 = np.inf
    for dv in range(-radius, radius + 1):
        for du in range(-radius, radius + 1):
            x, y = ui + du, vi + dv
            if not (0 <= x < depth.width and 0 <= y < depth.height):
                continue
            z = float(depth.depth[y, x])
            if z <= 0.0:
                continue
            d2 = du * du + dv * dv
            if d2 < best_d2:
                best_d2 = d2
                best = z
    return best


def pixel_to_point(cam: CameraModel, depth: DepthImage,
                   pixel: tuple[float, float]) -> np.ndarray:
    """Back-project a contact pixel to a 3D point in the robot base frame."""
    u, v = pixel
    if not (0 <= u < cam.width and 0 <= v < cam.height):
        raise UsageError(f"pixel ({u}, {v}) outside image")
    z = _valid_depth_near(depth, u, v)
    if z is None:
        raise InvalidDepth(f"no valid depth within 2 px of ({u:.1f}, {v:.1f})")
    return cam.extrinsic.transform(cam.back_project(u, v, z))


def _project_out(v: np.ndarray, axis: np.ndarray) -> np.ndarray:
    return v - dot(v, axis) * axis


def _pick_in_plane(preferred: np.ndarray, normal: np.ndarray,
                   fallback: np.ndarray) -> np.ndarray:
    """Unit vector in the plane orthogonal to normal, closest to preferred."""
    p = _project_out(preferred, normal)
    if norm(p) < 1e-9:
        p = _project_out(fallback, normal)
    return unit(p)


_WORLD_X = np.array([1.0, 0.0, 0.0])
_WORLD_Y = np.array([0.0, 1.0, 0.0])


def solve_orientation(dominant_axis: Optional[np.ndarray],
                      surface_normal: Optional[np.ndarray],
                      default_approach: np.ndarray) -> np.ndarray:
    """Gripper rotation matrix satisfying the axis and normal constraints.

    Columns are (r_x, r_y, r_z) with r_y = r_z x r_x, det = +1.
    Raises DegenerateConstraints when the normal is parallel to the axis.
    """
    approach = unit(np.asarray(default_approach, dtype=float))
    a = None if dominant_axis is None else unit(np.asarray(dominant_axis, dtype=float))
    n = None if surface_normal is None else unit(np.asarray(surface_normal, dtype=float))

    if a is not None and n is not None:
        if abs(dot(n, a)) >= 1.0 - _PARALLEL_TOL:
            raise DegenerateConstraints("surface normal parallel to dominant axis")
        # closest direction to n in the plane orthogonal to a
        r_z = unit(_project_out(n, a))
    elif a is not None:
        r_z = _pick_in_plane(approach, a, _WORLD_X)
        if dot(r_z, approach) < 0.0:
            r_z = -r_z
    elif n is not None:
        r_z = n if dot(n, approach) >= 0.0 else -n
    else:
        r_z = approach

    if a is not None:
        # r_x is the one direction orthogonal to both a and r_z, sign pinned
        r_x = unit(np.cross(r_z, a))
        ref = _project_out(_WORLD_X, a)
        if norm(ref) < 1e-9:
            ref = _project_out(_WORLD_Y, a)
        if dot(r_x, ref) < 0.0:
            r_x = -r_x
    else:
        r_x = _pick_in_plane(_WORLD_X, r_z, _WORLD_Y)

    r_y = np.cross(r_z, r_x)
    return np.column_stack([r_x, r_y, r_z])


def ground_action(oracle: GroundingOracle, cam: CameraModel, depth: DepthImage,
                  image, action_description: str,
                  default_approach: np.ndarray = np.array([0.0, 0.0, -1.0])) -> Pose:
    """One grounded 6-DoF end-effector target in the robot base frame."""
    result = oracle.ground(image, action_description)
    if result is None:
        raise OracleFailure(f"oracle returned nothing for {action_description!r}")
    u, v = result.contact_pixel
    if not (0 <= u < cam.width and 0 <= v < cam.height):
        raise OracleFailure(f"oracle pixel ({u}, {v}) out of bounds")
    position = pixel_to_point(cam, depth, (u, v))
    rotation = solve_orientation(result.dominant_axis, result.surface_normal,
                                 default_approach)
    return Pose(position, matrix_to_quat(rotation))
