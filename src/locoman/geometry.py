"""3D math primitives: small vectors, quaternions, rotations, poses.

Conventions (fixed project-wide):
  - quaternions are (w, x, y, z), unit norm
  - Euler angles are extrinsic X-Y-Z (roll, pitch, yaw): R = Rz @ Ry @ Rx
  - world frame is z-up, base frame is x-forward
  - angles normalize to (-pi, pi], ties at pi resolve to +pi
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def vec3(x, y, z) -> np.ndarray:
    return np.array([x, y, z], dtype=float)


def dot(a, b) -> float:
    """Inner product of two 1-D vectors as a float: every small-vector
    product and norm in the package goes through it. An array's own `dot`
    is np.dot's C entry (the same BLAS call) without np.dot's dispatch."""
    return float(a.dot(b) if type(a) is np.ndarray else np.dot(a, b))


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`dot` of each row pair of two (n, k) arrays, bit for bit: np.vecdot
    runs np.dot's BLAS kernel per row, whose fused multiply-adds a
    written-out `x * x + y * y` does not make."""
    return np.vecdot(a, b)


def mat_vec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """`m @ v` for a small matrix and vector: the one `@` in the package,
    so a change of its float path has one place to go."""
    return m @ v


def norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-D float array, bit for bit (numpy computes the
    same sqrt of v.dot(v)), without its per-call overhead."""
    return math.sqrt(dot(v, v))


NORM_BAND = 1e-12  # relative half-width of the band in which norm_within asks norm


def norm_within(dx: float, dy: float, bound: float, strict: bool = False) -> bool:
    """`norm(np.array((dx, dy))) <= bound` (`<` when `strict`) for floats,
    bit for bit, without the array where the floats already decide it.

    `dx * dx + dy * dy` rounds the exact sum of squares at most twice, and so
    does BLAS's dot of the 2-vector, in whatever order and with whatever
    fused multiply-add it uses: each lies within about 4.4e-16 of the exact
    sum, relatively, and `bound * bound` within 1.1e-16 of the exact square.
    So when the float sum lies outside a relative band of NORM_BAND around
    `bound * bound`, the dot lies on the same side of bound**2 by thousands
    of ulps, its correctly rounded `sqrt` on the same side of `bound`, and
    `<=` and `<` both have the float sum's answer. Inside the band, for NaN,
    or for a bound outside (1e-150, 1e150), whose square leaves the range
    where products round relatively, `norm` decides."""
    if 1e-150 < bound < 1e150:
        s, b2 = dx * dx + dy * dy, bound * bound
        if s < b2 * (1.0 - NORM_BAND):
            return True
        if s > b2 * (1.0 + NORM_BAND):
            return False
    d = norm(np.array((dx, dy)))
    return d < bound if strict else d <= bound


def unit(v: np.ndarray) -> np.ndarray:
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


# ---------------------------------------------------------------------------
# quaternions (w, x, y, z)
# ---------------------------------------------------------------------------

QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q / norm(q)


def _hamilton(aw, ax, ay, az, bw, bx, by, bz):
    """The Hamilton product a * b, component by component. Each component may
    be a float or an array; arrays give the product of every row at once."""
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(_hamilton(*np.asarray(a, dtype=float).tolist(),
                              *np.asarray(b, dtype=float).tolist()))


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def rotate(q, v) -> tuple:
    """The vector part of q * (0, v) * conj(q) for a unit quaternion q and
    the three components of v, as `_hamilton` takes them (floats, or one
    array per component). The `0.0` scalar part is multiplied like any other,
    so signed zeros match the 4-vector product."""
    w, x, y, z = q
    t = _hamilton(w, x, y, z, 0.0, *v)
    return _hamilton(*t, w, -x, -y, -z)[1:]


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector, or each row of an (N, 3) array, by unit quaternion q."""
    v = np.asarray(v, dtype=float)
    one = v.ndim == 1
    r = rotate(np.asarray(q, dtype=float).tolist(), v.tolist() if one else v.T)
    return np.array(r) if one else np.stack(r, axis=-1)


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = unit(np.asarray(axis, dtype=float)).tolist()
    half = 0.5 * angle
    s = math.sin(half)
    return np.array([math.cos(half), s * x, s * y, s * z])


def yaw_quat(yaw: float) -> tuple[float, float, float, float]:
    """quat_from_axis_angle about +z as four floats, bit for bit: `math`'s sin
    and cos are numpy's, `0.0 * s` keeps the signed zeros, and the constant
    axis is not normalised."""
    half = 0.5 * yaw
    s = math.sin(half)
    return (math.cos(half), 0.0 * s, 0.0 * s, s)


def quat_from_yaw(yaw: float) -> np.ndarray:
    return np.array(yaw_quat(yaw))


def quat_yaw(w: float, x: float, y: float, z: float) -> float:
    """Yaw of the extrinsic X-Y-Z Euler angles (training.quat_from_euler's) of
    the unit quaternion (w, x, y, z), with roll pinned to 0 at gimbal lock. It
    reads only the three entries of quat_to_matrix that the yaw needs, by the
    same expressions, and matches the tests' full-matrix oracle bit for bit."""
    # |sin(pitch)| clamped to 1 lies below 1 - 1e-9 exactly when unclamped it does
    if abs(2 * (x * z - w * y)) < 1.0 - 1e-9:
        return float(np.arctan2(2 * (x * y + w * z), 1 - 2 * (y * y + z * z)))
    return float(np.arctan2(-(2 * (x * y - w * z)), 1 - 2 * (x * x + z * z)))


def quat_geodesic_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle between two unit quaternions: 2*arccos(|a . b|).

    Symmetric, in [0, pi], invariant under sign flip of either argument.
    """
    d = abs(dot(a, b))
    return 2.0 * np.arccos(min(d, 1.0))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to unit quaternion, w >= 0."""
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return quat_normalize(q)


def quat_slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    d = dot(a, b)
    if d < 0.0:
        b = -b
        d = -d
    if d > 1.0 - 1e-12:
        return quat_normalize(a + t * (b - a))
    # numpy's arccos (math.acos differs in the last bit), math's sin (the
    # same bits as numpy's), then numpy's elementwise `(sa * a + sb * b) / s`
    theta = float(np.arccos(min(d, 1.0)))
    sa, sb, s = math.sin((1.0 - t) * theta), math.sin(t * theta), math.sin(theta)
    return np.array([(sa * ai + sb * bi) / s for ai, bi in zip(a.tolist(), b.tolist())])


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pose:
    """Rigid transform: orientation then translation (frame-to-world map)."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=lambda: QUAT_IDENTITY.copy())

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation", np.asarray(self.orientation, dtype=float))

    @staticmethod
    def from_xy_yaw(x: float, y: float, yaw: float, z: float = 0.0) -> "Pose":
        return Pose(vec3(x, y, z), quat_from_yaw(yaw))

    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)

    def transform(self, p: np.ndarray) -> np.ndarray:
        """Map a point, or each row of an (N, 3) array, from this pose's frame
        to the parent (world) frame."""
        return self.position + quat_rotate(self.orientation, np.asarray(p, dtype=float))

    def inverse_transform(self, p: np.ndarray) -> np.ndarray:
        """Map a parent-frame point into this pose's frame."""
        return quat_rotate(quat_conjugate(self.orientation),
                           np.asarray(p, dtype=float) - self.position)

    def compose(self, other: "Pose") -> "Pose":
        """self * other: apply other first, then self."""
        return Pose(self.transform(other.position),
                    quat_normalize(quat_mul(self.orientation, other.orientation)))

    def inverse(self) -> "Pose":
        qi = quat_conjugate(self.orientation)
        return Pose(quat_rotate(qi, -self.position), qi)

    def yaw(self) -> float:
        return quat_yaw(*self.orientation.tolist())
