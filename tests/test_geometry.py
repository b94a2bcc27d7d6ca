import numpy as np
import pytest

from locoman.geometry import (Pose, dot, matrix_to_quat, norm,
                              quat_from_axis_angle, quat_from_yaw,
                              quat_geodesic_distance, quat_mul, quat_normalize,
                              quat_rotate, quat_slerp, quat_to_matrix, unit)
from locoman.training import (SphericalTarget, quat_from_euler,
                              spherical_to_cartesian, wrap_angle)
from oracles import (cartesian_to_spherical, euler_from_quat, is_rotation_matrix,
                     quat_from_axis_angle_array, quat_slerp_array)


def random_quat(rng):
    return quat_normalize(rng.normal(size=4))


class TestWrapAngle:
    def test_identity_inside_range(self):
        assert wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)
        assert wrap_angle(-3.0) == pytest.approx(-3.0, abs=1e-15)

    def test_wraps_multiples(self):
        assert wrap_angle(2 * np.pi + 0.1) == pytest.approx(0.1)
        assert wrap_angle(-2 * np.pi - 0.1) == pytest.approx(-0.1)

    def test_pi_maps_to_plus_pi(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)

    def test_range_is_half_open(self):
        rng = np.random.Generator(np.random.PCG64(0))
        a = wrap_angle(rng.uniform(-50, 50, size=10_000))
        assert np.all(a > -np.pi)
        assert np.all(a <= np.pi)

    def test_vectorized(self):
        out = wrap_angle([0.0, 4.0, -4.0])
        assert out.shape == (3,)


class TestQuaternions:
    def test_mul_identity(self):
        rng = np.random.Generator(np.random.PCG64(1))
        q = random_quat(rng)
        e = np.array([1.0, 0, 0, 0])
        assert np.allclose(quat_mul(q, e), q)
        assert np.allclose(quat_mul(e, q), q)

    def test_rotate_matches_matrix(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(50):
            q = random_quat(rng)
            v = rng.normal(size=3)
            assert np.allclose(quat_rotate(q, v), quat_to_matrix(q) @ v,
                               atol=1e-12)

    def test_axis_angle_round_trip(self):
        q = quat_from_axis_angle(np.array([0, 0, 1.0]), np.pi / 2)
        v = quat_rotate(q, np.array([1.0, 0, 0]))
        assert np.allclose(v, [0, 1, 0], atol=1e-12)

    def test_matrix_quat_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(200):
            q = random_quat(rng)
            q2 = matrix_to_quat(quat_to_matrix(q))
            # w >= 0 canonicalization: compare up to sign
            assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-9
            assert q2[0] >= 0.0

    def test_euler_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(4))
        for _ in range(200):
            roll, yaw = rng.uniform(-np.pi, np.pi, size=2)
            pitch = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3)
            q = quat_from_euler(roll, pitch, yaw)
            r2, p2, y2 = euler_from_quat(q)
            assert (r2, p2, y2) == pytest.approx((roll, pitch, yaw), abs=1e-9)

    def test_euler_convention_is_extrinsic_xyz(self):
        roll, pitch, yaw = 0.3, -0.2, 1.1
        q = quat_from_euler(roll, pitch, yaw)
        Rx = quat_to_matrix(quat_from_axis_angle(np.array([1.0, 0, 0]), roll))
        Ry = quat_to_matrix(quat_from_axis_angle(np.array([0, 1.0, 0]), pitch))
        Rz = quat_to_matrix(quat_from_axis_angle(np.array([0, 0, 1.0]), yaw))
        assert np.allclose(quat_to_matrix(q), Rz @ Ry @ Rx, atol=1e-12)

    def test_slerp_endpoints(self):
        rng = np.random.Generator(np.random.PCG64(5))
        a, b = random_quat(rng), random_quat(rng)
        assert np.allclose(quat_slerp(a, b, 0.0), a, atol=1e-12)
        end = quat_slerp(a, b, 1.0)
        assert min(np.linalg.norm(end - b), np.linalg.norm(end + b)) < 1e-12

    def test_axis_angle_bitwise_equals_numpy_form(self):
        # math's sin and cos on floats, against numpy's on the arrays
        rng = np.random.Generator(np.random.PCG64(14))
        axes = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-3, 3, (20_000, 1))
        axes[::7, 0] = -0.0
        angles = rng.uniform(-4 * np.pi, 4 * np.pi, 20_000)
        angles[:4] = [0.0, -0.0, np.pi, -5e-324]
        for axis, angle in zip(axes, angles):
            assert quat_from_axis_angle(axis, angle).tobytes() == \
                quat_from_axis_angle_array(axis, angle).tobytes(), (axis, angle)

    def test_slerp_bitwise_equals_numpy_form(self):
        rng = np.random.Generator(np.random.PCG64(15))
        for _ in range(10_000):
            a, b = random_quat(rng), random_quat(rng)
            b = b if rng.random() < 0.8 else quat_normalize(a + 1e-7 * b)  # near-equal
            t = float(rng.choice([0.0, 1.0, rng.random()]))
            assert quat_slerp(a, b, t).tobytes() == quat_slerp_array(a, b, t).tobytes(), (a, b, t)

    def test_from_yaw_bitwise_equals_axis_angle(self):
        rng = np.random.Generator(np.random.PCG64(13))
        z_axis = np.array([0, 0, 1.0])
        yaws = list(rng.uniform(-4 * np.pi, 4 * np.pi, 20_000))  # np.float64
        yaws += [float(y) for y in rng.uniform(-4 * np.pi, 4 * np.pi, 20_000)]
        yaws += [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 5e-324, 0, 1]
        for yaw in yaws:
            # tobytes compares sign bits too, so -0.0 != 0.0 here
            assert quat_from_yaw(yaw).tobytes() == \
                quat_from_axis_angle(z_axis, yaw).tobytes(), yaw


class TestGeodesicDistance:
    def test_identity_is_zero(self):
        q = quat_from_euler(0.1, 0.2, 0.3)
        assert quat_geodesic_distance(q, q) == 0.0

    def test_sign_flip_invariance(self):
        rng = np.random.Generator(np.random.PCG64(6))
        a, b = random_quat(rng), random_quat(rng)
        d = quat_geodesic_distance(a, b)
        assert quat_geodesic_distance(-a, b) == pytest.approx(d, abs=1e-15)
        assert quat_geodesic_distance(a, -b) == pytest.approx(d, abs=1e-15)

    def test_symmetry_and_range(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(500):
            a, b = random_quat(rng), random_quat(rng)
            d = quat_geodesic_distance(a, b)
            assert d == quat_geodesic_distance(b, a)
            assert 0.0 <= d <= np.pi

    def test_known_rotation_angle(self):
        q = np.array([1.0, 0, 0, 0])
        r = quat_from_axis_angle(np.array([0, 1.0, 0]), 0.7)
        assert quat_geodesic_distance(q, r) == pytest.approx(0.7, abs=1e-12)


class TestSpherical:
    def test_forward_values(self):
        v = spherical_to_cartesian(SphericalTarget(2.0, 0.0, 0.0))
        assert np.allclose(v, [2.0, 0.0, 0.0])
        v = spherical_to_cartesian(SphericalTarget(1.0, np.pi / 2, 0.0))
        assert np.allclose(v, [0.0, 0.0, 1.0], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(200):
            s = SphericalTarget(rng.uniform(0.1, 2.0),
                                rng.uniform(-1.4, 1.4),
                                rng.uniform(-np.pi, np.pi))
            s2 = cartesian_to_spherical(spherical_to_cartesian(s))
            assert (s2.radius, s2.pitch, s2.yaw) == pytest.approx(
                (s.radius, s.pitch, s.yaw), abs=1e-12)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            SphericalTarget(-0.1, 0.0, 0.0)


class TestPose:
    def test_transform_inverse_transform(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(100):
            pose = Pose(rng.normal(size=3), random_quat(rng))
            p = rng.normal(size=3)
            assert np.allclose(pose.inverse_transform(pose.transform(p)), p,
                               atol=1e-12)

    def test_compose_matches_sequential_transform(self):
        rng = np.random.Generator(np.random.PCG64(10))
        a = Pose(rng.normal(size=3), random_quat(rng))
        b = Pose(rng.normal(size=3), random_quat(rng))
        p = rng.normal(size=3)
        assert np.allclose(a.compose(b).transform(p), a.transform(b.transform(p)),
                           atol=1e-12)

    def test_inverse_composes_to_identity(self):
        rng = np.random.Generator(np.random.PCG64(11))
        pose = Pose(rng.normal(size=3), random_quat(rng))
        ident = pose.compose(pose.inverse())
        assert np.allclose(ident.position, 0.0, atol=1e-12)
        assert quat_geodesic_distance(ident.orientation,
                                      np.array([1.0, 0, 0, 0])) < 1e-9

    def test_yaw_extraction(self):
        pose = Pose.from_xy_yaw(1.0, 2.0, 0.8)
        assert pose.yaw() == pytest.approx(0.8, abs=1e-12)

    def test_yaw_bitwise_equals_euler_yaw(self):
        rng = np.random.Generator(np.random.PCG64(12))
        quats = [random_quat(rng) for _ in range(20_000)]
        # gimbal lock, where yaw comes from the R[0,1] / R[1,1] branch
        for _ in range(5_000):
            r, y = rng.uniform(-np.pi, np.pi, 2)
            quats.append(quat_from_euler(r, rng.choice([-1.0, 1.0]) * np.pi / 2, y))
        quats += [np.array([1.0, 0, 0, 0]), np.array([-1.0, 0, 0, 0]),
                  np.array([0.0, 0, 0, 1.0]), np.array([0.0, 0, 0, -1.0]),
                  np.array([0.0, 1.0, 0, 0]), np.array([0.0, -0.0, 0, -1.0])]
        for q in quats:
            got = Pose(np.zeros(3), q).yaw()
            assert type(got) is float
            assert np.float64(got).tobytes() == \
                np.float64(euler_from_quat(q)[2]).tobytes(), q


def ref_quat_mul(a, b):
    """The quaternion product written out on numpy scalars: the byte
    reference of `quat_mul` and `quat_rotate`."""
    aw, ax, ay, az = np.asarray(a, dtype=float)
    bw, bx, by, bz = np.asarray(b, dtype=float)
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def ref_quat_rotate(q, v):
    """The vector part of q * (0, v) * conj(q), as two reference products."""
    q = np.asarray(q, dtype=float)
    conj = np.array([q[0], -q[1], -q[2], -q[3]])
    return ref_quat_mul(ref_quat_mul(q, np.array([0.0, v[0], v[1], v[2]])), conj)[1:]


def extreme_vectors(rng, n):
    """Vectors with magnitudes from 1e-300 to 1e300 per component, about a
    quarter of the components set to +0.0 or -0.0 and some subnormal."""
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-300, 300, (n, 3))
    zero = rng.random((n, 3)) < 0.25
    v[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    tiny = rng.random((n, 3)) < 0.05
    v[tiny] = rng.choice([5e-324, -5e-324, 2.5e-310, -1e-320], size=int(tiny.sum()))
    return v


def mixed_quats(rng, n):
    """Unit and non-unit quaternions, some with +0.0 / -0.0 components."""
    q = rng.normal(size=(n, 4))
    q[: n // 2] /= np.linalg.norm(q[: n // 2], axis=1, keepdims=True)
    q[n // 2:] *= 10.0 ** rng.uniform(-3, 3, (n - n // 2, 1))
    zero = rng.random((n, 4)) < 0.2
    q[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return q


class TestHamiltonProductOracle:
    """quat_mul and quat_rotate against the two-product composition they
    replaced, byte for byte: tobytes compares sign bits, so a dropped
    `* 0.0` term, which only changes the sign of a zero, fails here."""

    def test_quat_mul_bitwise(self):
        rng = np.random.Generator(np.random.PCG64(21))
        a, b = mixed_quats(rng, 20_000), mixed_quats(rng, 20_000)
        for qa, qb in zip(a, b):
            assert quat_mul(qa, qb).tobytes() == ref_quat_mul(qa, qb).tobytes(), (qa, qb)
        assert quat_mul([1, 2, 3, 4], (0.5, -0.0, 0.0, 2)).tobytes() == \
            ref_quat_mul([1, 2, 3, 4], (0.5, -0.0, 0.0, 2)).tobytes()

    def test_quat_rotate_bitwise(self):
        rng = np.random.Generator(np.random.PCG64(22))
        quats, vecs = mixed_quats(rng, 20_000), extreme_vectors(rng, 20_000)
        vecs[:8] = [[0.0, 0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0],
                    [1e300, -1e300, 1e-300], [5e-324, 0.0, -5e-324],
                    [1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]
        for q, v in zip(quats, vecs):
            got = quat_rotate(q, v)
            assert got.shape == (3,)
            assert got.tobytes() == ref_quat_rotate(q, v).tobytes(), (q, v)
        assert quat_rotate((1, 0, 0, 0), [1, -0.0, 2]).tobytes() == \
            ref_quat_rotate((1, 0, 0, 0), [1, -0.0, 2]).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 360])
    def test_rows_match_single_vector_transform(self, n):
        rng = np.random.Generator(np.random.PCG64(23 + n))
        quats = [random_quat(rng), quat_from_yaw(0.7), quat_from_yaw(-2.0),
                 np.array([1.0, 0.0, -0.0, 0.0]), *mixed_quats(rng, 4)]
        for q in quats:
            pose = Pose(extreme_vectors(rng, 1)[0], q)
            points = extreme_vectors(rng, n)
            points[::5] = rng.choice([0.0, -0.0], size=points[::5].shape)
            rotated, got = quat_rotate(q, points), pose.transform(points)
            assert rotated.shape == got.shape == (n, 3)
            for r, row, p in zip(rotated, got, points):
                assert r.tobytes() == ref_quat_rotate(q, p).tobytes(), p
                assert row.tobytes() == pose.transform(p).tobytes(), p


class TestMisc:
    def test_unit_rejects_zero(self):
        with pytest.raises(ValueError):
            unit(np.zeros(3))

    def test_is_rotation_matrix(self):
        assert is_rotation_matrix(np.eye(3))
        assert not is_rotation_matrix(2 * np.eye(3))
        refl = np.diag([1.0, 1.0, -1.0])
        assert not is_rotation_matrix(refl)

    def test_norm_bitwise_equals_linalg_norm(self):
        # 2-D and 3-D vectors, quaternions, fusion descriptors, r_smooth's joints
        rng = np.random.Generator(np.random.PCG64(13))
        for n in (2, 3, 4, 16, 18):
            for v, w in rng.normal(0.0, 3.0, (5_000, 2, n)):
                got = norm(v)
                assert type(got) is float
                assert got == float(np.linalg.norm(v)), v
                assert norm(v[:2]) == float(np.linalg.norm(v[:2]))
                assert type(dot(v, w)) is float
                assert dot(v, w) == float(np.dot(v, w)), (v, w)
