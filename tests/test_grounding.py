import numpy as np
import pytest

from locoman.errors import (DegenerateConstraints, InvalidDepth, OracleFailure,
                            UsageError)
from locoman.geometry import Pose, unit
from locoman.training import quat_from_euler
from locoman.grounding import (CameraModel, DepthImage, GroundingResult,
                               ground_action, pixel_to_point, solve_orientation)
from oracles import is_rotation_matrix


def _cam(extrinsic=None):
    return CameraModel(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64,
                       extrinsic=extrinsic or Pose())


class TestCameraModel:
    def test_project_back_project_round_trip(self):
        cam = _cam()
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(100):
            p = np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                          rng.uniform(0.3, 3.0)])
            u, v = cam.project(p)
            assert np.allclose(cam.back_project(u, v, p[2]), p, atol=1e-12)

    def test_principal_point_maps_to_axis(self):
        cam = _cam()
        assert cam.project(np.array([0.0, 0.0, 1.0])) == (32.0, 32.0)

    def test_bad_intrinsics_rejected(self):
        with pytest.raises(ValueError):
            CameraModel(fx=0.0, fy=100.0, cx=32, cy=32, width=64, height=64,
                        extrinsic=Pose())

    def test_non_finite_intrinsics_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            CameraModel(fx=float("nan"), fy=100.0, cx=32, cy=32, width=64, height=64,
                        extrinsic=Pose())


class TestPixelToPoint:
    def test_transforms_into_base_frame(self):
        extrinsic = Pose(np.array([0.2, 0.0, 0.5]), quat_from_euler(0, 0, np.pi / 2))
        cam = _cam(extrinsic)
        depth = DepthImage.constant(64, 64, 1.5)
        p = pixel_to_point(cam, depth, (32.0, 32.0))
        expected = extrinsic.transform(np.array([0.0, 0.0, 1.5]))
        assert np.allclose(p, expected, atol=1e-12)

    def test_nearest_valid_depth_fallback(self):
        cam = _cam()
        d = np.zeros((64, 64), dtype=np.float32)
        d[33, 34] = 2.0  # valid reading 2px away
        depth = DepthImage(64, 64, d)
        p = pixel_to_point(cam, depth, (32.0, 32.0))
        assert p[2] == pytest.approx(2.0)

    def test_no_valid_depth_raises(self):
        cam = _cam()
        depth = DepthImage.constant(64, 64, 0.0)
        with pytest.raises(InvalidDepth):
            pixel_to_point(cam, depth, (32.0, 32.0))

    def test_out_of_image_pixel(self):
        cam = _cam()
        depth = DepthImage.constant(64, 64, 1.0)
        with pytest.raises(UsageError):
            pixel_to_point(cam, depth, (70.0, 32.0))


DOWN = np.array([0.0, 0.0, -1.0])


class TestSolveOrientation:
    def test_residuals_over_random_inputs(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for i in range(10_000):
            mode = i % 4
            a = unit(rng.normal(size=3)) if mode in (0, 1) else None
            if mode == 0:
                # guaranteed-feasible normal: orthogonalized against a
                n = rng.normal(size=3)
                n = n - np.dot(n, a) * a
                if np.linalg.norm(n) < 1e-6:
                    continue
                n = unit(n)
            elif mode == 2:
                n = unit(rng.normal(size=3))
            else:
                n = None
            approach = unit(rng.normal(size=3))
            R = solve_orientation(a, n, approach)
            assert is_rotation_matrix(R, tol=1e-9)
            if a is not None:
                assert abs(float(R[:, 0] @ a)) < 1e-9
                assert abs(float(R[:, 2] @ a)) < 1e-9
            if n is not None and a is None:
                assert abs(abs(float(R[:, 2] @ n)) - 1.0) < 1e-9

    def test_normal_alignment_exact_when_orthogonal(self):
        a = np.array([0.0, 0.0, 1.0])
        n = np.array([1.0, 0.0, 0.0])
        R = solve_orientation(a, n, DOWN)
        assert np.allclose(np.abs(R[:, 2] @ n), 1.0, atol=1e-12)

    def test_axis_priority_over_normal(self):
        # conflicting normal: r_z gets the projection of n orthogonal to a
        a = np.array([0.0, 0.0, 1.0])
        n = unit(np.array([1.0, 0.0, 1.0]))
        R = solve_orientation(a, n, DOWN)
        assert abs(float(R[:, 2] @ a)) < 1e-12
        assert np.allclose(R[:, 2], [1.0, 0.0, 0.0], atol=1e-12)

    def test_degenerate_exactly_at_tolerance(self):
        a = np.array([0.0, 0.0, 1.0])
        with pytest.raises(DegenerateConstraints):
            solve_orientation(a, a, DOWN)
        with pytest.raises(DegenerateConstraints):
            solve_orientation(a, -a, DOWN)
        # just under the parallel threshold: |n.a| = 1 - 2e-6 stays feasible
        tilt = np.sqrt(1.0 - (1.0 - 2e-6) ** 2)
        n = unit(np.array([tilt, 0.0, 1.0 - 2e-6]))
        solve_orientation(a, n, DOWN)

    def test_no_constraints_uses_default_approach(self):
        R = solve_orientation(None, None, DOWN)
        assert np.allclose(R[:, 2], DOWN)
        assert is_rotation_matrix(R, tol=1e-12)

    def test_normal_only_sign_pins_to_approach(self):
        n = np.array([0.0, 0.0, 1.0])
        R = solve_orientation(None, n, DOWN)
        assert np.allclose(R[:, 2], -n)  # flipped into the approach half-space

    def test_deterministic(self):
        rng = np.random.Generator(np.random.PCG64(9))
        a = unit(rng.normal(size=3))
        n0 = rng.normal(size=3)
        n = unit(n0 - np.dot(n0, a) * a)
        R1 = solve_orientation(a, n, DOWN)
        R2 = solve_orientation(a.copy(), n.copy(), DOWN.copy())
        assert np.array_equal(R1, R2)


class _Oracle:
    def __init__(self, result):
        self.result = result

    def ground(self, image, action_description):
        return self.result


class TestGroundAction:
    def test_full_pipeline(self):
        cam = _cam(Pose(np.array([0.3, 0.0, 0.4]), quat_from_euler(0, np.pi / 2, 0)))
        depth = DepthImage.constant(64, 64, 0.8)
        result = GroundingResult(contact_pixel=(32.0, 32.0),
                                 surface_normal=np.array([0.0, 0.0, 1.0]))
        pose = ground_action(_Oracle(result), cam, depth, None, "grasp the handle")
        expected = cam.extrinsic.transform(np.array([0.0, 0.0, 0.8]))
        assert np.allclose(pose.position, expected, atol=1e-9)
        assert is_rotation_matrix(pose.rotation(), tol=1e-9)

    def test_oracle_none_raises(self):
        cam = _cam()
        depth = DepthImage.constant(64, 64, 1.0)
        with pytest.raises(OracleFailure):
            ground_action(_Oracle(None), cam, depth, None, "grasp")

    def test_oracle_pixel_out_of_bounds(self):
        cam = _cam()
        depth = DepthImage.constant(64, 64, 1.0)
        bad = GroundingResult(contact_pixel=(128.0, 10.0))
        with pytest.raises(OracleFailure):
            ground_action(_Oracle(bad), cam, depth, None, "grasp")
