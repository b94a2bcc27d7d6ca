import numpy as np
import pytest

from locoman.geometry import Pose, vec3
from locoman.harness import episode_rng, make_rng
from locoman.training import (COMMAND_RANGES, CommandRanges, PushEvent,
                              RandomizationConfig, RandomizationEntry,
                              default_randomization, quat_from_euler,
                              sample_episode_randomization, sample_ee_target,
                              sample_locomotion_command)

PI = np.pi


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42).uniform(size=10)
        b = make_rng(42).uniform(size=10)
        assert np.array_equal(a, b)

    def test_episode_streams_independent(self):
        a = episode_rng(0, 0).uniform(size=5)
        b = episode_rng(0, 1).uniform(size=5)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, episode_rng(0, 0).uniform(size=5))


class TestCommandRanges:
    def test_presets_exist(self):
        assert sorted(COMMAND_RANGES) == ["eval", "roboduet", "train"]

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            CommandRanges(x=(1.0, -1.0), y=(0, 0), w=(0, 0), l_ee=(0.3, 0.6),
                          p_ee=(0, 0), y_ee=(0, 0), alpha_ee=(0, 0),
                          beta_ee=(0, 0), gamma_ee=(0, 0))

    @pytest.mark.parametrize("name, bounds", [
        ("x", (float("nan"), 1.0)), ("w", (-1.0, float("inf"))),
        ("gamma_ee", (float("-inf"), 0.0))])
    def test_non_finite_bound_rejected_at_its_field(self, name, bounds):
        # a NaN bound passes `lo > hi`, and `_uniform` would then draw NaN
        ranges = dict(x=(0, 0), y=(0, 0), w=(0, 0), l_ee=(0.3, 0.6), p_ee=(0, 0),
                      y_ee=(0, 0), alpha_ee=(0, 0), beta_ee=(0, 0), gamma_ee=(0, 0))
        with pytest.raises(ValueError) as exc:
            CommandRanges(**dict(ranges, **{name: bounds}))
        assert exc.value.args[0] == name


class TestCommandSampling:
    def test_in_range_all_presets(self):
        for name in ("train", "eval", "roboduet"):
            ranges = COMMAND_RANGES[name]
            rng = make_rng(1)
            for _ in range(2000):
                cmd = sample_locomotion_command(rng, ranges)
                assert ranges.x[0] <= cmd.x <= ranges.x[1]
                assert ranges.y[0] <= cmd.y <= ranges.y[1]
                assert ranges.w[0] <= cmd.w <= ranges.w[1]

    def test_degenerate_range_pins_value(self):
        ranges = COMMAND_RANGES["eval"]  # y fixed at 0
        rng = make_rng(2)
        for _ in range(100):
            assert sample_locomotion_command(rng, ranges).y == 0.0

    def test_deterministic(self):
        r = COMMAND_RANGES["train"]
        a = sample_locomotion_command(make_rng(3), r)
        b = sample_locomotion_command(make_rng(3), r)
        assert (a.x, a.y, a.w) == (b.x, b.y, b.w)


class TestEETargetSampling:
    def test_orientation_in_range(self):
        ranges = COMMAND_RANGES["train"]
        rng = make_rng(4)
        base = Pose.from_xy_yaw(0, 0, 0.3, z=0.35)
        for _ in range(500):
            tgt = sample_ee_target(rng, ranges, base)
            assert ranges.alpha_ee[0] <= tgt.orientation.roll <= ranges.alpha_ee[1]
            assert ranges.beta_ee[0] <= tgt.orientation.pitch <= ranges.beta_ee[1]
            assert ranges.gamma_ee[0] <= tgt.orientation.yaw <= ranges.gamma_ee[1]

    def test_radius_in_range_for_level_base(self):
        ranges = COMMAND_RANGES["train"]
        rng = make_rng(5)
        base = Pose(vec3(1.0, -2.0, 0.55), quat_from_euler(0, 0, 0.7))
        for _ in range(500):
            tgt = sample_ee_target(rng, ranges, base,
                                   nominal_arm_base_height=0.55)
            # base origin sits at the nominal height: base-frame radius is exact
            r = float(np.linalg.norm(tgt.position))
            assert ranges.l_ee[0] - 1e-9 <= r <= ranges.l_ee[1] + 1e-9

    def test_world_z_invariant_to_base_pitch(self):
        ranges = COMMAND_RANGES["train"]
        zs = {}
        for pitch in (-0.5, 0.0, 0.5):
            rng = make_rng(6)  # fixed seed across pitches
            base = Pose(vec3(0.5, 0.2, 0.35), quat_from_euler(0.0, pitch, 0.9))
            tgt = sample_ee_target(rng, ranges, base)
            world = base.transform(tgt.position)
            zs[pitch] = world[2]
        vals = list(zs.values())
        assert max(vals) - min(vals) <= 1e-9

    def test_world_z_invariant_to_terrain_offset(self):
        ranges = COMMAND_RANGES["train"]
        rng_a = make_rng(7)
        rng_b = make_rng(7)
        lo = Pose(vec3(0, 0, 0.35), quat_from_euler(0, 0, 0))
        hi = Pose(vec3(0, 0, 1.35), quat_from_euler(0, 0, 0))  # 1 m step up
        za = lo.transform(sample_ee_target(rng_a, ranges, lo).position)[2]
        zb = hi.transform(sample_ee_target(rng_b, ranges, hi).position)[2]
        assert za == pytest.approx(zb, abs=1e-9)

    def test_arm_base_offset_follows_yaw(self):
        ranges = COMMAND_RANGES["eval"]
        offset = np.array([0.2, 0.0, 0.05])
        rng_a, rng_b = make_rng(8), make_rng(8)
        base0 = Pose.from_xy_yaw(0, 0, 0.0, z=0.55)
        base90 = Pose.from_xy_yaw(0, 0, np.pi / 2, z=0.55)
        wa = base0.transform(sample_ee_target(rng_a, ranges, base0,
                                              arm_base_offset=offset).position)
        wb = base90.transform(sample_ee_target(rng_b, ranges, base90,
                                               arm_base_offset=offset).position)
        # same draw, frame rotated 90 degrees: world targets are rotated copies
        assert np.allclose([[0, -1], [1, 0]] @ wa[:2], wb[:2], atol=1e-9)
        assert wa[2] == pytest.approx(wb[2], abs=1e-12)


class TestRandomizationTable:
    def test_default_entries(self):
        entries = {e.parameter: e for e in default_randomization()}
        assert entries["friction"].range == (0.4, 2.0)
        assert entries["base_mass"].method == "add"
        assert entries["base_mass"].range == (-5.0, 5.0)
        assert entries["base_push_x"].method == "interval"
        assert entries["actuator_gains"].method == "scale"
        assert entries["actuator_gains"].range == (0.8, 1.2)
        assert entries["ee_link_mass"].range == (0.0, 0.2)
        assert entries["joint_reset"].method == "scale"
        assert entries["base_reset_heading"].range == (-PI, PI)

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError):
            RandomizationEntry("x", (1.0, 0.0), "add")
        with pytest.raises(ValueError):
            RandomizationEntry("x", (0.0, 1.0), "multiply")

    @pytest.mark.parametrize("bounds", [(float("nan"), 1.0), (0.0, float("inf"))])
    def test_non_finite_range_rejected_at_its_field(self, bounds):
        with pytest.raises(ValueError) as exc:
            RandomizationEntry("mass", bounds, "add")
        assert exc.value.args[0] == "range"


def _interval(name):
    return RandomizationEntry(name, (-0.5, 0.5), "interval")


class TestPushSchedule:
    """A push schedule that does not move forward is rejected when the
    config is built; these tests never call the sampler on such a config,
    which could loop forever on it."""

    @pytest.mark.parametrize("kwargs, name", [
        (dict(push_spacing=0.0, push_jitter=0.0), "push_spacing"),
        (dict(push_spacing=1.0, push_jitter=2.0), "push_spacing"),
        (dict(push_spacing=1.0, push_jitter=1.0), "push_spacing"),
        (dict(push_spacing=float("nan")), "push_spacing"),
        (dict(push_spacing=float("inf")), "push_spacing"),
        (dict(push_jitter=-0.1), "push_jitter"),
        (dict(push_jitter=float("nan")), "push_jitter"),
        (dict(push_duration=-0.5), "push_duration"),
        (dict(push_duration=float("inf")), "push_duration"),
        (dict(entries=tuple(_interval(n) for n in "xyz")), "entries")])
    def test_rejected_at_its_field(self, kwargs, name):
        with pytest.raises(ValueError) as exc:
            RandomizationConfig(**kwargs)
        assert exc.value.args[0] == name

    @pytest.mark.parametrize("spacing, jitter", [(0.5, 0.0), (1.0, 0.999)])
    def test_tightest_accepted_schedule_moves_forward(self, spacing, jitter):
        cfg = RandomizationConfig(entries=(_interval("x"),), push_spacing=spacing,
                                  push_jitter=jitter, push_duration=0.0)
        times = [e.time for e in sample_episode_randomization(
            make_rng(3), cfg, horizon=30.0)["push_events"]]
        assert times and all(b > a for a, b in zip(times, times[1:]))


class TestEpisodeRandomization:
    def test_methods_apply_correctly(self):
        cfg = RandomizationConfig(entries=(
            RandomizationEntry("mass", (-1.0, 1.0), "add"),
            RandomizationEntry("gain", (0.5, 2.0), "scale"),
            RandomizationEntry("mu", (0.4, 2.0), "abs"),
        ))
        out = sample_episode_randomization(make_rng(1), cfg, horizon=10.0,
                                           base_values={"mass": 10.0, "gain": 3.0})
        assert 9.0 <= out["parameters"]["mass"] <= 11.0
        assert 1.5 <= out["parameters"]["gain"] <= 6.0
        assert 0.4 <= out["parameters"]["mu"] <= 2.0
        assert out["push_events"] == []

    def test_push_schedule_spacing(self):
        cfg = RandomizationConfig()
        out = sample_episode_randomization(make_rng(2), cfg, horizon=60.0)
        events = out["push_events"]
        assert events, "expected pushes over a 60 s horizon"
        times = [e.time for e in events]
        gaps = np.diff([0.0] + times)
        assert np.all(gaps >= cfg.push_spacing - cfg.push_jitter - 1e-9)
        assert np.all(gaps <= cfg.push_spacing + cfg.push_jitter + 1e-9)
        for e in events:
            assert e.duration == cfg.push_duration
            assert -0.5 <= e.velocity[0] <= 0.5
            assert -0.5 <= e.velocity[1] <= 0.5
            assert e.time < 60.0

    def test_deterministic(self):
        cfg = RandomizationConfig()
        a = sample_episode_randomization(make_rng(3), cfg, horizon=30.0)
        b = sample_episode_randomization(make_rng(3), cfg, horizon=30.0)
        assert a["parameters"] == b["parameters"]
        assert a["push_events"] == b["push_events"]
