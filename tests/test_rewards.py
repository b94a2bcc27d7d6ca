import numpy as np
import pytest

from locoman.errors import UsageError
from locoman.rewards import (ASYNC_PAIRS, GAIT_CLIP, LEGS, SYNC_PAIRS,
                             ContactTimeline, _clip_sq, HeightmapSpec, LegTimeline,
                             PdGains, RewardWeights, apply_action,
                             assemble_observation, async_term, leg_frequency,
                             pd_torque, r_acc, r_ee_ori, r_ee_pos, r_freq,
                             r_gait, r_power, r_smooth, r_torque, r_track_xy,
                             r_track_yaw, sync_term, total_reward)


def run_trot(timeline, duration, dt=0.005, period=0.5):
    """Ideal trot: diagonal pairs alternate contact every half period."""
    steps = int(round(duration / dt))
    for k in range(steps):
        t = (k + 1) * dt
        diag_a = (t % period) < (period / 2)
        # FL, FR, RL, RR: the FL-RR diagonal is down while diag_a
        timeline.update((diag_a, not diag_a, not diag_a, diag_a), dt, t)


class TestTracking:
    def test_perfect_tracking_is_one(self):
        assert r_track_xy(np.array([0.5, -0.2]), np.array([0.5, -0.2])) == 1.0
        assert r_track_yaw(0.7, 0.7) == 1.0

    def test_squared_error_scale(self):
        # error of 0.5 in one axis: exp(-0.25 / 0.25) = 1/e
        assert r_track_xy(np.array([0.5, 0.0]), np.zeros(2)) == pytest.approx(
            np.exp(-1.0), abs=1e-12)
        assert r_track_yaw(0.5, 0.0) == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_custom_gamma(self):
        assert r_track_yaw(1.0, 0.0, gamma_w=1.0) == pytest.approx(np.exp(-1.0))

    def test_ee_pos_is_euclidean(self):
        assert r_ee_pos(np.array([1.0, 0, 0]), np.zeros(3)) == 1.0

    def test_ee_ori_wraps(self):
        target = np.array([np.pi - 0.05, 0.0, 0.0])
        actual = np.array([-np.pi + 0.05, 0.0, 0.0])
        assert r_ee_ori(target, actual) == pytest.approx(0.1, abs=1e-12)


class TestGait:
    def test_ideal_trot_exactly_one(self):
        tl = ContactTimeline()
        run_trot(tl, 3.0)
        assert r_gait(tl) == 1.0

    def test_saturated_desync_sync_term(self):
        a = LegTimeline(in_contact=False, air_time=1.0, contact_time=0.0)
        b = LegTimeline(in_contact=True, air_time=0.0, contact_time=1.0)
        assert sync_term(a, b) == pytest.approx(np.exp(-0.08), abs=1e-12)

    def test_matched_async_is_one(self):
        a = LegTimeline(air_time=0.25, contact_time=0.25)
        b = LegTimeline(air_time=0.25, contact_time=0.25)
        assert async_term(a, b) == 1.0

    def test_clip_caps_each_factor(self):
        a = LegTimeline(air_time=10.0, contact_time=0.0)
        b = LegTimeline(air_time=0.0, contact_time=10.0)
        # both squared differences exceed the cap; factor bottoms out
        assert sync_term(a, b) == pytest.approx(np.exp(-2 * GAIT_CLIP), abs=1e-15)

    def test_clip_sq_bitwise_equals_np_clip(self):
        rng = np.random.Generator(np.random.PCG64(3))
        xs = list(rng.normal(0.0, 0.3, 10_000)) + list(rng.uniform(-1.0, 1.0, 10_000))
        xs += [0.0, -0.0, 0.2, -0.2, 1e-170, -1e-170, 1e154, -1e160, 1e308,
               -1e308, np.inf, -np.inf, np.nan, -np.nan]
        with np.errstate(over="ignore"):
            for x in xs:
                for v in (float(x), np.float64(x)):
                    expected = float(np.clip(v * v, 0.0, GAIT_CLIP))
                    assert np.float64(_clip_sq(v)).tobytes() == \
                        np.float64(expected).tobytes(), v

    def test_pair_structure(self):
        assert set(SYNC_PAIRS) == {("FL", "RR"), ("FR", "RL")}
        assert len(ASYNC_PAIRS) == 4
        for pair in ASYNC_PAIRS:
            assert pair not in SYNC_PAIRS

    def test_gait_in_unit_interval(self):
        rng = np.random.Generator(np.random.PCG64(0))
        tl = ContactTimeline()
        for k in range(500):
            contacts = tuple(bool(rng.random() < 0.5) for leg in LEGS)
            tl.update(contacts, 0.02, 0.02 * (k + 1))
            assert 0.0 < r_gait(tl) <= 1.0


class TestFrequency:
    def test_on_target_is_one(self):
        tl = ContactTimeline()
        run_trot(tl, 3.0)  # period 0.5 s -> 2 Hz per leg
        assert r_freq(tl) == pytest.approx(1.0, abs=1e-9)

    def test_one_leg_off_by_one_hz(self):
        tl = ContactTimeline()
        tl.legs["FL"].onsets = (0.0, 1.0)  # 1 Hz vs 2 Hz target
        assert r_freq(tl) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_unobserved_legs_contribute_one(self):
        assert r_freq(ContactTimeline()) == 1.0

    def test_leg_frequency_needs_two_onsets(self):
        leg = LegTimeline()
        assert leg_frequency(leg) is None
        leg.update(True, 0.01, 0.01)
        assert leg_frequency(leg) is None
        leg.update(False, 0.01, 0.02)
        leg.update(True, 0.01, 0.51)
        assert leg_frequency(leg) == pytest.approx(2.0)

    def test_onsets_keep_last_two(self):
        leg = LegTimeline()
        for t in (0.0, 1.0, 1.5):
            leg.update(True, 0.01, t)
            leg.update(False, 0.01, t + 0.1)
        assert leg.onsets == (1.0, 1.5)


class TestRegularization:
    def test_part_slices(self):
        tau = np.arange(18.0)
        assert r_torque(tau, "base") == float(np.sum(tau[:12] ** 2))
        assert r_torque(tau, "arm") == float(np.sum(tau[12:] ** 2))
        with pytest.raises(UsageError):
            r_torque(tau, "legs")

    def test_power_is_elementwise_magnitude(self):
        tau = np.zeros(18)
        qdot = np.zeros(18)
        tau[0], qdot[0] = 2.0, -3.0
        tau[1], qdot[1] = -2.0, 3.0
        # elementwise |tau||qdot| sums magnitudes; a net-power reading would cancel
        assert r_power(tau, qdot, "base") == 12.0

    def test_acc_and_smooth(self):
        assert r_acc(np.ones(18), "arm") == 6.0
        assert r_smooth(np.ones(18), np.zeros(18)) == pytest.approx(np.sqrt(18.0))


UNIT_TERMS = {
    "track_xy": 1.0, "track_yaw": 1.0, "gait": 1.0, "freq": 1.0,
    "ee_pos": 0.0, "ee_ori": 0.0,
    "torque_base": 0.0, "acc_base": 0.0, "power_base": 0.0,
    "torque_arm": 0.0, "acc_arm": 0.0, "power_arm": 0.0, "smooth": 0.0,
}


class TestWeights:
    def test_stage1_total_perfect_tracking(self):
        assert total_reward(1, UNIT_TERMS) == pytest.approx(17.5, abs=1e-12)

    def test_stage1_ignores_arm_terms_exactly(self):
        noisy = dict(UNIT_TERMS)
        noisy.update({"torque_arm": 123.4, "acc_arm": 55.0, "power_arm": 7.0,
                      "ee_pos": 3.0, "ee_ori": 2.0})
        assert total_reward(1, noisy) == total_reward(1, UNIT_TERMS)

    def test_stage2_penalizes_arm_terms(self):
        noisy = dict(UNIT_TERMS)
        noisy["torque_arm"] = 10.0
        assert total_reward(2, noisy) < total_reward(2, UNIT_TERMS)

    def test_stage2_ee_weights(self):
        w = RewardWeights()
        assert w.weight("ee_pos", 2) == -1.20
        assert w.weight("ee_ori", 2) == -1.50
        assert w.weight("ee_pos", 1) == 0.0

    def test_invalid_stage(self):
        with pytest.raises(UsageError):
            RewardWeights().weight("gait", 3)


class TestPolicyIO:
    def test_pd_torque_closed_form(self):
        gains = PdGains()
        q = np.zeros(18)
        q_target = np.full(18, 0.1)
        qdot = np.full(18, 0.2)
        tau = pd_torque(q_target, q, qdot, gains.kp(), gains.kd())
        assert tau[0] == pytest.approx(20.0 * 0.1 - 0.5 * 0.2)
        assert tau[12] == pytest.approx(25.0 * 0.1 - 0.5 * 0.2)

    def test_gain_layout(self):
        gains = PdGains()
        assert gains.kp().shape == (18,)
        assert np.all(gains.kp()[:12] == 20.0)
        assert np.all(gains.kp()[12:] == 25.0)
        assert np.all(gains.kd() == 0.5)

    def test_apply_action_offsets_default(self):
        q_default = np.linspace(-1, 1, 18)
        a = np.full(18, 0.05)
        assert np.allclose(apply_action(a, q_default), q_default + 0.05)
        with pytest.raises(UsageError):
            apply_action(np.zeros(6), q_default)

    def test_observation_layout(self):
        obs = assemble_observation(np.zeros(3), np.zeros(6), np.zeros(36),
                                   np.zeros(3), np.zeros((11, 11)), np.zeros(18))
        assert obs.shape == (3 + 6 + 36 + 3 + 121 + 18,)

    def test_observation_rejects_bad_block(self):
        with pytest.raises(UsageError):
            assemble_observation(np.zeros(4), np.zeros(6), np.zeros(36),
                                 np.zeros(3), np.zeros((11, 11)), np.zeros(18))

    def test_heightmap_relative_to_base(self):
        spec = HeightmapSpec()
        hm = spec.sample(np.zeros(2), 0.35, lambda x, y: 0.1)
        assert hm.shape == (11, 11)
        assert np.allclose(hm, 0.1 - 0.35)
