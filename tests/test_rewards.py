import re
import struct

import numpy as np
import pytest

import oracles
from locoman.config import Config
from locoman.errors import UsageError
from locoman.harness import stage1_terms
from locoman.rewards import (ASYNC_PAIRS, GAIT_CLIP, LEGS, SYNC_PAIRS,
                             ContactTimeline, _clip_sq, RewardWeights, async_term,
                             r_freq, r_gait, r_track_xy, r_track_yaw, sync_term,
                             total_reward)
from locoman.training import (HeightmapSpec, PdGains, apply_action,
                              assemble_observation, pd_torque, r_acc, r_ee_ori,
                              r_ee_pos, r_power, r_smooth, r_torque)


def run_trot(timeline, duration, dt=0.005, period=0.5):
    """Ideal trot: diagonal pairs alternate contact every half period."""
    t = [(k + 1) * dt for k in range(int(round(duration / dt)))]
    # FL, FR, RL, RR: the FL-RR diagonal is down while diag_a
    diag_a = [(tk % period) < (period / 2) for tk in t]
    timeline.update([(a, not a, not a, a) for a in diag_a], dt, t)


def two_legs(a, b):
    """A one-tick timeline whose FL and FR stints are `a` and `b`, each
    (air time, contact time)."""
    return ContactTimeline(air_time=np.array([[a[0], b[0], 0.0, 0.0]]),
                           contact_time=np.array([[a[1], b[1], 0.0, 0.0]]))


class TestTracking:
    def test_perfect_tracking_is_one(self):
        assert r_track_xy(np.array([[0.5, -0.2]]), np.array([[0.5, -0.2]])).tolist() == [1.0]
        assert r_track_yaw(np.array([0.7]), np.array([0.7])).tolist() == [1.0]

    def test_squared_error_scale(self):
        # error of 0.5 in one axis: exp(-0.25 / 0.25) = 1/e
        assert r_track_xy(np.array([[0.5, 0.0]]), np.zeros((1, 2)))[0] == pytest.approx(
            np.exp(-1.0), abs=1e-12)
        assert r_track_yaw(np.array([0.5]), np.zeros(1))[0] == pytest.approx(
            np.exp(-1.0), abs=1e-12)

    def test_custom_gamma(self):
        assert r_track_yaw(np.array([1.0]), np.zeros(1), gamma_w=1.0)[0] == \
            pytest.approx(np.exp(-1.0))

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
        assert r_gait(tl)[-1] == 1.0

    def test_saturated_desync_sync_term(self):
        tl = two_legs((1.0, 0.0), (0.0, 1.0))
        assert sync_term(tl, "FL", "FR")[0] == pytest.approx(np.exp(-0.08), abs=1e-12)

    def test_matched_async_is_one(self):
        assert async_term(two_legs((0.25, 0.25), (0.25, 0.25)), "FL", "FR")[0] == 1.0

    def test_clip_caps_each_factor(self):
        # both squared differences exceed the cap; factor bottoms out
        tl = two_legs((10.0, 0.0), (0.0, 10.0))
        assert sync_term(tl, "FL", "FR")[0] == pytest.approx(np.exp(-2 * GAIT_CLIP),
                                                             abs=1e-15)

    def test_clip_sq_bitwise_equals_np_clip(self):
        rng = np.random.Generator(np.random.PCG64(3))
        xs = list(rng.normal(0.0, 0.3, 10_000)) + list(rng.uniform(-1.0, 1.0, 10_000))
        xs += [0.0, -0.0, 0.2, -0.2, 1e-170, -1e-170, 1e154, -1e160, 1e308,
               -1e308, np.inf, -np.inf, np.nan, -np.nan]
        xs = np.array(xs)
        with np.errstate(over="ignore"):
            expected = np.clip(xs * xs, 0.0, GAIT_CLIP)
            assert _clip_sq(xs).tobytes() == expected.tobytes()

    def test_pair_structure(self):
        assert set(SYNC_PAIRS) == {("FL", "RR"), ("FR", "RL")}
        assert len(ASYNC_PAIRS) == 4
        for pair in ASYNC_PAIRS:
            assert pair not in SYNC_PAIRS

    def test_gait_in_unit_interval(self):
        rng = np.random.Generator(np.random.PCG64(0))
        tl = ContactTimeline()
        contacts = [tuple(bool(rng.random() < 0.5) for leg in LEGS) for k in range(500)]
        tl.update(contacts, 0.02, [0.02 * (k + 1) for k in range(500)])
        gait = r_gait(tl)
        assert len(gait) == 500
        assert np.all((0.0 < gait) & (gait <= 1.0))


class TestFrequency:
    def test_on_target_is_one(self):
        tl = ContactTimeline()
        run_trot(tl, 3.0)  # period 0.5 s -> 2 Hz per leg
        assert r_freq(tl)[-1] == pytest.approx(1.0, abs=1e-9)

    def test_one_leg_off_by_one_hz(self):
        tl = ContactTimeline()
        fl = (True, False, False, False)
        tl.update([fl, (False,) * 4, fl], 0.5, [0.0, 0.5, 1.0])  # 1 Hz vs 2 Hz target
        assert r_freq(tl)[-1] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_unobserved_legs_contribute_one(self):
        assert r_freq(ContactTimeline()).tolist() == []
        tl = ContactTimeline()
        tl.update([(True,) * 4] * 3, 0.02, [0.02, 0.04, 0.06])  # one onset per leg
        assert r_freq(tl).tolist() == [1.0] * 3

    def test_leg_frequency_needs_two_onsets(self):
        tl = ContactTimeline()
        fl = (True, False, False, False)
        tl.update([fl, (False,) * 4, fl], 0.01, [0.01, 0.02, 0.51])
        assert tl.onsets == ([(0, 0.01), (2, 0.51)], [], [], [])
        assert r_freq(tl)[:2].tolist() == [1.0, 1.0]  # no evidence before onset 2
        # the onsets are 0.5 s apart: 2 Hz, one off a 3 Hz target
        assert r_freq(tl)[2] == pytest.approx(1.0)
        assert r_freq(tl, f_target=3.0)[2] == pytest.approx(np.exp(-0.5))

    def test_last_two_onsets_set_the_frequency(self):
        tl = ContactTimeline()
        tl.update([(True,) * 4, (False,) * 4] * 3, 0.01, [0.0, 0.1, 1.0, 1.1, 1.5, 1.6])
        assert tl.onsets[0] == [(0, 0.0), (2, 1.0), (4, 1.5)]
        # 1 Hz per leg from onset 2, 2 Hz from onset 3
        assert r_freq(tl)[2:4] == pytest.approx([np.exp(-2.0)] * 2, abs=1e-12)
        assert r_freq(tl)[4:] == pytest.approx([1.0, 1.0])


def random_timeline(seed):
    """One seeded timeline, as the column kernel takes it: (cmd, act, contacts,
    dt, t). Even seeds use `run`'s clock (one dt, t summed tick by tick), odd
    seeds the `rewards` clock (jittered steps, dt the difference of
    successive t, 0.02 s for the first row); every fifth seed repeats some
    times, so onsets can be 0 s apart. Contacts switch between stance and the
    trot at random ticks, or some legs hold one flag throughout."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = int(rng.choice([0, 1, 2, 3, 17, 60, 240]))
    t, dt, prev = [], [], None
    for k in range(n):
        step = 0.02 if seed % 2 == 0 else 0.02 * float(rng.uniform(0.5, 1.5))
        if seed % 5 == 4 and k and rng.random() < 0.2:
            step = 0.0
        now = step if prev is None else prev + step
        dt.append(0.02 if seed % 2 == 0 or prev is None else now - prev)
        t.append(now)
        prev = now
    moving = np.cumsum(rng.random(n) < 0.05) % 2 == 1
    contacts = []
    for tk, move in zip(t, moving):
        if not move:
            contacts.append((True,) * 4)
        else:
            a = (tk * float(rng.choice([1.5, 2.0]))) % 1.0 < 0.5
            contacts.append((a, not a, not a, a))
    if seed % 3 == 0:  # per leg: as above, random flags, or one flag throughout
        mode, held = rng.integers(0, 3, 4).tolist(), (rng.random(4) < 0.5).tolist()
        contacts = [tuple(c if m == 0 else bool(rng.random() < 0.5) if m == 1 else h
                          for c, m, h in zip(row, mode, held)) for row in contacts]
    cmd = rng.normal(0.0, 0.6, (n, 3))
    act = cmd + rng.normal(0.0, 0.2, (n, 3)) * (rng.random((n, 1)) < 0.8)
    return cmd, act, contacts, dt, t


def bits(values):
    return [struct.pack("<d", v) for v in values]


class TestColumnOracle:
    """The column kernel against `oracles.stage1_rows`, the per-tick form,
    bit for bit (struct-packed, so the sign of a zero counts too)."""

    SEEDS = range(200)

    def test_columns_equal_per_tick_terms(self):
        cfg = Config()
        seen = {"lengths": set(), "pow_not_mul": 0, "zero_interval": 0,
                "under_two_onsets": 0, "switches": 0, "vy": 0}
        for seed in self.SEEDS:
            cmd, act, contacts, dt, t = random_timeline(seed)
            tl = ContactTimeline()
            tl.update(contacts, dt, t)
            terms = stage1_terms(cfg, cmd, act, tl)
            total = total_reward(1, terms, cfg.reward_weights)
            columns = [c.tolist() for c in (*terms.values(), total)]
            expected = oracles.stage1_rows(cfg, cmd, act, contacts, dt, t)
            for k, row in enumerate(expected):
                assert bits(row) == bits(c[k] for c in columns), (seed, k)
            assert all(len(c) == len(t) for c in columns), seed

            d = (cmd[:, 2] - act[:, 2]).tolist()
            seen["lengths"].add(len(t))
            seen["pow_not_mul"] += sum(x ** 2 != x * x for x in d)
            seen["vy"] += int(np.any(cmd[:, 1] != 0) and np.any(act[:, 1] != 0))
            seen["switches"] += sum(a != b and all(a) != all(b)
                                    for a, b in zip(contacts, contacts[1:]))
            for onsets in tl.onsets:
                seen["under_two_onsets"] += len(onsets) < 2
                seen["zero_interval"] += sum(t1 == t0 for (_, t0), (_, t1)
                                             in zip(onsets, onsets[1:]))
        assert {0, 1} <= seen["lengths"]
        assert all(seen.values()), seen

    def test_fills_once(self):
        """A timeline is filled by one update; a second one raises."""
        cmd, act, contacts, dt, t = random_timeline(5)
        tl = ContactTimeline()
        tl.update(contacts, dt, t)
        air, contact = tl.air_time.copy(), tl.contact_time.copy()
        onsets = tuple(list(leg) for leg in tl.onsets)
        assert len(tl) == len(t) > 0
        with pytest.raises(UsageError, match="fills an empty timeline"):
            tl.update(contacts, dt, t)
        assert tl.air_time.tobytes() == air.tobytes()
        assert tl.contact_time.tobytes() == contact.tobytes()
        assert tl.onsets == onsets
        with pytest.raises(UsageError, match="fills an empty timeline"):
            two_legs((0.1, 0.2), (0.2, 0.1)).update([(True,) * 4], 0.02, [0.02])

    @pytest.mark.parametrize("rows, times", [(3, 1), (1, 3)])
    def test_rows_and_times_must_match(self, rows, times):
        with pytest.raises(UsageError, match=f"^{rows} rows of contact flags but {times} times$"):
            ContactTimeline().update([(True,) * 4] * rows, 0.02, [0.02] * times)


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

    @pytest.mark.parametrize("term", ["bogus", "weight", "__class__"])
    def test_unknown_term_named(self, term):
        # a method or attribute of the table is no term either
        with pytest.raises(UsageError, match=f"^unknown reward term {re.escape(repr(term))}$"):
            total_reward(1, {"gait": 1.0, term: 1.0})


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
