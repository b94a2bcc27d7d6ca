import hashlib
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
import yaml

from locoman.config import (YAML_DUMPER, YAML_LOADER, Config, TrackingConfig, from_dict,
                            read_file, to_dict)
from locoman.errors import ParseError, ValidationError
from locoman.planning import ActionKind
from locoman.rewards import RewardWeights
from locoman.training import COMMAND_RANGES, PdGains, RandomizationConfig

PI = np.pi
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DEFAULT_DIGEST = "472cb33bc265de215a72f7152b443989803603d24ff703123dbbbd2d48fc3c04"


# what `Config().dump` wrote while the config held the three tables
OLD_DUMP = dict(to_dict(Config()), command_ranges=to_dict(COMMAND_RANGES),
                pd_gains=to_dict(PdGains()), randomization=to_dict(RandomizationConfig()))


class TestRoundTrip:
    @pytest.mark.parametrize("obj", [
        Config(),
        TrackingConfig(tau_base=0.2, ee_rate=4.0, noise_pos=0.01, noise_ori=0.02),
        RewardWeights(track_xy=(1.0, 2.0)),
        PdGains(kp_leg=30.0, kd_arm=0.25),
        COMMAND_RANGES["train"],
    ], ids=lambda obj: type(obj).__name__)
    def test_dict_round_trip(self, obj):
        text = yaml.safe_dump(to_dict(obj), sort_keys=True)
        assert from_dict(type(obj), yaml.safe_load(text)) == obj

    def test_yaml_round_trip(self, tmp_path):
        cfg = Config()
        path = tmp_path / "config.yaml"
        cfg.dump(path)
        assert Config.load(path) == cfg

    def test_digest_stable_and_sensitive(self, tmp_path):
        cfg = Config()
        assert cfg.digest() == Config().digest()
        other = Config(gamma_xy=0.5)
        assert other.digest() != cfg.digest()

    def test_default_digest_pinned(self):
        assert Config().digest() == DEFAULT_DIGEST


class TestYamlLoader:
    def test_libyaml_used_when_built_in(self):
        assert YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

    @pytest.mark.parametrize("name", [p.name for p in sorted(SCENARIO_DIR.glob("*.yaml"))]
                             + ["Config().dump"])
    def test_same_data_as_pure_python_loader(self, tmp_path, name):
        path = SCENARIO_DIR / name
        if name == "Config().dump":
            path = tmp_path / "config.yaml"
            Config().dump(path)
        slow = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
        # repr tells 1 from 1.0 and -0.0 from 0.0, and keeps key order
        assert repr(read_file(path)) == repr(slow)


class TestYamlDumper:
    def test_libyaml_used_when_built_in(self):
        assert YAML_DUMPER is (yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper)

    @pytest.mark.parametrize("cfg", [
        Config(),
        Config(gamma_xy=1e308, gamma_w=5e-324, f_target=-0.0,
               tracking=TrackingConfig(tau_base=1 / 3, ee_rate=2.0**-1074 * 3,
                                       noise_pos=1e22, noise_ori=0.1 + 0.2)),
        Config(reward_weights=RewardWeights(track_xy=(np.inf, -np.inf), gait=(np.nan, -1e-300),
                                            smooth=(123456789.125, -2.5e-7))),
    ], ids=["default", "extreme", "non_finite"])
    def test_same_text_as_pure_python_emitter(self, tmp_path, cfg):
        slow = yaml.safe_dump(to_dict(cfg), sort_keys=True)
        path = tmp_path / "config.yaml"
        cfg.dump(path)
        assert path.read_text() == slow
        assert cfg.digest() == hashlib.sha256(slow.encode()).hexdigest()


class TestLoad:
    def test_partial_file_takes_defaults(self, tmp_path):
        path = tmp_path / "partial.yaml"
        path.write_text("gamma_xy: 0.5\ntracking: {tau_base: 0.1}\n")
        cfg = Config.load(path)
        assert cfg.gamma_xy == 0.5
        assert cfg.tracking == TrackingConfig(tau_base=0.1)
        assert cfg.reward_weights == RewardWeights()
        assert cfg == Config(gamma_xy=0.5, tracking=TrackingConfig(tau_base=0.1))

    def test_ints_stored_as_float(self):
        cfg = from_dict(Config, {"f_target": 2, "reward_weights": {"gait": [1, 1]}})
        assert type(cfg.f_target) is float
        assert cfg.reward_weights.gait == (1.0, 1.0)
        assert type(cfg.reward_weights.gait[0]) is float
        assert from_dict(Config, {"f_target": 2}).digest() == Config().digest()

    @pytest.mark.parametrize("data, where", [
        ([1, 2], "config: expected a mapping"),
        ({"tracking": 3}, "config.tracking: expected a mapping"),
        ({"tracking": {"tau": 0.1}}, "config.tracking.tau: unknown key"),
        ({"gamma_xy": True}, "config.gamma_xy: expected a number"),
        ({"gamma_xy": "0.5"}, "config.gamma_xy: expected a number"),
        ({"reward_weights": {"track_xy": "big"}}, "config.reward_weights.track_xy:"),
        ({"reward_weights": {"track_xy": [1.0]}}, "config.reward_weights.track_xy:"),
        ({"reward_weights": {"gait": [1.0, None]}}, r"config.reward_weights.gait\[1\]:"),
        # tables that config files held before they became library defaults
        ({"pd_gains": to_dict(PdGains())}, "config.pd_gains: unknown key"),
        ({"command_ranges": to_dict(COMMAND_RANGES)}, "config.command_ranges: unknown key"),
        ({"randomization": to_dict(RandomizationConfig())},
         "config.randomization: unknown key"),
        (OLD_DUMP, "config.command_ranges: unknown key"),
        ({"tracking": {"noise_ori": -0.01}},
         "config.tracking.noise_ori: must be finite and >= 0"),
        ({"tracking": {"ee_rate": 0.0}}, "config.tracking.ee_rate: must be finite and > 0"),
    ])
    def test_malformed_rejected_with_location(self, data, where):
        with pytest.raises(ValidationError, match=where):
            from_dict(Config, data)

    @pytest.mark.parametrize("cls, data, expected", [
        (Optional[float], None, None),
        (Optional[float], 2, 2.0),
        (tuple[float, float], [1, 2.5], (1.0, 2.5)),
        (ActionKind, "pick", ActionKind.PICK),
        (list[int], [1, 2], [1, 2]),
    ])
    def test_decodes(self, cls, data, expected):
        assert from_dict(cls, data) == expected

    def test_array_is_three_floats(self):
        v = from_dict(np.ndarray, [1, 2.5, 3])
        assert v.dtype == np.float64 and v.tolist() == [1.0, 2.5, 3.0]
        assert to_dict(v) == [1.0, 2.5, 3.0]

    @pytest.mark.parametrize("cls, data, where", [
        (int, True, "config: expected int"),
        (int, 7.0, "config: expected int"),
        (float, float("nan"), "config: expected a number"),
        (float, 10 ** 400, "config: expected a number"),
        (np.ndarray, [1.0, 2.0], "config: expected 3 numbers"),
        (np.ndarray, [1.0, float("inf"), 2.0], r"config\[1\]: expected a number"),
        (tuple[float, float], [1.0], "config: expected a list of 2 items"),
        (ActionKind, "fly", r"config: 'fly' not one of \['navigate', 'pick'"),
        (list[float], {"a": 1}, "config: expected a list"),
    ])
    def test_rejects(self, cls, data, where):
        with pytest.raises(ValidationError, match=where):
            from_dict(cls, data)

    def test_yaml_syntax_error_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("gamma_xy: [0.5\n")
        with pytest.raises(ParseError, match="broken.yaml"):
            Config.load(path)


class TestDefaultsSnapshot:
    """Default config values and the library's paper tables pinned
    field-for-field."""

    def test_config_keys(self):
        assert sorted(to_dict(Config())) == ["f_target", "gamma_w", "gamma_xy",
                                             "reward_weights", "tracking"]

    def test_reward_weight_table(self):
        w = Config().reward_weights
        assert w.track_xy == (2.75, 2.75)
        assert w.track_yaw == (1.50, 1.50)
        assert w.ee_pos == (0.0, -1.20)
        assert w.ee_ori == (0.0, -1.50)
        assert w.gait == (0.75, 0.75)
        assert w.freq == (12.5, 12.5)
        assert w.torque_base == (-2.0e-4, -2.0e-4)
        assert w.acc_base == (-2.5e-7, -2.0e-7)
        assert w.power_base == (-2.0e-5, -2.0e-5)
        assert w.torque_arm == (0.0, -4.0e-4)
        assert w.acc_arm == (0.0, -2.5e-6)
        assert w.power_arm == (0.0, -2.0e-4)
        assert w.smooth == (-0.02, -0.02)

    def test_tracking_scales(self):
        cfg = Config()
        assert cfg.gamma_xy == 0.25
        assert cfg.gamma_w == 0.25
        assert cfg.f_target == 2.0

    def test_pd_gains(self):
        g = PdGains()
        assert (g.kp_leg, g.kd_leg, g.kp_arm, g.kd_arm) == (20.0, 0.5, 25.0, 0.5)

    def test_command_range_presets(self):
        ranges = COMMAND_RANGES
        train = ranges["train"]
        assert train.x == (-1.0, 1.0)
        assert train.y == (-1.0, 1.0)
        assert train.w == (-1.0, 1.0)
        assert train.l_ee == (0.30, 0.65)
        assert train.p_ee == pytest.approx((-0.17 * PI, 0.33 * PI))
        assert train.y_ee == pytest.approx((-0.33 * PI, 0.33 * PI))
        assert train.alpha_ee == pytest.approx((-0.5 * PI, 0.5 * PI))
        assert train.beta_ee == pytest.approx((-0.17 * PI, 0.5 * PI))
        assert train.gamma_ee == pytest.approx((-0.5 * PI, 0.5 * PI))

        ev = ranges["eval"]
        assert ev.x == (-1.5, 1.5)
        assert ev.y == (0.0, 0.0)
        assert ev.w == (-1.5, 1.5)
        assert ev.l_ee == (0.2, 0.8)
        for name in ("p_ee", "y_ee", "alpha_ee", "beta_ee", "gamma_ee"):
            assert getattr(ev, name) == pytest.approx((-0.5 * PI, 0.5 * PI))

        rd = ranges["roboduet"]
        assert rd.x == (-1.0, 1.0)
        assert rd.y == (0.0, 0.0)
        assert rd.w == (-0.6, 0.6)
        assert rd.l_ee == (0.3, 0.7)
        assert rd.p_ee == pytest.approx((-0.45 * PI, 0.45 * PI))
        assert rd.y_ee == pytest.approx((-0.5 * PI, 0.5 * PI))
        assert rd.alpha_ee == pytest.approx((-0.45 * PI, 0.45 * PI))
        assert rd.beta_ee == pytest.approx((-0.33 * PI, 0.33 * PI))
        assert rd.gamma_ee == pytest.approx((-0.42 * PI, 0.42 * PI))

    def test_randomization_table(self):
        rnd = RandomizationConfig()
        table = {e.parameter: (*e.range, e.method) for e in rnd.entries}
        assert table["friction"] == (0.4, 2.0, "abs")
        assert table["base_mass"] == (-5.0, 5.0, "add")
        assert table["base_push_x"] == (-0.5, 0.5, "interval")
        assert table["base_push_y"] == (-0.5, 0.5, "interval")
        assert table["actuator_gains"] == (0.8, 1.2, "scale")
        assert table["ee_link_mass"] == (0.0, 0.2, "add")
        assert table["joint_reset"] == (0.5, 1.5, "scale")
        for name in ("x", "y", "vx", "vy", "vz", "roll", "pitch", "yaw"):
            assert table[f"base_reset_{name}"] == (-0.5, 0.5, "add")
        assert table["base_reset_heading"] == (-PI, PI, "add")
        assert rnd.push_spacing == 5.0
        assert rnd.push_jitter == 1.0
        assert rnd.push_duration == 0.5

    def test_tracking_defaults(self):
        t = Config().tracking
        assert t.tau_base == 0.0
        assert t.ee_rate == 8.0
        assert t.noise_pos == 0.0
        assert t.noise_ori == 0.0
