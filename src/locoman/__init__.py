"""Deterministic mobile-manipulation toolkit: perception fusion, grid
navigation, grasp-pose solving, reward shaping, command sampling, and a
kinematic episode harness with scripted oracles."""

from .config import Config, TrackingConfig
from .errors import (ActionFailed, DegenerateConstraints, InvalidDepth, LocomanError,
                     NoFeasibleGoal, NoPath, OracleFailure, ParseError,
                     UnknownObject, UsageError, ValidationError)
from .fusion import Detection, FusionConfig, InstanceGraph
from .geometry import (EulerAngles, Pose, SphericalTarget,
                       quat_geodesic_distance, wrap_angle)
from .grounding import CameraModel, DepthImage, GroundingResult, ground_action
from .harness import EpisodeRunner, aggregate, run_episode
from .navgrid import GoalSearchConfig, OccupancyGrid, find_goal_pose, plan_path
from .planning import ActionKind, AtomicAction, ScriptedPlanner
from .rewards import PdGains, RewardWeights, total_reward
from .sampling import (CommandRanges, RandomizationConfig, make_rng,
                       sample_ee_target, sample_locomotion_command)
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"
