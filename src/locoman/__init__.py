"""Deterministic mobile-manipulation toolkit: perception fusion, grid
navigation, grasp-pose solving, reward shaping, and a kinematic episode
harness with scripted oracles. The paper's training setup (PD gains,
observation layout, command sampling, domain randomization) is in
`locoman.training`, which this package does not import."""

from .config import Config, TrackingConfig
from .errors import (ActionFailed, DegenerateConstraints, InvalidDepth, LocomanError,
                     NoFeasibleGoal, NoPath, OracleFailure, ParseError,
                     UnknownObject, UsageError, ValidationError)
from .fusion import Detection, InstanceGraph
from .geometry import Pose, quat_geodesic_distance
from .grounding import CameraModel, DepthImage, GroundingResult, ground_action
from .harness import EpisodeRunner, aggregate, make_rng, run_episode
from .navgrid import GoalSearchConfig, OccupancyGrid, find_goal_pose, plan_path
from .planning import ActionKind, AtomicAction, ScriptedPlanner
from .rewards import RewardWeights, total_reward
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"
