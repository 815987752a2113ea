"""Occlusion-aware multi-object pedestrian tracking toolkit."""

from .association import AppearanceDescriptor, AssociationConfig, CostMatrix
from .geometry import BBox, GridIndex, HeadKeypoint
from .kalman import IteratedUpdateConfig, KalmanConfig, KalmanModel, KalmanState
from .lifting import LiftingConfig, Pose3, TrajectoryGap
from .metrics import EvalFrame, EvalReport, evaluate
from .tracker import Detection, Track, Tracker, TrackerConfig

__all__ = [
    "AppearanceDescriptor",
    "AssociationConfig",
    "BBox",
    "CostMatrix",
    "Detection",
    "EvalFrame",
    "EvalReport",
    "GridIndex",
    "HeadKeypoint",
    "IteratedUpdateConfig",
    "KalmanConfig",
    "KalmanModel",
    "KalmanState",
    "LiftingConfig",
    "Pose3",
    "Track",
    "Tracker",
    "TrackerConfig",
    "TrajectoryGap",
    "evaluate",
]

__version__ = "0.1.0"
