"""Self-play reinforcement-learning workbench for adaptive-bitrate streaming.

Two agents stream the same video over the same network trace in an offline
simulator; a priority rule declares the winner, the win/loss signal drives
actor-critic updates augmented by a GAN-generated hidden-feature memory, and
Elo ratings against classical baselines track progress.
"""

from .agent import Agent, AgentConfig, AgentPolicy, dynamic_lr, normalize
from .baselines import (
    Baseline, BolaParams, bola, constrained, dynamic_dash, make_policy, throughput_rule,
)
from .elo import Rating, anchor_baselines, expected_score, rate_agent
from .elo import update as elo_update
from .gem import HIDDEN_SIZE, GemModule
from .rule import RESULT_LABELS, judge, win_rate
from .simulator import (
    Observation, Session, SessionConfig, SessionMetrics, Trajectory, TrajectoryStep,
    run_session,
)
from .selfplay import EpochReport, TrainConfig, evaluate, run_epoch, run_match, train
from .workload import (
    DatasetSplit, Manifest, SynthManifestConfig, SynthTraceConfig, Trace,
    load_manifest, load_trace, save_manifest, save_trace,
    split_dataset, synth_manifest, synth_trace,
)

__version__ = "0.1.0"

__all__ = [
    "Agent", "AgentConfig", "AgentPolicy", "dynamic_lr", "normalize",
    "Baseline", "BolaParams", "bola", "constrained", "dynamic_dash",
    "make_policy", "throughput_rule",
    "Rating", "anchor_baselines", "expected_score", "rate_agent", "elo_update",
    "HIDDEN_SIZE", "GemModule",
    "RESULT_LABELS", "judge", "win_rate",
    "Observation", "Session", "SessionConfig", "SessionMetrics",
    "Trajectory", "TrajectoryStep", "run_session",
    "EpochReport", "TrainConfig", "evaluate", "run_epoch", "run_match", "train",
    "DatasetSplit", "Manifest", "SynthManifestConfig", "SynthTraceConfig", "Trace",
    "load_manifest", "load_trace", "save_manifest", "save_trace",
    "split_dataset", "synth_manifest", "synth_trace",
]
