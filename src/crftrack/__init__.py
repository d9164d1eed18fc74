"""CRF-based tracklet inactivation for online multi-object tracking.

The package splits into six layers: generic binary factor graphs with exact
and loopy inference (factor_graph), kinematic feature functions (features),
per-frame CRF assembly (crf_model), weight training (training), the tracking
workflow and scenario generator (tracker), and evaluation metrics (metrics).
File formats and the command line live in io and cli.
"""

from .crf_model import (FrameAssembly, ModelParams, assemble_frame_graph, decide_frame,
                        decide_inactivation, default_params, load_params, save_params)
from .factor_graph import (BpConfig, FactorGraph, InferenceResult, exact_inference, max_product,
                           sum_product)
from .features import (Box, FeatureParams, FrameContext, HypothesisWindow,
                       aspect_ratio_change, boundary_flag, height_change_rate,
                       keep_keep_penalties, unary_feature, velocity_change)
from .io import TrackFile, TrackRecord, parse_mot, write_mot
from .metrics import EvalReport, clear_mot, evaluate, idf1, iou
from .tracker import (DriftEvent, FrameResult, ScenarioSpec, TrackerState,
                      generate_scenario, run, step)
from .training import (TrainConfig, TrainingSample, TrainResult, finite_diff_check,
                       generate_dataset, gradient, log_likelihood, sgd_train)

__version__ = "0.1.0"
