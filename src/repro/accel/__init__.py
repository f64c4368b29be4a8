"""Accelerator models: CGRA scheduling, invocation prediction, HLS
feasibility estimation."""

from .aladdin import (
    AladdinConfig,
    AladdinEstimator,
    AladdinResult,
    FU_LIBRARY,
)
from .cgra import CGRAScheduler, CyclicFrameError, ScheduledOp, ScheduleResult
from .invocation import (
    HistoryPredictor,
    OraclePredictor,
    PredictorEvaluation,
    evaluate_predictor,
)
from .hls import (
    ALM_COST,
    CYCLONE_V_ALMS,
    HLSEstimator,
    HLSReport,
)

__all__ = [
    "ALM_COST",
    "AladdinConfig",
    "AladdinEstimator",
    "AladdinResult",
    "FU_LIBRARY",
    "CGRAScheduler",
    "CYCLONE_V_ALMS",
    "CyclicFrameError",
    "HLSEstimator",
    "HLSReport",
    "HistoryPredictor",
    "OraclePredictor",
    "PredictorEvaluation",
    "ScheduleResult",
    "ScheduledOp",
    "evaluate_predictor",
]
