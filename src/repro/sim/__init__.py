"""Cycle and energy simulation: OOO host model, cache hierarchy with MESI
coherence, CGRA offload execution, and the Table V system configuration."""

from .config import (
    CGRAConfig,
    CacheConfig,
    DEFAULT_CONFIG,
    EnergyConfig,
    HostConfig,
    MemoryHierarchyConfig,
    OffloadConfig,
    SystemConfig,
)
from .cache import (
    AccessResult,
    BankedL2,
    Cache,
    CacheStats,
    MemorySystem,
    StreamProfile,
    profile_stream_dual,
    profile_stream_dual_array,
)
from .coherence import (
    CoherenceActions,
    CoherenceError,
    EXCLUSIVE,
    INVALID,
    MESIDirectory,
    MODIFIED,
    SHARED,
)
from .core_ooo import OOOModel, OOOResult
from .energy import EnergyBreakdown, EnergyModel
from .memo import Calibration, SimulationMemo, content_key
from .offload import OffloadOutcome, OffloadSimulator, PathCost
from .trace_kernels import (
    ChargeCensus,
    KERNEL_MODE_LABELS,
    KERNEL_MODES,
    KERNELS_EVENTS,
    KERNELS_RLE,
    RLETrace,
    census_from_events,
    census_from_segments,
    run_length_encode,
)

__all__ = [
    "AccessResult",
    "BankedL2",
    "CGRAConfig",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "Calibration",
    "ChargeCensus",
    "CoherenceActions",
    "CoherenceError",
    "DEFAULT_CONFIG",
    "EXCLUSIVE",
    "EnergyBreakdown",
    "EnergyConfig",
    "EnergyModel",
    "HostConfig",
    "INVALID",
    "KERNEL_MODE_LABELS",
    "KERNEL_MODES",
    "KERNELS_EVENTS",
    "KERNELS_RLE",
    "MemoryHierarchyConfig",
    "MemorySystem",
    "MESIDirectory",
    "MODIFIED",
    "OffloadConfig",
    "OffloadOutcome",
    "OffloadSimulator",
    "OOOModel",
    "OOOResult",
    "PathCost",
    "RLETrace",
    "SHARED",
    "SimulationMemo",
    "StreamProfile",
    "SystemConfig",
    "census_from_events",
    "census_from_segments",
    "content_key",
    "profile_stream_dual",
    "profile_stream_dual_array",
    "run_length_encode",
]
