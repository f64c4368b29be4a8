"""Locks the public façade: the names `import repro` promises to export,
that each resolves, and that historical deep imports keep working."""

import repro

#: the supported surface — additions are reviewed here, removals are breaking
PUBLIC_API = [
    "ArtifactCache",
    "DEFAULT_CONFIG",
    "EXIT_DRAINED",
    "FaultPlan",
    "FaultSpec",
    "NeedlePipeline",
    "POOL_BACKENDS",
    "POOL_CHOICES",
    "PipelineOptions",
    "Pool",
    "ProcessPool",
    "RunJournal",
    "SerialPool",
    "SweepDrained",
    "SystemConfig",
    "ThreadPool",
    "Workload",
    "WorkloadAnalysis",
    "WorkloadEvaluation",
    "WorkloadFailure",
    "accel",
    "analysis",
    "evaluate_suite",
    "exec",
    "frames",
    "interp",
    "ir",
    "load_workload",
    "make_pool",
    "obs",
    "profiling",
    "regions",
    "reporting",
    "resilience",
    "sim",
    "suite",
    "transforms",
    "workloads",
]


#: the tracing and profiling subpackage surfaces, locked the same way
SUBPACKAGE_API = {
    "interp": [
        "FuelExhausted",
        "FunctionTrace",
        "Interpreter",
        "InterpreterError",
        "Memory",
        "MemoryError_",
        "OpMix",
        "OpMixTracer",
        "TraceRecorder",
        "Tracer",
    ],
    "profiling": [
        "BallLarusNumbering",
        "ENTRY",
        "EXIT",
        "EdgeProfile",
        "EdgeProfiler",
        "PathNumberingError",
        "PathProfile",
        "PathProfiler",
        "PathTraceAnalysis",
        "RankedPath",
        "ReentrantTraceError",
        "SamplingComparison",
        "SuccessorStats",
        "compare_frequency_vs_sampling",
        "count_ops",
        "derive_edge_profile",
        "derive_path_profile",
        "function_weight",
        "latency_weight",
        "path_overlap_count",
        "profile_paths",
        "rank_paths",
        "sample_path_profile",
        "top_k_coverage",
    ],
}


def test_all_matches_locked_surface():
    assert repro.__all__ == PUBLIC_API


def test_subpackage_all_matches_locked_surface():
    for name, names in SUBPACKAGE_API.items():
        assert getattr(repro, name).__all__ == names, name


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_load_workload_is_registry_get():
    w = repro.load_workload("470.lbm")
    assert isinstance(w, repro.Workload)
    assert w.name == "470.lbm"


def test_suite_returns_full_or_named_subset():
    full = repro.suite()
    assert len(full) == 29
    spec = repro.suite("spec")
    assert spec and all(w.suite == "spec" for w in spec)
    assert set(w.name for w in spec) < set(w.name for w in full)


def test_facade_classes_are_the_canonical_ones():
    from repro.options import PipelineOptions
    from repro.pipeline import NeedlePipeline, evaluate_suite
    from repro.sim.config import SystemConfig

    assert repro.NeedlePipeline is NeedlePipeline
    assert repro.PipelineOptions is PipelineOptions
    assert repro.SystemConfig is SystemConfig
    assert repro.evaluate_suite is evaluate_suite


def test_evaluate_suite_facade(tmp_path):
    rows = repro.evaluate_suite(
        names=["dwt53"], cache_dir=str(tmp_path / "cache")
    )
    assert len(rows) == 1
    assert rows[0].name == "dwt53"


def test_deep_imports_keep_working():
    from repro.interp.interpreter import Interpreter  # noqa: F401
    from repro.obs.metrics import MetricsRegistry  # noqa: F401
    from repro.pipeline import NeedlePipeline  # noqa: F401
    from repro.profiling.path_profile import PathProfiler  # noqa: F401
    from repro.sim.offload import OffloadSimulator  # noqa: F401
    from repro.workloads.base import profile_workload  # noqa: F401


def test_internal_modules_declare_all():
    import repro.artifacts
    import repro.cli
    import repro.exec
    import repro.exec.pools
    import repro.exec.worker
    import repro.obs
    import repro.options
    import repro.pipeline
    import repro.profiling.path_profile
    import repro.resilience
    import repro.resilience.faults
    import repro.resilience.journal
    import repro.resilience.runner
    import repro.resilience.shutdown
    import repro.sim.offload
    import repro.workloads.base

    for mod in (
        repro.artifacts,
        repro.cli,
        repro.exec,
        repro.exec.pools,
        repro.exec.worker,
        repro.obs,
        repro.options,
        repro.pipeline,
        repro.profiling.path_profile,
        repro.resilience,
        repro.resilience.faults,
        repro.resilience.journal,
        repro.resilience.runner,
        repro.resilience.shutdown,
        repro.sim.offload,
        repro.workloads.base,
    ):
        assert isinstance(mod.__all__, list) and mod.__all__, mod.__name__
        for name in mod.__all__:
            assert hasattr(mod, name), "%s.%s" % (mod.__name__, name)
