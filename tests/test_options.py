"""PipelineOptions: the one options surface behind the CLI and the API,
and the jobs/pool validation fallbacks."""

import argparse
import warnings

import pytest

from repro.artifacts import ArtifactCache
from repro.options import (
    POOL_CHOICES,
    PipelineOptions,
    validate_jobs,
    validate_pool,
)
from repro.pipeline import NeedlePipeline
from repro.workloads import get


def test_validate_jobs_passthrough():
    assert validate_jobs(None) is None
    assert validate_jobs(1) == 1
    assert validate_jobs(4) == 4


@pytest.mark.parametrize("bad", [0, -1, -8])
def test_validate_jobs_warns_and_falls_back_to_serial(bad):
    with pytest.warns(UserWarning, match="falling back to serial"):
        assert validate_jobs(bad) is None


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_evaluate_all_with_invalid_jobs_runs_serially():
    pipeline = NeedlePipeline(options=PipelineOptions(jobs=-3))
    with pytest.warns(UserWarning, match="jobs=-3 is invalid"):
        rows = pipeline.evaluate_all([get("dwt53")])
    assert len(rows) == 1 and rows[0].name == "dwt53"


def test_validate_pool_defaults_env_and_case(monkeypatch):
    monkeypatch.delenv("REPRO_POOL", raising=False)
    assert POOL_CHOICES == ("auto", "serial", "process", "thread")
    assert validate_pool(None) == "auto"
    assert validate_pool("Thread") == "thread"
    monkeypatch.setenv("REPRO_POOL", "thread")
    assert validate_pool(None) == "thread"
    assert validate_pool("serial") == "serial"  # explicit beats env
    assert PipelineOptions(pool="process").normalized_pool() == "process"


def test_validate_pool_rejects_unknown_backend_by_name():
    with pytest.raises(ValueError, match=r"unknown pool backend 'fibers'"):
        validate_pool("fibers")
    with pytest.raises(ValueError, match="serial, process, thread"):
        PipelineOptions(pool="greenlets").normalized_pool()


def test_cli_rejects_unknown_pool(capsys):
    from repro.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["evaluate", "--pool", "fibers"])
    err = capsys.readouterr().err
    assert "--pool" in err and "thread" in err


def test_cli_jobs_zero_exits_clean(capsys):
    from repro.cli import main

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["evaluate", "dwt53", "--no-cache", "--jobs", "0"]) == 0
    assert "dwt53" in capsys.readouterr().out


def test_build_cache_honours_no_cache(tmp_path):
    opts = PipelineOptions(cache_dir=str(tmp_path), no_cache=True)
    assert opts.build_cache() is None
    opts = PipelineOptions(cache_dir=str(tmp_path))
    cache = opts.build_cache()
    assert isinstance(cache, ArtifactCache)
    assert str(cache.root) == str(tmp_path)


def test_build_pipeline_threads_options_through(tmp_path):
    opts = PipelineOptions(cache_dir=str(tmp_path), jobs=2)
    pipeline = opts.build_pipeline()
    assert isinstance(pipeline, NeedlePipeline)
    assert pipeline.options is opts
    assert str(pipeline.cache.root) == str(tmp_path)


def test_wants_metrics():
    assert not PipelineOptions().wants_metrics
    assert PipelineOptions(metrics=True).wants_metrics
    assert PipelineOptions(metrics_out="m.json").wants_metrics


def test_cli_arguments_round_trip_through_from_args(tmp_path):
    parser = argparse.ArgumentParser()
    PipelineOptions.add_cli_arguments(parser)
    args = parser.parse_args(
        ["--jobs", "3", "--pool", "thread", "--cache-dir", str(tmp_path),
         "--no-cache", "--metrics", "--metrics-out", "m.json"]
    )
    opts = PipelineOptions.from_args(args)
    assert opts == PipelineOptions(
        jobs=3, pool="thread", cache_dir=str(tmp_path), no_cache=True,
        metrics=True, metrics_out="m.json",
    )


def test_from_args_tolerates_missing_flags():
    # subcommands without --jobs (e.g. analyze) still parse back cleanly
    parser = argparse.ArgumentParser()
    PipelineOptions.add_cli_arguments(parser, jobs=False)
    opts = PipelineOptions.from_args(parser.parse_args([]))
    assert opts.jobs is None and not opts.no_cache


def test_cli_parser_exposes_options_flags():
    from repro.cli import build_parser

    ns = build_parser().parse_args(
        ["evaluate", "--jobs", "2", "--metrics-out", "x.json"]
    )
    opts = PipelineOptions.from_args(ns)
    assert opts.jobs == 2 and opts.metrics_out == "x.json"
