"""Tests for the unified session API (``repro.api``).

``ERSession`` is the single entry point every driver (``resolve_stream``,
the CLI, the benchmark drivers) routes through.  Pinned here:

* construction/validation of :class:`EngineOptions` and the ``workers``
  shorthand;
* stream-plan semantics — batch baselines get single-increment plans in
  the static setting, plans are built once and shared across systems;
* round-trips: session ↔ :class:`ExperimentConfig`, ``resolve_stream``
  equals a hand-built session;
* checkpoint capture;
* the retired ``make_*``/``run_experiment`` entry points are gone.
"""

from __future__ import annotations

import warnings

import pytest

from repro import resolve_stream
from repro.api import EngineOptions, ERSession
from repro.matching.matcher import EditDistanceMatcher, JaccardMatcher
from repro.resilience import ResilienceConfig

BUDGET = 8.0


@pytest.fixture(scope="module")
def dataset(small_dblp_acm):
    return small_dblp_acm


def _session(dataset, **kwargs):
    defaults = dict(
        systems=("I-PES",),
        matcher="JS",
        n_increments=8,
        rate=5.0,
        budget=BUDGET,
    )
    defaults.update(kwargs)
    return ERSession(dataset, **defaults)


def _comparable(result):
    metrics = dict(result.details["metrics"])
    metrics["phases"] = {
        phase: {key: value for key, value in totals.items() if key != "wall_s"}
        for phase, totals in metrics["phases"].items()
    }
    return (
        result.curve.points,
        result.duplicates,
        result.comparisons_executed,
        result.clock_end,
        metrics,
    )


# ----------------------------------------------------------------------
# Construction and validation
# ----------------------------------------------------------------------
def test_engine_options_rejects_zero_workers():
    with pytest.raises(ValueError, match="workers"):
        EngineOptions(workers=0)


def test_session_rejects_empty_systems(dataset):
    with pytest.raises(ValueError, match="at least one"):
        ERSession(dataset, systems=())


def test_workers_shorthand_overrides_engine_options(dataset):
    session = _session(dataset, engine=EngineOptions(workers=1), workers=3)
    assert session.engine_options.workers == 3
    # The rest of the options survive the override.
    session = _session(dataset, engine=EngineOptions(pipelined=True), workers=2)
    assert session.engine_options == EngineOptions(pipelined=True, workers=2)


def test_single_string_system_accepted(dataset):
    session = _session(dataset, systems="I-BASE")
    assert session.systems == ("I-BASE",)


def test_matcher_construction(dataset):
    assert isinstance(_session(dataset, matcher="JS").build_matcher(), JaccardMatcher)
    assert isinstance(
        _session(dataset, matcher="ED").build_matcher(), EditDistanceMatcher
    )


# ----------------------------------------------------------------------
# Stream-plan semantics
# ----------------------------------------------------------------------
def test_static_batch_baselines_get_single_increment_plans(dataset):
    session = ERSession(dataset, systems=("I-PES", "PPS", "BATCH"), budget=BUDGET)
    assert len(session.plan_for("PPS").increments) == 1
    assert len(session.plan_for("I-PES").increments) == session.n_increments
    # Plans are cached: the two batch systems share one object, and so do
    # repeated calls for the same streaming shape.
    assert session.plan_for("BATCH") is session.plan_for("PPS")
    assert session.plan_for("I-PES") is session.plan_for("I-PCS")


def test_streaming_setting_streams_everyone(dataset):
    session = _session(dataset, systems=("PPS",))
    assert len(session.plan_for("PPS").increments) == session.n_increments


# ----------------------------------------------------------------------
# Execution round-trips
# ----------------------------------------------------------------------
def test_resolve_stream_routes_through_session(dataset):
    via_function = resolve_stream(
        dataset, algorithm="I-PES", matcher="JS", n_increments=8, rate=5.0, budget=BUDGET
    )
    with _session(dataset) as session:
        via_session = session.run()
    assert _comparable(via_function) == _comparable(via_session)


def test_compare_runs_every_system_in_order(dataset):
    with _session(dataset, systems=("I-PES", "I-BASE"), budget=4.0) as session:
        results = session.compare()
    assert list(results) == ["I-PES", "I-BASE"]
    for result in results.values():
        assert result.comparisons_executed > 0


def test_config_round_trip(dataset):
    session = _session(
        dataset,
        systems=("I-PES", "I-BASE"),
        matcher="ED",
        engine=EngineOptions(pipelined=True, workers=2),
    )
    config = session.to_config()
    assert config.systems == ("I-PES", "I-BASE")
    assert config.engine == EngineOptions(pipelined=True, workers=2)
    assert config.dataset is dataset
    rebuilt = ERSession.from_config(config)
    assert rebuilt.systems == session.systems
    assert rebuilt.engine_options == session.engine_options
    assert rebuilt.matcher_name == session.matcher_name
    assert rebuilt.rate == session.rate


def test_engine_options_select_engine(dataset):
    from repro.streaming.pipelined import PipelinedStreamingEngine

    session = _session(dataset, engine=EngineOptions(pipelined=True))
    engine = session.build_engine(session.build_matcher())
    assert isinstance(engine, PipelinedStreamingEngine)


def test_checkpoint_every_captures_last_checkpoint(dataset):
    with _session(
        dataset, matcher="ED", resilience=ResilienceConfig(checkpoint_every=2.0)
    ) as session:
        session.run()
        assert session.last_checkpoint is not None
        assert session.last_checkpoint.clock <= BUDGET


def test_session_close_is_reentrant(dataset):
    session = _session(dataset)
    session.run()
    session.close()
    session.close()


def test_use_after_close_raises_at_the_facade(dataset):
    session = _session(dataset)
    session.close()
    assert session.closed
    with pytest.raises(RuntimeError, match="closed"):
        session.run()
    with pytest.raises(RuntimeError, match="closed"):
        session.compare()
    with pytest.raises(RuntimeError, match="closed"):
        session.push()
    with pytest.raises(RuntimeError, match="closed"):
        with session:
            pass  # pragma: no cover - enter must refuse


# ----------------------------------------------------------------------
# Retired shims
# ----------------------------------------------------------------------
def test_deprecated_names_dropped_from_package_roots():
    """The shims are gone from the package roots and from their module."""
    import repro
    import repro.evaluation
    import repro.evaluation.experiments

    for name in ("make_matcher", "make_system", "run_experiment"):
        assert not hasattr(repro, name)
        assert name not in repro.__all__
        assert not hasattr(repro.evaluation, name)
        assert name not in repro.evaluation.__all__
        assert not hasattr(repro.evaluation.experiments, name)


def test_session_itself_never_warns(dataset):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with _session(dataset, budget=2.0) as session:
            session.run()
