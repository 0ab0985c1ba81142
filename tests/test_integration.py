"""End-to-end integration tests: every algorithm on every dataset kind.

These are coarse-grained sanity sweeps at tiny scale: each algorithm must
run to completion (or budget), find a reasonable share of matches, and
respect the structural invariants of a run.
"""

from __future__ import annotations

import pytest

from repro.evaluation.experiments import BATCH_SYSTEMS, ExperimentConfig, SYSTEM_NAMES

from tests.conftest import compare

ALGORITHMS = tuple(name for name in SYSTEM_NAMES if name != "PPS-LOCAL")


@pytest.mark.parametrize("dataset_name", ["dblp_acm", "census_2m"])
def test_all_algorithms_static(dataset_name, small_dblp_acm, small_census):
    dataset = {"dblp_acm": small_dblp_acm, "census_2m": small_census}[dataset_name]
    config = ExperimentConfig(
        dataset_name=dataset_name,
        systems=ALGORITHMS,
        matcher="JS",
        n_increments=8,
        rate=None,
        budget=120.0,
        dataset=dataset,
    )
    results = compare(config)
    for name, result in results.items():
        assert result.comparisons_executed > 0, name
        assert result.final_pc > 0.3, (name, result.final_pc)
        assert result.curve.final_time <= 120.0 + 1.0
        # PC never decreases along the curve
        values = [point.matches for point in result.curve.points]
        assert values == sorted(values), name


def test_all_algorithms_dynamic(small_dblp_acm):
    config = ExperimentConfig(
        dataset_name="dblp_acm",
        systems=ALGORITHMS,
        matcher="JS",
        n_increments=20,
        rate=10.0,
        budget=60.0,
        dataset=small_dblp_acm,
    )
    results = compare(config)
    for name, result in results.items():
        assert result.increments_ingested == 20, name
        # nothing found before the first arrival
        assert result.curve.pc_at_time(-1.0) == 0.0


def test_clean_clean_never_emits_intra_source(toy_clean_clean_dataset):
    config = ExperimentConfig(
        dataset_name="toy",
        systems=("I-PES", "I-PCS", "I-PBS", "I-BASE", "PBS", "BATCH"),
        matcher="JS",
        n_increments=3,
        rate=None,
        budget=60.0,
        dataset=toy_clean_clean_dataset,
    )
    results = compare(config)
    for name, result in results.items():
        for pid_x, pid_y in result.duplicates:
            assert (
                toy_clean_clean_dataset[pid_x].source
                != toy_clean_clean_dataset[pid_y].source
            ), name


def test_ed_and_js_find_overlapping_duplicates(small_dblp_acm):
    base = ExperimentConfig(
        dataset_name="dblp_acm",
        systems=("I-PES",),
        n_increments=5,
        rate=None,
        budget=200.0,
        dataset=small_dblp_acm,
    )
    js = compare(base.with_overrides(matcher="JS"))["I-PES"]
    ed = compare(base.with_overrides(matcher="ED"))["I-PES"]
    # both matchers classify a healthy share of the emitted true matches
    assert len(js.duplicates) > 0
    assert len(ed.duplicates) > 0
    overlap = len(js.duplicates & ed.duplicates)
    assert overlap > 0


def test_batch_systems_constant(small_dblp_acm):
    """The BATCH_SYSTEMS registry matches systems that cannot stream."""
    assert {"PPS", "PBS", "BATCH", "LS-PSN", "GS-PSN"} == set(BATCH_SYSTEMS)
