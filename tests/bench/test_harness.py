"""Tests for the experiment harness (tiny workloads, structural checks)."""

import math

from repro.bench.harness import (
    BUCKET_CAPACITY_FACTORS,
    CROSSOVER_HALF_EXTENTS,
    run_accuracy_experiment,
    run_baseline_comparison,
    run_bucket_capacity_ablation,
    run_fig4_memory,
    run_fig5_range_size,
    run_fig6_num_samples,
    run_fig7_dataset_size,
    run_fig8_size_ratio,
    run_fig9_bbst_vs_cell_kdtree,
    run_join_then_sample_crossover,
    run_table2_preprocessing,
    run_table3_decomposed_times,
    run_table4_sampling,
    run_uniformity_experiment,
)
from repro.bench.workloads import ExperimentScale, WorkloadConfig

#: A single, deliberately tiny workload so every harness function stays fast.
TINY = [
    WorkloadConfig(
        dataset="castreet",
        total_points=1_500,
        half_extent=300.0,
        num_samples=300,
        range_sweep=(150.0, 400.0),
        samples_sweep=(100, 300),
        scale_sweep=(0.5, 1.0),
        ratio_sweep=(0.25, 0.5),
    )
]


class TestTableExperiments:
    def test_table2_columns(self):
        rows = run_table2_preprocessing(TINY)
        assert len(rows) == 1
        row = rows[0]
        assert row["dataset"] == "castreet"
        assert row["kds_preprocess_seconds"] >= 0.0
        assert row["bbst_preprocess_seconds"] >= 0.0

    def test_baseline_comparison_has_three_algorithms(self):
        rows = run_baseline_comparison(TINY)
        assert {row["algorithm"] for row in rows} == {"KDS", "KDS-rejection", "BBST"}
        for row in rows:
            assert row["accepted"] == 300
            assert row["iterations"] >= row["accepted"]

    def test_table3_columns(self):
        rows = run_table3_decomposed_times(TINY)
        assert all(
            {"dataset", "algorithm", "total_seconds", "gm_seconds", "ub_seconds"}
            <= set(row)
            for row in rows
        )

    def test_table4_columns(self):
        rows = run_table4_sampling(TINY)
        assert all({"sampling_seconds", "iterations"} <= set(row) for row in rows)
        kds_row = next(row for row in rows if row["algorithm"] == "KDS")
        assert kds_row["iterations"] == kds_row["t"]


class TestFigureExperiments:
    def test_fig4_memory_rows(self):
        rows = run_fig4_memory(TINY)
        assert len(rows) == 2  # two scale fractions
        for row in rows:
            assert row["kds_bytes"] > 0
            assert row["bbst_bytes"] > 0

    def test_accuracy_rows(self):
        rows = run_accuracy_experiment(TINY)
        assert rows[0]["ratio"] >= 1.0

    def test_fig5_rows(self):
        rows = run_fig5_range_size(TINY, num_samples=100)
        assert len(rows) == 2 * 3  # two ranges, three algorithms
        assert {row["half_extent"] for row in rows} == {150.0, 400.0}

    def test_fig6_rows(self):
        rows = run_fig6_num_samples(TINY)
        assert len(rows) == 2 * 3
        assert {row["t"] for row in rows} == {100, 300}

    def test_fig7_rows(self):
        rows = run_fig7_dataset_size(TINY, num_samples=100)
        assert len(rows) == 2 * 3
        assert {row["fraction"] for row in rows} == {0.5, 1.0}

    def test_fig8_rows_are_bbst_only(self):
        rows = run_fig8_size_ratio(TINY, num_samples=100)
        assert len(rows) == 2
        for row in rows:
            assert row["total_seconds"] > 0.0

    def test_fig9_rows(self):
        rows = run_fig9_bbst_vs_cell_kdtree(TINY, num_samples=200)
        algorithms = {row["algorithm"] for row in rows}
        assert algorithms == {"BBST", "Grid+kd-tree"}


class TestPaperClaimsAtSmokeScale:
    """The deterministic claims of Fig. 4 and Section V-B on every proxy."""

    def test_fig4_index_bytes_grow_linearly_with_the_data(self):
        rows = run_fig4_memory(scale=ExperimentScale.SMOKE, fractions=(0.4, 0.7, 1.0))
        for dataset in {row["dataset"] for row in rows}:
            ordered = sorted(
                (row for row in rows if row["dataset"] == dataset),
                key=lambda row: row["fraction"],
            )
            smallest, largest = ordered[0], ordered[-1]
            data_growth = largest["m"] / smallest["m"]
            for column in ("kds_bytes", "kds_rejection_bytes", "bbst_bytes"):
                # Linear space: growing the data 2.5x must not grow the index
                # by more than 1.8x that (hash-map and node-count overheads).
                growth = largest[column] / max(1, smallest[column])
                assert growth < 1.8 * data_growth, (dataset, column, growth)

    def test_upper_bounds_never_undercount_and_stay_within_log_m(self):
        # The paper measures sum mu(r) / |J| = 1.04-1.19; Lemma 5 caps it at
        # O(log m), and an upper bound may never undercount.
        for row in run_accuracy_experiment(scale=ExperimentScale.SMOKE):
            assert 1.0 <= row["ratio"] <= max(4.0, math.log2(row["m"])), row


class TestGateExperimentsAtToySize:
    """The gate sections' experiments stay exact far below their floors' sizes."""

    def test_kernel_numpy_twin_runs_without_numba(self):
        from repro.bench.harness import run_kernel_speedup
        from repro.kernels import numba_available

        rows = run_kernel_speedup(sizes=(5_000,), num_samples=1_000, algorithms=("bbst",))
        assert rows and rows[0]["numpy_sampling_seconds"] > 0.0
        if not numba_available():
            assert rows[0]["numba_available"] is False
            assert rows[0]["speedup"] == 0.0

    def test_warm_start_draws_are_bit_identical(self):
        from repro.bench.warm_start import run_warm_start

        rows = run_warm_start(
            sizes=(10_000,), num_samples=1_000, algorithms=("bbst", "kds-rejection")
        )
        assert len(rows) == 2
        for row in rows:
            assert row["match"], f"{row['algorithm']}: warm draws diverged"
            assert row["warm_loads"] >= 1
            assert row["artifact_bytes"] > 0


class TestExtraExperiments:
    def test_bucket_capacity_ablation_rows(self):
        rows = run_bucket_capacity_ablation(TINY, num_samples=200)
        log_m = rows[0]["log_m"]
        assert [row["bucket_capacity"] for row in rows] == [
            max(1, round(factor * log_m)) for factor in BUCKET_CAPACITY_FACTORS
        ]
        for row in rows:
            assert row["iterations"] >= row["t"] == 200
            assert row["sum_mu"] > 0.0

    def test_crossover_rows_cover_both_windows(self):
        rows = run_join_then_sample_crossover(TINY, num_samples=200)
        assert [row["half_extent"] for row in rows] == list(CROSSOVER_HALF_EXTENTS)
        assert 0 < rows[0]["join_size"] < rows[1]["join_size"]
        for row in rows:
            assert row["join_then_sample_seconds"] > 0.0
            assert row["bbst_seconds"] > 0.0


class TestSessionReuseExperiment:
    def test_rows_show_cached_phases_and_speedup(self):
        from repro.bench.harness import run_session_reuse

        rows = run_session_reuse(TINY, num_samples=200, requests=4)
        assert {row["algorithm"] for row in rows} == {"bbst", "kds", "kds-rejection"}
        for row in rows:
            assert row["requests"] == 4
            # After the first request the cached key serves build/count for free.
            assert row["cached_build_seconds"] == 0.0
            assert row["cached_count_seconds"] == 0.0
            assert row["session_seconds"] > 0.0
            assert row["oneshot_seconds"] > 0.0

    def test_requires_at_least_two_requests(self):
        import pytest

        from repro.bench.harness import run_session_reuse

        with pytest.raises(ValueError):
            run_session_reuse(TINY, requests=1)


class TestUniformityExperiment:
    def test_all_algorithms_look_uniform(self):
        rows = run_uniformity_experiment(
            total_points=400, half_extent=600.0, num_samples=6_000
        )
        assert len(rows) == 4
        for row in rows:
            assert row["looks_uniform"], f"{row['algorithm']} failed uniformity"


class TestDefaultWorkloadPath:
    def test_scale_and_datasets_arguments(self):
        from repro.bench.workloads import ExperimentScale

        rows = run_table2_preprocessing(
            scale=ExperimentScale.SMOKE, datasets=["foursquare"]
        )
        assert len(rows) == 1
        assert rows[0]["dataset"] == "foursquare"
