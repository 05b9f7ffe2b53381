"""Run every experiment and write a consolidated results report.

:data:`EXPERIMENTS` is the one implementation of every measurement: the
CLI's ``experiment`` and ``all`` sub-commands and :mod:`repro.bench.ci_gate`
all run these entries.  ``run_all_experiments`` renders each experiment both
as a fixed-width table (stdout) and as markdown (the ``--output`` report).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from pathlib import Path

from repro.bench.harness import (
    run_accuracy_experiment,
    run_bucket_capacity_ablation,
    run_fig4_memory,
    run_fig5_range_size,
    run_fig6_num_samples,
    run_fig7_dataset_size,
    run_fig8_size_ratio,
    run_fig9_bbst_vs_cell_kdtree,
    run_join_then_sample_crossover,
    run_kernel_speedup,
    run_manager_multitenancy,
    run_parallel_speedup,
    run_session_reuse,
    run_table2_preprocessing,
    run_table3_decomposed_times,
    run_table4_sampling,
    run_uniformity_experiment,
    run_update_throughput,
    run_vectorization_speedup,
)
from repro.bench.reporting import format_markdown_table, format_table
from repro.bench.service_load import run_service_load
from repro.bench.warm_start import run_warm_start
from repro.bench.workloads import ExperimentScale
from repro.errors import UnknownKeyError

__all__ = ["EXPERIMENTS", "run_all_experiments", "run_experiment"]

#: Experiment registry: id -> (title, runner taking a scale).
EXPERIMENTS: dict[str, tuple[str, Callable[..., list[dict]]]] = {
    "table2": ("Table II - pre-processing time [s]", run_table2_preprocessing),
    "fig4": ("Fig. 4 - memory usage vs dataset size", run_fig4_memory),
    "accuracy": ("Sec. V-B - accuracy of approximate range counting", run_accuracy_experiment),
    "table3": ("Table III - total and decomposed times [s]", run_table3_decomposed_times),
    "table4": ("Table IV - sampling time [s] and #iterations", run_table4_sampling),
    "fig5": ("Fig. 5 - impact of range (window) size", run_fig5_range_size),
    "fig6": ("Fig. 6 - impact of #samples", run_fig6_num_samples),
    "fig7": ("Fig. 7 - impact of dataset size", run_fig7_dataset_size),
    "fig8": ("Fig. 8 - impact of dataset size difference", run_fig8_size_ratio),
    "fig9": ("Fig. 9 - BBST vs per-cell kd-tree variant", run_fig9_bbst_vs_cell_kdtree),
    "bucketcap": (
        "Ablation - BBST bucket capacity around ceil(log2 m)",
        run_bucket_capacity_ablation,
    ),
    "crossover": (
        "Motivation - join-then-sample vs BBST as |J| grows",
        run_join_then_sample_crossover,
    ),
    "vecspeed": (
        "Extra - vectorised batch engine sampling-phase speedup",
        run_vectorization_speedup,
    ),
    "kernels": (
        "Extra - compiled kernel backend sampling-phase speedup",
        run_kernel_speedup,
    ),
    "session": (
        "Extra - session API: repeated draws vs one-shot sampling",
        run_session_reuse,
    ),
    "parallel": (
        "Extra - shard-parallel build/count speedup over the serial path",
        run_parallel_speedup,
    ),
    "dynamic": (
        "Extra - incremental update throughput vs full rebuild per change",
        run_update_throughput,
    ),
    "manager": (
        "Extra - multi-tenant serving under a fixed memory budget",
        run_manager_multitenancy,
    ),
    "service": (
        "Extra - async service load: latency, throughput, coalescing",
        run_service_load,
    ),
    "warmstart": (
        "Extra - warm start: artifact attach vs rebuilding from raw points",
        run_warm_start,
    ),
    "uniformity": ("Extra - uniformity of produced samples", run_uniformity_experiment),
}


def run_experiment(
    experiment_id: str,
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
) -> list[dict]:
    """Run one experiment by id and return its rows."""
    key = experiment_id.strip().lower()
    if key not in EXPERIMENTS:
        raise UnknownKeyError(
            f"unknown experiment {experiment_id!r}; known ids: {', '.join(EXPERIMENTS)}"
        )
    _title, runner = EXPERIMENTS[key]
    if key == "uniformity":
        # The uniformity check uses its own, deliberately tiny workload.
        return runner()
    return runner(scale=scale, datasets=datasets)


def run_all_experiments(
    scale: ExperimentScale = ExperimentScale.SMOKE,
    datasets: Sequence[str] | None = None,
    output_path: str | Path | None = None,
    echo: bool = True,
    experiment_ids: Sequence[str] | None = None,
) -> dict[str, list[dict]]:
    """Run every registered experiment (or a subset) and collect the rows.

    Parameters
    ----------
    scale:
        Workload scale (smoke for CI-sized runs, paper for the report runs).
    datasets:
        Optional dataset subset (names from ``repro.datasets.DATASET_NAMES``).
    output_path:
        When given, a markdown report with every table is written there.
    echo:
        Print each experiment's table to stdout as it completes.
    experiment_ids:
        Optional subset of experiment ids to run (defaults to all).
    """
    selected = (
        {key: EXPERIMENTS[key] for key in experiment_ids}
        if experiment_ids is not None
        else EXPERIMENTS
    )
    from repro.kernels import runtime_meta

    runtime = runtime_meta()
    all_rows: dict[str, list[dict]] = {}
    report_sections: list[str] = [
        "# Experiment results",
        "",
        f"Scale: `{scale.value}`",
        "",
        "Runtime: "
        + ", ".join(f"{key}={value}" for key, value in sorted(runtime.items())),
        "",
    ]
    for key, (title, _runner) in selected.items():
        start = time.perf_counter()
        rows = run_experiment(key, scale=scale, datasets=datasets)
        elapsed = time.perf_counter() - start
        all_rows[key] = rows
        if echo:
            print(format_table(rows, title=f"{title}  (took {elapsed:.1f}s)"))
            print()
        report_sections.append(format_markdown_table(rows, title=title))
    if output_path is not None:
        Path(output_path).write_text("\n".join(report_sections))
    return all_rows
