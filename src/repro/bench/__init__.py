"""Experiment harness regenerating the paper's tables and figures.

* :mod:`~repro.bench.workloads` - experiment configurations (datasets,
  window sizes, sample counts, sweeps) mirroring Section V's settings at
  laptop scale.
* :mod:`~repro.bench.harness` - one ``run_*`` function per table / figure,
  each returning plain row dictionaries.
* :mod:`~repro.bench.reporting` - fixed-width and markdown table formatting.
* :mod:`~repro.bench.runner` - the ``EXPERIMENTS`` registry: run one or
  every experiment and write a markdown results report.
* :mod:`~repro.bench.ci_gate` - the CI perf gate: sections of pinned
  experiment runs compared against ``benchmarks/baseline_ci.json``.
"""

from repro.bench.harness import (
    run_accuracy_experiment,
    run_fig4_memory,
    run_fig5_range_size,
    run_fig6_num_samples,
    run_fig7_dataset_size,
    run_fig8_size_ratio,
    run_fig9_bbst_vs_cell_kdtree,
    run_parallel_speedup,
    run_session_reuse,
    run_table2_preprocessing,
    run_table3_decomposed_times,
    run_table4_sampling,
    run_uniformity_experiment,
    run_vectorization_speedup,
)
from repro.bench.reporting import format_markdown_table, format_table
from repro.bench.runner import run_all_experiments
from repro.bench.service_load import run_service_load
from repro.bench.workloads import (
    DEFAULT_HALF_EXTENT,
    DEFAULT_NUM_SAMPLES,
    ExperimentScale,
    WorkloadConfig,
    build_join_spec,
    default_workloads,
)

__all__ = [
    "WorkloadConfig",
    "ExperimentScale",
    "DEFAULT_HALF_EXTENT",
    "DEFAULT_NUM_SAMPLES",
    "build_join_spec",
    "default_workloads",
    "run_table2_preprocessing",
    "run_table3_decomposed_times",
    "run_table4_sampling",
    "run_fig4_memory",
    "run_fig5_range_size",
    "run_fig6_num_samples",
    "run_fig7_dataset_size",
    "run_fig8_size_ratio",
    "run_fig9_bbst_vs_cell_kdtree",
    "run_accuracy_experiment",
    "run_uniformity_experiment",
    "run_vectorization_speedup",
    "run_session_reuse",
    "run_parallel_speedup",
    "run_service_load",
    "format_table",
    "format_markdown_table",
    "run_all_experiments",
]
