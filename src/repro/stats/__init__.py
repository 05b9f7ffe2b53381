"""Measurement and validation statistics.

* :mod:`~repro.stats.memory` - per-index memory accounting (Fig. 4).
* :mod:`~repro.stats.uniformity` - statistical tests that the samplers draw
  join pairs uniformly and independently.
* :mod:`~repro.stats.accuracy` - accuracy metrics of the approximate range
  counting (Section V-B) and acceptance-rate bookkeeping.
"""

from repro.stats.accuracy import (
    acceptance_rate,
    counting_accuracy_report,
    empirical_upper_bound_ratio,
)
from repro.stats.memory import MemoryReport, index_memory_report
from repro.stats.uniformity import (
    UniformityReport,
    chi_square_uniformity,
    empirical_pair_frequencies,
    independence_lag_correlation,
    uniformity_report,
)

__all__ = [
    "MemoryReport",
    "index_memory_report",
    "chi_square_uniformity",
    "empirical_pair_frequencies",
    "independence_lag_correlation",
    "uniformity_report",
    "UniformityReport",
    "acceptance_rate",
    "empirical_upper_bound_ratio",
    "counting_accuracy_report",
]
