"""Measurement machinery for the paper's metrics."""

from repro.metrics.fairness import (
    delta_fair_convergence_time,
    jain_index,
)
from repro.metrics.smoothness import (
    SmoothnessResult,
    coefficient_of_variation,
    rate_bins,
    smoothness,
)
from repro.metrics.stabilization import StabilizationResult, measure_stabilization
from repro.metrics.stats import Summary, replicate, summarize, t_quantile_975
from repro.metrics.utilization import f_of_k, flows_f_of_k

__all__ = [
    "SmoothnessResult",
    "StabilizationResult",
    "Summary",
    "replicate",
    "summarize",
    "t_quantile_975",
    "coefficient_of_variation",
    "delta_fair_convergence_time",
    "f_of_k",
    "flows_f_of_k",
    "jain_index",
    "measure_stabilization",
    "rate_bins",
    "smoothness",
]
