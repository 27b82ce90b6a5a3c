"""Event-log analyses: DMA stall timeline, unit utilization, VMEM pages,
dependency graphs and reorder suggestions."""


class AnalysisError(Exception):
    pass


# The most samples a utilization series (per unit) or the VMEM series may
# have, about ten times the 26,389 cycles of the longest committed workload
# at bucket width 1 (docs/reports.md, "Size limit"). A longer series is an
# AnalysisError, raised before any of it is built.
MAX_SAMPLES = 250_000


def sample_scale(end: int) -> int:
    """The sampling of a log that ends at cycle `end`, for an analysis given
    no bucket width or sample interval: utilization buckets of this many
    cycles and VMEM samples every 64 times this many, the smallest that keep
    the series within MAX_SAMPLES samples and the VMEM series within as many
    as a log of MAX_SAMPLES cycles has (docs/reports.md, "Size limit")."""
    return max(1, -(-end // MAX_SAMPLES))


# imported here, so that the package's `suggest` is the function even once
# the submodule of that name is imported
from .suggest import Suggestion, suggest, apply_and_verify    # noqa: E402

# imported on first use (PEP 562), so that a step loads only the analyses
# it calls: `suggest` and `apply` no report writer, `apply` no analysis
_LAZY = {name: module for module, names in (
    ("dma", "DmaRecord analyze_dma"), ("vmem", "VmemPageStats analyze_vmem"),
    ("deps", "DependencyGraph LogTables build_tables build_dependency_graph "
             "compute_backtails Backtail"),
    ("utilization", "UtilizationSeries analyze_utilization"),
    ("report", "write_report")) for name in names.split()}

__all__ = ["AnalysisError", "MAX_SAMPLES", "DmaRecord", "analyze_dma",
           "UtilizationSeries", "analyze_utilization", "VmemPageStats", "analyze_vmem",
           "DependencyGraph", "LogTables", "build_tables",
           "build_dependency_graph", "compute_backtails", "Backtail",
           "Suggestion", "suggest", "apply_and_verify", "write_report"]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = globals()[name] = getattr(import_module("." + _LAZY[name], __name__), name)
    return value
