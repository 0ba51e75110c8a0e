"""Experiment harness and figure regeneration."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".experiment": ("ExperimentResult", "run_experiment"),
    ".figures": ("FIGURES", "FigureResult", "figure4", "figure5", "figure6",
                 "figure7", "figure8", "figure9", "figure10", "figure11",
                 "run_figure"),
    ".report": ("bar_chart", "series_chart", "figure_report"),
})
