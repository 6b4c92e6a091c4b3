"""Rendering helpers for benchmark output: tables and figure series."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".series": ("Series", "find_jumps", "sparkline"),
    ".svg": ("SvgCanvas", "grouped_bars", "line_chart", "stacked_bars"),
    ".tables": (
        "render_comparison", "render_crawl_health", "render_metrics_summary",
        "render_table",
    ),
})
