"""Analysis utilities: roofline model and report rendering."""

from repro.analysis.roofline import RooflinePoint, roofline_gflops, roofline_point
from repro.analysis.reporting import (
    format_table,
    format_series,
    format_histogram,
)
from repro.analysis.portability import (
    PortabilityReport,
    performance_portability,
    portability_report,
)
from repro.analysis.export import (
    result_to_csv,
    result_to_json,
    write_result,
)

__all__ = [
    "RooflinePoint",
    "roofline_gflops",
    "roofline_point",
    "format_table",
    "format_series",
    "format_histogram",
    "result_to_csv",
    "result_to_json",
    "write_result",
    "PortabilityReport",
    "performance_portability",
    "portability_report",
]
