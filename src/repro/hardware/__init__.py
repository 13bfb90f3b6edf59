"""Many-core accelerator performance simulator.

The paper ran its OpenCL kernel on five physical accelerators (Table I).
Those devices are unavailable here, so this subpackage implements the
substitution documented in DESIGN.md: an analytic performance model driven
by each device's published micro-architecture (compute units, peak
GFLOP/s, bandwidth, register file, local memory, wavefront width) plus a
small number of calibrated efficiency parameters.  The model reproduces the
*relative* behaviours the paper measures — who wins where, which resource
binds, how the tuner's optima differ per device and observational setup.
"""

from repro.hardware.device import DeviceSpec
from repro.hardware.catalog import (
    hd7970,
    xeon_phi_5110p,
    gtx680,
    k20,
    gtx_titan,
    xeon_e5_2620,
    xeon_phi_5110p_openmp,
    paper_accelerators,
    all_devices,
    device_by_name,
)
from repro.hardware.occupancy import OccupancyCalculator, OccupancyResult
from repro.hardware.memory import MemoryModel, TrafficBreakdown
from repro.hardware.compute import ComputeModel
from repro.hardware.latency import latency_hiding_factor
from repro.hardware.metrics import KernelMetrics, PerformanceBound
from repro.hardware.model import PerformanceModel
from repro.hardware.cpu_model import CPUModel
from repro.hardware.calibration import (
    CalibrationResult,
    calibrate_device,
    solve_issue_efficiency,
    verify_catalogue_calibration,
)

__all__ = [
    "DeviceSpec",
    "hd7970",
    "xeon_phi_5110p",
    "gtx680",
    "k20",
    "gtx_titan",
    "xeon_e5_2620",
    "xeon_phi_5110p_openmp",
    "paper_accelerators",
    "all_devices",
    "device_by_name",
    "OccupancyCalculator",
    "OccupancyResult",
    "MemoryModel",
    "TrafficBreakdown",
    "ComputeModel",
    "latency_hiding_factor",
    "KernelMetrics",
    "PerformanceBound",
    "PerformanceModel",
    "CPUModel",
    "CalibrationResult",
    "calibrate_device",
    "solve_issue_efficiency",
    "verify_catalogue_calibration",
]
