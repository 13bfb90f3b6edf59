"""Real-time survey sizing: multi-beam packing, fleets, deployment."""

from repro.pipeline.multibeam import BeamAssignment, MultiBeamScheduler
from repro.pipeline.fleet import FleetDevice, FleetPlan, execute_plan, plan_fleet
from repro.pipeline.realtime import (
    RealtimeReport,
    realtime_report,
    accelerators_needed,
    apertif_deployment,
    execute_deployment,
    DeploymentPlan,
)

__all__ = [
    "FleetDevice",
    "FleetPlan",
    "execute_plan",
    "plan_fleet",
    "BeamAssignment",
    "MultiBeamScheduler",
    "RealtimeReport",
    "realtime_report",
    "accelerators_needed",
    "apertif_deployment",
    "execute_deployment",
    "DeploymentPlan",
]
