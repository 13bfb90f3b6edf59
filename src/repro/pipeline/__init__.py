"""Real-time survey sizing: multi-beam packing and deployment (Sec. V-D)."""

from repro.pipeline.multibeam import BeamAssignment, MultiBeamScheduler
from repro.pipeline.realtime import DeploymentPlan, accelerators_needed

__all__ = [
    "BeamAssignment",
    "MultiBeamScheduler",
    "accelerators_needed",
    "DeploymentPlan",
]
