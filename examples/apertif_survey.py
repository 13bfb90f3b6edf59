"""Apertif-style multi-beam survey: streaming pipeline + deployment sizing.

The scenario from the paper's introduction: a telescope forms many beams,
each of which must be dedispersed for thousands of trial DMs in real time.
This example:

1. runs a laptop-scale functional replica of the survey — several beams
   streamed chunk by chunk through one tuned plan and the real-time
   candidate search, with pulsars hidden in some beams — and reports the
   detections;
2. sizes the *real* Apertif deployment with the performance model,
   reproducing the paper's "50 GPUs instead of 1,800 CPUs" argument
   (Sec. V-D).

Run with::

    python examples/apertif_survey.py
"""

from repro import DMTrialGrid, ObservationSetup, SyntheticPulsar, hd7970
from repro.astro.source import (
    CompositeSource,
    NoiseSource,
    PulsarSource,
    stream_chunks,
)
from repro.core.plan import DedispersionPlan
from repro.experiments.deployment import run_deployment
from repro.search import StreamingSearch
from repro.utils.rng import RandomStreams


def survey_demo() -> list[str]:
    """A four-beam, laptop-scale survey; returns detection report lines."""
    # Apertif-like band geometry, scaled down ~100x in channels/rate.
    setup = ObservationSetup(
        name="mini-apertif",
        channels=64,
        lowest_frequency=142.0,  # scaled into the strongly-dispersed regime
        channel_bandwidth=0.1,
        samples_per_second=2000,
        samples_per_batch=2000,
    )
    grid = DMTrialGrid(n_dms=32, step=0.5)

    beams = [
        ("B01 (empty)", ()),
        (
            "B02 (pulsar DM 4.0)",
            (SyntheticPulsar(period_seconds=0.08, dm=4.0, amplitude=0.9),),
        ),
        ("B03 (empty)", ()),
        (
            "B04 (pulsar DM 11.5)",
            (SyntheticPulsar(period_seconds=0.15, dm=11.5, amplitude=1.1),),
        ),
    ]

    # One tuned plan serves every beam: same setup, same DM grid.
    plan = DedispersionPlan.create(setup, grid, hd7970())

    report: list[str] = []
    for b, (label, pulsars) in enumerate(beams):
        # Each beam's receiver noise comes from its own named stream.
        source = CompositeSource((
            NoiseSource(1.0, stream=f"noise.b{b:03d}"),
            *(PulsarSource(p) for p in pulsars),
        ))
        chunks, _ = stream_chunks(
            source, setup, grid, 2, RandomStreams(1234), beam_index=b
        )
        # The strongest sifted cluster of the beam's stream, if any.
        cluster = StreamingSearch(plan).run(chunks).best
        verdict = (
            f"candidate at DM {cluster.best.dm:.2f} "
            f"(S/N {cluster.best.snr:.1f})"
            if cluster is not None
            else "no candidate"
        )
        report.append(f"{label:22s} -> {verdict}")
    return report


def main() -> int:
    print("== mini-survey: 4 beams x 2 seconds, 32 trial DMs ==")
    for line in survey_demo():
        print(" ", line)

    print()
    print("== full-scale Apertif deployment (performance model) ==")
    print(run_deployment(n_dms=2000, n_beams=450).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
