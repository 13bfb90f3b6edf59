"""Ingesting 8-bit telescope data: quantisation, files, and the AI bound.

Real back-ends write 8-bit filterbank files.  This example walks that
path end to end: synthesize an observation, digitise it to 8 bits, write
and re-read a SIGPROC ``.fil``, dedisperse the recovered stream, and show
that (a) the detection is unchanged and (b) the narrower input lifts the
paper's Eq. 2 arithmetic-intensity bound — with the model quantifying
what that buys on the memory-bound LOFAR setup.

Run with::

    python examples/quantized_ingest.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    CompositeSource,
    DMTrialGrid,
    MatchedFilterDetector,
    NoiseSource,
    ObservationSetup,
    PulsarSource,
    RandomStreams,
    SyntheticPulsar,
)
from repro.astro.dispersion import max_delay_samples
from repro.astro.filterbank import read_filterbank, write_filterbank
from repro.astro.quantization import (
    ai_bound_with_input_bytes,
    quantize,
    snr_efficiency,
)
from repro.baselines.cpu_reference import dedisperse_vectorized
from repro.experiments.ablation import run_ablation_quantization


def main() -> int:
    setup = ObservationSetup(
        name="ingest-demo",
        channels=32,
        lowest_frequency=138.0,
        channel_bandwidth=0.2,
        samples_per_second=1000,
        samples_per_batch=1000,
    )
    grid = DMTrialGrid(16, step=1.0)
    source = CompositeSource((
        NoiseSource(sigma=1.0),
        PulsarSource(SyntheticPulsar(0.25, dm=9.0, amplitude=1.5)),
    ))
    n_samples = setup.samples_per_second + max_delay_samples(setup, grid.last)
    data, _truth = source.generate(setup, n_samples, RandomStreams(11))

    # Digitise and measure what the 8-bit representation costs.
    q = quantize(data, nbits=8)
    error = q.dequantize() - data
    print(
        f"8-bit digitisation: step {q.step:.4f}, rms error "
        f"{float(np.std(error)):.4f} "
        f"(theoretical S/N efficiency {snr_efficiency(8):.3f})"
    )

    # Through a SIGPROC file and back.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs8.fil"
        write_filterbank(path, data, setup, nbits=8)
        size = path.stat().st_size
        header, loaded = read_filterbank(path)
        print(
            f"filterbank: {size / 1e6:.2f} MB at 8 bits "
            f"(float32 would be ~{size * 4 / 1e6:.2f} MB)"
        )
        rebuilt = header.to_setup()
        detector = MatchedFilterDetector()

        for label, stream in (("float32", data), ("8-bit file", loaded)):
            plane = dedisperse_vectorized(stream, rebuilt, grid, 1000)
            snrs, _widths, _offsets = detector.best_per_trial(plane)
            best = int(snrs.argmax())
            print(
                f"  {label:11s} -> DM {grid.values[best]:.1f} "
                f"(S/N {snrs[best]:.1f})"
            )

    print(
        f"\nEq. 2 AI bound: {ai_bound_with_input_bytes(4.0):.2f} FLOP/B "
        f"at float32, {ai_bound_with_input_bytes(1.0):.2f} at 8 bits"
    )
    print("\nmodel-level impact (tuned configurations, 256 DMs):")
    print(run_ablation_quantization(n_dms=256).render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
