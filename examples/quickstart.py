"""Quickstart: synthesize a dispersed pulsar, dedisperse it, detect it.

Runs in a few seconds on a laptop.  Demonstrates the core public API:

1. define an observational setup (a laptop-scale low-frequency band),
2. generate a synthetic observation containing a dispersed pulsar,
3. build an auto-tuned dedispersion plan for a simulated accelerator,
4. execute the brute-force DM search and find the pulsar with the
   pipeline's matched-filter detector.

Run with::

    python examples/quickstart.py
"""

from repro import (
    CompositeSource,
    DMTrialGrid,
    MatchedFilterDetector,
    NoiseSource,
    ObservationSetup,
    PulsarSource,
    RandomStreams,
    SyntheticPulsar,
    dedisperse,
    hd7970,
)
from repro.astro.dispersion import max_delay_samples


def main() -> int:
    # 1. A small observing band: LOFAR-like frequencies give strong,
    #    clearly separated dispersion delays.
    setup = ObservationSetup(
        name="quickstart",
        channels=64,
        lowest_frequency=138.0,
        channel_bandwidth=0.1,
        samples_per_second=2000,
        samples_per_batch=2000,
    )
    grid = DMTrialGrid(n_dms=32, step=0.5)
    print(f"setup : {setup.describe()}")
    print(f"search: {grid.n_dms} trial DMs, 0 to {grid.last} pc/cm^3")

    # 2. One second of noisy data hosting a pulsar at DM 7.5, via the
    #    unified seeded SignalSource API (the truth half is what the
    #    repro.scenarios regression matrix scores against).
    pulsar = SyntheticPulsar(period_seconds=0.1, dm=7.5, amplitude=1.0)
    source = CompositeSource((NoiseSource(sigma=1.0), PulsarSource(pulsar)))
    n_samples = setup.samples_per_second + max_delay_samples(setup, grid.last)
    data, truth = source.generate(setup, n_samples, RandomStreams(42))
    print(f"truth : {[c.as_dict() for c in truth.components]}")
    print(f"input : {data.shape[0]} channels x {data.shape[1]} samples")

    # 3 + 4. Auto-tune for the paper's best device and run the search.
    output, plan = dedisperse(data, setup, grid, device=hd7970())
    print()
    print(plan.describe())
    print()

    # Each trial's best boxcar match; the brightest trial is the pulsar.
    snrs, widths, _offsets = MatchedFilterDetector().best_per_trial(output)
    best = int(snrs.argmax())
    dm = grid.values[best]
    print(f"injected : DM {pulsar.dm:.2f}")
    print(
        f"detected : DM {dm:.2f} "
        f"(S/N {snrs[best]:.1f}, boxcar width {widths[best]})"
    )
    ok = abs(dm - pulsar.dm) <= grid.step
    print("result   :", "pulsar recovered" if ok else "MISSED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
