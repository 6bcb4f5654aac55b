"""Library-level Volterra study, the body of the ``volterra_study`` workload.

Runs a closed loop around a plant made of four small dual-input Volterra
kernels, estimates its best linear approximation with
``robust_bla_closed_loop``, then averages the plant's output over
process-noise draws of ``evaluate_dual_kernel`` and sets the mean beside the
output of the noise-averaged kernels, ``evaluate_kernel(expected_kernel(...))``.
The arrays the benchmark checks are written as ``.npy`` files under ``--out``.

    PYTHONPATH=src python3 perfbench/volterra_study.py --seed 3 --out DIR [--tiny]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from blakit.estimator import ExperimentRecord, robust_bla_closed_loop
from blakit.signals import MultisineSpec, derive_rng, dft, generate_multisine, generate_noise
from blakit.systems import ClosedLoopConfig, RationalLTI, VolterraPlant, simulate_closed_loop_batch
from blakit.volterra import (
    DualVolterraKernel,
    NoiseMomentModel,
    evaluate_dual_kernel,
    evaluate_kernel,
    expected_kernel,
)

PROCESS_NOISE_VARIANCE = 0.04
OUTPUT_NOISE_VARIANCE = 9e-4
DRAWS = 1000


def plant_kernels() -> tuple[DualVolterraKernel, ...]:
    """Kernels (1,0) with 3 taps, (0,1), (3,0) and the cross term (1,2) with 2 taps."""
    cubic = np.zeros((2, 2, 2))
    cubic[0, 0, 0], cubic[0, 0, 1], cubic[0, 1, 1], cubic[1, 1, 1] = 0.04, 0.02, 0.01, 0.005
    cross = np.zeros((2, 2, 2))
    cross[0, 0, 0], cross[0, 0, 1], cross[1, 1, 1] = 0.5, 0.2, 0.25
    return (
        DualVolterraKernel(1, 0, np.array([0.5, 0.25, 0.1])),
        DualVolterraKernel(0, 1, np.array([1.0, 0.5])),
        DualVolterraKernel(3, 0, cubic),
        DualVolterraKernel(1, 2, cross),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="N=128, M=2 instead of N=1024, M=4")
    args = parser.parse_args(argv)
    n, realizations, periods = (128, 2, 2) if args.tiny else (1024, 4, 2)

    kernels = plant_kernels()
    loop = ClosedLoopConfig(
        plant=VolterraPlant(kernels),
        actuator=RationalLTI(b=[0.9], a=[1.0, -0.3]),
        feedback=RationalLTI(b=[0.0, 0.7]),
        process_noise_variance=PROCESS_NOISE_VARIANCE,
        output_noise_variance=OUTPUT_NOISE_VARIANCE,
    )
    spec = MultisineSpec.flat(n, 1.0, np.arange(1, n // 2), rms=1.0)
    refs = [generate_multisine(spec, derive_rng(args.seed, "reference", m)).tile(periods)
            for m in range(realizations)]
    records = simulate_closed_loop_batch(loop, refs, args.seed)
    record = ExperimentRecord(
        input_spectra=np.stack([np.mean([dft(r.input_measured, period=p).bins
                                         for p in range(periods)], axis=0)
                                for r in records]),
        output_spectra=np.stack([[dft(r.output_measured, period=p).bins
                                  for p in range(periods)] for r in records]),
        excited_bins=spec.excited_bins,
        samples_per_period=n, sampling_frequency=1.0,
        reference_spectra=np.stack([dft(r.reference).bins for r in records]),
        input_spectra_per_period=np.stack([[dft(r.input_measured, period=p).bins
                                            for p in range(periods)] for r in records]),
    )
    estimate = robust_bla_closed_loop(record)

    u = refs[0].period(0)
    outputs = np.empty((DRAWS, n))
    for d in range(DRAWS):
        nx = generate_noise(PROCESS_NOISE_VARIANCE, n, derive_rng(args.seed, "dual_average", d))
        outputs[d] = sum(evaluate_dual_kernel(k, u, nx) for k in kernels)
    model = NoiseMomentModel.white(PROCESS_NOISE_VARIANCE, max_lag=1)
    predicted = sum(evaluate_kernel(expected_kernel(k, model), u) for k in kernels)

    args.out.mkdir(parents=True, exist_ok=True)
    arrays = {
        "g_bla": estimate.g_bla,
        "var_noise": estimate.var_noise,
        "var_total": estimate.var_total,
        "dual_mean": outputs.mean(axis=0),
        "dual_std": outputs.std(axis=0, ddof=1),
        "dual_predicted": predicted,
    }
    for name, array in arrays.items():
        np.save(args.out / f"{name}.npy", array)
    (args.out / "study.json").write_text(json.dumps(
        {"draws": DRAWS, "samples_per_period": n, "realizations": realizations,
         "periods": periods, "warmup_periods": records[0].warmup_periods},
        sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
