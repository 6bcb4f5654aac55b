"""Fixed reference task that the benchmark times beside every experiment.

On a shared host the speed a process gets drifts by tens of percent over
minutes, so two runs of the same program, minutes apart, report wall times
that differ by more than most changes worth measuring.  The benchmark
therefore times this task right before and after each experiment and
reports the experiment's wall time in units of the task's, which cancels
the drift they share.

The task mixes what the experiments spend their time on: a per-sample
Python loop of small numpy operations, FFTs and IIR filtering of a long
array, formatting floats as text, and starting a fresh interpreter that
imports numpy.  It uses numpy and scipy only, never blakit, so no change to
the program changes it.  A large allocation was left out: its time did not
follow the experiments' at all.

Run as a script, it serves the benchmark: one pass per line read from
standard input, answered with the pass's time in seconds on standard output.
"""

from __future__ import annotations

import io
import subprocess
import sys
import time

import numpy as np
from scipy import signal

LOOP_STEPS = 20_000
FILTER_LENGTH = 1 << 18
FILTER_PASSES = 10
FORMATTED_VALUES = 60_000


def run_reference() -> float:
    """Seconds one pass of the reference task takes."""
    start = time.perf_counter()
    state = np.zeros(3)
    gains = np.array([1.0, 0.1, 0.01])
    energy = 0.0
    for step in range(LOOP_STEPS):
        state = 0.5 * state + gains * (step % 7)
        energy += float(state @ state)
    x = np.random.default_rng(0).standard_normal(FILTER_LENGTH)
    for _ in range(FILTER_PASSES):
        x = np.fft.irfft(np.fft.rfft(x), FILTER_LENGTH)
        x = signal.lfilter([0.6, 0.3], [1.0, -0.4], x)
    text = io.StringIO()
    for value in x[:FORMATTED_VALUES].tolist():
        text.write(f"{value:.17g}\n")
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - start
    if not (np.isfinite(energy) and np.isfinite(x).all()
            and text.getvalue().count("\n") == FORMATTED_VALUES):
        raise ArithmeticError("reference task produced a wrong result")
    return elapsed


def serve(requests, replies) -> None:
    for _ in requests:
        replies.write(f"{run_reference()!r}\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
