"""Benchmark of blakit's best-linear-approximation experiments.

Run from the root of a source checkout (see perfbench/README.md):

    python3 perfbench/run.py --workload open_demo --seed 1 --seconds 50 --trace 0

Each workload is a closed loop with one client: the next experiment starts
when the previous one has exited.  An experiment runs in fresh Python
processes against ``src/`` of the checkout and is checked for correctness;
a failed experiment is counted, never retried or dropped.  Experiments come
in pairs that share a seed, and the two of a pair must write byte-identical
outputs.  A fixed reference task (perfbench/reference.py) runs in a child
of its own and is timed before the first experiment and after each one;
``experiment_rel`` is an experiment's wall time over the mean of the two
passes around it.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced experiments alternate and the result holds
the per-layer metrics of the traced ones.  The last line of standard output
is the JSON result; the line before it holds the details (per-experiment
digests and samples, machine and versions), which perfbench/compare.py reads.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import pathlib
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

from tracer import EXACT, PER_LAYER_UNITS, layer_metrics

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
PYTHON = sys.executable

END_TO_END_UNITS = {
    "experiment_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "B",
    "fraction_in_band": "ratio",
    "pass_fraction": "ratio",
}

SETUP_IMPORTS = 5            # timed imports of blakit.cli per run, after one warm-up
MIN_EXPERIMENTS = 2          # one same-seed pair, also when the window is short
RUN_LIMIT_S = 170.0          # children still running this long after the start are killed
MIN_FRACTION_IN_BAND = 0.95
# The dual-kernel mean of `volterra_study` must lie within this many standard
# errors of the contracted-kernel output at every sample.  For a Gaussian
# mean the two-sided tail beyond 6 is 2.0e-9, so over 1024 samples a correct
# program fails with probability about 2e-6; the margin to 1e-3 absorbs the
# skew of the quadratic noise terms and the estimated standard deviation.
DUAL_BAND_SE = 6.0

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
_NON_FINITE = re.compile(rb"(?:^|[,:\s\[-])(?:nan|inf)", re.MULTILINE)


class SetupError(RuntimeError):
    """The program cannot be run from this checkout."""


def child_env() -> dict:
    """Environment of the experiments: the checkout's sources, one thread each.

    Bytecode caches are allowed whatever the caller's setting, so the import
    is timed as an installed package's would be.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update({name: "1" for name in THREAD_VARIABLES})
    return env


@dataclass
class Process:
    code: int
    start: float
    end: float
    rss_mb: float
    cpu_s: float


def spawn(argv, log_path: pathlib.Path, env: dict, kill_at: float) -> Process:
    """Run one child to completion; peak RSS comes from its own rusage."""
    with open(log_path, "ab") as log:
        start = time.monotonic()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                 stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(kill_at - start, 0.0), child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    child.returncode = os.waitstatus_to_exitcode(status)
    return Process(code=child.returncode, start=start, end=end,
                   rss_mb=usage.ru_maxrss * 1024 / 1e6,
                   cpu_s=usage.ru_utime + usage.ru_stime)


def time_import(env: dict, kill_at: float) -> float:
    """Seconds from starting a fresh interpreter to ``import blakit.cli`` done."""
    start = time.monotonic()
    done = subprocess.run(
        [PYTHON, "-c", "import time, blakit.cli; print(repr(time.monotonic()))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(kill_at - start, 1.0))
    if done.returncode != 0:
        raise SetupError(f"import blakit.cli failed:\n{done.stderr[-2000:]}")
    return float(done.stdout.split()[-1]) - start


class Reference:
    """perfbench/reference.py in a child of its own, timed on request.

    The task needs numpy and scipy, which stay out of this process: a child
    started from here reports a peak RSS no smaller than this process's,
    because exec keeps the high-water mark.
    """

    def __init__(self, env: dict, kill_at: float):
        self.child = subprocess.Popen([PYTHON, str(HERE / "reference.py")], cwd=ROOT, env=env,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(max(kill_at - time.monotonic(), 0.0), self.child.kill)
        self.watchdog.start()

    def time(self) -> float:
        """Seconds one pass of the reference task takes."""
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        reply = self.child.stdout.readline()
        if not reply:
            raise SetupError(f"reference task exited with code {self.child.wait()}")
        return float(reply)

    def close(self) -> None:
        try:
            self.child.stdin.close()
            self.child.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.child.kill()
            self.child.wait()
        finally:
            self.watchdog.cancel()
            self.child.stdout.close()


# ---------------------------------------------------------------------------
# Output checks


def file_digests(out: pathlib.Path) -> dict[str, str]:
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def tree_bytes(out: pathlib.Path) -> int:
    return sum(path.stat().st_size for path in out.rglob("*") if path.is_file())


def bla_csv_finite(path: pathlib.Path) -> bool:
    """Defined rows of a BLA result CSV hold only finite numbers."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return all(math.isfinite(float(value)) for row in rows if row[-1] == "1"
               for value in row[1:6])


@dataclass
class Check:
    fraction_in_band: float = 0.0
    digest: str = ""
    output_bytes: int = 0
    reasons: list[str] = field(default_factory=list)


def check_cli_outputs(out: pathlib.Path) -> Check:
    """Gate for the CLI workloads: summary pass, band fraction, hashes, finite values."""
    check = Check(output_bytes=tree_bytes(out) if out.exists() else 0)
    summary_path = out / "summary.json"
    if not summary_path.exists():
        check.reasons.append("no summary.json")
        return check
    raw = summary_path.read_bytes()
    check.digest = hashlib.sha256(raw).hexdigest()
    summary = json.loads(raw)
    if summary.get("pass") is not True:
        check.reasons.append("summary.json pass is not true")
    fraction = summary.get("analytic_comparison", {}).get("fraction_in_band")
    check.fraction_in_band = float(fraction) if fraction is not None else 0.0
    if not check.fraction_in_band >= MIN_FRACTION_IN_BAND:
        check.reasons.append(f"fraction_in_band {fraction} < {MIN_FRACTION_IN_BAND}")
    files = file_digests(out)
    files.pop("summary.json")
    if files != summary.get("files"):
        check.reasons.append("summary.json files map does not match the outputs")
    for name in files:
        path = out / name
        finite = (bla_csv_finite(path) if name == "bla.csv"
                  else not _NON_FINITE.search(path.read_bytes().lower()))
        if not finite:
            check.reasons.append(f"non-finite value in {name}")
    return check


def check_volterra_outputs(out: pathlib.Path) -> Check:
    """Gate for `volterra_study`: finite arrays, dual-kernel mean inside its band."""
    import numpy as np

    check = Check(output_bytes=tree_bytes(out) if out.exists() else 0)
    try:
        study = json.loads((out / "study.json").read_text())
        arrays = {p.stem: np.load(p) for p in sorted(out.glob("*.npy"))}
        mean, std, predicted = (arrays["dual_mean"], arrays["dual_std"],
                                arrays["dual_predicted"])
        g_bla = arrays["g_bla"]
    except (OSError, KeyError, ValueError) as exc:
        check.reasons.append(f"missing or unreadable output: {exc}")
        return check
    digest = hashlib.sha256()
    for name, hexdigest in file_digests(out).items():
        digest.update(f"{name}:{hexdigest}\n".encode())
    check.digest = digest.hexdigest()
    defined = np.isfinite(g_bla)
    if not defined.any():
        check.reasons.append("no defined BLA bin")
    for name, array in arrays.items():
        values = array[defined] if array.shape == g_bla.shape else array
        if not np.isfinite(values).all():
            check.reasons.append(f"non-finite value in {name}")
    band = DUAL_BAND_SE * std / math.sqrt(study["draws"]) + 1e-12 * (1 + np.abs(predicted))
    in_band = np.abs(mean - predicted) <= band
    check.fraction_in_band = float(in_band.mean())
    if not in_band.all():
        check.reasons.append(f"dual-kernel mean outside its band at {int((~in_band).sum())} "
                             f"samples")
    return check


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One experiment kind: the processes it runs and the gate on its outputs."""

    name = ""
    target = "blakit.cli"  # module whose main() the traced child runs

    def __init__(self, work: pathlib.Path, tiny: bool):
        self.work = work
        self.tiny = tiny

    def steps(self, out: pathlib.Path, seed: int) -> list[list[str]]:
        """Argument lists of the experiment's processes, after the entry point."""
        raise NotImplementedError

    def untraced(self, args: list[str]) -> list[str]:
        return [PYTHON, "-m", self.target, *args]

    def check(self, out: pathlib.Path) -> Check:
        return check_cli_outputs(out)


class OpenDemo(Workload):
    """`blakit demo-hammerstein`: N=4096, M=10, P=2, 1000 decomposition draws."""

    name = "open_demo"

    def steps(self, out, seed):
        size = ["--samples-per-period", "256"] if self.tiny else []
        return [["demo-hammerstein", "--out", str(out), "--seed", str(seed),
                 "--workers", "1", *size]]


class VolterraStudy(Workload):
    """perfbench/volterra_study.py: Volterra closed loop plus dual-kernel average."""

    name = "volterra_study"
    target = "volterra_study"

    def steps(self, out, seed):
        return [["--seed", str(seed), "--out", str(out), *(["--tiny"] if self.tiny else [])]]

    def untraced(self, args):
        return [PYTHON, str(HERE / "volterra_study.py"), *args]

    def check(self, out):
        return check_volterra_outputs(out)


WORKLOADS = {cls.name: cls for cls in (OpenDemo, VolterraStudy)}


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Experiment:
    index: int
    start: float
    seed: int
    traced: bool
    wall_s: float
    rss_mb: float
    cpu_s: float
    codes: list[int]
    check: Check
    layers: dict | None = None
    reference_s: float = math.nan  # mean of the reference passes just before and after

    @property
    def relative(self) -> float:
        return self.wall_s / self.reference_s

    @property
    def ok(self) -> bool:
        return not self.check.reasons

    def details(self) -> dict:
        return {"index": self.index, "start": self.start, "seed": self.seed,
                "traced": self.traced, "wall_s": self.wall_s, "reference_s": self.reference_s,
                "peak_rss_mb": self.rss_mb, "cpu_s": self.cpu_s,
                "exit_codes": self.codes, "output_bytes": self.check.output_bytes,
                "fraction_in_band": self.check.fraction_in_band,
                "digest": self.check.digest, "failures": self.check.reasons}


def experiment_seed(seed: int, pair: int) -> int:
    return (seed * 1000 + pair) % 2 ** 64


def run_experiment(workload: Workload, index: int, seed: int, traced: bool,
                   env: dict, kill_at: float) -> Experiment:
    out = workload.work / f"exp{index:03d}"
    log = workload.work / f"exp{index:03d}.log"
    processes, dumps = [], []
    for step, args in enumerate(workload.steps(out, seed)):
        if traced:
            spans = workload.work / f"exp{index:03d}.{step}.spans.json"
            argv = [PYTHON, str(HERE / "traced.py"), str(spans), workload.target, *args]
        else:
            argv = workload.untraced(args)
        proc = spawn(argv, log, env, kill_at)
        processes.append(proc)
        if traced and spans.exists():
            dumps.append((proc.start, proc.end, json.loads(spans.read_text())))
        if proc.code != 0:
            break
    try:
        check = workload.check(out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        check = Check(reasons=[f"unreadable outputs: {exc!r}"])
    codes = [p.code for p in processes]
    if any(codes):
        check.reasons.insert(0, f"exit codes {codes}")
    if check.reasons:
        sys.stderr.write(f"experiment {index} (seed {seed}) failed: {check.reasons}\n"
                         + log.read_text(errors="replace")[-3000:])
    experiment = Experiment(
        index=index, start=processes[0].start, seed=seed, traced=traced,
        wall_s=processes[-1].end - processes[0].start,
        rss_mb=max(p.rss_mb for p in processes),
        cpu_s=sum(p.cpu_s for p in processes),
        codes=codes, check=check,
        layers=layer_metrics(dumps) if traced else None,
    )
    shutil.rmtree(out, ignore_errors=True)
    return experiment


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions}


def tail_percentile(walls: list[float]) -> dict:
    """The highest percentile above the median with at least ten samples beyond it."""
    beyond = 10
    if len(walls) < 2 * beyond:
        return {"tail_percentile": None}
    percent = math.floor(100 * (1 - beyond / len(walls)))
    value = statistics.quantiles(walls, n=100)[percent - 1]
    return {"tail_percentile": percent, f"p{percent}": value}


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Set up, run experiments for ``seconds``, and return the result and details."""
    kill_at = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "blakit" / "cli.py").is_file():
        raise SetupError(f"no blakit sources under {SRC}; run from a source checkout")
    env = child_env()
    reference = Reference(env, kill_at)
    work = HERE / ".work" / f"{workload_name}-{os.getpid()}"
    try:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = WORKLOADS[workload_name](work, tiny)
        time_import(env, kill_at)  # fills the bytecode caches; not counted
        setup = [time_import(env, kill_at) for _ in range(SETUP_IMPORTS)]
        reference.time()  # warm-up; not counted

        experiments: list[Experiment] = []
        cycles: list[float] = []  # an experiment plus the reference pass after it
        deadline = time.monotonic() + seconds
        before = reference.time()
        while len(experiments) < MIN_EXPERIMENTS or (
                time.monotonic() + statistics.median(cycles) <= deadline):
            index = len(experiments)
            started = time.monotonic()
            experiments.append(run_experiment(
                workload, index, experiment_seed(seed, index // 2),
                traced=trace and index % 2 == 1, env=env, kill_at=kill_at))
            after = reference.time()
            cycles.append(time.monotonic() - started)
            experiments[index].reference_s = (before + after) / 2
            before = after
            previous = experiments[index - 1] if index % 2 else None
            current = experiments[index]
            if previous and current.ok and previous.ok and \
                    current.check.digest != previous.check.digest:
                current.check.reasons.append(
                    f"outputs differ from experiment {previous.index} with the same seed")
    finally:
        reference.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = sum(not e.ok for e in experiments)
    untraced = [e for e in experiments if not e.traced]
    walls = sorted(e.wall_s for e in untraced)
    first = experiments[0]
    if trace:
        traced = [e for e in experiments if e.traced]
        metrics = {}
        for name in PER_LAYER_UNITS:
            if name == "trace.overhead_frac":
                value = statistics.median(e.wall_s for e in traced) / statistics.median(walls) - 1
            elif name in EXACT:
                value = traced[0].layers[name]
            else:
                value = statistics.median(e.layers[name] for e in traced)
            metrics[name] = {"value": value, "unit": PER_LAYER_UNITS[name]}
    else:
        values = {
            "experiment_rel": statistics.median(e.relative for e in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(e.rss_mb for e in untraced),
            "output_bytes": first.check.output_bytes,
            "fraction_in_band": first.check.fraction_in_band,
            "pass_fraction": (len(experiments) - failed) / len(experiments),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    details = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "machine": machine_info(),
        "setup_s_samples": setup,
        "experiment_s": {"samples": len(walls), "median": statistics.median(walls),
                         "max": walls[-1], **tail_percentile(walls)},
        "digests": {str(e.seed): e.check.digest for e in experiments if e.ok},
        "experiments": [e.details() for e in experiments],
    }
    result = {"correct": failed == 0, "attempted": len(experiments), "failed": failed,
              "metrics": metrics}
    return {"details": details, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="blakit benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problem sizes, for the self-test")
    args = parser.parse_args(argv)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (SetupError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": run["details"]}, sort_keys=True))
    print(json.dumps(run["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
