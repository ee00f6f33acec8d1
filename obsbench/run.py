"""Run one obsavg benchmark workload and print its metrics as one JSON line.

    python3 obsbench/run.py --workload collective --seed 1 --seconds 30 --trace 0

The program is the `obsavg` package under `src/` of the checkout this file
sits in, driven in-process through `obsavg.cli.main(argv)`. A run writes
its seeded inputs, measures set-up in fresh interpreters, runs one untimed
warm-up job, then repeats the workload's whole job list while another round
still fits in `--seconds` (at least one round). Every job's output is checked
against the independent references in reference.py. With `--trace 0` it
prints the end-to-end metrics; with `--trace 1` it wraps the program's
public functions (tracer.py) and prints the per-layer metrics instead.
"""
from __future__ import annotations

import os

# one BLAS thread: the plain single-threaded baseline, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".obsbench"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# a fresh interpreter: import obsavg, run the warm-up job, report, exit
SETUP_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import obsavg, obsavg.cli
code = obsavg.cli.main(json.loads(sys.argv[2]))
print("ready", code, flush=True)
"""


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no program, failed warm-up)."""


def load_program():
    """Import obsavg from this checkout's src/, never from anywhere else."""
    if not (SRC / "obsavg" / "__init__.py").is_file():
        raise BenchmarkError(f"no obsavg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import obsavg
    import obsavg.cli

    if Path(obsavg.__file__).resolve().parent != SRC / "obsavg":
        raise BenchmarkError(f"obsavg was imported from {obsavg.__file__}, not {SRC}")
    return obsavg.cli.main


def measure_setup(warmup: workloads.Job) -> float:
    """Median seconds from interpreter start to obsavg imported plus warm-up run."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(warmup.argv)],
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                times.append(time.perf_counter() - start)
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.split() != ["ready", "0"]:
            raise BenchmarkError(f"set-up child did not finish the warm-up job: {line!r}")
    return statistics.median(times)


class Round:
    """Timings, failures and check results of one pass over the job list."""

    def __init__(self):
        self.job_seconds: list[float] = []
        self.small_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_out = 0
        self.iterations = 0
        self.small_spans: list[int] = []


def run_round(jobs: list[workloads.Job], cli_main, tracer=None) -> Round:
    result = Round()
    for job in jobs:
        for path in job.outputs:
            path.unlink(missing_ok=True)
        result.attempted += 1
        if tracer is not None:
            tracer.begin_job(job.label)
        start = time.perf_counter()
        try:
            code = cli_main(job.argv)
        except Exception as exc:  # a crash is one failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            span = tracer.end_job()
            if job.small:
                result.small_spans.append(span)
        result.job_seconds.append(elapsed)
        if job.small:
            result.small_seconds.append(elapsed)
        if code != 0:
            result.failed += 1
            print(f"failed: {job.label}: {code}", file=sys.stderr)
            continue
        result.problems.extend(f"{job.label}: {p}" for p in job.check())
        result.bytes_out += sum(p.stat().st_size for p in job.outputs)
        if job.trial_csv is not None:
            rows = reference.trial_rows(job.trial_csv.read_text(encoding="utf-8"))
            result.iterations += sum(int(row["iterations"]) for row in rows)
    return result


def run_rounds(jobs, cli_main, seconds: float, tracer=None) -> tuple[list[Round], list[dict]]:
    """Whole rounds while the next one is expected to end within `seconds`."""
    rounds, layers, durations = [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(run_round(jobs, cli_main, tracer))
        if tracer is not None:
            layers.append(tracer.finish_round(rounds[-1].small_spans))
        durations.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return rounds, layers


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (statistics.median(sum(r.job_seconds) for r in rounds), "s"),
        "small_job_ms": (1e3 * statistics.median(t for r in rounds for t in r.small_seconds), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


UNITS = {"_s": "s", "_ms": "ms", "_mb": "MB", "bytes_out": "MB"}


def per_layer(rounds: list[Round], layers: list[dict], overhead_per_call: float) -> dict:
    """Median over traced rounds of every layer metric, plus output-side counts."""
    for layer, r in zip(layers, rounds):
        layer["jsonio.bytes_out"] = r.bytes_out / 2.0**20
        layer["adversary.iterations"] = r.iterations
        if "adversary.project_s" in layer:
            layer["adversary.iteration_ms"] = (
                1e3 * layer["adversary.project_s"] / r.iterations if r.iterations else 0.0)
        layer["trace.wall_s"] = sum(r.job_seconds)
        layer["trace.overhead_ms"] = 1e3 * layer["trace.calls"] * overhead_per_call
    metrics = {}
    for name in layers[0]:
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = (statistics.median(layer[name] for layer in layers), unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main = load_program()
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs, warmup = workloads.build(args.workload, args.seed, workdir)
        share = workloads.repeat_share(jobs)
        print(f"{args.workload}: {len(jobs)} jobs per round, "
              f"{sum(j.small for j in jobs)} small, {share:.0%} repeat a (d, n)",
              file=sys.stderr)
        setup_s = measure_setup(warmup) if not args.trace else None
        if cli_main(warmup.argv) != 0 or warmup.check():
            raise BenchmarkError("the warm-up job failed")
        tracer = None
        if args.trace:
            overhead_per_call = tracing.wrapper_cost()
            tracer = tracing.Tracer()
            tracer.install()
        rounds, layers = run_rounds(jobs, cli_main, args.seconds, tracer)
        if tracer is not None:
            tracer.uninstall()
            tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
            metrics = per_layer(rounds, layers, overhead_per_call)
        else:
            metrics = end_to_end(rounds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"obsbench: {err}", file=sys.stderr)
        sys.exit(2)
