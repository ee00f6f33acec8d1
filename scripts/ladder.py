"""One fixed ladder of obsavg CLI jobs, timed end to end and layer by layer.

    OPENBLAS_NUM_THREADS=1 python3 scripts/ladder.py [--tree DIR] [--job KIND] > ladder.jsonl
    OPENBLAS_NUM_THREADS=1 python3 scripts/ladder.py --parent DIR [--workload W] \
        [--seeds S ...] > BENCH.json

The first form runs every instance's argv in-process through `obsavg.cli.main`
of the checkout DIR (default: this one), under obsbench/tracer.py of this
checkout, and prints one JSON line per instance of every job kind, or of
the one `--job` names:
- `twirl` of a seeded random operator file, d=2 at n = 5..9 and d=3 at
  n = 3..6, with the sizes of the input and output files;
- `adversary --trials 1 --grid 8 --tol 1e-10` on pauli-x at n = 4..9 and
  spin1-z at n = 2..6, one job per seed 1..5, with each seed's iterations
  and gap read back from `--csv`;
- `simulate` on pauli-x (state |0>) at n = 20, 200, 360, and on a random
  observable and state (numpy seed 3) at d=3, n = 30, 54 and d=4,
  n = 30, 60, 100.

`wall_s` is the median of `cli.main`'s wall time over the instance's runs
(REPEATS runs of its argv, or one run per adversary seed). Each layer metric
is the median over the runs of what the tracer's `finish_round` reports for
one job, non-zero ones only. Layer times are self times: a layer leaves out
the traced layers it calls, so `adversary.project_s` does not hold the
`linops.tensor_power` and `povm.validate` calls inside the search. `peak_mb`
is the tracemalloc peak of one extra run made first, untraced and untimed,
which also fills the caches the timed runs find.

The second form writes one JSON record: that ladder for DIR (the parent) and
for this checkout (the change), from one `--tree --job` subprocess per side
and job kind, two per side: the kinds in turn, each run parent, change,
change, parent (twirl and simulate) or change, parent, parent, change
(adversary), so a drift of the machine, within a kind too, falls on both
sides. Each side's ladder keeps both rows of every instance; obsbench run
pairs (`obsbench/run.py --workload W --seed S --seconds 30 --trace 0` in each
checkout, alternating which side runs first), one per `--seeds` value on the
claimed `--workload` and one per each of the first three seeds on every other
workload; and one traced run per side (`--seed 1 --seconds 1 --trace 1`) of
the claimed workload, or of every workload when none is claimed.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "obsbench"))
from tracer import Tracer  # noqa: E402

REPEATS = 5
SEEDS = [1, 2, 3, 4, 5]
WORKLOADS = ["adversary", "collective", "large-n", "symmetry"]
BENCH = [sys.executable, "obsbench/run.py", "--seconds"]


def _operator(path: Path, m: np.ndarray) -> str:
    """Write m as an operator file with the standard library; returns its path."""
    path.write_text(json.dumps({"dim": m.shape[0], "re": m.real.tolist(),
                                "im": m.imag.tolist()}), encoding="utf-8")
    return str(path)


# each job kind yields (row fields, argv of each run) per instance, writing its inputs in work
def twirls(work: Path, repeats: int, seeds: list[int]):
    for d, n in [(2, n) for n in range(5, 10)] + [(3, n) for n in range(3, 7)]:
        rng = np.random.default_rng([d, n])
        dim = d**n
        src = _operator(work / f"op-{d}-{n}.json", rng.standard_normal((dim, dim))
                        + 1j * rng.standard_normal((dim, dim)))
        argv = ["twirl", "--input", src, "--local-dim", str(d), "--out", str(work / "out.json")]
        yield ({"job": "twirl", "d": d, "n": n, "bytes_in": Path(src).stat().st_size},
               [argv] * repeats)


def adversaries(work: Path, repeats: int, seeds: list[int]):
    for name, d, copies in (("pauli-x", 2, range(4, 10)), ("spin1-z", 3, range(2, 7))):
        for n in copies:
            yield ({"job": "adversary", "observable": name, "d": d, "n": n, "seeds": seeds},
                   [["adversary", "--observable", name, "--copies", str(n), "--trials", "1",
                     "--grid", "8", "--tol", "1e-10", "--seed", str(seed), "--out",
                     str(work / "out.json"), "--csv", str(work / f"trial-{seed}.csv")]
                    for seed in seeds])


def simulations(work: Path, repeats: int, seeds: list[int]):
    from obsavg.linops import random_density, random_hermitian

    zero = _operator(work / "zero.json", np.diag([1.0, 0.0]))
    ladder = [("pauli-x", zero, 2, n) for n in (20, 200, 360)]
    for d, copies in ((3, (30, 54)), (4, (30, 60, 100))):
        rng = np.random.default_rng(3)
        obs = _operator(work / f"obs-{d}.json", random_hermitian(d, rng))
        rho = _operator(work / f"rho-{d}.json", random_density(d, rng).matrix)
        ladder += [(obs, rho, d, n) for n in copies]
    for obs, rho, d, n in ladder:
        yield ({"job": "simulate", "observable": Path(obs).stem, "d": d, "n": n},
               [["simulate", "--observable", obs, "--state", rho, "--copies", str(n),
                 "--shots", "1000", "--seed", "1", "--out", str(work / "out.json")]] * repeats)


JOBS = {"twirl": twirls, "adversary": adversaries, "simulate": simulations}


def _run(cli_main, argv: list[str]) -> None:
    code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"obsavg {' '.join(argv)} exited {code}")


def measure(cli_main, fields: dict, runs: list[list[str]]) -> dict:
    """One ladder row: the instance's fields, its wall time, layers and peak."""
    tracemalloc.start()
    try:
        _run(cli_main, runs[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracer, walls, layers = Tracer(), [], []
    tracer.install()
    try:
        for argv in runs:
            tracer.begin_job(argv[0])
            start = time.perf_counter()
            _run(cli_main, argv)
            walls.append(time.perf_counter() - start)
            tracer.end_job()
            layers.append(tracer.finish_round([]))
    finally:
        tracer.uninstall()
    row = dict(fields, wall_s=round(statistics.median(walls), 6))
    for name in layers[0]:
        value = statistics.median(layer[name] for layer in layers)
        if value:
            row[name] = round(value, 6)
    row["peak_mb"] = round(peak / 2**20, 3)
    if fields["job"] == "adversary":
        trials = [next(csv.DictReader(Path(run[-1]).read_text(encoding="utf-8").splitlines()))
                  for run in runs]
        row["iterations"] = [int(t["iterations"]) for t in trials]
        row["gaps"] = [float(t["gap"]) if t["gap"] else None for t in trials]
    elif fields["job"] == "twirl":
        row["bytes_out"] = Path(runs[-1][-1]).stat().st_size
    return row


def load_cli(tree: Path):
    """obsavg.cli.main of the checkout tree, never of another one."""
    sys.path.insert(0, str(tree / "src"))
    import obsavg.cli

    if Path(obsavg.cli.__file__).resolve().parents[1] != tree / "src":
        raise RuntimeError(f"obsavg was imported from {obsavg.cli.__file__}, not {tree}")
    return obsavg.cli.main


def machine() -> str:
    return (f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
            f"numpy {np.__version__}")


def _run_json(cmd: list[str], cwd: Path) -> dict:
    """The last stdout line of cmd, run in cwd, as JSON."""
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def ladder_order(kinds) -> list[tuple[str, str]]:
    """(job kind, side) of each ladder subprocess of record, in the order they run."""
    abba = ("parent", "change", "change", "parent")
    baab = ("change", "parent", "parent", "change")
    return [(job, side) for k, job in enumerate(kinds) for side in (abba if k % 2 == 0 else baab)]


def record(parent: Path, workload: str | None, seeds: list[int]) -> dict:
    trees = {"parent": parent.resolve(), "change": ROOT}
    ladders = {"parent": [], "change": []}
    for job, side in ladder_order(JOBS):
        ladders[side] += [json.loads(line) for line in subprocess.run(
            [sys.executable, __file__, "--tree", str(trees[side]), "--job", job],
            capture_output=True, text=True, check=True).stdout.splitlines()]
    jobs = [(w, seed) for w in WORKLOADS for seed in (seeds if w == workload else seeds[:3])]
    pairs = []
    for k, (w, seed) in enumerate(jobs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            result = _run_json(BENCH + ["30", "--workload", w, "--seed", str(seed),
                                        "--trace", "0"], trees[side])
            pairs.append({"workload": w, "seed": seed, "side": side, "result": result})
    trace = {w: {side: _run_json(BENCH + ["1", "--workload", w, "--seed", "1", "--trace", "1"],
                                 tree)["metrics"] for side, tree in trees.items()}
             for w in ([workload] if workload else WORKLOADS)}
    return {"what": "scripts/ladder.py record: the ladder of each side (--tree), obsbench "
                    f"run pairs (claimed workload: {workload}) and one traced run per side; "
                    "parent and change each from a fresh copy",
            "machine": machine(), "ladder": ladders, "pairs": pairs, "trace": trace}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--job", choices=list(JOBS), help="run this job kind only")
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload a gain is claimed on: it gets a pair per seed")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args()
    if args.parent is not None:
        print(json.dumps(record(args.parent, args.workload, args.seeds), indent=1))
        return
    cli_main = load_cli(args.tree.resolve())
    with tempfile.TemporaryDirectory() as work:
        for kind in [args.job] if args.job else JOBS:
            for fields, runs in JOBS[kind](Path(work), REPEATS, SEEDS):
                print(json.dumps(measure(cli_main, fields, runs)), flush=True)


if __name__ == "__main__":
    main()
