"""Replay a fixed list of `obsavg` argv in-process and check their bytes against a table.

    python3 scripts/byte_check.py [--write]

Every argv runs through `obsavg.cli.main` of this checkout in one temporary
work directory (the current directory while it runs), with the same input
files, written with numpy and the standard library from fixed seeds: three
single-copy states, diagonal canonical POVMs of pauli-z on 3 copies and
spin1-z on 2, the first with its values shifted (biased), a random dense POVM
on two qubits, an incomplete POVM and four malformed POVM files (a
non-numeric value, a short 're' row, no 'outcomes', and the literal 1e400),
and random complex operators of dim 4 and 9 for twirl.
The sha256 of stdout, of stderr, the exit code and the sha256 of every --out
and --csv file are compared with the committed table tests/byte_table.json,
which also names the numpy version and the machine it was written on. Usage
errors wrap at obsavg's fixed help width whatever COLUMNS says, so the replay
leaves the environment alone. Prints one JSON record and exits 1 if any argv
differs; with --write it rewrites the table instead.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "byte_table.json"


def _adversary(observable: str, copies: int, *flags: str, trials: int = 3) -> list[str]:
    return ["adversary", "--observable", observable, "--copies", str(copies),
            "--trials", str(trials), *flags]


ARGV = [
    # adversary rows, non-converged rows among them
    _adversary("pauli-z", 2, "--grid", "8", "--seed", "1"),
    _adversary("pauli-x", 4, "--grid", "5", "--seed", "7", "--tol", "1e-10"),
    _adversary("spin1-z", 3, "--grid", "6", "--seed", "11"),
    _adversary("pauli-y", 5, "--seed", "3"),
    _adversary("pauli-z", 2, "--grid=-1,-0.5,0,0.5,1", "--seed", "2"),
    _adversary("spin1-z", 2, "--grid=-1,-0.2,0.3,1", "--seed", "5"),
    _adversary("pauli-x", 3, "--grid", "8", "--max-iterations", "3"),
    _adversary("spin1-z", 2, "--grid", "5", "--max-iterations", "10", "--tol", "1e-12"),
    _adversary("pauli-x", 3, "--grid", "8", "--seed", "0", "--max-iterations", "12",
               trials=6),
    # grid errors
    *[_adversary("pauli-z", 2, grid, trials=1)
      for grid in ["--grid=0.0,0.5", "--grid=-2,0,2", "--grid=,", "--grid=nan,0",
                   "--grid=-1,inf,1", "--grid=1", "--grid=0.5"]],
    # sample
    ["sample", "--povm", "z3.json", "--state", "plus.json", "--shots", "1000", "--seed", "7"],
    ["sample", "--povm", "s2.json", "--state", "rho3.json", "--shots", "500", "--seed", "2"],
    ["sample", "--povm", "z3.json", "--state", "rho2.json", "--shots", "0"],
    ["sample", "--povm", "z3.json", "--state", "plus.json", "--shots", "100000", "--seed", "3"],
    # canonical with shots
    ["canonical", "--observable", "pauli-z", "--state", "plus.json", "--copies", "4",
     "--shots", "1000", "--seed", "1"],
    ["canonical", "--observable", "pauli-x", "--state", "rho2.json", "--copies", "7",
     "--shots", "500", "--seed", "2"],
    ["canonical", "--observable", "spin1-z", "--state", "rho3.json", "--copies", "5",
     "--shots", "2000", "--seed", "4"],
    ["canonical", "--observable", "spin1-z", "--state", "rho3.json", "--copies", "40",
     "--shots", "10000", "--seed", "5", "--merge-tol", "1e-6"],
    ["canonical", "--observable", "pauli-y", "--state", "rho2.json", "--copies", "300",
     "--shots", "100", "--seed", "9"],
    # simulate
    ["simulate", "--observable", "pauli-z", "--state", "plus.json", "--copies", "4",
     "--shots", "1000", "--seed", "1"],
    ["simulate", "--observable", "pauli-x", "--state", "rho2.json", "--copies", "9",
     "--shots", "2000", "--seed", "2"],
    ["simulate", "--observable", "spin1-z", "--state", "rho3.json", "--copies", "6",
     "--shots", "500", "--seed", "3"],
    ["simulate", "--observable", "pauli-y", "--state", "rho2.json", "--copies", "200",
     "--shots", "300", "--seed", "5"],
    # verify-povm, error and sample on POVM files
    ["verify-povm", "--povm", "z3.json"],
    ["verify-povm", "--povm", "z3.json", "--observable", "pauli-z"],
    ["verify-povm", "--povm", "z3.json", "--observable", "pauli-z", "--copies", "3"],
    ["verify-povm", "--povm", "s2.json", "--observable", "spin1-z"],
    ["verify-povm", "--povm", "biased.json", "--observable", "pauli-z"],
    ["verify-povm", "--povm", "random.json", "--observable", "pauli-x"],
    ["verify-povm", "--povm", "incomplete.json"],
    ["verify-povm", "--povm", "z3.json", "--observable", "spin1-z"],
    ["error", "--povm", "z3.json", "--observable", "pauli-z", "--state", "plus.json"],
    ["error", "--povm", "z3.json", "--observable", "pauli-z", "--state", "rho2.json"],
    ["error", "--povm", "s2.json", "--observable", "spin1-z", "--state", "rho3.json"],
    ["error", "--povm", "biased.json", "--observable", "pauli-z", "--state", "rho2.json"],
    ["error", "--povm", "random.json", "--observable", "pauli-x", "--state", "rho2.json"],
    ["error", "--povm", "incomplete.json", "--observable", "pauli-z", "--state", "plus.json"],
    ["sample", "--povm", "random.json", "--state", "rho2.json", "--shots", "1000", "--seed", "5"],
    ["sample", "--povm", "incomplete.json", "--state", "plus.json", "--shots", "10"],
    # malformed POVM files
    *[["verify-povm", "--povm", name] for name in
      ["bad_value.json", "short_row.json", "no_outcomes.json", "huge_value.json"]],
    ["error", "--povm", "short_row.json", "--observable", "pauli-z", "--state", "plus.json"],
    ["sample", "--povm", "huge_value.json", "--state", "plus.json", "--shots", "10"],
    # operator grids: theta, and twirls of random operators at d=2 and d=3
    ["theta", "--observable", "pauli-x", "--copies", "2"],
    ["twirl", "--input", "op4.json", "--local-dim", "2"],
    ["twirl", "--input", "op9.json", "--local-dim", "3"],
]
# where the command has them, --out and --csv go to files of their own
_WRITES = {"adversary": ["--csv"], "sample": ["--csv"], "canonical": ["--csv"],
           "simulate": ["--csv"]}


def _with_files(k: int, argv: list[str]) -> list[str]:
    """argv plus --out (every third argv) and its command's --csv, named by k."""
    extra = ["--out", f"out_{k}.json"] if k % 3 == 0 else []
    return argv + extra + [x for flag in _WRITES.get(argv[0], []) for x in (flag, f"csv_{k}.csv")]


def _operator(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def _density(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _random_operator(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _povm(values, elements) -> dict:
    return {"dim": elements[0].shape[0],
            "outcomes": [{"value": float(v), **_operator(e)} for v, e in zip(values, elements)]}


def _diagonal_canonical(spectrum: list[float], n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Values and elements of the canonical POVM of diag(spectrum) on n copies."""
    theta = np.zeros(1)
    for _ in range(n):
        theta = np.add.outer(theta, spectrum).ravel()
    theta /= n
    keys = np.round(theta, 12)
    _, first = np.unique(keys, return_index=True)
    return theta[first], [np.diag((keys == keys[i]).astype(complex)) for i in first]


def _random_povm(dim: int, n_out: int, seed: int) -> list[np.ndarray]:
    """n_out random PSD elements normalised to sum to the identity."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_out, dim, dim)) + 1j * rng.standard_normal((n_out, dim, dim))
    g = g @ g.conj().swapaxes(1, 2)
    w, v = np.linalg.eigh(g.sum(axis=0))
    root = (v / np.sqrt(w)) @ v.conj().T
    return [(root @ e @ root + (root @ e @ root).conj().T) / 2 for e in g]


def write_inputs(work: Path) -> None:
    files = {
        "plus.json": _operator(np.full((2, 2), 0.5, dtype=complex)),
        "rho2.json": _operator(_density(2, 3)),
        "rho3.json": _operator(_density(3, 4)),
        "z3.json": _povm(*_diagonal_canonical([1.0, -1.0], 3)),
        "s2.json": _povm(*_diagonal_canonical([1.0, 0.0, -1.0], 2)),
        "random.json": _povm([-1.0, 0.0, 1.0], _random_povm(4, 3, 6)),
        "incomplete.json": _povm([1.0, -1.0], [np.eye(2, dtype=complex)] * 2),
        "bad_value.json": {"dim": 2, "outcomes": [{"value": "x", "re": [[1, 0], [0, 1]]}]},
        "short_row.json": {"dim": 2, "outcomes": [{"value": 1.0, "re": [[1, 0], [0]]}]},
        "no_outcomes.json": {"dim": 2},
        "op4.json": _operator(_random_operator(4, 8)),
        "op9.json": _operator(_random_operator(9, 9)),
    }
    values, elements = _diagonal_canonical([1.0, -1.0], 3)
    files["biased.json"] = _povm(values + 0.2, elements)
    for name, data in files.items():
        (work / name).write_text(json.dumps(data), encoding="utf-8")
    (work / "huge_value.json").write_text(
        '{"dim": 1, "outcomes": [{"value": 1e400, "re": [[1]]}]}', encoding="utf-8")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(work: Path) -> list[dict]:
    """Hashes of every argv's stdout, stderr, exit code and files, run in-process in work."""
    from obsavg.cli import main

    write_inputs(work)
    cwd = os.getcwd()
    os.chdir(work)
    out = []
    try:
        for k, argv in enumerate(ARGV):
            argv = _with_files(k, argv)
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            files = {name: _sha((work / name).read_bytes()) if (work / name).exists()
                     else None for flag, name in zip(argv, argv[1:])
                     if flag in ("--out", "--csv")}
            out.append({"argv": argv, "exit": code,
                        "stdout": _sha(stdout.getvalue().encode()),
                        "stderr": _sha(stderr.getvalue().encode()), "files": files})
    finally:
        os.chdir(cwd)
    return out


def machine() -> str:
    return f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def differing(runs: list[dict], table: list[dict]) -> list[list[str]]:
    """The argv whose run differs from its table row, or has none."""
    rows = {tuple(row["argv"]): row for row in table}
    return [run["argv"] for run in runs if rows.get(tuple(run["argv"])) != run]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite the table from this run")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        runs = replay(Path(work))
    if args.write:
        TABLE.write_text(json.dumps({"numpy": np.__version__, "machine": machine(),
                                     "runs": runs}, indent=1) + "\n", encoding="utf-8")
        return
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    differ = differing(runs, table["runs"])
    print(json.dumps({"argv": len(ARGV), "identical": len(ARGV) - len(differ), "differ": differ,
                      "exit_codes": Counter(run["exit"] for run in runs),
                      "table": {"numpy": table["numpy"], "machine": table["machine"]},
                      "here": {"numpy": np.__version__, "machine": machine()}}))
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
