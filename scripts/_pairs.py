"""Parent/change run pairs of obsbench, shared by the bench scripts' `--parent DIR` records.

Each side is a checkout: "parent" the one given as DIR, "change" this one.
"""
from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = [sys.executable, "obsbench/run.py"]


def sides(parent: Path) -> dict[str, Path]:
    return {"parent": parent.resolve(), "change": ROOT}


def machine() -> str:
    return (f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
            f"numpy {np.__version__}")


def run_json(cmd: list[str], cwd: Path) -> dict:
    """The last stdout line of cmd, run in cwd, as JSON."""
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def per_tree(script: str, trees: dict[str, Path]) -> dict[str, list[dict]]:
    """The JSON lines `script --tree TREE` prints, for each side's tree."""
    return {side: [json.loads(line) for line in subprocess.run(
        [sys.executable, script, "--tree", str(tree)], capture_output=True, text=True,
        check=True).stdout.splitlines()] for side, tree in trees.items()}


def pairs(trees: dict[str, Path], jobs: list[tuple[str, int]]) -> list[dict]:
    """One obsbench run per side for each (workload, seed), alternating which side runs first."""
    out = []
    for k, (workload, seed) in enumerate(jobs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_json(BENCH + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", "30", "--trace", "0"], trees[side])
            out.append({"workload": workload, "seed": seed, "side": side, "result": result})
    return out


def traced(trees: dict[str, Path], workload: str, names: list[str]) -> dict[str, dict]:
    """The named layer metrics of one traced run per side (--seed 1 --seconds 1)."""
    runs = {side: run_json(BENCH + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                    "--trace", "1"], tree) for side, tree in trees.items()}
    return {name: {side: runs[side]["metrics"][name]["value"] for side in trees}
            | {"unit": runs["change"]["metrics"][name]["unit"]} for name in names}
