"""The two bench scripts, run as tier-1 tests.

scripts/byte_check.py replays a fixed list of CLI argv in-process and hashes
stdout, stderr, the exit code and every written file; tests/byte_table.json
holds the hashes. A change that moves bytes rewrites the table with
`python3 scripts/byte_check.py --write` and names every moved argv.

scripts/ladder.py reads its layer times from obsbench/tracer.py, so a
renamed tracer target or a changed Tracer API fails here instead of
silently dropping a layer from the ladder.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from obsavg.cli import main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_bytes_match_the_committed_table(tmp_path, monkeypatch):
    monkeypatch.delenv("OBSAVG_DIM_CAP", raising=False)
    check = _load("byte_check")
    table = json.loads(check.TABLE.read_text(encoding="utf-8"))
    runs = check.replay(tmp_path)
    assert len(runs) == len(table["runs"])
    differ = check.differing(runs, table["runs"])
    assert differ == [], (f"{len(differ)} argv differ from the table written with "
                          f"numpy {table['numpy']} on {table['machine']}: {differ}")


def test_ladder_record_runs_each_kind_abba_and_the_next_baab():
    order = _load("ladder").ladder_order(["twirl", "adversary", "simulate"])
    assert order == [("twirl", "parent"), ("twirl", "change"), ("twirl", "change"),
                     ("twirl", "parent"), ("adversary", "change"), ("adversary", "parent"),
                     ("adversary", "parent"), ("adversary", "change"), ("simulate", "parent"),
                     ("simulate", "change"), ("simulate", "change"), ("simulate", "parent")]


@pytest.mark.parametrize("job, layers", [
    ("twirl", ["jsonio.load_s", "symspace.twirl_s", "jsonio.dump_s"]),
    ("adversary", ["adversary.project_s", "adversary.compare_s", "povm.validate_s"]),
    ("simulate", ["estimators.repeated_distribution_s", "jsonio.dump_s",
                  "estimators.repeated_outcomes"]),
])
def test_ladder_rows_carry_their_layers(tmp_path, job, layers):
    ladder = _load("ladder")
    # the first instance of each kind is its smallest: twirl d=2 n=5, pauli-x n=4 and n=20
    fields, runs = next(ladder.JOBS[job](tmp_path, 1, [1]))
    row = ladder.measure(main, fields, runs)
    assert row["wall_s"] > 0 and row["peak_mb"] > 0
    assert all(row.get(name, 0) > 0 for name in layers), row
    if job == "adversary":
        assert row["iterations"][0] >= 1 and row["gaps"][0] is not None
    elif job == "twirl":
        assert row["bytes_out"] > 0
