"""Span bookkeeping of the traced run.

    python3 -m pytest obsbench/test_tracer.py
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    t = tracing.Tracer()
    t.spans.extend([["job:x", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
                    ["b", 2.0, 3.0, 1], ["c", 5.0, 9.0, 0]])
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]


def test_wrappers_nest_under_the_job_span_and_archive_per_round():
    t = tracing.Tracer()
    inner = t._wrap("inner", lambda x: x + 1)
    outer = t._wrap("outer", lambda x: inner(x) * 2)
    t.begin_job("first")
    assert outer(1) == 4
    job = t.end_job()
    assert [(s[0], s[3]) for s in t.spans] == [("job:first", -1), ("outer", 0), ("inner", 1)]
    layers = t.finish_round([job])
    assert layers["trace.calls"] == 2 and layers["cli.self_ms"] >= 0.0
    t.begin_job("second")
    inner(0)
    t.end_job()
    t.finish_round([])
    assert [s[3] for s in t.all_spans] == [-1, 0, 1, -1, 3]
