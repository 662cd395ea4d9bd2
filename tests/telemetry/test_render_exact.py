"""``traces.json`` and ``all.jsonl`` are rendered by templates, not by the
``json`` encoder; this file is their reference.

It keeps the dict shape each file stands for and checks that
:func:`render_traces` writes exactly ``json.dumps(..., indent=1)`` of it and
:func:`render_jsonl` exactly one plain ``json.dumps`` per record — over text
with quotes, backslashes, control characters, non-ASCII characters and lone
surrogates, over every kind of number ``json`` spells its own way, and over
a real store's window.  A format change edits the renderer, this oracle and
``golden_export.json`` together.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.problems import get_problem
from repro.telemetry.logs import LogRecord, render_jsonl
from repro.telemetry.traces import Span, Trace, render_traces


def trace_dict(trace: Trace) -> dict:
    """One trace's entry in ``traces.json``."""
    first = trace.number + 1
    ids = [f"span-{first + i:08x}" for i in range(len(trace.spans))]
    trace_id, start = trace.trace_id, trace.start
    return {"traceID": trace_id, "spans": [{
        "spanID": ids[i],
        "traceID": trace_id,
        "parentSpanID": ids[parent] if parent >= 0 else None,
        "serviceName": service,
        "operationName": operation,
        "startTime": start,
        "durationMs": duration_ms,
        "status": status,
        "error": error_message,
    } for i, (parent, service, operation, duration_ms, status,
              error_message) in enumerate(trace.spans)]}


def oracle_traces(traces) -> str:
    return json.dumps({"data": [trace_dict(t) for t in traces]}, indent=1)


def oracle_jsonl(records) -> str:
    return "".join(json.dumps({
        "time": r.time, "namespace": r.namespace, "service": r.service,
        "pod": r.pod, "level": r.level, "message": r.message,
    }) + "\n" for r in records)


#: quotes, backslashes, control characters, non-ASCII (BMP, astral, U+2028)
#: and lone surrogates, plus whatever hypothesis draws
TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f \xe9\u20ac'
                               '\u2028\U0001f600\U000103ff\ud800\udfff')
               | st.characters()
               | st.characters(categories=["Cs"]), max_size=12)
NUMBER = (st.sampled_from([-0.0, 0.0, 1e-7, 1e16, 1e22, 0.1 + 0.2,
                           float("nan"), float("inf"), float("-inf"),
                           np.float64(1.5), np.float64(0.1 + 0.2), 0, -3,
                           2 ** 70])
          | st.floats() | st.floats().map(np.float64) | st.integers())


@st.composite
def traces(draw):
    out, number = [], draw(st.integers(0, 2 ** 36))
    for _ in range(draw(st.integers(0, 4))):
        spans = [Span(draw(st.integers(0, i - 1)) if i else -1,
                      draw(TEXT), draw(TEXT), draw(NUMBER), draw(TEXT),
                      draw(TEXT))
                 for i in range(draw(st.integers(1, 5)))]
        out.append(Trace(number, draw(NUMBER), spans))
        number += 1 + len(spans)
    return out


RECORDS = st.lists(st.builds(LogRecord, NUMBER, TEXT, TEXT, TEXT, TEXT,
                             TEXT), max_size=6)


@given(traces())
@settings(max_examples=100)
def test_traces_render_as_json_dumps(trs):
    assert render_traces(trs) == oracle_traces(trs)


@given(RECORDS)
@settings(max_examples=100)
def test_records_render_as_json_dumps(records):
    assert render_jsonl(records) == oracle_jsonl(records)


def test_empty_window():
    assert render_traces([]) == '{\n "data": []\n}' == oracle_traces([])
    assert render_jsonl([]) == ""


def test_real_store_renders_as_json_dumps():
    env = get_problem("revoke_auth_hotel_res-localization-1").prepare(4)
    env.advance(120.0)
    trs = env.collector.traces.query()
    records = env.collector.logs.query()
    env.close()
    assert trs and records
    assert render_traces(trs) == oracle_traces(trs)
    assert render_jsonl(records) == oracle_jsonl(records)
