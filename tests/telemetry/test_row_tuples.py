"""The trace and log stores keep their rows as exact tuples, which the
cyclic GC untracks (a NamedTuple row stays tracked for as long as the store
keeps it)."""

import gc

from repro.problems import get_problem


def test_forked_rows_are_untracked(closing):
    origin = closing(
        get_problem("revoke_auth_hotel_res-localization-1").prepare(4))
    fork = closing(origin.snapshot().fork())
    gc.collect()
    traces, logs = fork.collector.traces, fork.collector.logs
    stored, records = traces._traces, logs._records
    assert stored and records
    for trace in stored:
        assert type(trace) is tuple and not gc.is_tracked(trace)
        assert type(trace[2]) is tuple and not gc.is_tracked(trace[2])
        for row in trace[2]:
            assert type(row) is tuple and not gc.is_tracked(row)
    for row in records:
        assert type(row) is tuple and not gc.is_tracked(row)

