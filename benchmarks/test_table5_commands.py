"""Table 5: occurrences of system commands in ReAct/FLASH trajectories.

Shape target: shell usage beyond kubectl is sparse and concentrated in a
handful of commands (the paper counts ls/cat/grep/mongo/echo/awk)."""

from repro.bench import render_table, table5_commands


def test_table5_commands(suite_results):
    headers, rows = table5_commands(suite_results)
    print()
    print(render_table(headers, rows, "Table 5 — system command occurrences"))

    by_agent = {row[0]: dict(zip(headers[1:], row[1:])) for row in rows}
    # mitigation sessions drive mongo shell usage through kubectl exec
    assert by_agent["FLASH"]["mongo"] + by_agent["REACT"]["mongo"] > 0
    # no agent reaches for find/awk/ip in this environment (sparse row,
    # matching the paper's near-empty columns)
    for agent in by_agent.values():
        assert agent["find"] == 0 and agent["ip"] == 0
