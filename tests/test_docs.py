"""Generated docs must match the registries they document.

`scripts/gen_docs.py` renders `docs/api/actions.md` from the `@action`
registry, `docs/api/shell.md` from the `exec_shell` grammar tables,
`docs/scenarios.md` from the scenario pool and `docs/claims.md` from the
`CLAIMS` table; all four are committed.  This
test (and the CI `docs-check` step, which runs `gen_docs.py --check`) fails
when any of them is stale.
"""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _gen_docs():
    spec = importlib.util.spec_from_file_location(
        "gen_docs", REPO / "scripts" / "gen_docs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["gen_docs"] = module
    spec.loader.exec_module(module)
    return module


class TestGeneratedDocs:
    def test_actions_reference_is_current(self):
        gen = _gen_docs()
        path = REPO / "docs" / "api" / "actions.md"
        assert path.exists(), "run: PYTHONPATH=src python scripts/gen_docs.py"
        assert path.read_text() == gen.render_actions_md(), \
            "docs/api/actions.md is stale — regenerate with scripts/gen_docs.py"

    def test_shell_reference_is_current(self):
        gen = _gen_docs()
        path = REPO / "docs" / "api" / "shell.md"
        assert path.exists(), "run: PYTHONPATH=src python scripts/gen_docs.py"
        assert path.read_text() == gen.render_shell_md(), \
            "docs/api/shell.md is stale — regenerate with scripts/gen_docs.py"

    def test_shell_reference_covers_the_tables(self):
        from repro.core import shell
        from repro.kubesim.kubectl import KIND_BY_SPELLING, VERBS
        text = (REPO / "docs" / "api" / "shell.md").read_text()
        for verb in [*VERBS, *shell.HELM_VERBS, *shell.FILE_TOOLS]:
            assert f" {verb}" in text or f"`{verb}`" in text
        for spelling in KIND_BY_SPELLING:
            assert spelling in text
        for verbs in (VERBS, shell.HELM_VERBS):
            for spec in (v.flags for v in verbs.values()):
                assert all(name in text for name in spec)

    def test_scenario_catalog_is_current(self):
        gen = _gen_docs()
        path = REPO / "docs" / "scenarios.md"
        assert path.exists(), "run: PYTHONPATH=src python scripts/gen_docs.py"
        assert path.read_text() == gen.render_scenarios_md(), \
            "docs/scenarios.md is stale — regenerate with scripts/gen_docs.py"

    def test_claims_table_is_current(self):
        gen = _gen_docs()
        path = REPO / "docs" / "claims.md"
        assert path.exists(), "run: PYTHONPATH=src python scripts/gen_docs.py"
        assert path.read_text() == gen.render_claims_md(), \
            "docs/claims.md is stale — regenerate with scripts/gen_docs.py"

    def test_catalog_lists_every_scenario(self):
        from repro.problems import scenario_pids
        text = (REPO / "docs" / "scenarios.md").read_text()
        for pid in scenario_pids():
            assert f"`{pid}`" in text

    def test_readme_python_blocks_run(self):
        """Every ```python block in the README must execute end-to-end —
        the quickstart and multi-app examples are living documentation,
        not prose."""
        import re
        text = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) >= 3, "README lost its examples"
        for i, block in enumerate(blocks):
            exec(compile(block, f"<README block {i}>", "exec"), {})

    def test_actions_reference_covers_every_task_surface(self):
        from repro.core.aci import registry_for
        text = (REPO / "docs" / "api" / "actions.md").read_text()
        for task in ("detection", "localization", "analysis", "mitigation"):
            assert f"## {task} surface" in text
            for name in registry_for(task).names():
                assert f"`{name}`" in text


class TestProseIsTrue:
    def test_docs_name_only_paths_that_exist(self):
        """README, DESIGN.md and docs/design/* may only mention repo
        paths (scripts, tests, benchmark files, …) that are in the tree."""
        import re
        pattern = re.compile(
            r"(?:scripts|tests|benchmarks|examples|bench_e2e|docs)/[\w./*-]+"
            r"|\bBENCH\w*\.json")
        pages = [REPO / "README.md", REPO / "DESIGN.md",
                 *sorted((REPO / "docs" / "design").glob("*.md"))]
        missing = [
            f"{page.name}: {mention}"
            for page in pages
            for mention in pattern.findall(page.read_text())
            if not list(REPO.glob(mention.rstrip(".")))
        ]
        assert missing == []

    def test_no_test_needs_the_benchmark_plugin(self):
        """README's install line is all the tier-1 suite needs: nothing
        outside bench_e2e/ requests a ``benchmark`` fixture."""
        import ast
        offenders = [
            f"{path.relative_to(REPO)}::{node.name}"
            for folder in ("tests", "benchmarks")
            for path in sorted((REPO / folder).rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "benchmark" in [a.arg for a in node.args.args]
        ]
        assert offenders == []
