"""The documentation lint's import check (``tools/docs_lint.py``)."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "docs_lint", Path(__file__).resolve().parent.parent / "tools" / "docs_lint.py"
)
docs_lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(docs_lint)


def _tree(tmp_path, readme):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "INDEX.md").write_text("# Index\n")
    (tmp_path / "README.md").write_text(readme)
    return tmp_path


def test_resolving_imports_pass(tmp_path):
    root = _tree(tmp_path, (
        "```python\n"
        "import repro\n"
        "from repro.verification.server import DaemonThread, serve\n"
        "from repro.core import (\n"
        "    Program,\n"
        "    Variable,\n"
        ")\n"
        "```\n"
    ))
    assert docs_lint.lint(root) == []


def test_deleted_module_and_name_are_reported(tmp_path):
    root = _tree(tmp_path, (
        "from repro.no_such_module import thing\n"
        "from repro.quantitative import (\n"
        "    hitting_times,\n"
        "    no_such_name,\n"
        ")\n"
    ))
    problems = docs_lint.lint(root)
    assert len(problems) == 2
    assert problems[0].startswith("README.md:1:")
    assert "no_such_module" in problems[0]
    assert problems[1].startswith("README.md:2:")
    assert "no_such_name" in problems[1]
