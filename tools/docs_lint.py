"""Documentation lint: dead relative links and stale imports fail the build.

Three checks:

1. **Resolution** — every relative Markdown link target
   (``[text](path)``, optionally with a ``#fragment``) in any tracked
   Markdown file must exist on disk, and an explicit ``path#fragment``
   into a Markdown file must name a real heading anchor in that file.
2. **Reachability** — every file under ``docs/`` must be linked from
   ``docs/INDEX.md``, so the index stays the complete map of the
   documentation surface.
3. **Imports** — every ``import repro…`` / ``from repro… import …`` line
   in ``README.md`` and ``docs/*.md`` (code blocks included) must
   resolve (against the linted tree's ``src/`` when run as a script), so
   the docs never name a module or function that has been deleted or
   renamed.

External links (``http(s)://``, ``mailto:``) are out of scope — this
lint must pass offline. Bare-fragment links (``#section``) are checked
against the current file's own headings.

Usage (the CI ``docs-lint`` step)::

    python tools/docs_lint.py            # lint the repository
    python tools/docs_lint.py --root DIR # lint another tree
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
import sys
from pathlib import Path

#: ``[text](target)`` — target captured up to the closing paren;
#: images (``![alt](...)``) match too, which is intended.
_LINK = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
#: Fenced code blocks are stripped before link extraction — snippets
#: routinely contain ``dict[str](...)``-shaped text that is not a link.
_FENCE = re.compile(r"^(```|~~~)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
#: A documented import of this package, optionally behind a ``>>>``
#: prompt; a parenthesized name list runs on to its closing paren.
_IMPORT = re.compile(r"^\s*(?:>>>\s*)?((?:from|import)\s+repro\b.*)$")


def _anchor(heading: str) -> str:
    """GitHub's heading → anchor slug (the subset these docs use)."""
    text = heading.strip().lower()
    text = re.sub(r"[`*_]", "", text)
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _markdown_files(root: Path) -> list[Path]:
    skipped = {".git", "node_modules", "__pycache__", ".pytest_cache"}
    return sorted(
        path
        for path in root.rglob("*.md")
        if not (set(path.relative_to(root).parts[:-1]) & skipped)
    )


def _links_and_anchors(path: Path) -> tuple[list[str], set[str]]:
    links: list[str] = []
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        heading = _HEADING.match(line)
        if heading:
            # GitHub disambiguates repeated headings by suffixing -1,
            # -2, ... in document order; accept the same spellings.
            slug = _anchor(heading.group(1))
            seen = counts.get(slug, 0)
            anchors.add(slug if seen == 0 else f"{slug}-{seen}")
            counts[slug] = seen + 1
        links.extend(_LINK.findall(line))
    return links, anchors


def _import_lines(path: Path) -> list[tuple[int, str]]:
    statements: list[tuple[int, str]] = []
    pending: tuple[int, str] | None = None
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if pending is not None:
            pending = (pending[0], f"{pending[1]} {line.strip()}")
            if ")" in line:
                statements.append(pending)
                pending = None
            continue
        match = _IMPORT.match(line)
        if match is None:
            continue
        statement = match.group(1).strip()
        if "(" in statement and ")" not in statement:
            pending = (number, statement)
        else:
            statements.append((number, statement))
    return statements


def _unresolved(statement: str) -> str | None:
    """Why ``statement`` fails to import, or ``None`` when it resolves."""
    try:
        nodes = ast.parse(statement).body
    except SyntaxError:
        return "is not a Python import statement"
    for node in nodes:
        if isinstance(node, ast.Import):
            modules, names = [alias.name for alias in node.names], []
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules, names = [node.module], [alias.name for alias in node.names]
        else:
            return "is not a Python import statement"
        for module_name in modules:
            try:
                module = importlib.import_module(module_name)
            except ImportError as error:
                return f"cannot import {module_name} ({error})"
        for name in names:
            if name == "*" or hasattr(module, name):
                continue
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                return f"{module_name} has no name {name!r}"
    return None


def lint(root: Path) -> list[str]:
    files = _markdown_files(root)
    parsed = {path: _links_and_anchors(path) for path in files}
    problems: list[str] = []

    for path, (links, own_anchors) in parsed.items():
        rel = path.relative_to(root)
        for target in links:
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            if not base:
                if fragment and _anchor(fragment) not in own_anchors:
                    problems.append(f"{rel}: dead self-anchor '#{fragment}'")
                continue
            resolved = (path.parent / base).resolve()
            if not resolved.exists():
                problems.append(f"{rel}: dead link '{target}'")
                continue
            if fragment and resolved.suffix == ".md":
                target_anchors = parsed.get(resolved)
                if target_anchors is None:
                    target_anchors = _links_and_anchors(resolved)
                if _anchor(fragment) not in target_anchors[1]:
                    problems.append(
                        f"{rel}: link '{target}' names a missing anchor"
                    )

    index = root / "docs" / "INDEX.md"
    if index.exists():
        linked = {
            (index.parent / link.partition("#")[0]).resolve()
            for link, in ((t,) for t in parsed[index][0])
            if not link.startswith(("http://", "https://", "mailto:", "#"))
        }
        for path in files:
            if path.parent == root / "docs" and path != index:
                if path.resolve() not in linked:
                    problems.append(
                        f"docs/INDEX.md: does not link docs/{path.name}"
                    )
    else:
        problems.append("docs/INDEX.md: missing (the index is mandatory)")

    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        if not path.exists():
            continue
        rel = path.relative_to(root)
        for number, statement in _import_lines(path):
            reason = _unresolved(statement)
            if reason is not None:
                problems.append(f"{rel}:{number}: '{statement}' {reason}")

    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root to lint (default: this checkout)",
    )
    arguments = parser.parse_args(argv)
    root = arguments.root.resolve()
    sys.path.insert(0, str(root / "src"))
    problems = lint(root)
    for problem in problems:
        print(f"docs-lint: {problem}", file=sys.stderr)
    checked = len(_markdown_files(root))
    if problems:
        print(
            f"docs-lint: {len(problems)} problem(s) in {checked} files",
            file=sys.stderr,
        )
        return 1
    print(f"docs-lint: {checked} Markdown files ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
