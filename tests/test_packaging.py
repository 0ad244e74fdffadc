"""Stale-artifact hygiene: bytecode caches stay out of git and sdists.

A ``__pycache__`` directory that sneaks into version control (or a
distribution) ships stale bytecode that can shadow edited sources.
These guards fail fast in CI instead of letting a stray ``git add -A``
land one.
"""

from __future__ import annotations

import ast
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: every tree that accumulates bytecode caches; ``benchmarks/`` is not
#: a package, so a stale cache there survives `pytest --cache-clear`
#: and shadows renamed benchmark modules silently.
BYTECODE_TREES = ("src", "tests", "benchmarks")


def _git_files() -> list[str]:
    try:
        output = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=True,
            timeout=30,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git unavailable")
    return output.splitlines()


def test_no_bytecode_tracked_in_git():
    offenders = [
        path
        for path in _git_files()
        if "__pycache__" in path or path.endswith((".pyc", ".pyo"))
    ]
    assert offenders == [], f"bytecode artefacts tracked in git: {offenders}"


def test_gitignore_covers_bytecode():
    ignored = (REPO / ".gitignore").read_text()
    assert "__pycache__/" in ignored
    assert "*.py[cod]" in ignored


def test_pyproject_excludes_bytecode_from_distributions():
    pyproject = (REPO / "pyproject.toml").read_text()
    assert "[tool.setuptools.exclude-package-data]" in pyproject
    assert "__pycache__" in pyproject.split(
        "[tool.setuptools.exclude-package-data]"
    )[1]


def test_numpy_is_a_declared_dependency():
    """The engine's cold core and the impact kernel import numpy
    unconditionally: an install without it is not a supported one."""
    project = (REPO / "pyproject.toml").read_text().split("[project]\n")[1].split("\n[")[0]
    declared = [
        ast.literal_eval(line.split("=", 1)[1].strip())
        for line in project.splitlines()
        if line.startswith("dependencies =")
    ]
    assert declared == [["numpy"]]


def test_no_orphaned_bytecode_on_disk():
    """Every cached ``.pyc`` must still have its source ``.py``.

    An orphan means the source was renamed or deleted but its bytecode
    lingers — ``benchmarks/`` grew exactly such a stale cache once —
    and an orphaned module stays importable, masking the removal."""
    orphans = []
    for tree in BYTECODE_TREES:
        for cached in (REPO / tree).rglob("__pycache__/*.pyc"):
            source_name = cached.name.split(".", 1)[0] + ".py"
            if not (cached.parent.parent / source_name).exists():
                orphans.append(str(cached.relative_to(REPO)))
    assert orphans == [], f"orphaned bytecode (source gone): {orphans}"


def test_no_loose_bytecode_outside_pycache():
    """``.pyc``/``.pyo`` written next to sources (old ``-X pycache``
    layouts, manual ``py_compile`` runs) shadow edits even harder than
    cache directories do."""
    loose = [
        str(path.relative_to(REPO))
        for tree in BYTECODE_TREES
        for suffix in ("*.pyc", "*.pyo")
        for path in (REPO / tree).rglob(suffix)
        if path.parent.name != "__pycache__"
    ]
    assert loose == [], f"bytecode outside __pycache__: {loose}"


def _imported_modules(source: Path) -> set[str]:
    tree = ast.parse(source.read_text())
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    return names


def test_the_store_does_not_import_the_runner():
    """The dependency points one way: ``repro.runner`` opens stores,
    nothing under ``repro/store/`` knows there is a runner."""
    offenders = {
        str(source.relative_to(REPO)): sorted(
            name for name in _imported_modules(source) if name.startswith("repro.runner")
        )
        for source in (REPO / "src" / "repro" / "store").glob("*.py")
    }
    assert not any(offenders.values()), offenders


def test_the_scheduler_starts_no_threads():
    """``run_batch`` schedules a batch without threads of its own."""
    batch = REPO / "src" / "repro" / "runner" / "batch.py"
    assert "threading" not in _imported_modules(batch)


def test_every_export_resolves():
    """Each name a ``repro.*`` module lists in ``__all__`` is importable
    from it: a deleted function must leave every export list too."""
    import importlib
    import pkgutil

    import repro

    dangling = []
    modules = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    for name in ["repro", *modules]:
        module = importlib.import_module(name)
        dangling.extend(
            f"{name}.{export}"
            for export in getattr(module, "__all__", ())
            if not hasattr(module, export)
        )
    assert dangling == []


def test_every_dotted_path_readme_names_resolves():
    """Each dotted ``repro.…`` path in README.md imports: its longest
    importable prefix is a module and the rest are attributes of it."""
    import importlib
    import re

    named = sorted(
        set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", (REPO / "README.md").read_text()))
    )
    assert len(named) >= 25
    dangling = []
    for dotted in named:
        parts = dotted.split(".")
        for split in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:split]))
            except ModuleNotFoundError:
                continue
            try:
                for attribute in parts[split:]:
                    target = getattr(target, attribute)
            except AttributeError:
                dangling.append(dotted)
            break
        else:
            dangling.append(dotted)
    assert dangling == []


def _module_map() -> set[str]:
    """The modules DESIGN.md §3 names, as paths under ``src/repro``: a
    ``name/`` line is a package (its ``__init__.py``), each ``name.py``
    token a module; nesting is by indentation, and a line starting with
    neither is a wrapped description."""
    text = (REPO / "DESIGN.md").read_text()
    section = text[text.index("## 3. System inventory") : text.index("## 4. ")]
    block = section.split("```")[1].splitlines()
    assert block[1] == "src/repro/"
    named: set[str] = set()
    parents: list[tuple[int, str]] = []
    for line in block[2:]:
        tokens = line.split()
        if not tokens or not tokens[0].endswith(("/", ".py")):
            continue
        indent = len(line) - len(line.lstrip())
        while parents and parents[-1][0] >= indent:
            parents.pop()
        prefix = "".join(name for _, name in parents)
        if tokens[0].endswith("/"):
            parents.append((indent, tokens[0]))
            named.add(f"{prefix}{tokens[0]}__init__.py")
        else:
            named.update(f"{prefix}{token}" for token in tokens if token.endswith(".py"))
    return named


def test_design_module_map_is_the_tree():
    """DESIGN.md §3 names every module under ``src/repro`` and nothing
    that is not there."""
    root = REPO / "src" / "repro"
    tree = {path.relative_to(root).as_posix() for path in root.rglob("*.py")}
    named = _module_map()
    assert sorted(tree - named) == [], "modules the map does not name"
    assert sorted(named - tree) == [], "modules the map names that do not exist"
