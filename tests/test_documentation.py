"""Documentation quality gates: every public surface is documented."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda p: str(p.relative_to(SRC))
)
def test_module_has_docstring(module):
    tree = ast.parse(module.read_text())
    if module.name == "__init__.py" and not tree.body:
        return  # intentionally empty package marker
    assert ast.get_docstring(tree), f"{module} lacks a module docstring"


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda p: str(p.relative_to(SRC))
)
def test_public_classes_documented(module):
    tree = ast.parse(module.read_text())
    undocumented = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and not node.name.startswith("_")
        and not ast.get_docstring(node)
    ]
    assert not undocumented, f"{module}: classes missing docstrings: {undocumented}"


@pytest.mark.parametrize(
    "module", MODULES, ids=lambda p: str(p.relative_to(SRC))
)
def test_public_module_functions_documented(module):
    tree = ast.parse(module.read_text())
    undocumented = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and not ast.get_docstring(node)
    ]
    assert not undocumented, (
        f"{module}: functions missing docstrings: {undocumented}"
    )


def test_required_documents_exist():
    root = SRC.parent.parent
    for name in ("README.md", "DESIGN.md"):
        path = root / name
        assert path.exists() and path.stat().st_size > 1000, name


def test_design_links_every_bench():
    """DESIGN.md's experiment index must reference existing bench files."""
    root = SRC.parent.parent
    design = (root / "DESIGN.md").read_text()
    bench_dir = root / "benchmarks"
    import re

    referenced = set(re.findall(r"benchmarks/(test_\w+\.py)", design))
    assert referenced, "DESIGN.md lists no bench targets"
    for name in referenced:
        assert (bench_dir / name).exists(), f"DESIGN.md references missing {name}"


ROOT = SRC.parent.parent


@pytest.mark.parametrize("source", [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
    "src",
])
def test_named_bench_scripts_exist(source):
    """Every ``benchmarks/*.py`` path a document or module names exists."""
    import re

    path = ROOT / source
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    named = {
        name
        for file in files
        for name in re.findall(r"benchmarks/(\w+\.py)", file.read_text())
    }
    missing = sorted(
        name for name in named if not (ROOT / "benchmarks" / name).exists()
    )
    assert not missing, f"{source} names missing {missing}"


@pytest.mark.parametrize("source", [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
    "src",
])
def test_named_cli_lines_parse(source):
    """Every ``python -m repro CMD --flag ...`` a document or module
    names is a subcommand with those options (``#`` comments
    stripped; flags belong to the nearest command before them)."""
    import argparse
    import re

    from repro.cli import build_parser

    commands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    path = ROOT / source
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    mismatches = []
    for file in files:
        for line in file.read_text().splitlines():
            line = line.split("#")[0]
            for call in re.split(r"python -m repro(?= )", line)[1:]:
                match = re.match(r" (\w+)", call)
                if match is None:
                    continue
                name = match.group(1)
                if name not in commands:
                    mismatches.append(f"{file.name}: {name}")
                    continue
                options = commands[name]._option_string_actions
                mismatches += [
                    f"{file.name}: {name} {flag}"
                    for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", call)
                    if flag not in options
                ]
    assert not mismatches, f"{source} names unknown CLI forms {mismatches}"
