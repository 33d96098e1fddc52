"""The package root: its exported names, the README Quick start, and the
promise that the classifier runs on the standard library alone."""
from __future__ import annotations

import ast
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import dpweights

ROOT = Path(__file__).resolve().parents[1]

DOCUMENTED = [
    "Classification",
    "ConditionReport",
    "Quintuple",
    "Series",
    "brute_force",
    "classify_index",
    "cond_iv",
    "contains",
    "detect_class",
    "detect_types",
    "enumerate_class",
    "expand",
    "expand_classification",
    "is_solid",
    "make_series",
    "obstruction_report",
    "quasismooth_divisibility",
    "quasismooth_monomial",
    "well_formed",
]


def quick_start() -> str:
    """The Python block of the README's Quick start section."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_root_exports_the_documented_names():
    assert sorted(dpweights.__all__) == DOCUMENTED
    for name in DOCUMENTED:
        assert getattr(dpweights, name) is not None, name


def test_readme_quick_start_holds_as_written():
    # every expression line whose comment is a Python literal must evaluate to it
    ns: dict = {}
    claims = 0
    for line in quick_start().splitlines():
        code, _, comment = line.partition("#")
        try:
            expected = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            exec(code, ns)
            continue
        assert eval(code, ns) == expected, line
        claims += 1
    assert claims == 2
    assert (len(ns["c"].two_param), len(ns["c"].one_param), len(ns["c"].sporadic)) == (1, 3, 13)
    assert ns["report"].accepted is True


def test_cli_runs_without_site_packages():
    # -I -S: no site-packages and no PYTHONPATH, so only the stdlib and src
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from dpweights.cli import main; "
        "sys.exit(main(['classify', '--index', '3', '--format', 'json']))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(ROOT / "src")],
        capture_output=True, check=True,
    )
    golden = json.loads((ROOT / "tests" / "golden_classify_sha256.json").read_text())
    assert hashlib.sha256(done.stdout).hexdigest() == golden["3"]


def test_src_imports_are_used():
    # every name a module imports is read there; the package root's
    # re-exports and the __future__ switch are exempt
    for path in sorted((ROOT / "src" / "dpweights").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert imported <= read, (path.name, sorted(imported - read))
