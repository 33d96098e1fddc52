"""The package root: its exported names, the README Quick start, and the
promise that the classifier runs on the standard library alone."""
from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import dpweights
from dpweights.cli import main

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


def quick_start(language: str = "python") -> str:
    """The first block in ``language`` of the README's Quick start section."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


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


def test_readme_cli_block_runs():
    # every command line of the Quick start shell block exits 0
    lines = [line for line in quick_start("sh").splitlines() if line.startswith("dpweights ")]
    assert len(lines) == 9
    for line in lines:
        with redirect_stdout(io.StringIO()) as out:
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
        assert out.getvalue(), line


def test_cli_runs_without_site_packages():
    # -I -S: no site-packages and no PYTHONPATH, so only the stdlib and src;
    # the script also names, on stderr, the heavy modules the import loaded:
    # none, since the records are namedtuples and nothing needs typing
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); from dpweights.cli import main; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)), file=sys.stderr); "
        "sys.exit(main(['classify', '--index', '3', '--format', 'json']))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, str(ROOT / "src")],
        capture_output=True, check=True,
    )
    golden = json.loads((ROOT / "tests" / "golden_classify_sha256.json").read_text())
    assert hashlib.sha256(done.stdout).hexdigest() == golden["3"]
    assert done.stderr.decode().split() == []


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


def test_src_private_names_are_read():
    # every module-level private function, class or assignment is read
    # somewhere in the package, so no helper outlives its last caller
    trees = {path.name: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "dpweights").glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    for name, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        private = {n for n in defined if n.startswith("_") and not n.startswith("__")}
        assert private <= read, (name, sorted(private - read))


def test_oracle_shares_no_classifier_helper():
    # the oracle is ground truth only while it borrows nothing from the
    # classifier: math, the monomial form and the Quintuple record alone
    tree = ast.parse((ROOT / "src" / "dpweights" / "oracle.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {("." * node.level + node.module, alias.name) for alias in node.names}
    assert {name for name in imported if name[0] != "math"} == {
        (".conditions", "quasismooth_monomial"),
        (".core", "Quintuple"),
    }


def test_src_imports_at_module_level_only():
    # no function imports a module lazily, and core.py, which the other
    # modules build on, imports nothing from the package
    for path in sorted((ROOT / "src" / "dpweights").glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lazy = [n.lineno for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not lazy, (path.name, fn.name, lazy)
    tree = ast.parse((ROOT / "src" / "dpweights" / "core.py").read_text())
    package = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("dpweights"))
        or isinstance(node, ast.Import) and any(alias.name.startswith("dpweights") for alias in node.names)
    ]
    assert not package, package
