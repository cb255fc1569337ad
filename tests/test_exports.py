import argparse
import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import fracsym
from fracsym.cli import _parser
from fracsym.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["fracsym"] + sorted(f"fracsym.{m.name}" for m in pkgutil.iter_modules(fracsym.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    exec(f"from {name} import *", {})


@pytest.mark.parametrize("name", MODULES[1:])
def test_no_unused_imports(name):
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


@pytest.mark.parametrize("name", [m for m in MODULES if m not in ("fracsym.cli", "fracsym.config")])
def test_library_writes_no_files(name):
    # the library returns data: the CLI writes every file, and config reads its own
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "open"] == []


def test_readme_documents_every_config_key():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| key | default | meaning |")[1].split("\n\n")[0]
    documented = {
        key
        for row in table.splitlines()
        if row.startswith("| `")
        for key in re.findall(r"`([^`]+)`", row.split("|")[1])
    }
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert sorted(keys - documented) == []
    assert sorted(documented - keys) == []


def test_no_flag_repeats_a_config_key():
    # a config command takes each value as key=value only, never also as a flag
    subparsers = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for name, parser in subparsers.choices.items():
        if name != "selftest":  # selftest has no config
            assert sorted({action.dest for action in parser._actions} & keys) == [], name


def test_tracer_targets_resolve():
    # the benchmark's tracer wraps these names; deleting one breaks --trace 1
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr, _ in tracing.TARGETS:
        owner = getattr(fracsym, module, None)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == []
