"""Every name a package module imports is used in that module, every
function, class, method and module-level name the package defines is
referenced from src, tests or perfbench, only nn_core names the tape's
Tensor, only report imports scipy and harness nothing of nn_core, and
search and replay start on numpy alone."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "evocell"


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # re-exports, and names in quoted annotations
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        (1, "os"),
        (2, "tau"),
    ]


ROOT = PACKAGE.parents[1]


def _definitions(tree):
    """(qualified name, first line, last line) of each module-level function,
    class and assigned name, and of each method; dunder methods run
    implicitly and are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for target in targets for n in ast.walk(target)):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                    yield name.id, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of each Name, Attribute, import alias and str constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _dead_definitions(modules, others):
    """The definitions in modules (name -> source) that no source of modules
    or others refers to outside the definition itself."""
    trees = {name: ast.parse(text) for name, text in {**others, **modules}.items()}
    refs = {}
    for source, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((source, line))
    dead = []
    for module in modules:
        for qualname, first, last in _definitions(trees[module]):
            name = qualname.rsplit(".", 1)[-1]
            if all(
                source == module and first <= line <= last
                for source, line in refs.get(name, ())
            ):
                dead.append(f"{module}.{qualname}")
    return sorted(dead)


def test_every_definition_is_referenced():
    modules = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    others = {
        str(path.relative_to(ROOT)): path.read_text()
        for directory in ("tests", "perfbench")
        for path in (ROOT / directory).rglob("*.py")
    }
    assert _dead_definitions(modules, others) == []


def test_scan_finds_a_dead_definition():
    module = (
        "class A:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        pass\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "def bound_by_string():\n"
        "    pass\n"
        "def unused():\n"
        "    pass\n"
        "USED, DEAD = 1, 2\n"
        "ANNOTATED: int = USED\n"
        "UNUSED_TOO: int = 3\n"
        "A.attribute = [0]\n"
        "A.attribute[0] = ANNOTATED\n"
        "TABLE = {key: 0 for key in 'ab'}\n"
        "print(TABLE)\n"
    )
    user = "from m import A\nA()\ngetattr(A, 'bound_by_string')\n"
    assert _dead_definitions({"m": module}, {"user": user}) == [
        "m.A.recursive",
        "m.DEAD",
        "m.UNUSED_TOO",
        "m.unused",
    ]


def test_only_nn_core_names_the_tape_tensor():
    # a policy's parameters are ndarray views read by layout name; Tensor is
    # the tape the tests build reference gradients on
    naming = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "Tensor" in {name for name, _ in _references(ast.parse(path.read_text()))}
    ]
    assert naming == ["nn_core.py"]


def _imported(tree):
    """Each module an import statement names, and each name it imports
    from one, as dotted paths without the leading dots of a relative
    import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}".lstrip(".") for alias in node.names)


def test_report_alone_imports_scipy_and_harness_no_nn_core():
    imports = {
        path.name: set(_imported(ast.parse(path.read_text())))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    scipy_users = [
        name
        for name, modules in imports.items()
        if any(m.split(".")[0] == "scipy" for m in modules)
    ]
    assert scipy_users == ["report.py"]
    assert not [m for m in imports["harness.py"] if "nn_core" in m.split(".")]


def test_no_module_imports_report_when_it_loads():
    # the CLI imports report only to run compare, so its other commands start
    # without scipy
    loading = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "report" in {m.rsplit(".", 1)[-1] for m in _imported(node)}
    ]
    assert loading == []


SEARCH_AND_REPLAY = textwrap.dedent(
    """
    import os, sys
    import evocell
    from evocell.arch_space import SpaceConfig
    from evocell.harness import (
        StrategyConfig, make_oracle, replay, run_strategy, write_jsonl,
    )

    out = sys.argv[1]
    for strategy in ("reinforced", "ea_random", "rl_construct"):
        cfg = StrategyConfig(
            strategy=strategy, space=SpaceConfig(num_blocks=2, num_ops=3),
            oracle_kind="tabular", oracle_seed=7, pop_size=8, sample_size=3,
            budget=30, embed_size=8, hidden_size=8,
        )
        _, log = run_strategy(cfg, seed=0, oracle=make_oracle(cfg))
        path = os.path.join(out, strategy + ".jsonl")
        write_jsonl(path, log)
        replayed = replay(path)
        for key in ("best_cell", "best_true"):
            assert replayed[key] == log[-1][key], (strategy, key)
    print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """
)


def test_search_and_replay_load_no_scipy(tmp_path):
    # A fresh interpreter: other test modules load scipy into this one.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", SEARCH_AND_REPLAY, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
